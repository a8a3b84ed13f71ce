import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinlab import serialize
from kreinlab.serialize import (
    _BULK_MIN,
    _K_MAX,
    _K_MIN,
    dumps_report,
    matrix_from_obj,
    matrix_to_obj,
    problem_from_obj,
)
from kreinlab.verify import _float_edge_values
from oracles import reference_dumps_report

# Floats whose text is easy to get wrong: signed zero, integral values (".0"
# suffix, and 1e16 still printed without an exponent), the smallest
# subnormal and values with large exponents.
EDGE_FLOATS = (0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 1e16, 1e17, 5e-324, 1e300,
               -1e300, 0.1, 1.0 / 3.0)


def test_matrix_roundtrip_is_exact(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = 1e-17 + 0.1j
    back = matrix_from_obj(matrix_to_obj(m))
    assert np.array_equal(back, m)      # bit-exact, not approximate


def test_matrix_roundtrip_survives_json_text(rng):
    m = rng.standard_normal((2, 2)) / 3.0
    text = dumps_report({"m": matrix_to_obj(m)})
    back = matrix_from_obj(json.loads(text)["m"])
    assert np.array_equal(back, m)


def test_vector_promotes_to_column():
    obj = matrix_to_obj(np.array([1.0, 2.0]))
    assert (obj["rows"], obj["cols"]) == (2, 1)


def test_matrix_from_obj_validation():
    with pytest.raises(ValueError):
        matrix_from_obj([1, 2, 3])
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 2, "cols": 2})


@pytest.mark.parametrize("value", (5, "ab", [[1.0]], [1.0, [2.0]], [{"x": 1.0}],
                                   {"0": 1.0}, None, ["1.0"], [True]),
                         ids=("number", "string", "nested", "ragged",
                              "list-of-objects", "object", "null",
                              "list-of-strings", "list-of-booleans"))
def test_matrix_from_obj_requires_flat_lists(value):
    good = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
    for field in ("re", "im"):
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_obj({**good, field: value})


def test_problem_from_obj_missing_key():
    with pytest.raises(ValueError, match="missing key"):
        problem_from_obj({"J": matrix_to_obj(np.eye(2))})


def test_report_is_deterministic_and_sorted():
    a = dumps_report({"b": 1.0 / 3.0, "a": [1, 2], "c": {"y": True, "x": None}})
    b = dumps_report({"c": {"x": None, "y": True}, "a": [1, 2], "b": 1.0 / 3.0})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_report_float_formatting():
    text = dumps_report({"v": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    # integral floats keep a trailing .0 so types survive a roundtrip
    assert json.loads(dumps_report({"v": 2.0}))["v"] == 2.0
    assert "2.0" in dumps_report({"v": 2.0})


def test_report_numpy_scalars():
    text = dumps_report({"flag": np.bool_(True), "n": np.int64(3),
                         "x": np.float64(0.5)})
    parsed = json.loads(text)
    assert parsed == {"flag": True, "n": 3, "x": 0.5}


def test_report_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_report({"v": float("nan")})
    with pytest.raises(ValueError):
        dumps_report({"v": float("inf")})


def test_scalar_route_matches_the_sequence_route():
    # scalars and CSV cells skip the array round trip of _fmt_floats
    for x in (*EDGE_FLOATS, np.float64(-2.5e-7), np.float32(0.1), 7):
        assert serialize._fmt_float(x) == serialize._fmt_floats([float(x)])
    for bad in (float("nan"), float("inf"), np.float64("-inf")):
        with pytest.raises(ValueError, match="^non-finite float in report$"):
            serialize._fmt_float(bad)


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), finite,
    st.text(max_size=6),
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    finite.map(np.float64),
)


def random_finite_patterns(seed: int, size: int) -> np.ndarray:
    """Finite doubles from uniformly random 64-bit patterns: every exponent
    and sign, subnormals included."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=size, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def bulk_sized(values: list) -> list:
    """A list of at least _BULK_MIN floats that repeats the drawn ones."""
    return (values * (_BULK_MIN // len(values) + 1))[:_BULK_MIN + len(values)]


# Float sequences: lists, tuples and short arrays take the per-value route,
# bulk-sized 1-d float arrays the vectorized one.
long_floats = st.one_of(
    st.lists(finite, min_size=1, max_size=12).map(bulk_sized),
    st.integers(0, 2 ** 32 - 1).map(lambda seed: random_finite_patterns(
        seed, _BULK_MIN + seed % 97).tolist()),
)
float_arrays = st.one_of(
    st.lists(finite, max_size=12),
    st.lists(finite, max_size=12).map(tuple),
    st.lists(finite, max_size=12).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.tuples(finite, finite), max_size=4).map(
        lambda v: np.array(v, dtype=float).reshape(-1, 2)),
    st.lists(st.one_of(finite, st.integers(-9, 9)), max_size=12),
    long_floats,
    long_floats.map(tuple),
    long_floats.map(lambda v: np.array(v, dtype=float)),
    long_floats.map(lambda v: np.array(v, dtype=float)[:len(v) // 2 * 2].reshape(-1, 2)),
)
reports = st.recursive(
    st.one_of(scalars, float_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reports)
def test_report_matches_reference_encoder(obj):
    assert dumps_report(obj) == reference_dumps_report(obj)


def test_report_edge_values_match_reference_encoder():
    obj = {"floats": list(EDGE_FLOATS), "mixed": [1, 2.0, -0.0, 3, 1e16],
           "empty": [], "empty_tuple": (), "array": np.array(EDGE_FLOATS),
           "scalars": [np.bool_(False), np.int64(-7), np.float64(-0.0)],
           "nested": [[0.0, 1.0], [5e-324, 1e300]]}
    text = dumps_report(obj)
    assert text == reference_dumps_report(obj)
    assert '"floats": [0.0, -0.0, 1.0, -3.0, 9007199254740992.0, 10000000000000000.0, ' \
           '1e+17, 4.9406564584124654e-324, 1.0000000000000001e+300' in text


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), float("-inf")))
def test_report_rejects_non_finite_inside_float_list(bad):
    values = np.linspace(-1.0, 1.0, 500).tolist()
    values[321] = bad
    for obj in (values, tuple(values), np.array(values)):
        with pytest.raises(ValueError, match="non-finite float in report"):
            dumps_report({"v": obj})
    # A bulk-sized float64 ndarray goes to the formatter without tolist().
    array = np.full(3 * _BULK_MIN, 0.25)
    array[-1] = bad
    for obj in (array, array.reshape(3, -1), array[::-1].copy()):
        assert obj.dtype == np.float64
        with pytest.raises(ValueError, match="non-finite float in report"):
            dumps_report({"v": obj})
    m = np.arange(64.0).reshape(8, 8) + 1j * np.ones((8, 8))
    m[5, 2] = complex(1.0, bad)
    with pytest.raises(ValueError, match="non-finite float in report"):
        dumps_report({"m": matrix_to_obj(m)})


# ------------------------------------------------------ vectorized %.17g

def power_of_ten_neighbourhoods() -> list:
    """Every power of ten of the double range, both neighbours, negatives,
    signed zeros and subnormals."""
    values = []
    for p in range(-323, 309):
        v = float(f"1e{p}")
        values += [v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, np.inf))]
    values += [-v for v in values]
    subnormals = [5e-324, 1e-323, 2.2250738585072009e-308, 1.5e-310, -4.9e-320]
    return values + [0.0, -0.0] + subnormals


def switch_points() -> list:
    """Integers 2**50 .. 2**63 +/- 4, and the %g notation switches at 1e-5,
    1e-4, 1e16 and 1e17 with ten neighbours on each side."""
    values = [float(s * (2 ** e + d)) for e in range(50, 64) for d in range(-4, 5)
              for s in (1, -1)]
    for edge in (1e-5, 1e-4, 1e16, 1e17):
        for toward in (0.0, np.inf):
            v = edge
            for _ in range(10):
                values.append(v)
                v = float(np.nextafter(v, toward))
    return values


def exact_ties(seed: int) -> list:
    """Doubles whose 18-digit decimal value ends in 5, so their 17-digit
    rounding is an exact tie: n + 1/4 and n + 3/4 with 16 integral digits."""
    n = np.random.default_rng(seed).integers(10 ** 15, 2 ** 51, size=600)
    return [1234567890123456.75, 1234567890123456.25] + [
        float(v) + frac for v, frac in zip(n.tolist(), [0.25, 0.75] * 300)]


def test_bulk_random_bit_patterns_match_per_value(monkeypatch):
    # 2**18 random finite doubles in arrays of 4099 (blocks end mid-array).
    # About 4 % take the per-value route near a tie; the count guards
    # against the bulk route silently falling back for everything.
    per_value = []
    tokens = serialize._tokens
    monkeypatch.setattr(serialize, "_tokens", lambda v: per_value.extend(v) or tokens(v))
    x = random_finite_patterns(20261018, 2 ** 18)
    for start in range(0, x.size, 4099):
        chunk = x[start:start + 4099]
        assert dumps_report(chunk) == reference_dumps_report(chunk)
    assert 0 < len(per_value) < 0.06 * x.size


@pytest.mark.parametrize("values", (power_of_ten_neighbourhoods(), switch_points(),
                                    exact_ties(7)),
                         ids=("powers-of-ten", "switch-points", "ties"))
def test_bulk_edge_values_match_per_value(values):
    assert len(values) >= _BULK_MIN and {type(v) for v in values} == {float}
    for obj in (values, np.array(values), np.array(values[::-1])):
        assert dumps_report(obj) == reference_dumps_report(obj)


def test_bulk_edge_texts():
    # Ties round half to even, in the tie and per-value routes alike.
    values = bulk_sized([1234567890123456.75, 1234567890123456.25, 1e16, 1e17, 1e-5,
                         -0.0, 0.0001, 12345678901234567.0, 5e-324])
    text = dumps_report(np.array(values))
    assert text.startswith("[1234567890123456.8, 1234567890123456.2, 10000000000000000.0, "
                           "1e+17, 1.0000000000000001e-05, -0.0, 0.0001, "
                           "12345678901234568.0, 4.9406564584124654e-324, ")


@pytest.mark.parametrize("route", ("no-tables", "all-near-ties"))
def test_all_fallback_route_matches(monkeypatch, route):
    # Without a 64-bit longdouble every float is formatted per value; a
    # margin of 1/2 sends every nonzero element of the vectorized layout
    # to the per-value route instead.
    if route == "no-tables":
        monkeypatch.setattr(serialize, "_tables", lambda: None)
    else:
        monkeypatch.setattr(serialize, "_TIE_MARGIN", 0.5)
    values = np.array(power_of_ten_neighbourhoods() + switch_points()
                      + random_finite_patterns(3, 5000).tolist())
    assert dumps_report(values) == reference_dumps_report(values)


@pytest.mark.parametrize("toward", (-np.inf, np.inf), ids=("low", "high"))
def test_bulk_route_survives_a_log10_one_ulp_off(monkeypatch, toward):
    # k = floor(log10 |x|) is off by one where a rounded log10 crosses an
    # integer; y then falls outside [1e16, 1e17) and the per-value route
    # takes the element.  A log10 one ulp off everywhere forces that case.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    values = np.array(power_of_ten_neighbourhoods() + switch_points())
    assert dumps_report(values) == reference_dumps_report(values)


def test_power_of_ten_table_is_correctly_rounded():
    tables = serialize._tables()
    assert tables is not None          # x86-64: 80-bit longdouble
    assert tables.pow10.size == _K_MAX - _K_MIN + 1
    for k, entry in zip(range(_K_MIN, _K_MAX + 1), tables.pow10):
        exact = Fraction(10) ** (16 - k)
        assert abs(Fraction(*entry.as_integer_ratio()) - exact) <= exact / 2 ** 64


# ------------------------------------------------- array-valued matrix objects

EDGE_VALUES = np.array(_float_edge_values())


def as_lists(obj: dict) -> dict:
    """The matrix object with its re/im arrays as JSON lists."""
    return {**obj, "re": obj["re"].tolist(), "im": obj["im"].tolist()}


def edge_matrix(seed: int, n: int, kind: str) -> np.ndarray:
    """An n x n (n x (n + 1) when non-square) complex matrix of edge floats:
    Hermitian, anti-Hermitian, Hermitian with one entry one ulp off its
    mirror, or non-square.  The mirrored ones hold 0.0 / -0.0 pairs and a
    -0.0 on the diagonal."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        return EDGE_VALUES[rng.integers(0, EDGE_VALUES.size, size=shape)]
    if kind == "non-square":
        return draw((n, n + 1)) + 1j * draw((n, n + 1))
    upper = np.triu(draw((n, n)))
    sym = upper + np.triu(upper, 1).T
    skew = np.triu(draw((n, n)), 1)
    skew = skew - skew.T
    i, j = rng.integers(0, n, size=(2, max(1, n // 2)))
    sym[i, j], sym[j, i] = 0.0, -0.0
    skew[i, j], skew[j, i] = -0.0, 0.0
    sym[i, i] = -0.0
    m = sym + 1j * skew if kind != "anti-hermitian" else skew + 1j * sym
    if kind == "one-ulp":
        m[0, n - 1] = complex(np.nextafter(m[0, n - 1].real, np.inf), m[0, n - 1].imag)
    return m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 24),
       kind=st.sampled_from(("hermitian", "anti-hermitian", "one-ulp", "non-square")))
def test_array_matrix_objects_match_their_list_form(seed, n, kind):
    # Array-valued re/im are formatted without a list round trip, mirrored
    # magnitudes once per pair; the text is the reference encoder's text of
    # the same object with lists.  One ulp off the mirror, the mirror must
    # not apply: "%.17g" tells every two doubles apart.
    obj = matrix_to_obj(edge_matrix(seed, n, kind))
    assert isinstance(obj["re"], np.ndarray) and obj["re"].dtype == np.float64
    report = {"m": obj, "ms": [obj, obj]}
    assert dumps_report(report) == reference_dumps_report(
        {"m": as_lists(obj), "ms": [as_lists(obj)] * 2})


def test_mirrored_matrix_formats_the_upper_triangle_once(monkeypatch):
    # 20 x 20 Hermitian: 210 digit rows each for re and im instead of 400;
    # one ulp off the mirror, all 400 rows of re are computed.
    formatted = []
    digit_rows = serialize._digit_rows
    monkeypatch.setattr(serialize, "_digit_rows",
                        lambda a, tb: formatted.append(a.size) or digit_rows(a, tb))
    for kind, rows in (("hermitian", 210), ("one-ulp", 400)):
        formatted.clear()
        obj = matrix_to_obj(edge_matrix(3, 20, kind))
        assert dumps_report({"re": obj["re"]}) == reference_dumps_report({"re": obj["re"]})
        assert sum(formatted) == 400
        formatted.clear()
        assert dumps_report(obj) == reference_dumps_report(as_lists(obj))
        assert sum(formatted) == rows + 210


@pytest.mark.parametrize("kind", ("hermitian", "non-square"))
def test_matrix_roundtrip_of_edge_values_is_bit_exact(kind):
    m = edge_matrix(11, 9, kind)
    back = matrix_from_obj(matrix_to_obj(m))
    assert back.shape == m.shape
    assert back.view(np.uint64).tobytes() == m.view(np.uint64).tobytes()
    back = matrix_from_obj(as_lists(matrix_to_obj(m)))
    assert back.view(np.uint64).tobytes() == m.view(np.uint64).tobytes()


def test_matrix_to_obj_copies():
    m = np.eye(2)
    obj = matrix_to_obj(m)
    m[0, 0] = 5.0
    assert obj["re"].tolist() == [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("value", (np.zeros((1, 1)), np.array([True]), np.array([1.0], dtype=object),
                                   np.array([1.0 + 0j])),
                         ids=("2-d", "bool", "object", "complex"))
def test_matrix_from_obj_refuses_non_real_arrays(value):
    good = {"rows": 1, "cols": 1, "re": np.array([1.0]), "im": np.array([0])}
    assert matrix_from_obj(good) == 1.0
    for field in ("re", "im"):
        with pytest.raises(ValueError, match="^malformed matrix object: '(re|im)' must be a flat "
                                             "list of numbers$"):
            matrix_from_obj({**good, field: value})


def test_nan_inside_an_array_matrix_is_refused():
    m = np.eye(2)
    m[1, 0] = np.nan
    with pytest.raises(ValueError, match="^non-finite float in report$"):
        dumps_report({"m": matrix_to_obj(m)})
    with pytest.raises(ValueError, match="^problem matrix J has non-finite entries$"):
        problem_from_obj({"J": matrix_to_obj(m), "T0_domain": matrix_to_obj(np.eye(2)[:, :1]),
                          "T0_action": matrix_to_obj(np.zeros((2, 1)))})


@pytest.mark.parametrize("value", (2.9, 2.0, "2", True, -2, None),
                         ids=("fraction", "integral-float", "string", "bool", "negative", "null"))
def test_matrix_shape_fields_must_be_integers(value):
    good = {"rows": 2, "cols": 1, "re": [1.0, 0.0], "im": [0.0, 0.0]}
    for field in ("rows", "cols"):
        with pytest.raises(ValueError, match=f"^malformed matrix object: '{field}' must be a "
                                             "non-negative integer$"):
            matrix_from_obj({**good, field: value})
