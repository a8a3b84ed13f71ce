import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinlab.serialize import (
    dumps_report,
    matrix_from_obj,
    matrix_to_obj,
    problem_from_obj,
)
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


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), finite,
    st.text(max_size=6),
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    finite.map(np.float64),
)
float_arrays = st.one_of(
    st.lists(finite, max_size=12),
    st.lists(finite, max_size=12).map(tuple),
    st.lists(finite, max_size=12).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.tuples(finite, finite), max_size=4).map(
        lambda v: np.array(v, dtype=float).reshape(-1, 2)),
    st.lists(st.one_of(finite, st.integers(-9, 9)), max_size=12),
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
    m = np.arange(64.0).reshape(8, 8) + 1j * np.ones((8, 8))
    m[5, 2] = complex(1.0, bad)
    with pytest.raises(ValueError, match="non-finite float in report"):
        dumps_report({"m": matrix_to_obj(m)})
