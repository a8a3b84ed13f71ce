"""JSON wire formats.

Matrices travel as {"rows": r, "cols": c, "re": [...], "im": [...]} with
row-major flat float sequences: `matrix_to_obj` gives 1-d float64 arrays,
`matrix_from_obj` takes those or the JSON lists of a file, and the shape
fields are non-negative integers.  Reports are emitted with a deterministic
encoder: keys sorted, floats always printed with 17 significant digits, so
identical inputs give byte-identical files; `json.dumps` refuses the arrays,
so a matrix object is written with `dumps_report`.  A 1-d float array is
formatted and joined in one pass, and a long one takes a vectorized digit
route that gives the text of "%.17g" value by value; lists and tuples go
item by item.  When the magnitudes of a square matrix object's re or im are
mirror-symmetric (every hermitized matrix), that route computes the digits
of the upper triangle only.
"""
from __future__ import annotations

import functools
import json
import math
from typing import Any, NamedTuple

import numpy as np


def matrix_to_obj(m) -> dict:
    """Matrix object of m, with re and im as new row-major float64 arrays."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError("only matrices are serializable")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.flatten(),
        "im": m.imag.flatten(),
    }


def _flat_floats(values, name: str) -> np.ndarray:
    """A JSON list or 1-d array of real numbers (no bool), as floats."""
    arr = values if isinstance(values, np.ndarray) else None
    if isinstance(values, list):
        try:
            arr = np.asarray(values)
        except ValueError:              # ragged nesting
            pass
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "fi":
        raise ValueError(f"malformed matrix object: {name!r} must be a flat list of numbers")
    return arr.astype(float, copy=False)


def _shape_field(obj: dict, name: str) -> int:
    value = obj[name]
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"malformed matrix object: {name!r} must be a non-negative integer")
    return int(value)


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    try:
        rows, cols = _shape_field(obj, "rows"), _shape_field(obj, "cols")
        re, im = obj["re"], obj["im"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    re, im = _flat_floats(re, "re"), _flat_floats(im, "im")
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError("matrix object has inconsistent shape fields")
    re, im = re.reshape(rows, cols), im.reshape(rows, cols)
    return re + 1j * im


def problem_from_obj(obj):
    """Extension-problem file: {"J", "T0_domain", "T0_action"}."""
    from .angular import PartialContraction
    from .spaces import SignatureSpace

    if not isinstance(obj, dict):
        raise ValueError("problem file must be a JSON object with keys J, T0_domain, T0_action")
    mats = []
    for key in ("J", "T0_domain", "T0_action"):
        try:
            m = matrix_from_obj(obj[key])
        except KeyError as exc:
            raise ValueError(f"problem file is missing key {exc}") from exc
        if not np.isfinite(m).all():
            raise ValueError(f"problem matrix {key} has non-finite entries")
        mats.append(m)
    j, domain, action = mats
    space = SignatureSpace(j)
    return PartialContraction(space, domain, action)


# Float arrays at least this long take the vectorized route of
# `_digit_rows`; shorter ones cost less through "%.17g" per value (the two
# routes cost the same at 128-160 floats on a 2-CPU x86-64 host).
_BULK_MIN = 160
# Floats per block of the vectorized route, which bounds its temporaries.
_BLOCK = 4096
# Distance from a rounding tie, or from a decade end, below which an element
# of the vectorized route is formatted per value instead (see `_digit_rows`).
_TIE_MARGIN = 0.02
# Decimal exponents k = floor(log10 |x|) of the finite nonzero doubles.
_K_MIN, _K_MAX = -324, 308
# Layout buffer: seven 8-byte words per float (see `_tables`).
_ROW = 56
# Offsets in the word table: 50 heads (prefix x d0), then 10000 digit
# quads, 10000 stripped quads and two tail words per k.
_QUADS, _STRIPPED, _TAILS = 50, 10050, 20050


def _tokens(values) -> list[str]:
    """"%.17g" text of each float, with ".0" on integral values so every
    float keeps a uniform numeric shape ("1" -> "1.0")."""
    return [t if "." in t or "e" in t else t + ".0" for t in map("%.17g".__mod__, values)]


def _fmt_floats(values, side: int | None = None) -> str:
    """", "-joined text of floats, 17 significant digits each.  A report's
    1-d float arrays go through here, and its other floats `_fmt_float`.

    The vectorized route lays out the text of each magnitude in a row of
    `_ROW` bytes (`_digit_rows`) and writes the sign into the row's first
    byte.  With side = n the values are a row-major n x n matrix; when their
    magnitudes are exactly mirror-symmetric, the rows of the upper triangle
    are computed once and each mirrored entry copies its twin's row, at the
    cost of a table of n (n + 1) / 2 rows.
    """
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("non-finite float in report")
    tables = _tables() if x.size >= _BULK_MIN else None
    if tables is None:
        return ", ".join(_tokens(x.tolist()))
    a = np.abs(x)
    table = None
    if side is not None and x.size == side * side:
        square = a.reshape(side, side)
        if np.array_equal(square, square.T):
            upper = np.triu_indices(side)
            half = square[upper]
            table = np.concatenate([_digit_rows(half[i:i + _BLOCK], tables)
                                    for i in range(0, half.size, _BLOCK)])
            twin = np.empty((side, side), dtype=np.intp)
            twin[upper] = twin.T[upper] = np.arange(half.size)
            twin = twin.ravel()
    sign = np.signbit(x).astype(np.uint8) * np.uint8(ord("-"))
    blocks = []
    for lo in range(0, x.size, _BLOCK):
        hi = lo + _BLOCK
        rows = _digit_rows(a[lo:hi], tables) if table is None else table[twin[lo:hi]]
        rows[:, 0] = sign[lo:hi]
        blocks.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(blocks)[:-2].decode("ascii")        # without the last ", "


def _fmt_float(x: float) -> str:
    """`_fmt_floats` of one float (a scalar or CSV cell), without arrays."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite float in report")
    return _tokens((x,))[0]


def _pow10(p: int) -> np.longdouble:
    """10**p rounded to the nearest longdouble with a 64-bit significand, by
    exact integer arithmetic; 10**p is never halfway between two of them."""
    num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
    e = num.bit_length() - den.bit_length() - 64    # num / den / 2**e in (2**63, 2**65)
    num, den = num << max(-e, 0), den << max(e, 0)
    if num >= den << 64:
        den, e = den << 1, e + 1
    m = (2 * num + den) // (2 * den)                # in [2**63, 2**64]
    return np.ldexp(np.longdouble(m >> 32) * 2.0 ** 32 + (m & 0xFFFFFFFF), e)


class _Tables(NamedTuple):
    pow10: np.ndarray       # [k - _K_MIN]: 10**(16 - k), longdouble
    words: np.ndarray       # uint64 text words: heads, quads, stripped quads, tails
    head: np.ndarray        # [k - _K_MIN]: head word offset of the "0.00" prefix
    dot: np.ndarray         # [k - _K_MIN]: byte column of the '.' slot, 0 if none
    expo: np.ndarray        # [k - _K_MIN]: exponent form
    fill: np.ndarray        # [k], 0 <= k <= 16: '0' bytes for the integral digits


@functools.cache
def _tables() -> _Tables | None:
    """The lookup tables of the vectorized route, built on its first call;
    None when longdouble has no 64-bit significand, so that every float is
    formatted per value.

    A float is laid out in seven words, and the NUL bytes are dropped when
    the text is joined:
    - word 0 (head): the sign slot (NUL in the table; `_fmt_floats` writes
      the sign), the "0.", "0.0", "0.00" or "0.000" prefix of fixed notation
      with k < 0, the leading digit d0 and its slot;
    - words 1-4 (quads): the digits d1..d16, each followed by a slot.  The
      quads after the last nonzero digit come from the stripped table, whose
      trailing zeros are NUL;
    - words 5-6 (tail): d17 ("0" only for fixed k = 16, the one layout with
      17 integral digits), its slot, the exponent ("e-05") of exponent form
      and ", ".
    Every slot is NUL but the one that takes the '.': after d_k in fixed
    notation with k >= 0, after d0 in exponent form with two or more digits.
    """
    if np.finfo(np.longdouble).nmant < 63:
        return None
    ks = range(_K_MIN, _K_MAX + 1)
    fixed = np.array([-4 <= k < 17 for k in ks])
    heads = ["\0" + ("0." + "0" * (c - 1) if c else "").ljust(5, "\0") + str(d) + "\0"
             for c in range(5) for d in range(10)]
    tails = [("0\0, " if k == 16 else "\0\0, ") if f else f"\0\0e{k:+03d}, "
             for k, f in zip(ks, fixed)]
    words = np.zeros(_TAILS + 2 * len(ks), dtype=np.uint64)
    text = words.view(np.uint8)
    text[:8 * _QUADS] = np.frombuffer("".join(heads).encode("ascii"), dtype=np.uint8)
    text[8 * _TAILS:] = np.frombuffer("".join(t.ljust(16, "\0") for t in tails).encode("ascii"),
                                      dtype=np.uint8)
    quads = text[8 * _QUADS:8 * _TAILS].reshape(2, 10000, 8)
    digits = (np.arange(10000, dtype=np.int16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    quads[:, :, ::2] = digits + ord("0")
    quads[1, :, ::2] *= np.cumsum(digits[:, ::-1], axis=1, dtype=np.uint8)[:, ::-1] > 0
    fill = np.zeros((17, 4, 8), dtype=np.uint8)
    for k in range(17):
        for j in range(4):
            fill[k, j, :2 * min(max(k + 1 - 4 * j, 0), 4):2] = ord("0")
    tables = _Tables(
        pow10=np.array([_pow10(16 - k) for k in ks], dtype=np.longdouble),
        words=words,
        head=np.array([10 * -k if f and k < 0 else 0 for k, f in zip(ks, fixed)]),
        dot=np.array([(7 + 2 * k if k >= 0 else 0) if f else 7 for k, f in zip(ks, fixed)]),
        expo=~fixed,
        fill=fill.reshape(17, -1).view(np.uint64),
    )
    for table in tables:                # shared by every caller
        table.flags.writeable = False
    return tables


def _digit_rows(a: np.ndarray, tb: _Tables) -> np.ndarray:
    """Layout rows (a.size x `_ROW` bytes, NUL-padded) of the ASCII text of
    nonnegative finite floats, each followed by ", ", with the first byte of
    every row, the sign slot, left NUL.

    With k = floor(log10 a), y = a 10**(16 - k) lies in [1e16, 1e17),
    and the 17 significant digits of a are those of the integer nearest to
    y.  y is computed in longdouble: the table entry and the product each
    add at most 2**-64 relative error, so the computed y is within
    1e17 * 2**-63 < 0.011 of the exact one, and rint gives the correctly
    rounded digits unless y lies within `_TIE_MARGIN` of a tie.  Such
    elements, and those with y within the margin of 1e16 or 1e17 - 1/2
    (where rounding, or a log10 rounded across a power of ten, moves k),
    are formatted per value.
    """
    zero = a == 0.0
    kk = np.floor(np.log10(np.where(zero, 1.0, a))).astype(np.intp) - _K_MIN
    y = a.astype(np.longdouble) * tb.pow10[kk]
    d = np.rint(y)
    slow = ((np.abs((y - d).astype(float)) >= 0.5 - _TIE_MARGIN)
            | (y < np.longdouble(1e16) + _TIE_MARGIN)
            | (y > np.longdouble(1e17) - (0.5 + _TIE_MARGIN))) & ~zero
    # Zeros take the layout of 0.0 (k = 0, no digits); so do the per-value
    # elements, whose rows are overwritten below.
    plain = zero | slow
    d[plain] = 0.0
    kk[plain] = -_K_MIN
    q0, r = np.divmod(d.astype(np.int64), 10 ** 16)
    q1, r = np.divmod(r, 10 ** 12)
    q2, r = np.divmod(r, 10 ** 8)
    q3, q4 = np.divmod(r, 10 ** 4)
    idx = np.empty((a.size, 7), dtype=np.intp)
    idx[:, 0] = tb.head[kk] + q0
    # A quad is stripped when every quad after it is zero.
    idx[:, 4] = _STRIPPED + q4
    z = q4 == 0
    idx[:, 3] = _QUADS + 10000 * z + q3
    z &= q3 == 0
    idx[:, 2] = _QUADS + 10000 * z + q2
    z &= q2 == 0
    idx[:, 1] = _QUADS + 10000 * z + q1
    z &= q1 == 0
    idx[:, 5] = _TAILS + 2 * kk
    idx[:, 6] = idx[:, 5] + 1
    rows = tb.words[idx]
    lead = np.flatnonzero((kk >= -_K_MIN) & (kk <= 16 - _K_MIN))
    rows[lead, 1:5] |= tb.fill[kk[lead] + _K_MIN]
    dot = tb.dot[kk]
    dot[z & tb.expo[kk]] = 0            # exponent form with a single digit
    has_dot = np.flatnonzero(dot)
    text = rows.view(np.uint8)
    text.reshape(-1)[has_dot * _ROW + dot[has_dot]] = ord(".")
    if slow.any():
        tokens = [t + ", " for t in _tokens(a[slow].tolist())]
        width = _ROW - 1
        text[slow, 1:] = np.array(tokens, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return text


def _matrix_side(obj: dict) -> int | None:
    """n when obj has the shape fields of an n x n matrix object."""
    n = obj.get("rows")
    return n if type(n) is int and n == obj.get("cols") else None


def _encode(obj: Any, parts: list[str], side: int | None = None) -> None:
    """Append the report text of obj to parts; side is the order of the
    square matrix object whose "re" or "im" obj is."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        parts.append(json.dumps(bool(obj)) if obj is not None else "null")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        n = _matrix_side(obj)
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key) + ": ")
            _encode(obj[key], parts, n if key in ("re", "im") else None)
        parts.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1:
        parts += ("[", _fmt_floats(obj, side), "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        parts.append("[")
        for i, item in enumerate(seq):
            if i:
                parts.append(", ")
            _encode(item, parts)
        parts.append("]")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj)!r}")


def dumps_report(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, fixed 17-digit floats)."""
    parts: list[str] = []
    _encode(obj, parts)
    parts.append("\n")
    return "".join(parts)
