"""JSON wire formats.

Matrices travel as {"rows": r, "cols": c, "re": [...], "im": [...]} with
row-major flat float lists.  Reports are emitted with a deterministic
encoder: keys sorted, floats always printed with 17 significant digits, so
identical inputs give byte-identical files.  A list, tuple or array of
Python floats is formatted and joined in one pass; long ones take a
vectorized digit route that gives the text of "%.17g" value by value.
"""
from __future__ import annotations

import functools
import json
import math
from typing import Any, NamedTuple

import numpy as np


def matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError("only matrices are serializable")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def _flat_floats(values, name: str) -> np.ndarray:
    arr = None
    if isinstance(values, list):
        try:
            arr = np.asarray(values)
        except ValueError:              # ragged nesting
            pass
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "fi":
        raise ValueError(f"malformed matrix object: {name!r} must be a flat list of numbers")
    return arr.astype(float, copy=False)


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    re, im = _flat_floats(re, "re"), _flat_floats(im, "im")
    if rows < 0 or cols < 0 or re.size != rows * cols or im.size != rows * cols:
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


# Float sequences at least this long take the vectorized route of
# `_bulk_block`; shorter ones cost less through "%.17g" per value (the two
# routes cost the same at 128-160 floats on a 2-CPU x86-64 host).
_BULK_MIN = 160
# Floats per block of the vectorized route, which bounds its temporaries.
_BLOCK = 4096
# Distance from a rounding tie, or from a decade end, below which an element
# of the vectorized route is formatted per value instead (see `_bulk_block`).
_TIE_MARGIN = 0.02
# Decimal exponents k = floor(log10 |x|) of the finite nonzero doubles.
_K_MIN, _K_MAX = -324, 308
# Layout buffer: seven 8-byte words per float (see `_tables`).
_ROW = 56
# Offsets in the word table: 100 heads (sign x prefix x d0), then 10000
# digit quads, 10000 stripped quads and two tail words per k.
_QUADS, _STRIPPED, _TAILS = 100, 10100, 20100


def _tokens(values) -> list[str]:
    """"%.17g" text of each float, with ".0" on integral values so every
    float keeps a uniform numeric shape ("1" -> "1.0")."""
    return [t if "." in t or "e" in t else t + ".0" for t in map("%.17g".__mod__, values)]


def _fmt_floats(values) -> str:
    """", "-joined text of floats, 17 significant digits each.  Every float
    sequence of a report goes through here, and scalars through `_fmt_float`."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("non-finite float in report")
    tables = _tables() if x.size >= _BULK_MIN else None
    if tables is None:
        return ", ".join(_tokens(x.tolist()))
    blocks = [_bulk_block(x[i:i + _BLOCK], tables) for i in range(0, x.size, _BLOCK)]
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
    - word 0 (head): the sign, the "0.", "0.0", "0.00" or "0.000" prefix of
      fixed notation with k < 0, the leading digit d0 and its slot;
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
    heads = [sign + ("0." + "0" * (c - 1) if c else "").ljust(5, "\0") + str(d) + "\0"
             for sign in ("\0", "-") for c in range(5) for d in range(10)]
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


def _bulk_block(x: np.ndarray, tb: _Tables) -> bytes:
    """ASCII text of a block of finite floats, each followed by ", ".

    With k = floor(log10 |x|), y = |x| 10**(16 - k) lies in [1e16, 1e17),
    and the 17 significant digits of x are those of the integer nearest to
    y.  y is computed in longdouble: the table entry and the product each
    add at most 2**-64 relative error, so the computed y is within
    1e17 * 2**-63 < 0.011 of the exact one, and rint gives the correctly
    rounded digits unless y lies within `_TIE_MARGIN` of a tie.  Such
    elements, and those with y within the margin of 1e16 or 1e17 - 1/2
    (where rounding, or a log10 rounded across a power of ten, moves k),
    are formatted per value.
    """
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0
    kk = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
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
    idx = np.empty((x.size, 7), dtype=np.intp)
    idx[:, 0] = tb.head[kk] + 50 * np.signbit(x) + q0
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
        tokens = [t + ", " for t in _tokens(x[slow].tolist())]
        text[slow] = np.array(tokens, dtype=f"S{_ROW}").view(np.uint8).reshape(-1, _ROW)
    return text.tobytes().translate(None, b"\0")


def _encode(obj: Any, parts: list[str]) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        parts.append(json.dumps(bool(obj)) if obj is not None else "null")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key) + ": ")
            _encode(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1:
        parts += ("[", _fmt_floats(obj), "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        parts.append("[")
        if seq and set(map(type, seq)) == {float}:
            # A float list is formatted and joined in one pass.
            parts.append(_fmt_floats(seq))
        else:
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
