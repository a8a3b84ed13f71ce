"""JSON wire formats.

Matrices travel as {"rows": r, "cols": c, "re": [...], "im": [...]} with
row-major flat float lists.  Reports are emitted with a deterministic
encoder: keys sorted, floats always printed with 17 significant digits, so
identical inputs give byte-identical files.  A list, tuple or array of
Python floats is formatted and joined in one pass.
"""
from __future__ import annotations

import json
from typing import Any

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


def _fmt_floats(values) -> str:
    """", "-joined text of Python floats: 17 significant digits, with ".0" on
    integral values so every float keeps a uniform numeric shape ("1" ->
    "1.0") and files stay stable.  Every float in a report or CSV, scalar or
    array, goes through here."""
    tokens = map("%.17g".__mod__, values)
    text = ", ".join([t if "." in t or "e" in t else t + ".0" for t in tokens])
    if "n" in text:                  # only "inf" and "nan" contain an "n"
        raise ValueError("non-finite float in report")
    return text


def _fmt_float(x: float) -> str:
    return _fmt_floats((float(x),))


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
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        parts.append("[")
        if seq and set(map(type, seq)) == {float}:
            # Bulk path: a float array is formatted and joined in one pass.
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
