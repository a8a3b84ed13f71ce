"""JSON wire formats.

Matrices travel as {"rows": r, "cols": c, "re": [...], "im": [...]} with
row-major flat float lists.  Reports are emitted with a deterministic
encoder: keys sorted, floats always printed with 17 significant digits, so
identical inputs give byte-identical files.
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
        "re": [float(x) for x in m.real.ravel(order="C")],
        "im": [float(x) for x in m.imag.ravel(order="C")],
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0 or len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError("matrix object has inconsistent shape fields")
    re = np.asarray(re, dtype=float).reshape(rows, cols)
    im = np.asarray(im, dtype=float).reshape(rows, cols)
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


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in report")
    out = format(float(x), ".17g")
    # Keep a uniform numeric shape ("1" -> "1.0") so files stay stable.
    if "e" not in out and "E" not in out and "." not in out:
        out += ".0"
    return out


def _encode(obj: Any, parts: list[str]) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        parts.append(json.dumps(bool(obj)) if obj is not None else "null")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
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
