"""Deterministic JSON writer: sorted keys, floats at 17 significant digits.

The stdlib encoder cannot format floats with a fixed significant-digit count,
and the output files promise byte identity across runs, hence this tiny
serializer.  Reading still uses the stdlib.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    # x is a float: callers convert ints first (int.is_integer is Python 3.12+)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in JSON output: {x!r}")
    if x.is_integer() and abs(x) < 1e16:
        # keep integral floats compact and unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


def _write(obj, out: list[str], indent: int, level: int) -> None:
    pad = "\n" + " " * (indent * (level + 1)) if indent else ""
    end_pad = "\n" + " " * (indent * level) if indent else ""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k)}")
            out.append(pad if indent else "")
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(": " if indent else ":")
            _write(obj[k], out, indent, level + 1)
            if i < len(keys) - 1:
                out.append(",")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            out.append(pad if indent else "")
            _write(v, out, indent, level + 1)
            if i < len(obj) - 1:
                out.append(",")
        out.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")
