"""JSON-friendly conversion of report objects.

Exact rationals are emitted as "num/den" strings so no precision is lost;
floats stay native (Python's repr already round-trips them exactly).
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from fractions import Fraction

import numpy as np

# dataclass fields whose serialized name differs (reserved words etc.)
_FIELD_RENAMES = {"passed": "pass"}


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_") or not f.repr:
                continue
            out[_FIELD_RENAMES.get(f.name, f.name)] = to_jsonable(
                getattr(obj, f.name)
            )
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize an object of type {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True)
