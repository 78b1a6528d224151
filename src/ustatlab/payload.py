"""JSON payloads of report dataclasses: a report's payload is its fields.

``Payload.to_json()`` writes each dataclass field under its own name.
Tuples, lists and arrays become lists, dict keys become strings (a pair
key (p, q) becomes ``"p,q"``), a complex field ``f`` becomes ``f_re`` and
``f_im``, and nested dataclasses are written by the same rules.  Field
metadata ``payload=False`` leaves a field out, and ``omit_none`` leaves it
out while it is None.  A class with ``schema = True`` leads its payload with
``SCHEMA_VERSION``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar

import numpy as np

SCHEMA_VERSION = "v1"

OMIT_NONE = {"omit_none": True}


def _key(key: Any) -> str:
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def _value(value: Any) -> Any:
    if isinstance(value, (float, int, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_value(v) for v in value]
    if isinstance(value, dict):
        return {_key(k): _value(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return _fields(value) if dataclasses.is_dataclass(value) else value


def _fields(obj: Any) -> dict:
    out: dict = {"schema": SCHEMA_VERSION} if getattr(obj, "schema", False) else {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not f.metadata.get("payload", True) or (value is None and f.metadata.get("omit_none")):
            continue
        if isinstance(value, complex):
            out[f"{f.name}_re"], out[f"{f.name}_im"] = value.real, value.imag
        else:
            out[f.name] = _value(value)
    return out


class Payload:
    """Mixin for report dataclasses whose payload is their fields."""

    schema: ClassVar[bool] = False

    def to_json(self) -> dict:
        return _fields(self)
