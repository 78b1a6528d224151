"""JSON payloads: a report's payload is its fields, a command's its values.

``encode(value)`` turns a value into plain JSON values.  Tuples, lists and
arrays become lists, dict keys become strings (a pair key (p, q) becomes
``"p,q"``), and a dataclass becomes its fields, each under its own name: a
complex field ``f`` becomes ``f_re`` and ``f_im``, field metadata
``payload=False`` leaves a field out, and ``omit_none`` leaves it out while it
is None.  ``document(**fields)`` is a whole payload: the schema key with
``SCHEMA_VERSION``, then the encoded fields.  A report class with
``schema = True`` is written as a document, and ``document`` is the one place
the schema key is written.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar

import numpy as np

SCHEMA_VERSION = "v1"

OMIT_NONE = {"omit_none": True}


def _key(key: Any) -> str:
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def encode(value: Any) -> Any:
    """``value`` as plain JSON values: lists, string-keyed dicts, numbers."""
    if isinstance(value, (float, int, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {_key(k): encode(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return _fields(value) if dataclasses.is_dataclass(value) else value


def document(**fields: Any) -> dict:
    """A payload: the schema version, then ``fields`` encoded."""
    return {"schema": SCHEMA_VERSION, **encode(fields)}


def _fields(obj: Any) -> dict:
    raw: dict = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not f.metadata.get("payload", True) or (value is None and f.metadata.get("omit_none")):
            continue
        if isinstance(value, complex):
            raw[f"{f.name}_re"], raw[f"{f.name}_im"] = value.real, value.imag
        else:
            raw[f.name] = value
    return document(**raw) if isinstance(obj, Payload) and obj.schema else encode(raw)


class Payload:
    """Mixin for report dataclasses whose payload is their fields."""

    schema: ClassVar[bool] = False

    def to_json(self) -> dict:
        return _fields(self)
