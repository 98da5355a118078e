"""One writer for every result record: CSV rows and JSON documents.

A record is a dataclass and its columns are its `dataclasses.fields` in
declaration order.  Field metadata JSON_ONLY keeps a field out of CSV rows.
CSV cells print floats with %.17g so they round-trip exactly, integers
as integers and booleans as true/false; JSON keeps the values as they
are, with records nested wherever a document holds them, except that a
NaN or infinite float becomes its CSV cell, the string "nan", "inf" or
"-inf", so that strict JSON parsers load every document.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers

__all__ = ["JSON_ONLY", "json_fields", "to_csv", "to_json"]

JSON_ONLY = {"emit": "json"}


def _columns(cls, fmt: str) -> tuple:
    """Names of the fields of record type cls emitted in fmt ('csv' or 'json')."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.metadata.get("emit", fmt) == fmt)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return format(float(value), ".17g")


def to_csv(cls, records) -> str:
    """Header line of cls's CSV columns, then one line per record."""
    names = _columns(cls, "csv")
    lines = [",".join(names)]
    lines += [",".join(_cell(getattr(rec, name)) for name in names) for rec in records]
    return "\n".join(lines) + "\n"


def json_fields(record) -> dict:
    """Name -> value of the JSON columns of one record, in declaration order."""
    return {name: getattr(record, name) for name in _columns(type(record), "json")}


def _plain(value):
    """value with records as dicts of their JSON columns and non-finite floats as cells."""
    if isinstance(value, float) and not math.isfinite(value):
        return _cell(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(json_fields(value))
    return value


def to_json(doc) -> str:
    """Indented strict JSON of doc; records anywhere inside become objects."""
    return json.dumps(_plain(doc), indent=2, allow_nan=False) + "\n"
