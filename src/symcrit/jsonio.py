"""Stable serialization of symcrit's records.

JSON output is canonical: keys sorted, two-space indent, non-finite
floats replaced by None before encoding.  A record becomes JSON through
its to_json method when it has one, else as the dict of its fields, read
from its `_record_names`; any other dataclass becomes the dict of its
fields.  Parsing a canonical string and re-encoding it reproduces it
byte for byte.  CSV output always uses '.' as the decimal separator via
Python float repr.  Only `canonical_json` imports `json`, so a command
that prints CSV loads none.
"""

import math

__all__ = ["canonical_json", "clean", "csv_text"]


def clean(obj):
    """JSON-ready copy of obj: non-finite floats become None, records dicts."""
    if type(obj).__module__ == "numpy":
        obj = obj.tolist()  # a Python scalar, or nested lists for an array
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if hasattr(obj, "to_json"):
        return clean(obj.to_json())
    names = getattr(type(obj), "_record_names", None)
    if names is None and hasattr(type(obj), "__dataclass_fields__"):
        import dataclasses  # loaded already, by whoever made obj's class

        names = [f.name for f in dataclasses.fields(obj)]
    if names is not None:
        return {name: clean(getattr(obj, name)) for name in names}
    return obj


def canonical_json(payload):
    import json

    return json.dumps(clean(payload), sort_keys=True, indent=2, allow_nan=False)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines)
