"""Reading and writing JSON: run configs, checkpoint sidecars, training logs,
metrics, ablation results, scene metadata and manifests.

A file that cannot be read, or whose fields have the wrong JSON types, is a
FormatError.  ``write_json`` writes every JSON file the package makes.
"""

from __future__ import annotations

import json
import typing

from .errors import FormatError


def read_json(path):
    """The JSON document at ``path``; an unreadable or malformed file is a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FormatError(f"{path}: {err}") from None
    except (ValueError, RecursionError) as err:  # bad JSON, not UTF-8, or nested too deep
        raise FormatError(f"{path}: bad JSON ({err})") from None


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as UTF-8 JSON indented by one space."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def fits(value, kind) -> bool:
    """Whether the JSON ``value`` has type ``kind``.

    An int is not a bool, a float may be an int but not a bool, and a tuple
    is a list (or tuple) of its element type.
    """
    if typing.get_origin(kind) is tuple:
        elem = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(fits(v, elem) for v in value)
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def read_fields(doc, kinds: dict, defaults: dict) -> dict:
    """``doc`` as a JSON object whose fields have the types in ``kinds``.

    A field missing from ``doc`` takes its value in ``defaults`` and is
    required when it has none.  A mismatch is a FormatError.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
    doc = {**defaults, **doc}
    for name, kind in kinds.items():
        if name not in doc:
            raise FormatError(f"missing field {name!r}")
        if not fits(doc[name], kind):
            raise FormatError(f"field {name!r} has the wrong type: {doc[name]!r}")
    return doc
