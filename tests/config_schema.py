"""The config contract as a Draft 2020-12 JSON Schema: the oracle the
config checker ``cli._violation`` is tested against.

``config.schema.json`` beside this file holds the fixed part; the
``command`` enum and each command's ``params`` schema are filled in from
the command registry in ``cli``, and the named-family ``id`` enum from
the family table in ``environments``.
"""
from __future__ import annotations

import functools
import json
from pathlib import Path

import jsonschema

from defbranch.cli import _REGISTRY, _REQUIRED, _Param
from defbranch.environments import _FAMILIES


def _param_schema(p: _Param) -> dict:
    if isinstance(p.type, tuple):
        return {"enum": [*p.type, None] if p.default is not _REQUIRED else list(p.type)}
    item = {"type": p.type}
    item.update((k, v) for k, v in (("minimum", p.minimum), ("maximum", p.maximum)) if v is not None)
    types = {"": [p.type], "list": ["array"], "either": [p.type, "array"]}[p.many]
    if p.default is not _REQUIRED:
        types.append("null")
    # minimum and maximum act on numbers only and items on arrays only
    return {**item, "type": types, **({"items": item} if p.many else {})}


def _params_schema(spec: dict[str, _Param]) -> dict:
    return {
        "additionalProperties": False,
        "required": [k for k, p in spec.items() if p.default is _REQUIRED],
        "properties": {k: _param_schema(p) for k, p in spec.items()},
    }


@functools.cache
def validator() -> jsonschema.Draft202012Validator:
    """The validator of a config, with the enums and each command's
    params schema filled in from the tables."""
    schema = json.loads((Path(__file__).parent / "config.schema.json").read_text())
    schema["properties"]["command"]["enum"] = list(_REGISTRY)
    schema["$defs"]["family"]["enum"] = list(_FAMILIES)
    schema["allOf"] = [
        {
            "if": {"required": ["command"], "properties": {"command": {"const": name}}},
            "then": {"properties": {"params": _params_schema(cmd.params)}},
        }
        for name, cmd in _REGISTRY.items()
    ]
    return jsonschema.Draft202012Validator(schema)


def first_error(doc) -> tuple[str, str] | None:
    """The schema's first error on ``doc``, its errors sorted by path, as
    (JSON pointer, message); None when doc conforms."""
    errors = sorted(validator().iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    e = errors[0]
    return "/" + "/".join(str(p) for p in e.absolute_path), e.message
