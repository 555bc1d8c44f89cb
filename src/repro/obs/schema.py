"""Table-driven validation of the JSON documents ``repro.obs`` reads and
writes.

A schema is a plain dict in JSON-Schema vocabulary (the draft-07 subset
:func:`check` lists); :func:`check` is the one interpreter, so a schema
is written once and never restated as a walker (the container must not
grow a ``jsonschema`` dependency); :func:`record` spells the common
all-properties-required object.  ``PROFILE_SCHEMA`` describes the
profile document emitted by :mod:`repro.obs.profile`; every other schema
lives beside its writer or reader (:mod:`repro.obs.trace`,
:mod:`repro.obs.telemetry`, :mod:`repro.obs.flight`,
:mod:`repro.obs.watch`).
"""

from __future__ import annotations

from typing import Optional

from .profile import PROFILE_SCHEMA_VERSION


class SchemaError(ValueError):
    """A document does not match its published schema: the one error
    every ``validate_*`` of ``repro.obs`` raises."""


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def check(doc, schema: dict, path: str) -> list[str]:
    """Every way ``doc`` departs from ``schema``, one ``"<path>: <what>"``
    string each; empty when it conforms.

    Understands ``type`` (one name or a list of alternatives),
    ``required``, ``properties``, ``additionalProperties`` (a schema for
    the keys ``properties`` does not name), ``items``, ``enum``, ``const``,
    ``minimum``, ``maximum``, ``minLength``, ``allOf`` and ``if`` / ``then``
    (what one field's value requires of the others).  A key a schema does
    not mention is allowed.
    """
    errors: list[str] = []
    for sub in schema.get("allOf", ()):
        errors += check(doc, sub, path)
    if "if" in schema and not check(doc, schema["if"], path):
        errors += check(doc, schema["then"], path)
    if "const" in schema and doc != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {doc!r}")
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not in {schema['enum']}")
    kind = schema.get("type", ())
    kinds = (kind,) if isinstance(kind, str) else kind
    # bool is an int to Python but not a number to JSON
    if kinds and not any(
        isinstance(doc, _TYPES[k]) and (k == "boolean" or not isinstance(doc, bool))
        for k in kinds
    ):
        errors.append(
            f"{path}: expected {' or '.join(kinds)}, got {type(doc).__name__}"
        )
        return errors
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        if "minimum" in schema and doc < schema["minimum"]:
            errors.append(f"{path}: {doc} < minimum {schema['minimum']}")
        if "maximum" in schema and doc > schema["maximum"]:
            errors.append(f"{path}: {doc} > maximum {schema['maximum']}")
    elif isinstance(doc, str):
        if len(doc) < schema.get("minLength", 0):
            errors.append(f"{path}: shorter than {schema['minLength']}")
    elif isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        other = schema.get("additionalProperties")
        for key, value in doc.items():
            sub = properties.get(key, other)
            if sub is not None:
                errors += check(value, sub, f"{path}.{key}")
    elif isinstance(doc, list) and "items" in schema:
        for index, item in enumerate(doc):
            errors += check(item, schema["items"], f"{path}[{index}]")
    return errors


def record(required: dict, optional: Optional[dict] = None) -> dict:
    """The schema of an object that must carry every ``required``
    property and may carry the ``optional`` ones, each name written once
    (not under ``required`` and again under ``properties``)."""
    return {
        "type": "object",
        "required": list(required),
        "properties": {**required, **(optional or {})},
    }


_ANY: dict = {}
_TEXT = {"type": "string"}
_NON_NEGATIVE = {"type": "number", "minimum": 0}

_SPAN = record(
    {
        "name": _TEXT,
        "category": _ANY,
        "wall_seconds": _NON_NEGATIVE,
        "sim_seconds": _NON_NEGATIVE,
    }
)
#: Optional, and the same schema again: a Python self-reference where
#: JSON Schema would write ``$ref``.
_SPAN["properties"]["children"] = {"type": "array", "items": _SPAN}

_CONSTRUCT = record(
    {
        "index": _ANY,
        "kernel": _TEXT,
        "construct": {"enum": ["for", "reduce"]},
        "device": {"enum": ["cpu", "gpu", "hybrid"]},
        "n": _NON_NEGATIVE,
        "seconds": _NON_NEGATIVE,
        "energy_joules": _NON_NEGATIVE,
        "phases": {"type": "object", "additionalProperties": _NON_NEGATIVE},
        "attributed_seconds": _NON_NEGATIVE,
        "attributed_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        "counters": {"type": "object"},
    }
)

PROFILE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro observability profile",
    **record(
        {
            "schema": {"const": PROFILE_SCHEMA_VERSION},
            "meta": {"type": "object"},
            "totals": record(
                dict.fromkeys(
                    (
                        "constructs",
                        "seconds",
                        "energy_joules",
                        "attributed_seconds",
                        "attributed_fraction",
                    ),
                    _NON_NEGATIVE,
                )
            ),
            "constructs": {"type": "array", "items": _CONSTRUCT},
            "kernels": {"type": "object"},
            "counters": {
                "type": "object",
                "additionalProperties": {"type": "number"},
            },
            "passes": {
                "type": "array",
                "items": record(
                    dict.fromkeys(("name", "runs", "changed", "seconds"), _ANY)
                ),
            },
            "spans": {"type": "array", "items": _SPAN},
        }
    ),
}


def validate_profile(doc, min_attributed_fraction: float = 0.95) -> None:
    """Validate a profile document; raise :class:`SchemaError`
    listing every departure from ``PROFILE_SCHEMA``.

    On a structurally sound document this also enforces the acceptance
    contract: every construct that cost simulated time must attribute at
    least ``min_attributed_fraction`` of its seconds to named phases.
    """
    errors = check(doc, PROFILE_SCHEMA, "profile")
    if not errors:
        for index, construct in enumerate(doc["constructs"]):
            fraction = construct["attributed_fraction"]
            if construct["seconds"] > 0 and fraction < min_attributed_fraction:
                errors.append(
                    f"profile.constructs[{index}].attributed_fraction: "
                    f"{fraction:.4f} < required {min_attributed_fraction} — "
                    "simulated time is leaking out of the named phases"
                )
    if errors:
        raise SchemaError(
            "profile does not match schema:\n  " + "\n  ".join(errors)
        )
