"""Policy persistence: versioned JSON documents.

Section IV.A: the global policy table "is pre-configured and managed
by the network administrator".  In practice that means it lives in a
config file; this module round-trips policy through plain JSON so
deployments can be versioned, reviewed and hot-reloaded.

Two schemas are accepted (``schema_version`` selects; absent means 1):

* **v1** (historical, flat rows)::

      {
        "default_action": "allow",
        "policies": [
          {"name": "inspect-internet", "action": "chain",
           "service_chain": ["ids"],
           "selector": {"dst_ip": "10.255.255.254"}}
        ]
      }

* **v2** (intents -- what :func:`save_policies` now emits)::

      {
        "schema_version": 2,
        "default_action": "allow",
        "intents": [
          {"name": "quarantine-lab", "action": "drop",
           "src_zone": "10.66.0.0/16", "priority": 150}
        ]
      }

A v1 row *is* a v2 intent without the zone sugar, so one reader,
:func:`load_intents`, parses both (entries through
``policy_compiler.intent_from_dict``).  It is strict: unknown
top-level, entry or selector fields are rejected (a typo'd field must
not silently become a match-everything policy), and every failure is a
:class:`PolicyFormatError`.  Documents flow through the policy
compiler, so loading with ``verify=True`` rejects conflicting
documents before anything reaches a live table.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.core.policy import PolicyAction, PolicyTable
from repro.core.policy_compiler import (
    PolicyConflictError,
    PolicyIntent,
    compile_intents,
    intent_from_dict,
    intent_from_policy,
    intent_to_dict,
)

SCHEMA_VERSION = 2

# schema_version -> the key its entries live under.
_ENTRIES_KEY = {1: "policies", SCHEMA_VERSION: "intents"}


class PolicyFormatError(ValueError):
    """Raised when a policy document is malformed."""


def table_to_dict(table) -> Dict[str, object]:
    """Serialize a table (live or compiled) as a v2 intent document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "default_action": table.default_action.value,
        "intents": [
            intent_to_dict(intent_from_policy(policy)) for policy in table
        ],
    }


def _read_json(path: str) -> object:
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise PolicyFormatError(f"not valid JSON: {exc}") from exc


def load_intents(source) -> Tuple[List[PolicyIntent], PolicyAction]:
    """The one document reader: the intents (in file order) and the
    default action of a v1 or v2 document, given as a file path or
    already parsed.  Structural validation only; conflicts are the
    compiler's business."""
    document = _read_json(source) if isinstance(source, str) else source
    if not isinstance(document, dict):
        raise PolicyFormatError("policy document must be an object")
    version = document.get("schema_version", 1)
    key = _ENTRIES_KEY.get(version)
    if key is None:
        raise PolicyFormatError(
            f"unsupported schema_version {version!r}"
            f" (know 1 and {SCHEMA_VERSION})"
        )
    unknown = set(document) - {"schema_version", "default_action", key}
    if unknown:
        raise PolicyFormatError(f"unknown document field(s) {sorted(unknown)}")
    entries = document.get(key, [])
    if not isinstance(entries, list):
        raise PolicyFormatError(f"{key!r} must be a list")
    try:
        intents = [intent_from_dict(entry) for entry in entries]
        default = PolicyAction(document.get("default_action", "allow"))
    except (TypeError, ValueError) as exc:
        raise PolicyFormatError(str(exc)) from exc
    if default is PolicyAction.CHAIN:
        raise PolicyFormatError("default action cannot be 'chain'")
    return intents, default


def table_from_dict(
    document: Dict[str, object], verify: bool = False
) -> PolicyTable:
    """Deserialize a table, validating every field.

    With ``verify=True`` the document also runs through the compiler's
    conflict detector and error-severity findings raise
    :class:`PolicyFormatError` -- nothing half-loaded escapes.
    """
    intents, default = load_intents(document)
    try:
        result = compile_intents(intents, default_action=default)
    except ValueError as exc:
        raise PolicyFormatError(str(exc)) from exc
    if verify and not result.ok:
        raise PolicyFormatError(
            "policy document rejected by conflict verification:\n"
            + "\n".join(f"  {f}" for f in result.errors)
        )
    table = PolicyTable(default_action=default)
    table.apply_compiled(result.table, source="policy_io")
    table.version = 0  # a freshly loaded table starts at version zero
    return table


def save_policies(table, path: str) -> None:
    """Write a table to a JSON file (v2 schema)."""
    with open(path, "w") as handle:
        json.dump(table_to_dict(table), handle, indent=2)
        handle.write("\n")


def load_policies(path: str, verify: bool = False) -> PolicyTable:
    """Read a table from a JSON file (either schema)."""
    return table_from_dict(_read_json(path), verify=verify)


__all__ = [
    "PolicyFormatError",
    "PolicyConflictError",
    "SCHEMA_VERSION",
    "table_to_dict",
    "table_from_dict",
    "save_policies",
    "load_policies",
    "load_intents",
]
