"""Policy compiler: intents -> verified, normalized policy rows.

ROADMAP item 3.  Administrators write :class:`PolicyIntent` records --
named, CIDR work-zone selectors, service-chain references -- and
:func:`compile_intents` turns them into the normalized rows of a
:class:`CompiledPolicyTable`, running pairwise conflict detection over
the selectors' match spaces on the way:

* **shadowed** (error): a row that can never fire because an earlier
  row in match order covers its whole space with a different effect.
* **contradictory** (error): ALLOW vs DROP/CHAIN on overlapping space
  at *equal* priority, where stable insertion order -- not intent --
  decides the winner.  Overlap across different priorities is the
  legitimate narrow-exception-over-broad-rule idiom and is not flagged.
* **redundant** (warning): a covered row whose effect is identical to
  its coverer's; harmless, but dead weight in the scan.

Match spaces reuse the wildcard algebra of
:class:`repro.openflow.match.Match` (``intersection``) for the
exact-valued fields, extended with integer IPv4 intervals so CIDR
blocks and octet prefixes participate in containment/overlap
reasoning rather than being treated as opaque.

A compile never touches any live table: the result is an immutable
artifact that :meth:`repro.core.policy.PolicyTable.apply_compiled`
swaps in atomically (or that a rejected compile simply discards,
leaving the previously committed table serving).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.packet import FlowNineTuple
from repro.openflow.match import Match

from repro.core.policy import (
    FailMode,
    FlowSelector,
    Granularity,
    Policy,
    PolicyAction,
    PolicyIndex,
    _Interval,
    _ip_interval,
    _table_order,
    ip_to_int,
    parse_cidr,
)


# ======================================================================
# Intents


@dataclass(frozen=True)
class PolicyIntent:
    """One administrator-facing statement of intent.

    ``src_zone`` / ``dst_zone`` are CIDR work-zone sugar that
    normalization folds into the selector's ``src_cidr`` / ``dst_cidr``
    (setting both the zone and the selector field is a contradiction
    and rejected)."""

    name: str
    action: PolicyAction
    selector: FlowSelector = field(default_factory=FlowSelector)
    src_zone: Optional[str] = None
    dst_zone: Optional[str] = None
    service_chain: Tuple[str, ...] = ()
    granularity: Granularity = Granularity.FLOW
    inspect_reply: bool = True
    priority: int = 100
    fail_mode: Optional[FailMode] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("intent needs a name")
        if self.src_zone is not None:
            parse_cidr(self.src_zone)
        if self.dst_zone is not None:
            parse_cidr(self.dst_zone)


_INTENT_FIELDS = {
    "name", "action", "selector", "src_zone", "dst_zone",
    "service_chain", "granularity", "inspect_reply", "priority",
    "fail_mode", "description",
}

_SELECTOR_FIELDS = {
    "src_mac", "dst_mac", "src_ip", "dst_ip",
    "src_ip_prefix", "dst_ip_prefix", "src_cidr", "dst_cidr",
    "nw_proto", "tp_src", "tp_dst", "vlan",
}


def intent_from_dict(entry: dict) -> PolicyIntent:
    """A :class:`PolicyIntent` from its JSON form (strict: unknown
    fields are rejected, matching the WireCodec convention)."""
    if not isinstance(entry, dict):
        raise ValueError(f"intent must be an object, got {type(entry).__name__}")
    unknown = set(entry) - _INTENT_FIELDS
    if unknown:
        raise ValueError(f"unknown intent field(s) {sorted(unknown)}")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("intent needs a non-empty string 'name'")
    try:
        action = PolicyAction(entry.get("action", "allow"))
    except ValueError:
        raise ValueError(
            f"intent {name!r}: unknown action {entry.get('action')!r}"
        ) from None
    selector_doc = entry.get("selector", {})
    if not isinstance(selector_doc, dict):
        raise ValueError(f"intent {name!r}: selector must be an object")
    unknown = set(selector_doc) - _SELECTOR_FIELDS
    if unknown:
        raise ValueError(
            f"intent {name!r}: unknown selector field(s) {sorted(unknown)}"
        )
    fail_mode = entry.get("fail_mode")
    return PolicyIntent(
        name=name,
        action=action,
        selector=FlowSelector(**selector_doc),
        src_zone=entry.get("src_zone"),
        dst_zone=entry.get("dst_zone"),
        service_chain=tuple(entry.get("service_chain", ())),
        granularity=Granularity(entry.get("granularity", "flow")),
        inspect_reply=bool(entry.get("inspect_reply", True)),
        priority=int(entry.get("priority", 100)),
        fail_mode=FailMode(fail_mode) if fail_mode is not None else None,
        description=str(entry.get("description", "")),
    )


def intent_to_dict(intent: PolicyIntent) -> dict:
    """The JSON form of an intent (only non-default fields emitted, so
    files stay reviewable)."""
    doc: dict = {"name": intent.name, "action": intent.action.value}
    selector = {
        name: getattr(intent.selector, name)
        for name in sorted(_SELECTOR_FIELDS)
        if getattr(intent.selector, name) is not None
    }
    if selector:
        doc["selector"] = selector
    if intent.src_zone is not None:
        doc["src_zone"] = intent.src_zone
    if intent.dst_zone is not None:
        doc["dst_zone"] = intent.dst_zone
    if intent.service_chain:
        doc["service_chain"] = list(intent.service_chain)
    if intent.granularity is not Granularity.FLOW:
        doc["granularity"] = intent.granularity.value
    if not intent.inspect_reply:
        doc["inspect_reply"] = False
    if intent.priority != 100:
        doc["priority"] = intent.priority
    if intent.fail_mode is not None:
        doc["fail_mode"] = intent.fail_mode.value
    if intent.description:
        doc["description"] = intent.description
    return doc


def intent_from_policy(policy: Policy) -> PolicyIntent:
    """Lift a normalized row back to intent form (used when emitting
    the v2 schema for a table built through the row-level API)."""
    return PolicyIntent(
        name=policy.name,
        action=policy.action,
        selector=policy.selector,
        service_chain=policy.service_chain,
        granularity=policy.granularity,
        inspect_reply=policy.inspect_reply,
        priority=policy.priority,
        fail_mode=policy.fail_mode,
    )


def normalize_intent(intent: PolicyIntent) -> Policy:
    """Lower one intent to a normalized :class:`Policy` row: zones fold
    into the selector's CIDR fields; structural constraints (CHAIN
    needs a chain, ...) are enforced by the Policy constructor."""
    selector = intent.selector
    updates = {}
    if intent.src_zone is not None:
        if selector.src_cidr is not None:
            raise ValueError(
                f"intent {intent.name!r}: both src_zone and selector.src_cidr set"
            )
        updates["src_cidr"] = intent.src_zone
    if intent.dst_zone is not None:
        if selector.dst_cidr is not None:
            raise ValueError(
                f"intent {intent.name!r}: both dst_zone and selector.dst_cidr set"
            )
        updates["dst_cidr"] = intent.dst_zone
    if updates:
        selector = FlowSelector(
            **{
                f: updates.get(f, getattr(selector, f))
                for f in _SELECTOR_FIELDS
            }
        )
    return Policy(
        name=intent.name,
        selector=selector,
        action=intent.action,
        service_chain=intent.service_chain,
        granularity=intent.granularity,
        inspect_reply=intent.inspect_reply,
        priority=intent.priority,
        fail_mode=intent.fail_mode,
    )


# ======================================================================
# Match spaces: Match wildcard algebra + IPv4 intervals

def _selector_match(selector: FlowSelector) -> Match:
    """The exact-valued fields of a selector as a Match (the IP
    constraints live in the interval layer; non-parseable exact IPs
    stay here as opaque pinned values)."""
    values: dict = {}
    if selector.src_mac is not None:
        values["dl_src"] = selector.src_mac
    if selector.dst_mac is not None:
        values["dl_dst"] = selector.dst_mac
    if selector.nw_proto is not None:
        values["nw_proto"] = selector.nw_proto
    if selector.tp_src is not None:
        values["tp_src"] = selector.tp_src
    if selector.tp_dst is not None:
        values["tp_dst"] = selector.tp_dst
    if selector.vlan is not None:
        values["dl_vlan"] = selector.vlan
    for side, exact in (("nw_src", selector.src_ip), ("nw_dst", selector.dst_ip)):
        if exact is not None:
            try:
                ip_to_int(exact)
            except ValueError:
                values[side] = exact  # opaque: interval layer can't see it
    return Match(**values)


def _format_interval(bounds: Optional[_Interval], label: str) -> Optional[str]:
    if bounds is None:
        return None
    lo, hi = bounds

    def fmt(value: int) -> str:
        return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    if lo == hi:
        return f"{label}={fmt(lo)}"
    span = hi - lo + 1
    if lo & (span - 1) == 0 and span & (span - 1) == 0:
        length = 32 - span.bit_length() + 1
        return f"{label}={fmt(lo)}/{length}"
    return f"{label}={fmt(lo)}-{fmt(hi)}"


@dataclass(frozen=True)
class _Space:
    """One selector's match space: the Match projection of its exact
    fields plus optional src/dst IPv4 intervals."""

    match: Match
    src: Optional[_Interval]
    dst: Optional[_Interval]

    @classmethod
    def of(cls, selector: FlowSelector) -> "_Space":
        return cls(
            match=_selector_match(selector),
            src=_ip_interval(
                selector.src_ip, selector.src_ip_prefix, selector.src_cidr
            ),
            dst=_ip_interval(
                selector.dst_ip, selector.dst_ip_prefix, selector.dst_cidr
            ),
        )

    def empty(self) -> bool:
        """Unsatisfiable: no flow can ever match (e.g. src_ip outside
        src_cidr, or an interval contradicting an opaque exact IP)."""
        for bounds, opaque in (
            (self.src, self.match.nw_src), (self.dst, self.match.nw_dst)
        ):
            if bounds is not None:
                if bounds[0] > bounds[1]:
                    return True
                if opaque is not None:
                    return True  # opaque string can never be IPv4-in-range
        return False


def _interval_covers(outer: Optional[_Interval], inner: Optional[_Interval],
                     inner_opaque: Optional[str]) -> bool:
    if outer is None:
        return True
    if inner is None:
        # Inner is unconstrained on this side unless an opaque exact
        # value pins it -- which can never sit inside an IPv4 interval.
        return False
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _interval_overlap(
    a: Optional[_Interval], b: Optional[_Interval]
) -> Tuple[bool, Optional[_Interval]]:
    if a is None and b is None:
        return True, None
    lo = max(x[0] for x in (a, b) if x is not None)
    hi = min(x[1] for x in (a, b) if x is not None)
    if lo > hi:
        return False, None
    return True, (lo, hi)


def space_covers(outer: _Space, inner: _Space) -> bool:
    """Every flow in ``inner`` also lies in ``outer``."""
    if inner.empty():
        return True
    if not inner.match.is_subset_of(outer.match):
        return False
    if not _interval_covers(outer.src, inner.src, inner.match.nw_src):
        return False
    if not _interval_covers(outer.dst, inner.dst, inner.match.nw_dst):
        return False
    return True


def space_overlap(a: _Space, b: _Space) -> Optional[str]:
    """A printable description of the shared match space, or None when
    the two spaces are disjoint."""
    if a.empty() or b.empty():
        return None
    common = a.match.intersection(b.match)
    if common is None:
        return None
    src_ok, src = _interval_overlap(a.src, b.src)
    dst_ok, dst = _interval_overlap(a.dst, b.dst)
    if not src_ok or not dst_ok:
        return None
    # An opaque pinned IP on either side excludes any interval on the
    # same side (non-IPv4 strings never fall inside IPv4 ranges).
    if src is not None and common.nw_src is not None:
        return None
    if dst is not None and common.nw_dst is not None:
        return None
    parts = [
        part
        for part in (
            _format_interval(src, "nw_src"),
            _format_interval(dst, "nw_dst"),
        )
        if part is not None
    ]
    exact = str(common)
    if exact != "Match(any)":
        parts.append(exact[len("Match("):-1])
    return ", ".join(parts) if parts else "any flow"


# ======================================================================
# Conflict detection


@dataclass(frozen=True)
class Conflict:
    """One finding from the pairwise detector.

    ``policies`` names both rows in match order (the earlier/winning
    row first); ``overlap`` describes the shared match space."""

    kind: str        # "shadowed" | "contradictory" | "redundant" | "unsatisfiable" | "unknown-service"
    severity: str    # "error" | "warning"
    policies: Tuple[str, ...]
    overlap: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "policies": list(self.policies),
            "overlap": self.overlap,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return (
            f"[{self.severity}] {self.kind}: {' vs '.join(self.policies)}"
            f" on {{{self.overlap}}} -- {self.detail}"
        )


def _effect(policy: Policy) -> Tuple[PolicyAction, Tuple[str, ...]]:
    return (policy.action, policy.service_chain)


def _row_findings(
    rows: Sequence[Policy],
    spaces: Sequence[_Space],
    service_types: Optional[Iterable[str]],
) -> List[Conflict]:
    """What one row gets wrong by itself: an unsatisfiable selector and,
    when ``service_types`` is given, a chain naming a service type the
    directory has never heard of."""
    findings: List[Conflict] = []
    known = set(service_types) if service_types is not None else None
    for policy, space in zip(rows, spaces):
        if space.empty():
            findings.append(Conflict(
                kind="unsatisfiable",
                severity="warning",
                policies=(policy.name,),
                overlap="(empty)",
                detail="selector constraints contradict each other;"
                       " no flow can ever match",
            ))
        if known is not None and policy.action is PolicyAction.CHAIN:
            missing = [t for t in policy.service_chain if t not in known]
            if missing:
                findings.append(Conflict(
                    kind="unknown-service",
                    severity="error",
                    policies=(policy.name,),
                    overlap="(n/a)",
                    detail=f"service chain references unknown service"
                           f" type(s) {missing}",
                ))
    return findings


def _pair_finding(
    earlier: Policy, later: Policy, earlier_space: _Space, later_space: _Space
) -> Optional[Conflict]:
    """The conflict between two rows, ``earlier`` ahead in match order,
    or None when their spaces are disjoint or their overlap is the
    legitimate narrow-exception-over-broad-rule idiom."""
    overlap = space_overlap(earlier_space, later_space)
    if overlap is None:
        return None
    if space_covers(earlier_space, later_space):
        # The later row can never fire.
        if _effect(earlier) == _effect(later):
            return Conflict(
                kind="redundant",
                severity="warning",
                policies=(earlier.name, later.name),
                overlap=overlap,
                detail=f"{later.name!r} is fully covered by"
                       f" {earlier.name!r} with the same effect;"
                       f" it only adds scan weight",
            )
        return Conflict(
            kind="shadowed",
            severity="error",
            policies=(earlier.name, later.name),
            overlap=overlap,
            detail=f"{later.name!r} ({later.action.value}) can"
                   f" never fire: {earlier.name!r}"
                   f" ({earlier.action.value}) wins its entire"
                   f" match space",
        )
    if (
        earlier.priority == later.priority
        and earlier.action is not later.action
        and PolicyAction.ALLOW in (earlier.action, later.action)
    ):
        # Partial overlap at the same priority with opposed
        # effects: insertion order, not intent, decides.
        return Conflict(
            kind="contradictory",
            severity="error",
            policies=(earlier.name, later.name),
            overlap=overlap,
            detail=f"{earlier.name!r} ({earlier.action.value}) and"
                   f" {later.name!r} ({later.action.value}) disagree"
                   f" on overlapping flows at equal priority"
                   f" {earlier.priority}; make priorities explicit",
        )
    return None


def verify_rows(
    rows: Sequence[Policy],
    service_types: Optional[Iterable[str]] = None,
) -> List[Conflict]:
    """Conflict findings over rows already in match order: each row by
    itself, then every pair whose match spaces meet.

    The index prunes, the algebra decides: a :class:`PolicyIndex` names
    the pairs whose keyed fields can agree and whose address blocks
    nest, in the ``(i, j)`` order a loop over all pairs would reach
    them, and only those go through ``space_overlap`` /
    ``space_covers``."""
    spaces = [_Space.of(p.selector) for p in rows]
    findings = _row_findings(rows, spaces, service_types)
    for i, j in PolicyIndex(rows).candidate_pairs():
        finding = _pair_finding(rows[i], rows[j], spaces[i], spaces[j])
        if finding is not None:
            findings.append(finding)
    return findings


class PolicyConflictError(ValueError):
    """A verified commit or compile refused by error-severity findings."""

    def __init__(self, findings: Sequence[Conflict]):
        self.findings = list(findings)
        lines = "\n".join(f"  {f}" for f in self.findings)
        super().__init__(f"policy conflicts:\n{lines}")


# ======================================================================
# The compiled artifact


class CompiledPolicyTable:
    """An immutable, verified policy table.

    Rows are held in exactly the order a :class:`PolicyTable` would
    hold them (same stable sort key) under the same
    :class:`PolicyIndex`, so ``match`` is observably identical --
    winner *and* scan count -- to the live table the artifact swaps
    into."""

    def __init__(
        self,
        rows: Sequence[Policy],
        default_action: PolicyAction = PolicyAction.ALLOW,
    ):
        if default_action is PolicyAction.CHAIN:
            raise ValueError("default action cannot be CHAIN")
        self._rows: Tuple[Policy, ...] = tuple(
            sorted(rows, key=_table_order)
        )
        self._index = PolicyIndex(self._rows)
        self._by_name: Dict[str, Policy] = {p.name: p for p in self._rows}
        self.default_action = default_action

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def get(self, name: Optional[str]) -> Optional[Policy]:
        if name is None:
            return None
        return self._by_name.get(name)

    def match(self, flow: FlowNineTuple) -> Tuple[Optional[Policy], int]:
        """First match plus its rank (PolicyTable.match semantics)."""
        return self._index.match(flow)


@dataclass
class CompileResult:
    """What a compile produced: the artifact (always built, even when
    rejected, so reports can point at concrete rows) plus findings."""

    table: CompiledPolicyTable
    findings: List[Conflict]
    intents: Tuple[PolicyIntent, ...]

    @property
    def errors(self) -> List[Conflict]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Conflict]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def report(self) -> str:
        """The human-readable compile report."""
        lines = [
            f"compiled {len(self.table)} polic"
            f"{'y' if len(self.table) == 1 else 'ies'} from"
            f" {len(self.intents)} intent(s):"
            f" {len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        ]
        lines.extend(str(f) for f in self.findings)
        lines.append("result: " + ("OK" if self.ok else "REJECTED"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "policies": len(self.table),
            "intents": len(self.intents),
            "findings": [f.to_dict() for f in self.findings],
        }


def compile_intents(
    intents: Iterable[PolicyIntent],
    default_action: PolicyAction = PolicyAction.ALLOW,
    service_types: Optional[Iterable[str]] = None,
) -> CompileResult:
    """Normalize, order and verify a set of intents.

    Structural problems (duplicate names, malformed intents) raise
    immediately; semantic conflicts land in the result's findings, and
    ``result.ok`` gates whether the artifact should ever reach a live
    table."""
    intents = tuple(intents)
    names = Counter(i.name for i in intents)
    duplicates = sorted(n for n, count in names.items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate intent names {duplicates}")
    rows = [normalize_intent(intent) for intent in intents]
    table = CompiledPolicyTable(rows, default_action=default_action)
    findings = verify_rows(list(table), service_types=service_types)
    return CompileResult(table=table, findings=findings, intents=intents)
