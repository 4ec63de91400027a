"""The global policy table (Sections IV.A, III.A).

"The LiveSec controller keeps a global policy table that is
pre-configured and managed by the network administrator.  The policy
table describes whether or which security service element should be
traversed for various end-to-end flows."

A :class:`Policy` couples a :class:`FlowSelector` (which end-to-end
flows it governs) with an action: allow, drop, or steer through a
*chain* of service types.  Policies are consulted on the first packet
of each flow, highest priority first; the first match wins.  The
default when nothing matches is configurable and defaults to allow
(plain end-to-end routing).

The live table is *transactional*: every change -- one policy or a
wholesale compiled swap -- goes through :meth:`PolicyTable.begin` /
:meth:`PolicyTransaction.commit`, which applies atomically, bumps the
monotonic version stamp exactly once, and notifies commit subscribers
(the controller turns those into ``PolicyReloaded`` bus events).
:meth:`PolicyTable.add` / :meth:`PolicyTable.remove` are one-row
transactions over the same path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace as dc_replace
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.packet import FlowNineTuple


class PolicyAction(Enum):
    """What to do with flows a policy selects."""

    ALLOW = "allow"
    DROP = "drop"
    CHAIN = "chain"


class Granularity(Enum):
    """Load-balancing granularity for steered flows (Section IV.B)."""

    FLOW = "flow"
    USER = "user"


class FailMode(Enum):
    """What a CHAIN policy does when no healthy element remains.

    ``OPEN`` keeps traffic flowing uninspected (availability over
    inspection); ``CLOSED`` blocks the governed flows at their ingress
    switch until an element returns (inspection over availability).
    A policy without an explicit mode inherits the controller-wide
    ``on_no_element`` default.
    """

    OPEN = "open"
    CLOSED = "closed"


# ======================================================================
# IPv4 helpers (shared with the policy compiler's match-space algebra)


def ip_to_int(ip: str) -> int:
    """A dotted-quad IPv4 address as a 32-bit integer (strict)."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {ip!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"not an IPv4 address: {ip!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"not an IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def _prefix_mask(length: int) -> int:
    return ((1 << length) - 1) << (32 - length) if length else 0


@lru_cache(maxsize=4096)
def parse_cidr(cidr: str) -> Tuple[int, int]:
    """``"a.b.c.d/len"`` as ``(network_int, prefix_len)`` (strict:
    the host bits must be zero, so a typo'd work zone fails loudly)."""
    base, sep, bits = cidr.partition("/")
    if not sep or not bits.isdigit():
        raise ValueError(f"not CIDR notation (a.b.c.d/len): {cidr!r}")
    length = int(bits)
    if length > 32:
        raise ValueError(f"CIDR prefix length out of range: {cidr!r}")
    network = ip_to_int(base)
    if network & ~_prefix_mask(length) & 0xFFFFFFFF:
        raise ValueError(f"host bits set in CIDR {cidr!r}")
    return network, length


def _cidr_net(cidr: str) -> Tuple[int, int]:
    """``"a.b.c.d/len"`` as ``(network_int, mask_int)``."""
    network, length = parse_cidr(cidr)
    return network, _prefix_mask(length)


def _ip_or_none(ip: Optional[str]) -> Optional[int]:
    """``ip`` as a 32-bit integer; None for None and for non-IPv4
    strings, the addresses that fall inside no CIDR block."""
    if ip is None:
        return None
    try:
        return ip_to_int(ip)
    except ValueError:
        return None


FlowAddrs = Tuple[Optional[int], Optional[int]]


def flow_addrs(flow: FlowNineTuple) -> FlowAddrs:
    """A flow's ``(nw_src, nw_dst)`` parsed once for a whole table
    scan (see :meth:`FlowSelector.matches`)."""
    return _ip_or_none(flow.nw_src), _ip_or_none(flow.nw_dst)


def cidr_contains(cidr: str, ip: Optional[str]) -> bool:
    """Whether ``ip`` falls inside the CIDR block (False for None or
    non-IPv4 strings)."""
    value = _ip_or_none(ip)
    if value is None:
        return False
    network, mask = _cidr_net(cidr)
    return (value & mask) == network


_Interval = Tuple[int, int]  # inclusive [lo, hi]


def _prefix_interval(prefix: str) -> Optional[_Interval]:
    """The address interval of an octet-aligned string prefix, or None
    when the prefix doesn't reduce to whole octets (trailing-dot and
    bare forms both pad with .0 / .255)."""
    trimmed = prefix.rstrip(".")
    if not trimmed:
        return (0, 0xFFFFFFFF)
    parts = trimmed.split(".")
    if len(parts) > 4 or not all(p.isdigit() and int(p) <= 255 for p in parts):
        return None
    lo = parts + ["0"] * (4 - len(parts))
    hi = parts + ["255"] * (4 - len(parts))
    return (ip_to_int(".".join(lo)), ip_to_int(".".join(hi)))


def _cidr_interval(cidr: str) -> _Interval:
    network, length = parse_cidr(cidr)
    span = (1 << (32 - length)) - 1 if length < 32 else 0
    return (network, network + span)


def _ip_interval(
    exact: Optional[str], prefix: Optional[str], cidr: Optional[str]
) -> Optional[_Interval]:
    """The tightest address interval a selector side pins, or None when
    unconstrained (or constrained only by an opaque non-IPv4 string,
    which the Match layer carries instead).  An empty intersection --
    e.g. ``src_ip`` outside ``src_cidr`` -- collapses to a reversed
    interval, which the space algebra reads as unsatisfiable.  Every
    other result is one CIDR-aligned block: aligned blocks nest or are
    disjoint, so intersecting them keeps the smallest."""
    intervals: List[_Interval] = []
    if exact is not None:
        value = _ip_or_none(exact)
        if value is not None:  # else opaque, handled as a Match field
            intervals.append((value, value))
    if prefix is not None:
        bounds = _prefix_interval(prefix)
        if bounds is not None:
            intervals.append(bounds)
    if cidr is not None:
        intervals.append(_cidr_interval(cidr))
    if not intervals:
        return None
    lo = max(b[0] for b in intervals)
    hi = min(b[1] for b in intervals)
    return (lo, hi)


def _octet_prefix_match(prefix: str, ip: str) -> bool:
    """Octet-aligned string-prefix match: ``"10.1"`` matches
    ``10.1.x.y`` but never ``10.10.x.y`` (the historical raw
    ``startswith`` did).  A trailing dot pins the boundary explicitly.
    """
    if not prefix:
        return True
    if ip == prefix:
        return True
    if prefix.endswith("."):
        return ip.startswith(prefix)
    return ip.startswith(prefix + ".")


@dataclass(frozen=True)
class FlowSelector:
    """A predicate over the 9-tuple.  ``None`` fields match anything.

    ``src_cidr`` / ``dst_cidr`` are real CIDR work-zone selectors
    (``"10.1.0.0/16"``).  ``src_ip_prefix`` / ``dst_ip_prefix`` are the
    historical dotted string prefixes ("10.0." style); bare prefixes
    are octet-aligned, so ``"10.1"`` no longer matches ``10.10.0.1``.
    """

    src_mac: Optional[str] = None
    dst_mac: Optional[str] = None
    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    src_ip_prefix: Optional[str] = None
    dst_ip_prefix: Optional[str] = None
    src_cidr: Optional[str] = None
    dst_cidr: Optional[str] = None
    nw_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None
    vlan: Optional[int] = None

    def __post_init__(self) -> None:
        # Malformed CIDR must fail at definition time, not lookup time;
        # the parsed (network, mask) pairs stay on the selector so a
        # lookup compares integers.
        object.__setattr__(self, "_nets", tuple(
            None if cidr is None else _cidr_net(cidr)
            for cidr in (self.src_cidr, self.dst_cidr)
        ))

    def matches(self, flow: FlowNineTuple, addrs: Optional[FlowAddrs] = None) -> bool:
        """``addrs`` is ``flow_addrs(flow)`` from a caller that scans
        many selectors for one flow and has parsed it already."""
        src_net, dst_net = self._nets
        if src_net is not None or dst_net is not None:
            src, dst = addrs if addrs is not None else flow_addrs(flow)
            if src_net is not None and (src is None or src & src_net[1] != src_net[0]):
                return False
            if dst_net is not None and (dst is None or dst & dst_net[1] != dst_net[0]):
                return False
        checks = (
            (self.src_mac, flow.dl_src),
            (self.dst_mac, flow.dl_dst),
            (self.src_ip, flow.nw_src),
            (self.dst_ip, flow.nw_dst),
            (self.nw_proto, flow.nw_proto),
            (self.tp_src, flow.tp_src),
            (self.tp_dst, flow.tp_dst),
            (self.vlan, flow.vlan),
        )
        for want, got in checks:
            if want is not None and want != got:
                return False
        if self.src_ip_prefix is not None:
            if flow.nw_src is None or not _octet_prefix_match(
                self.src_ip_prefix, flow.nw_src
            ):
                return False
        if self.dst_ip_prefix is not None:
            if flow.nw_dst is None or not _octet_prefix_match(
                self.dst_ip_prefix, flow.nw_dst
            ):
                return False
        return True

    def specificity(self) -> int:
        """How many fields are pinned (used as a tie-break)."""
        return sum(
            1
            for value in (
                self.src_mac, self.dst_mac, self.src_ip, self.dst_ip,
                self.src_ip_prefix, self.dst_ip_prefix,
                self.src_cidr, self.dst_cidr, self.nw_proto,
                self.tp_src, self.tp_dst, self.vlan,
            )
            if value is not None
        )


@dataclass
class Policy:
    """One row of the global policy table."""

    name: str
    selector: FlowSelector
    action: PolicyAction
    service_chain: Tuple[str, ...] = ()
    granularity: Granularity = Granularity.FLOW
    inspect_reply: bool = True
    priority: int = 100
    fail_mode: Optional[FailMode] = None
    hits: int = 0

    def __post_init__(self) -> None:
        if self.action is PolicyAction.CHAIN and not self.service_chain:
            raise ValueError(f"policy {self.name!r}: CHAIN needs a service_chain")
        if self.action is not PolicyAction.CHAIN and self.service_chain:
            raise ValueError(
                f"policy {self.name!r}: service_chain requires action=CHAIN"
            )
        if self.fail_mode is not None and self.action is not PolicyAction.CHAIN:
            raise ValueError(
                f"policy {self.name!r}: fail_mode requires action=CHAIN"
            )


def _table_order(policy: Policy) -> Tuple[int, int]:
    """Match order: highest priority first, most specific breaks ties
    (stable, so insertion order breaks exact ties)."""
    return (-policy.priority, -policy.selector.specificity())


# ======================================================================
# The tuple-space index: one structure, read by lookup and by the verifier

# The exact-valued selector fields a signature may pin, each beside the
# flow field it is compared with.
_KEYED_FIELDS = (
    ("src_mac", "dl_src"), ("dst_mac", "dl_dst"), ("nw_proto", "nw_proto"),
    ("tp_src", "tp_src"), ("tp_dst", "tp_dst"), ("vlan", "vlan"),
)

_FLOW_POSITIONS = tuple(
    FlowNineTuple._fields.index(field) for _, field in _KEYED_FIELDS
)

# (positions in _KEYED_FIELDS that are pinned, src prefix length, dst
# prefix length); a side that pins no address has length 0.
_Signature = Tuple[Tuple[int, ...], int, int]
# (the pinned values in signature order, src block, dst block), a block
# being the network address shifted down by its host bits.
_Key = Tuple[tuple, int, int]


def _side_block(
    exact: Optional[str], prefix: Optional[str], cidr: Optional[str]
) -> Optional[Tuple[int, int]]:
    """``(prefix length, block)`` of the one CIDR-aligned block a
    selector side pins -- ``(0, 0)`` when it pins nothing -- or None
    when a block does not say everything the side demands: an opaque
    non-IPv4 exact address, a string prefix that is not whole octets, or
    constraints that contradict each other."""
    if exact is not None and _ip_or_none(exact) is None:
        return None
    if prefix is not None and _prefix_interval(prefix) is None:
        return None
    bounds = _ip_interval(exact, prefix, cidr)
    if bounds is None:
        return 0, 0
    lo, hi = bounds
    if lo > hi:
        return None
    length = 33 - (hi - lo + 1).bit_length()
    return length, lo >> (32 - length)


def _selector_key(selector: FlowSelector) -> Optional[Tuple[_Signature, _Key]]:
    """Where a selector sits in the index, or None when it cannot be
    keyed and its row must always be read."""
    src = _side_block(selector.src_ip, selector.src_ip_prefix, selector.src_cidr)
    dst = _side_block(selector.dst_ip, selector.dst_ip_prefix, selector.dst_cidr)
    if src is None or dst is None:
        return None
    pinned, values = [], []
    for position, (name, _) in enumerate(_KEYED_FIELDS):
        value = getattr(selector, name)
        if value is not None:
            pinned.append(position)
            values.append(value)
    key = (tuple(values), src[1], dst[1])
    try:
        hash(key)
    except TypeError:  # a document pinned a field to a JSON array
        return None
    return (tuple(pinned), src[0], dst[0]), key


def _projection(signature: _Signature, other: _Signature):
    """A key of ``signature`` cut down to what it must share with a key
    of ``other`` for their rows' match spaces to meet: the values of the
    fields both pin, and each address block at the shorter prefix."""
    pinned, src_len, dst_len = signature
    shared = [at for at, position in enumerate(pinned) if position in other[0]]
    src_cut = max(src_len - other[1], 0)
    dst_cut = max(dst_len - other[2], 0)

    def project(key: _Key) -> _Key:
        values, src, dst = key
        return tuple([values[at] for at in shared]), src >> src_cut, dst >> dst_cut

    return project


class PolicyIndex:
    """A tuple-space classifier over rows in match order (the scheme
    Open vSwitch, the paper's AS switch, uses for its own tables).

    Rows are grouped by *signature* -- which exact fields they pin and
    the prefix length of the address block each side pins -- and every
    group is a hash from the pinned values to its rows' ranks, ascending.
    A row whose selector cannot be keyed sits in the residual list,
    which every reader reads in full.  The index only ever *prunes*:
    :meth:`match` confirms each candidate with ``FlowSelector.matches``
    and the verifier hands :meth:`candidate_pairs` to the match-space
    algebra, so a table whose rows all differ in signature degrades to
    the scan it replaces and no further.
    """

    def __init__(self, rows: Sequence[Policy]):
        self._rows = rows
        self._groups: Dict[_Signature, Dict[_Key, List[int]]] = {}
        self._residual: List[int] = []
        for rank, policy in enumerate(rows):
            keyed = _selector_key(policy.selector)
            if keyed is None:
                self._residual.append(rank)
            else:
                signature, key = keyed
                self._groups.setdefault(signature, {}).setdefault(
                    key, []
                ).append(rank)
        # What one lookup does per signature: the flow fields to read,
        # the host bits to shift off each address, the hash to probe.
        self._probes = [
            (tuple(_FLOW_POSITIONS[position] for position in pinned),
             32 - src_len, 32 - dst_len, group)
            for (pinned, src_len, dst_len), group in self._groups.items()
        ]

    def match(self, flow: FlowNineTuple) -> Tuple[Optional[Policy], int]:
        """The first row in match order whose selector matches, plus its
        1-based rank -- the rows a linear scan would have read to find
        it (all of them on a miss)."""
        rows = self._rows
        best = len(rows)
        src, dst = addrs = flow_addrs(flow)
        if src is None or dst is None:
            # Without two IPv4 addresses the flow falls in no block, yet
            # it can match a row that pins no address -- or, through a
            # malformed address string, a string prefix: only
            # ``matches`` can tell, so every row is a candidate.
            buckets: List[Sequence[int]] = [range(best)]
        else:
            buckets = [self._residual]
            for positions, src_shift, dst_shift, group in self._probes:
                values = tuple([flow[at] for at in positions]) if positions else ()
                bucket = group.get((values, src >> src_shift, dst >> dst_shift))
                if bucket is not None:
                    buckets.append(bucket)
        for bucket in buckets:
            for rank in bucket:
                if rank >= best:
                    break
                if rows[rank].selector.matches(flow, addrs):
                    best = rank
                    break
        if best == len(rows):
            return None, best
        return rows[best], best + 1

    def candidate_pairs(self) -> List[Tuple[int, int]]:
        """Every rank pair ``(i, j)``, ``i < j``, whose match spaces can
        meet, in ``(i, j)`` order: the rows of one bucket, the rows of
        two signatures whose shared fields agree and whose blocks nest
        (one hash join per signature pair), and each residual row with
        every other row."""
        pairs: Set[Tuple[int, int]] = set()
        for (signature, group), (other, other_group) in combinations(
            self._groups.items(), 2
        ):
            project = _projection(other, signature)
            joined: Dict[_Key, List[int]] = {}
            for key, ranks in other_group.items():
                joined.setdefault(project(key), []).extend(ranks)
            project = _projection(signature, other)
            for key, ranks in group.items():
                for j in joined.get(project(key), ()):
                    pairs.update((i, j) if i < j else (j, i) for i in ranks)
        for group in self._groups.values():
            for ranks in group.values():
                pairs.update(combinations(ranks, 2))
        for rank in self._residual:
            pairs.update((other, rank) for other in range(rank))
            pairs.update(
                (rank, other) for other in range(rank + 1, len(self._rows))
            )
        return sorted(pairs)


@dataclass(frozen=True)
class PolicyCommit:
    """The record of one atomic table swap, handed to commit
    subscribers (and carried by the ``PolicyReloaded`` bus event)."""

    version: int
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    source: str
    policies: int
    default_action: PolicyAction


class PolicyTransaction:
    """Staged changes against a :class:`PolicyTable`.

    All mutation happens on a private copy; the live table is untouched
    until :meth:`commit`, which swaps the whole row set in atomically
    (one version bump, one commit notification) -- or never, if the
    transaction is aborted or :meth:`commit` with ``verify=True``
    rejects it.  ``validate()`` reports structural problems and
    pairwise conflicts without committing anything.
    """

    def __init__(self, table: "PolicyTable", source: str = "api"):
        self._table = table
        self.source = source
        self._rows: List[Policy] = list(table._policies)
        self._by_name: Dict[str, Policy] = {p.name: p for p in self._rows}
        self._default = table.default_action
        self._added: List[str] = []
        self._removed: List[str] = []
        self._closed = False

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("transaction already committed or aborted")

    # ------------------------------------------------------------------
    # Staging

    def add(self, policy: Policy) -> "PolicyTransaction":
        """Stage one policy (duplicate names rejected immediately)."""
        self._ensure_open()
        if policy.name in self._by_name:
            raise ValueError(f"duplicate policy name {policy.name!r}")
        self._rows.append(policy)
        self._by_name[policy.name] = policy
        self._added.append(policy.name)
        return self

    def remove(self, name: str) -> Optional[Policy]:
        """Stage one removal; returns the staged-out policy or None."""
        self._ensure_open()
        policy = self._by_name.pop(name, None)
        if policy is None:
            return None
        self._rows.remove(policy)
        if name in self._added:
            self._added.remove(name)
        else:
            self._removed.append(name)
        return policy

    def replace_all(
        self,
        policies: Iterable[Policy],
        default_action: Optional[PolicyAction] = None,
    ) -> "PolicyTransaction":
        """Stage a wholesale swap: the new row set replaces everything."""
        self._ensure_open()
        new_rows = list(policies)
        names = Counter(p.name for p in new_rows)
        duplicates = sorted(n for n, count in names.items() if count > 1)
        if duplicates:
            raise ValueError(f"duplicate policy names {duplicates}")
        old_names = {p.name for p in self._table._policies}
        new_names = set(names)
        self._rows = new_rows
        self._by_name = {p.name: p for p in new_rows}
        self._added = sorted(new_names - old_names)
        self._removed = sorted(old_names - new_names)
        if default_action is not None:
            self.set_default_action(default_action)
        return self

    def set_default_action(self, action: PolicyAction) -> "PolicyTransaction":
        self._ensure_open()
        if action is PolicyAction.CHAIN:
            raise ValueError("default action cannot be CHAIN")
        self._default = action
        return self

    # ------------------------------------------------------------------
    # Verification and the atomic swap

    def validate(self, service_types=None) -> list:
        """Conflict findings over the staged table (no commit).

        Delegates to the policy compiler's pairwise detector (which
        reads its pairs off a :class:`PolicyIndex`): the staged rows in
        match order, plus service-chain reference checks when
        ``service_types`` is given.  Returns a list of
        :class:`repro.core.policy_compiler.Conflict` findings.
        """
        self._ensure_open()
        from repro.core.policy_compiler import verify_rows

        return verify_rows(
            sorted(self._rows, key=_table_order), service_types=service_types
        )

    def commit(self, verify: bool = False) -> PolicyCommit:
        """Apply the staged changes atomically.

        With ``verify=True`` the transaction first runs
        :meth:`validate` and refuses to commit on any error-severity
        finding (raising ``PolicyConflictError``), leaving the live
        table untouched.  On success the row set, name index and
        default action swap in as one step, the version bumps exactly
        once, and commit subscribers fire.
        """
        self._ensure_open()
        if verify:
            from repro.core.policy_compiler import PolicyConflictError

            errors = [f for f in self.validate() if f.severity == "error"]
            if errors:
                raise PolicyConflictError(errors)
        rows = sorted(self._rows, key=_table_order)
        table = self._table
        table._policies = rows
        table._index = PolicyIndex(rows)
        table._by_name = {p.name: p for p in rows}
        table.default_action = self._default
        table.version += 1
        self._closed = True
        commit = PolicyCommit(
            version=table.version,
            added=tuple(self._added),
            removed=tuple(self._removed),
            source=self.source,
            policies=len(rows),
            default_action=self._default,
        )
        for callback in list(table._commit_callbacks):
            callback(commit)
        return commit

    def abort(self) -> None:
        """Discard the staged changes; the table never sees them."""
        self._closed = True


class PolicyTable:
    """Ordered policy lookup: highest priority, then most specific.

    Mutation is transactional (:meth:`begin`); the name index makes
    :meth:`get` O(1); :meth:`match` reads the :class:`PolicyIndex` each
    commit rebuilds, and the winner's rank feeds the
    ``controller.policy_lookup_scans`` histogram.
    """

    def __init__(self, default_action: PolicyAction = PolicyAction.ALLOW):
        if default_action is PolicyAction.CHAIN:
            raise ValueError("default action cannot be CHAIN")
        self._policies: List[Policy] = []
        self._index = PolicyIndex(self._policies)
        self._by_name: Dict[str, Policy] = {}
        self.default_action = default_action
        self.version = 0
        self._commit_callbacks: List[Callable[[PolicyCommit], None]] = []

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self):
        return iter(self._policies)

    # ------------------------------------------------------------------
    # Transactions

    def begin(self, source: str = "api") -> PolicyTransaction:
        """Open a transaction; nothing changes until its commit."""
        return PolicyTransaction(self, source=source)

    def on_commit(
        self, callback: Callable[[PolicyCommit], None]
    ) -> Callable[[], None]:
        """Subscribe to atomic swaps; returns an unsubscribe callable.
        The controller bridges these into ``PolicyReloaded`` bus
        events."""
        self._commit_callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                self._commit_callbacks.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def apply_compiled(self, compiled, source: str = "compiler") -> PolicyCommit:
        """Atomically swap in a compiled table (rows are copied with
        fresh hit counters, so the compiled artifact stays pristine and
        re-appliable)."""
        txn = self.begin(source=source)
        txn.replace_all(
            [dc_replace(policy, hits=0) for policy in compiled],
            default_action=compiled.default_action,
        )
        return txn.commit()

    def attach_metrics(self, registry) -> None:
        """Register the table's gauges on an obs registry: the version
        stamp and the row count."""
        registry.gauge(
            "policy.version", "Monotonic policy-table version stamp"
        ).set_function(lambda: float(self.version))
        registry.gauge(
            "policy.rows", "Policies in the live table"
        ).set_function(lambda: float(len(self._policies)))

    # ------------------------------------------------------------------
    # One-row transactions

    def add(self, policy: Policy) -> None:
        """Add one policy: ``begin()``, ``add``, ``commit()`` -- one
        version bump, one commit notification."""
        txn = self.begin(source="legacy:add")
        txn.add(policy)
        txn.commit()

    def remove(self, name: str) -> Optional[Policy]:
        """Remove one policy by name in its own transaction; returns
        it, or None when no such policy exists."""
        txn = self.begin(source="legacy:remove")
        removed = txn.remove(name)
        if removed is None:
            # No-op removals never bump the version (historical shape).
            txn.abort()
            return None
        txn.commit()
        return removed

    # ------------------------------------------------------------------
    # Lookup

    def get(self, name: Optional[str]) -> Optional[Policy]:
        """The policy registered under ``name``, or None (including for
        ``name=None``, the default-routed sessions' policy label).
        O(1) via the name index the transaction API maintains."""
        if name is None:
            return None
        return self._by_name.get(name)

    def match(self, flow: FlowNineTuple) -> Tuple[Optional[Policy], int]:
        """The winning policy (or None) plus the number of table rows
        a scan would have read to find it -- the winner's rank, or the
        table size on a miss -- which the controller feeds into its
        ``controller.policy_lookup_scans`` histogram.

        Side-effect-free: hit accounting is the caller's explicit
        choice via :meth:`record_hit`.
        """
        return self._index.match(flow)

    def lookup(self, flow: FlowNineTuple) -> Optional[Policy]:
        """The winning policy for a flow, or None (-> default action).

        Read-only: unlike the historical behavior, looking up a flow
        no longer increments :attr:`Policy.hits`, so monitoring
        consumers (``effective_action``, the WebUI) can probe freely.
        Enforcement paths call :meth:`record_hit` when they act on the
        match.
        """
        return self.match(flow)[0]

    def record_hit(self, policy: Policy) -> None:
        """Count one enforcement of ``policy`` (called by the
        controller when it acts on a lookup result)."""
        policy.hits += 1

    def effective_action(self, flow: FlowNineTuple) -> PolicyAction:
        policy = self.lookup(flow)
        return policy.action if policy is not None else self.default_action
