"""Flow tables: prioritized flow entries with timeouts and counters.

Semantics follow OpenFlow 1.0: the highest-priority matching entry
wins; an entry with an idle timeout expires when unused for that long;
a hard timeout bounds total lifetime; adding an entry with an identical
match and priority replaces the old one; non-strict delete/modify
affect every entry whose match is wildcarded-covered by the given
match; strict delete requires exact match *and* priority equality.

Lookup is two-tier.  Fully-specified matches (the paper's 9-tuple +
in_port, :meth:`Match.exact_index_key`) live in a hash index keyed by
the frame's extracted key -- the common case, since every steering
rule is derived from a concrete first packet.  Matches with genuine
wildcards (source blocks, table-miss catch-alls) live in a small list
ordered like the classic linear scan.  A lookup takes the best exact
candidate, scans the wildcard list only while it could still win, and
breaks priority ties by insertion sequence -- observably identical to
the linear reference scan, which is kept as :meth:`_lookup_linear` and
property-tested against the index.

Expiry is driven by a lazy min-heap of (deadline, entry): every lookup
first evicts the entries whose deadline has passed (so the table never
serves -- or counts -- dead entries), and the periodic sweep only pops
the heap instead of scanning the whole table.  Idle refreshes leave a
stale heap node behind; it is re-sorted on pop, never rescanned.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.packet import Ethernet
from repro.openflow.actions import Action, ActionPlan, compile_actions
from repro.openflow.match import Match, frame_index_key

DEFAULT_PRIORITY = 100

# Observe the lookup-latency histogram every Nth lookup: the wall-clock
# clock reads would otherwise dominate the fast path they measure.
LATENCY_SAMPLE_STRIDE = 64


@dataclass
class FlowEntry:
    """One row of a flow table.

    An empty ``actions`` list means drop.  ``idle_timeout`` /
    ``hard_timeout`` of 0 mean "never expires" (OpenFlow convention).
    """

    match: Match
    actions: Tuple[Action, ...] = ()
    priority: int = DEFAULT_PRIORITY
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    send_flow_removed: bool = False
    created_at: float = 0.0
    last_used_at: float = 0.0
    packets: int = 0
    bytes: int = 0
    # Table-internal bookkeeping: insertion sequence (priority
    # tie-break) and residency (lazy heap nodes outlive evicted rows).
    seq: int = field(default=0, compare=False, repr=False)
    resident: bool = field(default=False, compare=False, repr=False)
    # repro.net.fluid.ClockShare of the suspended flows whose analytic
    # packets hit this entry, else None.  FlowMods materialize first, so
    # an entry that is replaced, modified or deleted never carries one.
    fluid: Optional[object] = field(default=None, compare=False, repr=False)
    # ``actions`` compiled for the datapath; rebuilt by FlowTable.modify,
    # the one place that replaces an entry's actions.
    plan: ActionPlan = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.plan = compile_actions(self.actions)

    @property
    def is_drop(self) -> bool:
        return not self.actions

    def touch(self, now: float, size: int) -> None:
        """Record a packet hit."""
        self.last_used_at = now
        self.packets += 1
        self.bytes += size

    def expired(self, now: float) -> Optional[str]:
        """'idle', 'hard' or None."""
        if self.hard_timeout > 0 and now - self.created_at >= self.hard_timeout:
            return "hard"
        if self.idle_timeout > 0 and now - self.last_used_at >= self.idle_timeout:
            # Nothing stores the hits of suspended flows until a settle;
            # only here, about to idle out, does anyone need to ask.
            share = self.fluid
            if share is None or now - share.latest(now) >= self.idle_timeout:
                return "idle"
        return None

    def next_deadline(self) -> Optional[float]:
        """The earliest future time this entry could expire, or None."""
        deadline = None
        if self.hard_timeout > 0:
            deadline = self.created_at + self.hard_timeout
        if self.idle_timeout > 0:
            idle_deadline = self.last_used_at + self.idle_timeout
            if deadline is None or idle_deadline < deadline:
                deadline = idle_deadline
        return deadline

    def __str__(self) -> str:
        acts = ",".join(str(a) for a in self.actions) or "drop"
        return f"[prio={self.priority} {self.match} -> {acts}]"


@dataclass
class _RemovedEntry:
    """An entry evicted by timeout, with the reason, for FlowRemoved."""

    entry: FlowEntry
    reason: str


def _precedes(entry: FlowEntry, other: FlowEntry) -> bool:
    """Whether ``entry`` comes before ``other`` in linear-scan order:
    descending priority, then insertion order."""
    return entry.priority > other.priority or (
        entry.priority == other.priority and entry.seq < other.seq
    )


def _scan_position(entries: List[FlowEntry], priority: int, seq: int) -> int:
    """Where ``(priority, seq)`` sits in a list kept in linear-scan
    order (descending priority, then insertion order): the index of the
    resident entry with that pair, or the slot a new one takes.

    A hand-rolled bisection because ``bisect`` has no ``key=`` before
    Python 3.10; it compares fields, so no key tuples are built.
    """
    low, high = 0, len(entries)
    while low < high:
        mid = (low + high) // 2
        entry = entries[mid]
        if entry.priority > priority or (
            entry.priority == priority and entry.seq < seq
        ):
            low = mid + 1
        else:
            high = mid
    return low


class FlowTable:
    """A single OpenFlow 1.0-style flow table with an indexed fast path."""

    def __init__(self) -> None:
        # Master view, kept in linear-scan order for iteration, stats
        # and the control-plane operations (delete/modify are rare).
        self._entries: List[FlowEntry] = []
        # (match, priority) -> entry: O(1) add-replace and strict delete.
        self._by_key: Dict[Tuple[Match, int], FlowEntry] = {}
        # Exact-index buckets (distinct priorities share one bucket).
        self._exact: Dict[Tuple, List[FlowEntry]] = {}
        # Wildcard entries in linear-scan order.
        self._wild: List[FlowEntry] = []
        # Lazy expiry heap of (deadline, seq, entry); stale nodes are
        # dropped on pop via the entry's residency flag.
        self._heap: List[Tuple[float, int, FlowEntry]] = []
        self._seq = 0
        #: Entries evicted by lookups and not yet drained through
        #: :meth:`take_removed`; the datapath tests it per frame.
        self.pending_removals: List[_RemovedEntry] = []
        self.lookups = 0
        self.matched = 0
        self.exact_hits = 0
        self.wildcard_hits = 0
        self.misses = 0
        self.evicted_on_lookup = 0
        self._latency_hist = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self) -> Sequence[FlowEntry]:
        return tuple(self._entries)

    def wildcard_entries(self) -> Sequence[FlowEntry]:
        """The entries outside the exact index (tests/introspection)."""
        return tuple(self._wild)

    # ------------------------------------------------------------------
    # Observability

    def attach_metrics(self, registry, settle=lambda: None, **labels) -> None:
        """Publish index effectiveness through an obs registry.

        Hit/miss counts are pull-mode gauges reading the live counters
        (nothing added to the per-frame fast path); the latency
        histogram samples every ``LATENCY_SAMPLE_STRIDE``-th lookup.
        ``settle`` is the owning datapath's hook (returning None) that
        collects what a fluid region still owes the hit totals; they
        are read after it.
        """
        registry.gauge(
            "switch.lookup_exact_hits",
            "Lookups answered by the exact-match hash index", **labels,
        ).set_function(lambda: settle() or self.exact_hits)
        registry.gauge(
            "switch.lookup_wildcard_hits",
            "Lookups answered by the wildcard list", **labels,
        ).set_function(lambda: settle() or self.wildcard_hits)
        registry.gauge(
            "switch.lookup_misses", "Lookups with no live match", **labels,
        ).set_function(lambda: self.misses)
        registry.gauge(
            "switch.lookup_evictions",
            "Expired entries evicted during lookups", **labels,
        ).set_function(lambda: self.evicted_on_lookup)
        self._latency_hist = registry.histogram(
            "switch.lookup_latency_s",
            "Wall-clock flow-table lookup cost (sampled)", **labels,
        )

    # ------------------------------------------------------------------
    # Mutation

    def add(self, entry: FlowEntry, now: float) -> None:
        """Insert, replacing any entry with identical match+priority."""
        entry.created_at = now
        entry.last_used_at = now
        old = self._by_key.get((entry.match, entry.priority))
        if old is not None:
            self._discard(old)
        self._seq += 1
        entry.seq = self._seq
        entry.resident = True
        self._by_key[(entry.match, entry.priority)] = entry
        # The new entry holds the highest seq, so its slot is after
        # every entry of its own or a higher priority.
        self._entries.insert(
            _scan_position(self._entries, entry.priority, entry.seq), entry
        )
        key = entry.match.exact_index_key()
        if key is not None:
            self._exact.setdefault(key, []).append(entry)
        else:
            self._wild.insert(
                _scan_position(self._wild, entry.priority, entry.seq), entry
            )
        deadline = entry.next_deadline()
        if deadline is not None:
            heapq.heappush(self._heap, (deadline, entry.seq, entry))

    def _discard(self, entry: FlowEntry) -> None:
        """Unlink an entry from every structure (not the heap: its node
        is skipped on pop via the residency flag)."""
        assert entry.fluid is None, "entry discarded under a suspended flow"
        entry.resident = False
        index = _scan_position(self._entries, entry.priority, entry.seq)
        assert self._entries[index] is entry
        del self._entries[index]
        if self._by_key.get((entry.match, entry.priority)) is entry:
            del self._by_key[(entry.match, entry.priority)]
        key = entry.match.exact_index_key()
        if key is not None:
            bucket = self._exact.get(key)
            if bucket is not None:
                for index, existing in enumerate(bucket):
                    if existing is entry:
                        del bucket[index]
                        break
                if not bucket:
                    del self._exact[key]
        else:
            del self._wild[
                _scan_position(self._wild, entry.priority, entry.seq)
            ]

    def modify(self, match: Match, actions: Tuple[Action, ...], now: float,
               strict_priority: Optional[int] = None) -> int:
        """OpenFlow MODIFY: update actions of covered entries in place,
        preserving counters.  Returns the number modified.

        Mirrors non-strict delete's direction (OF 1.0): only entries
        whose match is wildcarded-covered by ``match`` are touched, a
        broader entry is never rewritten by a narrower MODIFY.
        """
        count = 0
        plan = compile_actions(actions)
        for entry in self._entries:
            if strict_priority is not None and entry.priority != strict_priority:
                continue
            if entry.match.is_subset_of(match):
                assert entry.fluid is None, "entry modified under a suspended flow"
                entry.actions = actions
                entry.plan = plan
                count += 1
        return count

    def delete(self, match: Match, strict: bool = False,
               priority: Optional[int] = None) -> List[FlowEntry]:
        """OpenFlow DELETE: remove matching entries and return them.

        Non-strict (default) removes every entry whose match is covered
        by ``match``; strict requires exact match equality *and* an
        explicit priority (OF 1.0 strict semantics -- a strict delete
        that spans priorities is a caller bug).
        """
        if strict:
            if priority is None:
                raise ValueError(
                    "strict delete requires an explicit priority (OF 1.0)"
                )
            entry = self._by_key.get((match, priority))
            if entry is None:
                return []
            self._discard(entry)
            return [entry]
        removed = [e for e in self._entries if e.match.is_subset_of(match)]
        for entry in removed:
            self._discard(entry)
        return removed

    # ------------------------------------------------------------------
    # Expiry

    def _evict_due(self, now: float) -> None:
        """Pop every entry whose deadline has passed; refreshed entries
        are re-pushed with their current deadline."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, seq, entry = heapq.heappop(heap)
            if not entry.resident:
                continue
            reason = entry.expired(now)
            if reason is None:
                # Idle deadline moved by traffic since the push.
                deadline = entry.next_deadline()
                if deadline is not None:
                    if deadline <= now:
                        # expired() subtracts while the deadline adds;
                        # float rounding can disagree by one ulp.  The
                        # heap is only a wake-up schedule -- expired()
                        # stays the oracle -- but the re-push must land
                        # strictly after ``now`` or this loop never
                        # terminates.
                        deadline = math.nextafter(now, math.inf)
                    heapq.heappush(heap, (deadline, seq, entry))
                continue
            # A hard timeout can pass under suspended flows: they stop
            # short of it by themselves (their cap event) and need no
            # refresh from an entry that is gone.
            entry.fluid = None
            self._discard(entry)
            self.pending_removals.append(_RemovedEntry(entry, reason))

    def take_removed(self) -> Sequence[_RemovedEntry]:
        """Drain entries evicted since the last drain (lookup-observed
        expiries awaiting their FlowRemoved)."""
        if not self.pending_removals:
            return ()
        removed, self.pending_removals = self.pending_removals, []
        return removed

    def expire(self, now: float) -> List[_RemovedEntry]:
        """Evict expired entries, returning them with their reasons."""
        self._evict_due(now)
        return list(self.take_removed())

    # ------------------------------------------------------------------
    # Lookup

    def lookup(self, frame: Ethernet, in_port: int, now: float) -> Optional[FlowEntry]:
        """The highest-priority live entry matching the frame, touching
        its counters; None on table miss.

        Expired-but-unevicted entries are evicted first (drain them via
        :meth:`take_removed` for FlowRemoved), so the table's length
        always agrees with what the datapath honors.
        """
        self.lookups += 1
        if self._latency_hist is not None and \
                self.lookups % LATENCY_SAMPLE_STRIDE == 0:
            with self._latency_hist.time():
                return self._lookup_indexed(frame, in_port, now)
        return self._lookup_indexed(frame, in_port, now)

    def _lookup_indexed(
        self, frame: Ethernet, in_port: int, now: float
    ) -> Optional[FlowEntry]:
        heap = self._heap
        if heap and heap[0][0] <= now:
            self._evict_due(now)
        best: Optional[FlowEntry] = None
        bucket = self._exact.get(frame_index_key(frame, in_port))
        if bucket:
            # An entry under the frame's key agrees with it on every
            # keyed field; dl_vlan is the one match field an indexable
            # match may set outside the key (see exact_index_key).
            vlan = frame.vlan
            for entry in bucket:
                wanted = entry.match.dl_vlan
                if wanted is not None and wanted != vlan:
                    continue
                if best is None or _precedes(entry, best):
                    best = entry
        exact = best is not None
        for entry in self._wild:
            # Past ``best``'s position in linear-scan order no wildcard
            # entry can win (``_precedes(best, entry)``, inlined: this
            # runs for every frame).
            if best is not None and (
                entry.priority < best.priority or (
                    entry.priority == best.priority and entry.seq > best.seq
                )
            ):
                break
            if entry.match.matches(frame, in_port):
                best = entry
                exact = False
                break
        if best is None:
            self.misses += 1
            return None
        best.touch(now, frame.size)
        self.matched += 1
        if exact:
            self.exact_hits += 1
        else:
            self.wildcard_hits += 1
        return best

    def peek(self, frame: Ethernet, in_port: int, now: float) -> Optional[FlowEntry]:
        """The entry :meth:`lookup` would return, with no side effects.

        No counters are touched, no expired entries evicted, and no
        stats recorded -- entries observed expired are simply skipped.
        The fluid fast-forward kernel uses this to walk a flow's
        forwarding path without perturbing datapath state.
        """
        best: Optional[FlowEntry] = None
        bucket = self._exact.get(frame_index_key(frame, in_port))
        if bucket:
            for entry in bucket:
                if entry.expired(now):
                    continue
                if (best is None or _precedes(entry, best)) \
                        and entry.match.matches(frame, in_port):
                    best = entry
        for entry in self._wild:
            if best is not None and _precedes(best, entry):
                break
            if entry.expired(now):
                continue
            if entry.match.matches(frame, in_port):
                best = entry
                break
        return best

    def record_fluid_hits(
        self, entry: FlowEntry, packets: int, total_bytes: int, exact: bool
    ) -> None:
        """Fold analytically advanced traffic into the hit counters.

        Mirrors what ``packets`` calls of :meth:`lookup` would have
        accumulated on the entry and the table; the same settle stores
        the idle-timeout refresh (``last_used_at``), which until then
        :meth:`FlowEntry.expired` asks the entry's share for.  ``exact``
        is the entry's index class, computed once per suspension.
        """
        entry.packets += packets
        entry.bytes += total_bytes
        self.lookups += packets
        self.matched += packets
        if exact:
            self.exact_hits += packets
        else:
            self.wildcard_hits += packets

    def _lookup_linear(
        self, frame: Ethernet, in_port: int, now: float
    ) -> Optional[FlowEntry]:
        """The pre-index reference scan, kept verbatim as the semantic
        oracle: the property suite asserts ``lookup`` is observably
        identical to this on every frame."""
        self.lookups += 1
        for entry in self._entries:
            if entry.expired(now):
                continue
            if entry.match.matches(frame, in_port):
                entry.touch(now, frame.size)
                self.matched += 1
                return entry
        return None

    def __repr__(self) -> str:
        return f"<FlowTable entries={len(self._entries)} lookups={self.lookups}>"
