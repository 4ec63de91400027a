"""Connection tracking for the stateful distributed firewall.

SDFW (PAPERS.md, "SDN-based Stateful Distributed Firewall") keeps
firewalling *stateful* across a fleet of distributed enforcement
points: a connection admitted by the ACL once is tracked through
NEW -> ESTABLISHED -> CLOSED, and the tracking table is replicated to
the peer firewalls, so user-grain failover lands sessions on a replica
that already knows them -- no ACL re-evaluation mid-flight, and
reply-direction traffic rides the entry instead of needing a mirrored
rule.

:class:`ConnTrackTable` is the per-element table (five-tuple keyed,
direction-aware, idle expiry); :class:`ConnTrackReplicationGroup` is
the deployment-level replication fabric between same-type elements:
``publish`` schedules ``apply_conntrack_update`` on every live peer
after a fixed replication delay on the *simulator* clock, so
replication stays inside the determinism contract (and is independent
of the OpenFlow control channel the chaos harness impairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# Connection states.
NEW = "NEW"
ESTABLISHED = "ESTABLISHED"
CLOSED = "CLOSED"

DEFAULT_IDLE_TIMEOUT_S = 60.0
DEFAULT_REPLICATION_DELAY_S = 2e-3

# A connection five-tuple: (nw_src, nw_dst, nw_proto, tp_src, tp_dst).
# Network/transport identity only -- the steering chain rewrites MAC
# labels between elements, so L2 fields must not participate.
FiveTuple = Tuple[Optional[str], Optional[str], Optional[int],
                  Optional[int], Optional[int]]


def five_tuple_of(flow) -> FiveTuple:
    """The connection identity of a 9-tuple flow."""
    return (flow.nw_src, flow.nw_dst, flow.nw_proto,
            flow.tp_src, flow.tp_dst)


def reversed_five_tuple(key: FiveTuple) -> FiveTuple:
    nw_src, nw_dst, nw_proto, tp_src, tp_dst = key
    return (nw_dst, nw_src, nw_proto, tp_dst, tp_src)


@dataclass
class ConnTrackEntry:
    """One tracked connection, keyed by its initiator-direction tuple."""

    key: FiveTuple
    state: str
    created_at: float
    last_seen: float
    packets: int = 0


@dataclass(frozen=True)
class ConnTrackUpdate:
    """A replicated state transition (also the controller-report unit)."""

    key: FiveTuple
    state: str
    at: float
    origin: str  # element mac/name of the firewall that saw it


@dataclass
class ConnTrackTable:
    """Five-tuple -> connection state machine with idle expiry."""

    idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S
    _entries: Dict[FiveTuple, ConnTrackEntry] = field(default_factory=dict)
    established_total: int = 0
    closed_total: int = 0
    expired_total: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def lookup(self, key: FiveTuple) -> Optional[ConnTrackEntry]:
        """The entry tracking this tuple, in either direction."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries.get(reversed_five_tuple(key))
        return entry

    def observe(
        self, key: FiveTuple, now: float, origin: str
    ) -> Tuple[ConnTrackEntry, Optional[ConnTrackUpdate]]:
        """Record one admitted packet; returns the entry plus the state
        transition to replicate (None when nothing changed).

        A packet in the initiator direction of an unknown tuple opens a
        NEW entry; the first packet in the *reply* direction promotes
        it to ESTABLISHED (the firewall saw both ends talk).
        """
        entry = self._entries.get(key)
        update: Optional[ConnTrackUpdate] = None
        if entry is not None:
            entry.last_seen = now
            entry.packets += 1
            return entry, None
        reverse = self._entries.get(reversed_five_tuple(key))
        if reverse is not None:
            reverse.last_seen = now
            reverse.packets += 1
            if reverse.state == NEW:
                reverse.state = ESTABLISHED
                self.established_total += 1
                update = ConnTrackUpdate(
                    key=reverse.key, state=ESTABLISHED, at=now, origin=origin
                )
            return reverse, update
        entry = ConnTrackEntry(
            key=key, state=NEW, created_at=now, last_seen=now, packets=1
        )
        self._entries[key] = entry
        update = ConnTrackUpdate(key=key, state=NEW, at=now, origin=origin)
        return entry, update

    def close(
        self, key: FiveTuple, now: float, origin: str
    ) -> Optional[ConnTrackUpdate]:
        """TCP FIN/RST observed: mark the connection CLOSED."""
        entry = self.lookup(key)
        if entry is None or entry.state == CLOSED:
            return None
        entry.state = CLOSED
        entry.last_seen = now
        self.closed_total += 1
        return ConnTrackUpdate(
            key=entry.key, state=CLOSED, at=now, origin=origin
        )

    def apply_update(self, update: ConnTrackUpdate, now: float) -> None:
        """Merge a replicated transition (last-state-wins by the
        NEW -> ESTABLISHED -> CLOSED ordering; timestamps refresh)."""
        entry = self.lookup(update.key)
        if entry is None:
            self._entries[update.key] = ConnTrackEntry(
                key=update.key, state=update.state,
                created_at=update.at, last_seen=now,
            )
            if update.state == ESTABLISHED:
                self.established_total += 1
            elif update.state == CLOSED:
                self.closed_total += 1
            return
        rank = {NEW: 0, ESTABLISHED: 1, CLOSED: 2}
        if rank.get(update.state, 0) > rank.get(entry.state, 0):
            entry.state = update.state
            if update.state == ESTABLISHED:
                self.established_total += 1
            elif update.state == CLOSED:
                self.closed_total += 1
        entry.last_seen = max(entry.last_seen, now)

    def expire(self, now: float) -> List[ConnTrackEntry]:
        """Drop entries idle past the timeout (CLOSED entries expire at
        a quarter of it); returns what was dropped."""
        dropped = []
        for key, entry in list(self._entries.items()):
            limit = self.idle_timeout_s
            if entry.state == CLOSED:
                limit = self.idle_timeout_s / 4.0
            if now - entry.last_seen > limit:
                del self._entries[key]
                dropped.append(entry)
        self.expired_total += len(dropped)
        return dropped

    def states(self) -> Dict[str, int]:
        counts = {NEW: 0, ESTABLISHED: 0, CLOSED: 0}
        for entry in self._entries.values():
            counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts


class ConnTrackReplicationGroup:
    """Replicates conntrack transitions across same-type elements.

    The deployment registers every stateful firewall of one service
    type here; an element publishing a transition has it applied on
    each live peer ``replication_delay_s`` later on the simulator
    clock.  Failed/hung peers are skipped at delivery time, but a
    *restarting* replica calls :meth:`resync` to bulk-pull the fleet's
    ESTABLISHED connections from a live peer before serving, so
    crash-restart closes the old DESIGN §7 gap.  What remains of the
    gap: transitions missed during a *hang* (the replica never
    restarts, so it never re-syncs) are lost to it until the
    connection's next transition.
    """

    def __init__(self, sim, replication_delay_s: float = DEFAULT_REPLICATION_DELAY_S):
        self.sim = sim
        self.replication_delay_s = replication_delay_s
        self.members: List[object] = []
        self.updates_published = 0
        self.updates_delivered = 0
        self.resyncs = 0
        self.entries_resynced = 0

    def resync(self, member) -> int:
        """Bulk state transfer for a replica coming back from a crash:
        copy every ESTABLISHED entry from the first live peer (in
        registration order, so same-seed runs pick the same donor)
        into ``member``'s table.  Returns the number of entries
        copied; 0 when no live peer remains (the restarted replica
        then rebuilds state from traffic alone)."""
        now = self.sim.now
        for peer in self.members:
            if peer is member:
                continue
            if getattr(peer, "failed", False) or getattr(peer, "hung", False):
                continue
            copied = 0
            for entry in peer.conntrack:
                if entry.state != ESTABLISHED:
                    continue
                member.conntrack.apply_update(
                    ConnTrackUpdate(
                        key=entry.key, state=entry.state,
                        at=entry.created_at,
                        origin=getattr(peer, "name", "peer"),
                    ),
                    now,
                )
                copied += 1
            self.resyncs += 1
            self.entries_resynced += copied
            return copied
        return 0

    def register(self, element) -> None:
        if element not in self.members:
            self.members.append(element)

    def publish(self, origin, update: ConnTrackUpdate) -> None:
        """Fan a transition out to every other member."""
        self.updates_published += 1
        for member in self.members:
            if member is origin:
                continue
            self.sim.post(
                self.replication_delay_s, self._deliver, member, update
            )

    def _deliver(self, member, update: ConnTrackUpdate) -> None:
        # Delivery-time liveness check: a crashed or hung replica
        # misses the update (consistency gap, not a queue).
        if getattr(member, "failed", False) or getattr(member, "hung", False):
            return
        self.updates_delivered += 1
        member.apply_conntrack_update(update)
