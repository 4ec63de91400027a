"""Sharded control plane: N controller shards over one physical network.

The single :class:`~repro.core.controller.LiveSecController` owns every
switch in the seed deployment -- the scaling seam ROADMAP names as the
blocker for million-user networks.  This module splits the control
plane into a **shard fabric** in the PEPS shape (PAPERS.md: enforcement
as a horizontally scalable service):

* :class:`ShardMap` -- a deterministic dpid -> shard partition.  On the
  fat-tree it is per-pod (every pod's edge-attached access switches
  share one shard); elsewhere it is a balanced contiguous split of the
  sorted dpid space.  The map is *mutable history*: re-homing a dead
  shard's switches rewrites the affected entries, so remote-rule
  routing always targets the current owner.
* :class:`ShardMember` -- one shard: a full ``LiveSecController``
  composition root (its own EventBus, apps, NIB, session table, event
  log, metrics registry) plus the fabric-facing surface (handoff
  collection/adoption entry points, the deferral set, a conntrack-state
  cache fed by its elements' in-band reports).
* :class:`ShardCoordinator` -- the replicated-state protocol on the
  simulator clock: a periodic sync round in which every live shard
  publishes a :class:`ShardHello` carrying its NIB location digest
  (the replicated-NIB exchange doubling as the liveness heartbeat),
  the federated service directory is refreshed from per-shard exports,
  published hosts (the gateway) are advertised into every shard, and
  shards whose hellos go silent past the liveness timeout are declared
  SHARD_DOWN and their switches re-homed onto the survivors over fresh
  secure channels.

Cross-shard concerns are explicit typed protocol, never shared state:

* **Remote rules** (:meth:`ShardMember.receive_rule_op`): a session
  whose path crosses a shard boundary has its foreign-dpid rules
  delivered to the owning shard after ``INTER_SHARD_LATENCY_S`` and
  applied by *that* shard's controller
  (:meth:`~repro.core.controller.LiveSecController.apply_rule`).
* **Session handoff** (:class:`SessionHandoff`): a HOST_JOIN/HOST_MOVE
  observed by a shard that is not the host's previous owner triggers
  the handoff protocol -- new sessions for the host are deferred, the
  old shard serializes the host's session records (ids, policy,
  waypoint MACs, cached conntrack states) and its blocks, and tears
  down its rules without ending the sessions; the destination shard
  re-installs drops and ingress rules from the new location,
  preserving the session ids.
* **Directory federation** (:class:`FederatedElement`): steering can
  place waypoints on elements homed to any live shard; an element's
  death propagates to every consumer shard in the next sync round.

Everything runs on the one shared simulator, so two same-seed sharded
runs stay event-for-event identical; :func:`combined_digest` folds the
per-shard event-log digests (in shard order) and the coordinator's own
log into the determinism digest the chaos harness compares.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bus import ConnTrackUpdateIn, SessionHandoffIn
from repro.core.conntrack import CLOSED, five_tuple_of
from repro.core.events import EventKind, EventLog
from repro.obs import MetricsRegistry
from repro.openflow.channel import SecureChannel

__all__ = [
    "INTER_SHARD_LATENCY_S",
    "SYNC_INTERVAL_S",
    "SHARD_LIVENESS_TIMEOUT_S",
    "ShardMap",
    "ShardHello",
    "SessionHandoffRecord",
    "SessionHandoff",
    "FederatedElement",
    "ShardMember",
    "ShardCoordinator",
    "combined_digest",
]

# One-way latency of the inter-shard channel (handoffs, remote rule
# ops, handoff requests).  Modeled as a dedicated control network,
# independent of the OpenFlow channels the chaos harness impairs.
INTER_SHARD_LATENCY_S = 1e-3
# Sync-round cadence: hello/digest exchange, federation refresh,
# published-host advertisement, liveness check.
SYNC_INTERVAL_S = 0.5
# A shard whose last hello is older than this is declared down.  Two
# missed rounds plus slack: crash detection lands on the next round
# boundary after the timeout, so worst-case TTD is about 2.1s.
SHARD_LIVENESS_TIMEOUT_S = 1.6


@dataclass
class ShardMap:
    """Deterministic dpid -> shard ownership, rewritten on re-homing."""

    num_shards: int
    assignments: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def contiguous(cls, dpids: Sequence[int], num_shards: int) -> "ShardMap":
        """Balanced contiguous slices of the sorted dpid space."""
        ordered = sorted(dpids)
        if num_shards < 1:
            raise ValueError(f"need at least one shard (got {num_shards})")
        if num_shards > len(ordered):
            raise ValueError(
                f"{num_shards} shards for {len(ordered)} switches"
            )
        shard_map = cls(num_shards=num_shards)
        per_shard, extra = divmod(len(ordered), num_shards)
        cursor = 0
        for shard in range(num_shards):
            width = per_shard + (1 if shard < extra else 0)
            for dpid in ordered[cursor:cursor + width]:
                shard_map.assignments[dpid] = shard
            cursor += width
        return shard_map

    @classmethod
    def per_pod(cls, k: int) -> "ShardMap":
        """The fat-tree partition: pod ``p`` (its ``k/2`` edge-attached
        access switches, dpids ``p*(k/2)+1 .. (p+1)*(k/2)``) -> shard
        ``p``.  One shard per pod, ``k`` shards total."""
        if k < 2 or k % 2:
            raise ValueError(f"k must be even and >= 2 (got {k})")
        half = k // 2
        shard_map = cls(num_shards=k)
        for dpid in range(1, k * half + 1):
            shard_map.assignments[dpid] = (dpid - 1) // half
        return shard_map

    def owner(self, dpid: int) -> int:
        """The shard currently owning this datapath."""
        return self.assignments[dpid]

    def owned_by(self, shard: int) -> List[int]:
        """This shard's datapaths, ascending."""
        return sorted(
            dpid for dpid, owner in self.assignments.items() if owner == shard
        )

    def dpids(self) -> List[int]:
        return sorted(self.assignments)

    def rehome(
        self, dead_shard: int, live_shards: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """Reassign a dead shard's datapaths round-robin over the
        survivors (sorted, so the outcome is seed-independent).
        Returns the ``(dpid, new_shard)`` moves in dpid order."""
        targets = sorted(live_shards)
        if not targets:
            raise ValueError("no live shards to re-home onto")
        moves = []
        for index, dpid in enumerate(self.owned_by(dead_shard)):
            new_shard = targets[index % len(targets)]
            self.assignments[dpid] = new_shard
            moves.append((dpid, new_shard))
        return moves

    def to_dict(self) -> Dict[int, List[int]]:
        return {
            shard: self.owned_by(shard) for shard in range(self.num_shards)
        }


# ----------------------------------------------------------------------
# Typed inter-shard messages


@dataclass(frozen=True)
class ShardHello:
    """One shard's sync-round heartbeat: liveness + its NIB digest."""

    shard_id: int
    at: float
    nib_digest: str
    hosts: int
    sessions: int


@dataclass(frozen=True)
class SessionHandoffRecord:
    """One session serialized for cross-shard transfer: identity,
    policy, waypoint placement, and the conntrack states the origin
    shard had cached for its five-tuple."""

    session_id: int
    flow: object  # FlowNineTuple (forward direction)
    src_mac: str
    dst_mac: str
    policy_name: str
    element_macs: Tuple[str, ...]
    created_at: float
    application: Optional[str]
    conntrack: Tuple[Tuple[tuple, str], ...] = ()


@dataclass(frozen=True)
class SessionHandoff:
    """The transfer unit for one roaming host's established sessions
    and for what is blocked of it: ``blocks`` holds a ``(flow, cookie)``
    per ingress drop, ``flow=None`` meaning the whole source."""

    mac: str
    ip: Optional[str]
    from_shard: int
    to_shard: int
    records: Tuple[SessionHandoffRecord, ...] = ()
    blocks: Tuple[Tuple[object, int], ...] = ()


@dataclass(frozen=True)
class FederatedElement:
    """One service element as exported into the federated directory."""

    mac: str
    service_type: str
    shard_id: int
    dpid: int
    port: int
    ip: Optional[str]
    pps: float


# ----------------------------------------------------------------------
# Shard member


class ShardMember:
    """One shard of the fabric: a controller plus its protocol surface.

    Construction wires the member into its controller
    (``controller.shard``), subscribes to the controller's event log to
    observe HOST_JOIN/HOST_MOVE synchronously (the handoff trigger must
    fire before steering can set up a fresh session for the mover), and
    caches conntrack states from the shard's firewalls' in-band reports
    so a handoff can serialize them.
    """

    def __init__(self, shard_id: int, controller, coordinator):
        self.shard_id = shard_id
        self.controller = controller
        self.coordinator = coordinator
        self.failed = False
        # Hosts whose session state is in flight from another shard:
        # steering defers fresh sessions for them until the handoff
        # arrives (or an empty transfer clears them).
        self.pending_handoff: set = set()
        # Five-tuple -> last reported conntrack state from this shard's
        # stateful firewalls (the serialized-over-handoff state).
        self._conntrack: Dict[tuple, str] = {}
        controller.shard = self
        controller.log.subscribe(self._on_log_event)
        controller.bus.subscribe(
            ConnTrackUpdateIn, self._on_conntrack, app="shard-fabric"
        )
        coordinator.register(self)

    # -- observation hooks --------------------------------------------

    def _on_log_event(self, event) -> None:
        if self.failed:
            return
        if event.kind in (EventKind.HOST_JOIN, EventKind.HOST_MOVE):
            self.coordinator.host_seen(
                self,
                mac=event.data.get("mac"),
                ip=event.data.get("ip"),
                dpid=event.data.get("dpid"),
                port=event.data.get("port"),
            )

    def _on_conntrack(self, event) -> None:
        message = event.message
        if message.state == CLOSED:
            self._conntrack.pop(message.conn, None)
        else:
            self._conntrack[message.conn] = message.state

    # -- fabric surface used by the apps ------------------------------

    def session_deferred(self, mac: str) -> bool:
        """Is a handoff for this host still in flight?"""
        return mac in self.pending_handoff

    def restore_conntrack(
        self, states: Sequence[Tuple[tuple, str]]
    ) -> None:
        """Seed the conntrack cache from a handoff's serialized states,
        so a further move re-serializes them from here."""
        for key, state in states:
            self._conntrack[key] = state

    def adopt_host(self, mac, ip, dpid, port, is_element=False):
        """Accept a remote host record into this shard's NIB (no
        announcement, no HOST_JOIN event -- it is not ours)."""
        tracker = self.controller.app("host-tracker")
        return tracker.adopt_remote_host(
            mac, ip, dpid, port, is_element=is_element
        )

    # -- protocol endpoints (called by the coordinator) ----------------

    def hello(self, now: float) -> ShardHello:
        return ShardHello(
            shard_id=self.shard_id,
            at=now,
            nib_digest=self.controller.nib.location_digest(),
            hosts=len(self.controller.nib.hosts),
            sessions=len(self.controller.sessions),
        )

    def collect_handoff(
        self, mac: str, ip: Optional[str], to_shard: int
    ) -> SessionHandoff:
        """Serialize and release every session and block of a
        departing host.

        The origin shard's rules are deleted (locally and, for
        cross-shard rules, over the fabric) but the sessions are *not*
        ended -- their identity transfers to the destination shard.
        The host's NIB row goes too: it is no longer ours, and should
        it come back -- even to the port it left -- that is a join,
        which hands everything home again.
        """
        steering = self.controller.app("steering")
        sessions = sorted(
            self.controller.sessions.sessions_of_user(mac),
            key=lambda s: s.session_id,
        )
        records = []
        for session in sessions:
            states = []
            for key in (five_tuple_of(session.flow),
                        five_tuple_of(session.reverse_flow)):
                state = self._conntrack.get(key)
                if state is not None:
                    states.append((key, state))
            steering.release_session_for_handoff(session)
            records.append(SessionHandoffRecord(
                session_id=session.session_id,
                flow=session.flow,
                src_mac=session.src_mac,
                dst_mac=session.dst_mac,
                policy_name=session.policy_name,
                element_macs=tuple(session.element_macs),
                created_at=session.created_at,
                application=session.application,
                conntrack=tuple(states),
            ))
        self.controller.nib.remove_host(mac)
        return SessionHandoff(
            mac=mac, ip=ip, from_shard=self.shard_id,
            to_shard=to_shard, records=tuple(records),
            blocks=steering.release_blocks_for_handoff(mac),
        )

    def receive_handoff(self, handoff: SessionHandoff) -> None:
        self.pending_handoff.discard(handoff.mac)
        if self.failed:
            return
        self.controller.bus.publish(SessionHandoffIn(handoff=handoff))

    def receive_rule_op(self, op: str, rule) -> None:
        """Apply a rule another shard routed here (we hold its datapath
        -- possibly freshly, through re-homing) on the controller's own
        sender: no app sits in the path, so a stopped or crashed
        steering app on this shard cannot drop it."""
        if self.failed:
            return
        if rule.dpid not in self.controller.switches:
            # Never forwarded on: a stale owner map must not bounce
            # the op between shards.
            self.controller.count("remote_rules_unowned")
            return
        self.controller.apply_rule(op, rule)
        self.controller.count("remote_rules_applied")

    # -- fault surface --------------------------------------------------

    def fail(self) -> None:
        """Crash this shard: its channels drop, its clock stops
        mattering.  Data-plane flow entries survive on the switches, so
        established sessions keep forwarding while the coordinator's
        liveness timeout runs down."""
        self.failed = True
        for channel in self.coordinator.channels_of(self):
            channel.disconnect()

    def restart(self) -> None:
        """Rejoin the fabric as an empty live shard.  The member's old
        switches stay with their re-homed owners; new ownership only
        arrives through future re-homing decisions."""
        self.failed = False
        self.pending_handoff.clear()
        self._conntrack.clear()
        self.coordinator.member_restarted(self)


# ----------------------------------------------------------------------
# Coordinator


class ShardCoordinator:
    """The fabric's replicated-state protocol on the simulator clock."""

    def __init__(
        self,
        sim,
        shard_map: ShardMap,
        metrics: Optional[MetricsRegistry] = None,
        liveness_timeout_s: float = SHARD_LIVENESS_TIMEOUT_S,
    ):
        self.sim = sim
        self.shard_map = shard_map
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = EventLog(metrics=self.metrics)
        self.liveness_timeout_s = liveness_timeout_s
        self.members: List[ShardMember] = []
        # Physical surface for re-homing, registered by the deployment.
        self.switches: Dict[int, object] = {}
        self.channels: Dict[int, SecureChannel] = {}
        self._register_capacity: Optional[Callable] = None
        # Protocol state.
        self._last_hello: Dict[int, float] = {}
        self._hellos: Dict[int, ShardHello] = {}
        self._down: Dict[int, float] = {}  # shard -> declared-down time
        # mac -> (shard_id, dpid, port, ip): the fabric-wide host
        # location directory fed synchronously from shard logs.
        self._location: Dict[str, tuple] = {}
        self._federation: Dict[str, FederatedElement] = {}
        self._published: Dict[str, tuple] = {}  # mac -> (ip, dpid, port)
        self._hello_count = self.metrics.counter(
            "sharding.hellos", "Sync-round hello/digest exchanges"
        )
        self._handoff_count = self.metrics.counter(
            "sharding.handoff_sessions",
            "Sessions transferred between shards on host moves",
        )
        self._rule_ops = self.metrics.counter(
            "sharding.remote_rule_ops",
            "Flow rules routed to their owning shard over the fabric",
        )
        self._rule_drops = self.metrics.counter(
            "sharding.remote_rule_drops",
            "Remote rule ops dropped (owner shard dead or unknown dpid)",
        )
        self._rehomed = self.metrics.counter(
            "sharding.rehomed_switches",
            "Switches re-homed off dead shards onto survivors",
        )

    # -- membership -----------------------------------------------------

    def register(self, member: ShardMember) -> None:
        self.members.append(member)

    def member(self, shard_id: int) -> Optional[ShardMember]:
        for member in self.members:
            if member.shard_id == shard_id:
                return member
        return None

    def live_members(self) -> List[ShardMember]:
        """The members that can be talked to: not crashed, not declared
        down.  The fabric's one liveness predicate."""
        return [
            member for member in self.members
            if not member.failed and member.shard_id not in self._down
        ]

    def _live(self, shard_id: Optional[int]) -> Optional[ShardMember]:
        """The member with this id, if it is live."""
        for member in self.live_members():
            if member.shard_id == shard_id:
                return member
        return None

    def channels_of(self, member: ShardMember) -> List[SecureChannel]:
        return [
            self.channels[dpid]
            for dpid in sorted(self.channels)
            if self.channels[dpid].controller is member.controller
        ]

    def attach_physical(
        self, switches: Dict[int, object], channels: Dict[int, SecureChannel],
        register_capacity: Optional[Callable] = None,
    ) -> None:
        """The deployment hands over its switch/channel registries so
        re-homing can mint fresh secure channels."""
        self.switches = switches
        self.channels = channels
        self._register_capacity = register_capacity

    def publish_host(self, mac: str, ip: Optional[str],
                     dpid: int, port: int) -> None:
        """Advertise a well-known host (the gateway) into every shard's
        NIB each sync round, so cross-shard destinations resolve."""
        self._published[mac] = (ip, dpid, port)

    def start(self) -> None:
        self.sim.every(
            SYNC_INTERVAL_S, self._sync_round,
            start=self.sim.now + SYNC_INTERVAL_S,
        )

    # -- the sync round -------------------------------------------------

    def _sync_round(self) -> None:
        now = self.sim.now
        exports: List[FederatedElement] = []
        for member in self.live_members():
            with self.metrics.histogram(
                "sharding.hello_wall_s",
                "Wall-clock cost of building a shard's hello"
                " (its NIB digest included)",
                shard=member.shard_id,
            ).time():
                hello = member.hello(now)
            previous = self._hellos.get(member.shard_id)
            self._last_hello[member.shard_id] = now
            self._hellos[member.shard_id] = hello
            self._hello_count.inc()
            if previous is None or previous.nib_digest != hello.nib_digest:
                # Log only digest *changes*: the exchange is every
                # round, but steady state would drown the event log.
                self.log.emit(
                    now, EventKind.SHARD_HELLO,
                    shard=member.shard_id,
                    nib_digest=hello.nib_digest[:16],
                    hosts=hello.hosts, sessions=hello.sessions,
                )
            exports.extend(
                member.controller.app("service-directory").directory_export()
            )
        self._check_liveness(now)
        self._refresh_federation(exports)
        self._advertise_published()

    def _check_liveness(self, now: float) -> None:
        for member in self.members:
            shard_id = member.shard_id
            if shard_id in self._down:
                continue
            last = self._last_hello.get(shard_id)
            if last is None or now - last <= self.liveness_timeout_s:
                continue
            self._declare_down(member, now)

    def _declare_down(self, member: ShardMember, now: float) -> None:
        shard_id = member.shard_id
        owned = self.shard_map.owned_by(shard_id)
        self._down[shard_id] = now
        self.log.emit(
            now, EventKind.SHARD_DOWN,
            shard=shard_id, dpids=tuple(owned),
            silent_s=round(now - self._last_hello.get(shard_id, 0.0), 6),
        )
        live = [m.shard_id for m in self.live_members()]
        if not live:
            return  # nothing left to re-home onto
        for dpid, new_shard in self.shard_map.rehome(shard_id, live):
            self._rehome_switch(dpid, shard_id, new_shard, now)

    def _rehome_switch(
        self, dpid: int, dead_shard: int, new_shard: int, now: float
    ) -> None:
        switch = self.switches.get(dpid)
        target = self.member(new_shard)
        if switch is None or target is None:
            return
        channel = SecureChannel(self.sim, switch, target.controller)
        channel.connect()
        switch.attach_metrics(target.controller.metrics)
        self.channels[dpid] = channel
        if self._register_capacity is not None:
            self._register_capacity(switch)
        self._rehomed.inc()
        self.log.emit(
            now, EventKind.SHARD_REHOME,
            shard=dead_shard, dpid=dpid, new_shard=new_shard,
        )

    def member_restarted(self, member: ShardMember) -> None:
        self._down.pop(member.shard_id, None)
        self._last_hello[member.shard_id] = self.sim.now

    # -- federated service directory ------------------------------------

    def _refresh_federation(self, exports: List[FederatedElement]) -> None:
        previous = self._federation
        fresh = {entry.mac: entry for entry in exports}
        self._federation = fresh
        # Death propagation: an element gone from its origin's export
        # (crashed, expired, or its whole shard died) must stop being a
        # waypoint candidate everywhere *and* fail over the sessions of
        # shards that had borrowed it.
        for mac in sorted(previous):
            if mac in fresh:
                continue
            origin = previous[mac]
            for member in self.live_members():
                if member.shard_id == origin.shard_id:
                    continue  # the origin already ran its own expiry
                directory = member.controller.app("service-directory")
                directory.remote_element_down(mac)

    def remote_candidates(
        self, member: ShardMember, service_type: str
    ) -> List[FederatedElement]:
        """Live elements of ``service_type`` homed on *other* shards,
        each adopted into ``member``'s NIB so it can be a waypoint."""
        borrowed: List[FederatedElement] = []
        for mac in sorted(self._federation):
            entry = self._federation[mac]
            if entry.service_type != service_type:
                continue
            if entry.shard_id == member.shard_id:
                continue
            if self._live(entry.shard_id) is None:
                continue
            # The borrowing shard needs the element routable in its own
            # NIB before steering can compute a path through it.
            member.adopt_host(
                entry.mac, entry.ip, entry.dpid, entry.port, is_element=True
            )
            borrowed.append(entry)
        return borrowed

    def _advertise_published(self) -> None:
        for mac in sorted(self._published):
            ip, dpid, port = self._published[mac]
            owner = self.shard_map.assignments.get(dpid)
            for member in self.live_members():
                if member.shard_id == owner:
                    continue  # the owner learns it from the wire
                member.adopt_host(mac, ip, dpid, port)

    # -- host location + session handoff --------------------------------

    def host_seen(self, member: ShardMember, mac, ip, dpid, port) -> None:
        """Synchronous location-directory update from a shard's
        HOST_JOIN/HOST_MOVE.  A host surfacing on a shard that is not
        its previous owner starts the handoff protocol *before*
        steering can act on the packet that revealed it."""
        if mac is None:
            return
        prior = self._location.get(mac)
        self._location[mac] = (member.shard_id, dpid, port, ip)
        if prior is None or prior[0] == member.shard_id:
            return
        old_shard = prior[0]
        old_member = self._live(old_shard)
        member.pending_handoff.add(mac)
        if old_member is None:
            # The old owner is gone: nothing to transfer, do not defer.
            self.sim.post(
                INTER_SHARD_LATENCY_S, self._deliver_handoff, member,
                SessionHandoff(mac=mac, ip=ip, from_shard=old_shard,
                               to_shard=member.shard_id),
            )
            return
        self.sim.post(
            INTER_SHARD_LATENCY_S, self._request_handoff,
            old_member, member, mac, ip,
        )

    def _request_handoff(
        self, old_member: ShardMember, new_member: ShardMember,
        mac: str, ip: Optional[str],
    ) -> None:
        if self._live(old_member.shard_id) is None:
            handoff = SessionHandoff(
                mac=mac, ip=ip, from_shard=old_member.shard_id,
                to_shard=new_member.shard_id,
            )
        else:
            handoff = old_member.collect_handoff(
                mac, ip, new_member.shard_id
            )
        self.sim.post(
            INTER_SHARD_LATENCY_S, self._deliver_handoff, new_member, handoff
        )

    def _deliver_handoff(
        self, member: ShardMember, handoff: SessionHandoff
    ) -> None:
        self._handoff_count.inc(len(handoff.records))
        self.log.emit(
            self.sim.now, EventKind.SESSION_HANDOFF,
            mac=handoff.mac, from_shard=handoff.from_shard,
            to_shard=handoff.to_shard, sessions=len(handoff.records),
        )
        member.receive_handoff(handoff)

    # -- remote rules ----------------------------------------------------

    def remote_rule(self, op: str, rule) -> bool:
        """Route a foreign-dpid rule ``"add"``/``"delete"`` to the shard
        owning its datapath; False when no live shard does."""
        target = self._live(self.shard_map.assignments.get(rule.dpid))
        if target is None:
            self._rule_drops.inc()
            return False
        self._rule_ops.inc()
        self.sim.post(
            INTER_SHARD_LATENCY_S, target.receive_rule_op, op, rule
        )
        return True

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        """The ``repro shards`` view: ownership, liveness, digests."""
        shards = []
        for member in self.members:
            shard_id = member.shard_id
            hello = self._hellos.get(shard_id)
            shards.append({
                "shard": shard_id,
                "dpids": self.shard_map.owned_by(shard_id),
                "live": self._live(shard_id) is not None,
                "hosts": hello.hosts if hello else 0,
                "sessions": hello.sessions if hello else 0,
                "nib_digest": hello.nib_digest if hello else None,
                "last_hello": self._last_hello.get(shard_id),
                # Runtime app lifecycle, per shard: app churn on one
                # member is visible without asking its controller.
                "apps": {
                    name: service.state
                    for name, service
                    in member.controller.app_status().items()
                },
            })
        return {
            "num_shards": self.shard_map.num_shards,
            "shards": shards,
            "down": sorted(self._down),
            "federated_elements": len(self._federation),
            "handoff_sessions": int(self._handoff_count.value),
            "remote_rule_ops": int(self._rule_ops.value),
            "rehomed_switches": int(self._rehomed.value),
        }


def combined_digest(members: Sequence[ShardMember],
                    coordinator: Optional[ShardCoordinator] = None) -> str:
    """One determinism digest for a sharded run: the per-shard event
    logs folded in shard order plus the coordinator's own log, so the
    result is independent of anything but the events themselves."""
    digest = hashlib.sha256()
    for member in sorted(members, key=lambda m: m.shard_id):
        digest.update(
            f"shard {member.shard_id} "
            f"{member.controller.log.digest()}\n".encode()
        )
    if coordinator is not None:
        digest.update(f"coordinator {coordinator.log.digest()}\n".encode())
    return digest.hexdigest()
