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
  collection/adoption entry points, the deferral set).
* :class:`ShardCoordinator` -- the replicated-state protocol on the
  simulator clock: a periodic sync round in which every live shard
  publishes a :class:`ShardHello` carrying its NIB location version
  (the change signal doubling as the liveness heartbeat),
  the federated service directory is refreshed from per-shard exports,
  and shards whose hellos go silent past the liveness timeout are
  declared SHARD_DOWN and their switches re-homed onto the survivors
  over fresh secure channels.  It also keeps the one book of where a
  host is: a shard whose NIB does not hold a host reads the owner's
  row here (:meth:`ShardCoordinator.locate`) and copies nothing -- and
  the one DHCP lease book every shard's directory proxy leases from.

Cross-shard concerns are explicit typed protocol, never shared state,
and every call into a member crosses one hop,
:meth:`ShardMember.deliver`: it runs the call ``INTER_SHARD_LATENCY_S``
later unless the member has failed by then.

* **Remote rules** (:meth:`ShardMember.receive_rule_op`): a session
  whose path crosses a shard boundary has its foreign-dpid rules
  delivered to the owning shard and applied by *that* shard's
  controller
  (:meth:`~repro.core.controller.LiveSecController.apply_rule`), if it
  still holds the datapath when they arrive.
* **Session handoff** (:class:`SessionHandoff`): a HOST_JOIN/HOST_MOVE
  observed by a shard that is not the host's previous owner triggers
  the handoff protocol -- new sessions for the host are deferred, the
  old shard serializes the session records the host is the *source*
  of (ids, policy, waypoint MACs) and its blocks, and tears down their
  rules without ending the sessions; the destination shard re-installs
  drops and ingress rules from the new location, preserving the
  session ids.  Sessions *toward* the mover stay in their source's
  book: its shard is told of the move (``HostMoved`` on its bus) and
  re-plans them in place, as one controller does.
* **Report forwarding** (:meth:`ShardCoordinator.forward_report`): a
  verified element report about a session the element's shard does
  not hold goes to the shard the flow's source sits on.
* **Path evidence and quarantines**
  (:meth:`ShardCoordinator.post_to_owner`,
  :meth:`ShardCoordinator.quarantine_elsewhere`): a path proof or a
  tagged punt goes to the shard holding the session -- the owner of
  its descriptor's ingress dpid -- and a conviction there quarantines
  the switch on every live shard.
* **Periphery floods**: a target no shard knows is flooded by the
  asking shard's host tracker and, one hop later, by every live
  peer's, each on its own switches.  The target's unicast reply punts
  on its own shard and goes back the way a rule op goes
  (:meth:`ShardCoordinator.remote_packet_out`): a PacketOut on the
  asker's switch, sent by the shard holding it.
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

from repro.core.bus import HostMoved, SessionHandoffIn
from repro.core.events import EventKind, EventLog
from repro.core.nib import HostRecord
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

# One-way latency of the inter-shard channel, spent by
# ShardMember.deliver on every crossing and by the coordinator's own
# handoff request.  Modeled as a dedicated control network,
# independent of the OpenFlow channels the chaos harness impairs.
INTER_SHARD_LATENCY_S = 1e-3
# Sync-round cadence: hello exchange, federation refresh, liveness
# check.
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

    def owned_by(self, shard: int) -> List[int]:
        """This shard's datapaths, ascending."""
        return sorted(
            dpid for dpid, owner in self.assignments.items() if owner == shard
        )

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


# ----------------------------------------------------------------------
# Typed inter-shard messages


@dataclass(frozen=True)
class ShardHello:
    """One shard's sync-round heartbeat: liveness + its NIB's
    ``location_version`` (moved since the last hello exactly when a
    host row changed)."""

    shard_id: int
    at: float
    nib_version: int
    hosts: int
    sessions: int


@dataclass(frozen=True)
class SessionHandoffRecord:
    """One session serialized for cross-shard transfer: identity,
    policy and waypoint placement."""

    session_id: int
    flow: object  # FlowNineTuple (forward direction)
    src_mac: str
    dst_mac: str
    policy: object  # Optional[Policy], the row it was decided under
    element_macs: Tuple[str, ...]
    created_at: float
    application: Optional[str]


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
    (``controller.shard``) and subscribes to the controller's event log
    to observe HOST_JOIN / HOST_MOVE / HOST_LEAVE synchronously (the
    handoff trigger must fire before steering can set up a fresh
    session for the mover).
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
        controller.shard = self
        controller.directory.leases = coordinator.leases
        controller.log.subscribe(self._on_log_event)
        coordinator.register(self)

    # -- observation hooks --------------------------------------------

    def _on_log_event(self, event) -> None:
        if event.kind in (EventKind.HOST_JOIN, EventKind.HOST_MOVE):
            self.coordinator.host_seen(
                self,
                mac=event.data.get("mac"),
                ip=event.data.get("ip"),
                dpid=event.data.get("dpid"),
                port=event.data.get("port"),
            )
        elif event.kind == EventKind.HOST_LEAVE:
            self.coordinator.host_left(self, event.data.get("mac"))

    # -- fabric surface used by the apps ------------------------------

    def session_deferred(self, mac: str) -> bool:
        """Is a handoff for this host still in flight?"""
        return mac in self.pending_handoff

    # -- protocol endpoints (called by the coordinator) ----------------

    def hello(self, now: float) -> ShardHello:
        return ShardHello(
            shard_id=self.shard_id,
            at=now,
            nib_version=self.controller.nib.location_version,
            hosts=len(self.controller.nib.hosts),
            sessions=len(self.controller.sessions),
        )

    def collect_handoff(
        self, mac: str, ip: Optional[str], to_shard: int
    ) -> SessionHandoff:
        """Serialize and release every block of a departing host and
        every session it is the source of.

        The origin shard's rules are deleted (locally and, for
        cross-shard rules, over the fabric) but the sessions are *not*
        ended -- their identity transfers to the destination shard.
        Sessions *toward* the mover belong to their own source's book
        and stay; the ``HostMoved`` that follows re-plans them.
        The host's NIB row goes too: it is no longer ours, and should
        it come back -- even to the port it left -- that is a join,
        which hands everything home again.
        """
        steering = self.controller.app("steering")
        sessions = sorted(
            (s for s in self.controller.sessions.sessions_of_user(mac)
             if s.src_mac == mac),
            key=lambda s: s.session_id,
        )
        records = []
        for session in sessions:
            steering.release_session_for_handoff(session)
            records.append(SessionHandoffRecord(
                session_id=session.session_id,
                flow=session.flow,
                src_mac=session.src_mac,
                dst_mac=session.dst_mac,
                policy=session.policy,
                element_macs=tuple(session.element_macs),
                created_at=session.created_at,
                application=session.application,
            ))
        self.controller.nib.remove_host(mac)
        return SessionHandoff(
            mac=mac, ip=ip, from_shard=self.shard_id,
            to_shard=to_shard, records=tuple(records),
            blocks=steering.release_blocks_for_handoff(mac),
        )

    def receive_report(self, message) -> None:
        """An element report its home shard verified, about a flow
        whose source is ours: applied here, never forwarded again."""
        self.controller.app("service-directory").handle_event_report(
            message, forwarded=True
        )

    def receive_rule_op(self, op: str, rule) -> None:
        """Apply a rule another shard routed here on the controller's
        own sender: no app sits in the path, so a stopped or crashed
        steering app on this shard cannot drop it."""
        if self._holds(rule.dpid, "remote_rules_unowned"):
            self.controller.apply_rule(op, rule)
            self.controller.count("remote_rules_applied")

    def receive_packet_out(self, dpid: int, actions, frame) -> None:
        """Send a PacketOut another shard routed here -- a host's ARP
        reply to an asker on our switch -- on the controller's own
        sender."""
        if self._holds(dpid, "remote_packet_outs_unowned"):
            self.controller.send_packet_out(dpid, actions, frame)

    def _holds(self, dpid: int, unowned: str) -> bool:
        """Do we hold ``dpid`` -- possibly freshly, through re-homing --
        for a write another shard routed here?  One we do not (re-homed
        away inside the hop, or a stale owner map) writes nothing, is
        counted under ``unowned`` and is never forwarded on: a write
        must not bounce between shards."""
        if dpid in self.controller.switches:
            return True
        self.controller.count(unowned)
        return False

    def deliver(self, call, *args) -> None:
        """The one hop into a member from across the fabric: ``call`` --
        a rule op, a report, a handoff, a bus event, a quarantine, a
        policy commit, a flood, an ARP reply's PacketOut -- runs one
        ``INTER_SHARD_LATENCY_S`` later, unless this member has failed
        by then."""
        self.coordinator.sim.post(INTER_SHARD_LATENCY_S, self._arrive,
                                  call, args)

    def _arrive(self, call, args) -> None:
        if not self.failed:
            call(*args)

    # -- fault surface --------------------------------------------------

    def fail(self) -> None:
        """Crash this shard: ``crash_app`` on every app, and the
        channels drop.  Nothing of a dead shard logs, decides or sends
        a rule op; its flow entries stay on the switches, so its
        sessions keep forwarding until they idle out."""
        self.failed = True
        for app in self.controller.apps:
            self.controller.crash_app(app.name)
        for channel in self.coordinator.channels_of(self):
            channel.disconnect()

    def restart(self) -> None:
        """Rejoin live over an empty book -- sessions and blocks are
        forgotten silently (their entries idle out; ids are never
        reused), and so are switches re-homed away, the elements on
        them and their hosts' directory rows -- then ``start_app``
        every app and reconnect the rest."""
        self.failed = False
        self.pending_handoff.clear()
        controller, book = self.controller, self.controller.sessions
        for session in list(book):
            book.end(session)
        for block in book.blocks():
            book.take_blocks(block.src_mac)
        held = self.coordinator.shard_map.owned_by(self.shard_id)
        gone = [d for d in controller.nib.switches if d not in held]
        for record in controller.nib.records():
            if record.dpid in gone:
                self.coordinator.host_left(self, record.mac)
        for dpid in gone:
            controller.nib.remove_switch(dpid)
        registry = controller.registry.elements
        for mac in [m for m in registry if not controller.nib.host_by_mac(m)]:
            del registry[mac]
        for app in controller.apps:
            controller.start_app(app.name)
        for channel in self.coordinator.channels_of(self):
            channel.connect()
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
        #: shard id -> member; ``LiveSecNetwork.owner`` reads it with
        #: ``shard_map.assignments`` in one step.
        self.member_by_id: Dict[int, ShardMember] = {}
        # Physical surface for re-homing, registered by the deployment.
        self.switches: Dict[int, object] = {}
        self.channels: Dict[int, SecureChannel] = {}
        self._register_capacity: Optional[Callable] = None
        # Protocol state.
        self._last_hello: Dict[int, float] = {}
        self._hellos: Dict[int, ShardHello] = {}
        self._down: Dict[int, float] = {}  # shard -> declared-down time
        # mac -> (shard_id, its row there -- None once expired): the
        # fabric-wide host location directory fed synchronously from
        # shard logs, read by shards that do not know the host.  A row
        # is a HostRecord value, so ``locate`` and ``HostMoved`` hand
        # out the directory's own.
        self._location: Dict[str, Tuple[int, Optional[HostRecord]]] = {}
        self._mac_by_ip: Dict[str, str] = {}
        #: mac -> ip: the deployment's one DHCP lease book, which every
        #: member's directory proxy leases from (a roaming client keeps
        #: its address on any shard).
        self.leases: Dict[str, str] = {}
        self._federation: Dict[str, FederatedElement] = {}
        self._hello_count = self.metrics.counter(
            "sharding.hellos", "Sync-round hello exchanges"
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
        self.member_by_id[member.shard_id] = member

    def member(self, shard_id: int) -> Optional[ShardMember]:
        return self.member_by_id.get(shard_id)

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
                " (three O(1) reads, no NIB row)",
                shard=member.shard_id,
            ).time():
                hello = member.hello(now)
            previous = self._hellos.get(member.shard_id)
            self._last_hello[member.shard_id] = now
            self._hellos[member.shard_id] = hello
            self._hello_count.inc()
            if previous is None or previous.nib_version != hello.nib_version:
                # Log only row *changes*: the exchange is every round,
                # but steady state would drown the event log.
                self.log.emit(
                    now, EventKind.SHARD_HELLO,
                    shard=member.shard_id,
                    nib_version=hello.nib_version,
                    hosts=hello.hosts, sessions=hello.sessions,
                )
            exports.extend(
                member.controller.app("service-directory").directory_export()
            )
        self._check_liveness(now)
        self._refresh_federation(exports)

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
        """Live again; one inter-shard hop later it books each
        quarantine a live peer holds and commits the policy artifact
        the first live peer serves (a quarantine or a reload it missed
        while down included)."""
        self._down.pop(member.shard_id, None)
        self._last_hello[member.shard_id] = self.sim.now
        peers = [m for m in self.live_members() if m is not member]
        for other in peers:
            for dpid, reason in other.controller.quarantined_dpids.items():
                member.deliver(member.controller.quarantine, dpid, reason)
        if peers:
            member.deliver(
                member.controller.policies.apply_compiled,
                peers[0].controller.policies.compiled, "shard-restart",
            )

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
            member.controller.adopt_host(
                entry.mac, entry.ip, entry.dpid, entry.port, is_element=True
            )
            borrowed.append(entry)
        return borrowed

    # -- host location + session handoff --------------------------------

    def _row(self, mac, ip) -> tuple:
        """``(owner, row)`` of a host in the directory, by MAC else by
        IP: no row once the owner expired it, no owner while its shard
        is not live (the next owner re-learns the host from the wire)."""
        if mac is None:
            mac = self._mac_by_ip.get(ip)
        shard_id, record = self._location.get(mac, (None, None))
        if record is None or (ip is not None and record.ip != ip):
            return None, None
        return self._live(shard_id), record

    def locate(
        self, asker: ShardMember, mac=None, ip=None
    ) -> Optional[HostRecord]:
        """Where a host another live shard owns is, for ``asker`` to
        plan toward, not to keep.  Its own it reads in its NIB."""
        owner, record = self._row(mac, ip)
        return None if owner in (None, asker) else record

    def forward_report(self, member: ShardMember, message) -> bool:
        """Route a report ``member`` verified but holds no session for
        to the live shard the flow's source sits on (``dl_src``, else
        ``nw_src``: chains of two or more rewrite ``dl_src``); False
        when that is nobody else."""
        flow = message.flow
        if flow is None:
            return False
        owner = (self._row(flow.dl_src, None)[0]
                 or self._row(None, flow.nw_src)[0])
        if owner in (None, member):
            return False
        owner.deliver(owner.receive_report, message)
        return True

    def host_seen(self, member: ShardMember, mac, ip, dpid, port) -> None:
        """Synchronous location-directory update from a shard's
        HOST_JOIN/HOST_MOVE.  A host surfacing on a shard that is not
        its previous owner starts the handoff protocol *before*
        steering can act on the packet that revealed it; a changed
        port is then news for every shard's sessions toward the host
        (the observing shard's tracker told its own bus, unless the
        host is new there)."""
        if mac is None:
            return
        old_shard, prior = self._location.get(mac, (None, None))
        now = self.sim.now
        record = HostRecord(mac=mac, ip=ip, dpid=dpid, port=port,
                            first_seen=now, last_seen=now)
        self._location[mac] = (member.shard_id, record)
        if ip is not None:
            self._mac_by_ip[ip] = mac
        if old_shard is None:
            return
        crossed = old_shard != member.shard_id
        if crossed:
            old_member = self._live(old_shard)
            member.pending_handoff.add(mac)
            if old_member is None:
                # The old owner is gone: nothing to transfer, do not defer.
                member.deliver(
                    self._deliver_handoff, member,
                    SessionHandoff(mac=mac, ip=ip, from_shard=old_shard,
                                   to_shard=member.shard_id),
                )
            else:
                # Not a call into a member: it must run even if the old
                # owner dies in the hop, to send the new one its handoff.
                self.sim.post(
                    INTER_SHARD_LATENCY_S, self._request_handoff,
                    old_member, member, mac, ip,
                )
        if prior is None or (prior.dpid, prior.port) != (dpid, port):
            moved = HostMoved(record)
            for other in self.live_members():
                if crossed or other is not member:
                    other.deliver(other.controller.bus.publish, moved)

    def host_left(self, member: ShardMember, mac) -> None:
        """A shard's HOST_LEAVE empties the row, if still its: no port
        the owner expired is vouched for.  *Whose* the host was stays
        -- a join elsewhere must still hand its blocks over."""
        shard_id, record = self._location.get(mac, (None, None))
        if shard_id == member.shard_id and record is not None:
            self._location[mac] = (shard_id, None)
            if self._mac_by_ip.get(record.ip) == mac:
                del self._mac_by_ip[record.ip]

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
        new_member.deliver(self._deliver_handoff, new_member, handoff)

    def _deliver_handoff(
        self, member: ShardMember, handoff: SessionHandoff
    ) -> None:
        self._handoff_count.inc(len(handoff.records))
        self.log.emit(
            self.sim.now, EventKind.SESSION_HANDOFF,
            mac=handoff.mac, from_shard=handoff.from_shard,
            to_shard=handoff.to_shard, sessions=len(handoff.records),
        )
        member.pending_handoff.discard(handoff.mac)
        member.controller.bus.publish(SessionHandoffIn(handoff=handoff))

    # -- remote rules, path evidence and quarantines --------------------

    def _owner(self, dpid: int) -> Optional[ShardMember]:
        """The live shard holding this datapath, if any."""
        return self._live(self.shard_map.assignments.get(dpid))

    def remote_rule(self, op: str, rule) -> bool:
        """Route a foreign-dpid rule ``"add"``/``"delete"`` to the shard
        owning its datapath; False when no live shard does."""
        target = self._owner(rule.dpid)
        if target is None:
            self._rule_drops.inc()
            return False
        self._rule_ops.inc()
        target.deliver(target.receive_rule_op, op, rule)
        return True

    def remote_packet_out(self, dpid: int, actions, frame) -> None:
        """Route a foreign-dpid PacketOut the way a rule op goes, to the
        live shard owning its datapath, if any."""
        target = self._owner(dpid)
        if target is not None:
            target.deliver(target.receive_packet_out, dpid, actions, frame)

    def post_to_owner(self, member: ShardMember, dpid: int, event) -> bool:
        """Send a bus event to the live shard owning ``dpid``; False
        when that is ``member`` itself or nobody live."""
        target = self._owner(dpid)
        if target is None or target is member:
            return False
        target.deliver(target.controller.bus.publish, event)
        return True

    def quarantine_elsewhere(
        self, member: ShardMember, dpid: int, reason: str
    ) -> None:
        """A switch ``member`` convicted is quarantined on every other
        live shard too: none places waypoints there any more, and each
        re-steers its own sessions through elements homed on it."""
        for other in self.live_members():
            if other is not member:
                other.deliver(other.controller.quarantine, dpid, reason)

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
                # Hashed here, for the reader who asks; no round does.
                "nib_digest": member.controller.nib.location_digest(),
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
