"""Network visualization and history replay (Sections IV.D, V.B.4).

The paper's WebUI shows, live: the (full-mesh) logical topology, user
join/leave, link load, which user consumes which application service,
and where attacks happen -- and can replay history.  The Flash/LAMP
stack is replaced by an in-process monitoring component: it subscribes
to the global :class:`~repro.core.events.EventLog` (the single source
of truth -- there is no second "database" copy), maintains the live
view, and takes a snapshot *checkpoint* every ``checkpoint_interval``
events.  :meth:`MonitoringComponent.replay` then starts from the
nearest checkpoint at or before the requested moment and folds only
the delta -- O(events since checkpoint), not O(whole history).

:func:`render_snapshot` produces the text rendering used by the
examples, the Figure 7/8 benches, and ``python -m repro replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.events import EventKind, EventLog, NetworkEvent

DEFAULT_CHECKPOINT_INTERVAL = 256
DEFAULT_MAX_CHECKPOINTS = 64


@dataclass
class UserView:
    """What the WebUI shows about one user."""

    mac: str
    ip: Optional[str]
    dpid: int
    online: bool = True
    applications: List[str] = field(default_factory=list)
    attacks: int = 0
    blocked: bool = False


@dataclass
class ElementView:
    """What the WebUI shows about one service element."""

    mac: str
    service_type: str
    dpid: int
    online: bool = True
    cpu: float = 0.0
    pps: float = 0.0


@dataclass
class Snapshot:
    """The WebUI's world state at one moment."""

    time: float
    switches: List[int] = field(default_factory=list)
    links: List[Tuple[int, int]] = field(default_factory=list)
    users: Dict[str, UserView] = field(default_factory=dict)
    elements: Dict[str, ElementView] = field(default_factory=dict)
    link_loads: Dict[Tuple[int, int], float] = field(default_factory=dict)
    active_attacks: List[dict] = field(default_factory=list)

    def copy(self) -> "Snapshot":
        """An independent copy (what ``copy.deepcopy`` would return,
        without its generic walk: six flat containers of two flat
        dataclasses, one mutable list inside a user)."""
        return Snapshot(
            time=self.time,
            switches=list(self.switches),
            links=list(self.links),
            users={
                mac: replace(user, applications=list(user.applications))
                for mac, user in self.users.items()
            },
            elements={
                mac: replace(element)
                for mac, element in self.elements.items()
            },
            link_loads=dict(self.link_loads),
            active_attacks=[dict(attack) for attack in self.active_attacks],
        )

    def online_users(self) -> List[UserView]:
        return [u for u in self.users.values() if u.online]

    def full_mesh(self) -> bool:
        """Every switch pair connected, treating links as undirected
        (LLDP records whichever direction discovery confirmed first)."""
        dpids = self.switches
        if len(dpids) < 2:
            return True
        have = {frozenset(pair) for pair in self.links}
        return all(
            frozenset((a, b)) in have
            for a in dpids for b in dpids if a != b
        )


@dataclass
class _Checkpoint:
    """A materialized snapshot of the fold at one point in the log."""

    seq: int  # sequence number of the last folded event
    time: float  # that event's timestamp
    state: Snapshot


class MonitoringComponent:
    """Event-sourced live view + checkpointed history replay."""

    def __init__(
        self,
        log: EventLog,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS,
    ):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if max_checkpoints < 2:
            raise ValueError("max_checkpoints must be >= 2")
        self.log = log
        self.checkpoint_interval = checkpoint_interval
        self.max_checkpoints = max_checkpoints
        self._state = Snapshot(time=0.0)
        self._applied = 0
        self._checkpoints: List[_Checkpoint] = []
        log.subscribe(self._on_event)
        # A log loaded from disk already holds history: fold it so the
        # live view (and the checkpoint ladder) covers it too.
        for event in log:
            self._on_event(event)

    # ------------------------------------------------------------------
    # Live view

    def _on_event(self, event: NetworkEvent) -> None:
        _apply_event(self._state, event)
        self._applied += 1
        if self._applied % self.checkpoint_interval == 0:
            self._checkpoints.append(_Checkpoint(
                seq=event.seq,
                time=self._state.time,
                state=self._state.copy(),
            ))
            if len(self._checkpoints) > self.max_checkpoints:
                # Thin to every second checkpoint (the newest is kept)
                # and double the interval: coverage stays logarithmic,
                # memory stays bounded.
                self._checkpoints = self._checkpoints[1::2]
                self.checkpoint_interval *= 2

    def snapshot(self) -> Snapshot:
        """An independent copy of the current world state."""
        return self._state.copy()

    def checkpoints(self) -> List[Tuple[int, float]]:
        """The (seq, time) ladder, oldest first (introspection)."""
        return [(c.seq, c.time) for c in self._checkpoints]

    # ------------------------------------------------------------------
    # History replay

    def replay(self, until: Optional[float] = None) -> Snapshot:
        """Reconstruct the world state as of time ``until`` from the
        recorded history, starting at the nearest checkpoint."""
        state, _seq = self._replay_from_checkpoint(until)
        if until is not None:
            state.time = until
        return state

    def _replay_from_checkpoint(
        self, until: Optional[float]
    ) -> Tuple[Snapshot, int]:
        """The O(delta) fold; returns (state, seq of last event folded)."""
        checkpoint = None
        for candidate in reversed(self._checkpoints):
            if until is None or candidate.time <= until:
                checkpoint = candidate
                break
        if checkpoint is None:
            state, seq = Snapshot(time=0.0), -1
        else:
            state, seq = checkpoint.state.copy(), checkpoint.seq
        for event in self.log.events_after(seq):
            if until is not None and event.time > until:
                break
            _apply_event(state, event)
            seq = event.seq
        return state, seq

    def _replay_linear(self, until: Optional[float] = None) -> Snapshot:
        """The pre-checkpoint reference fold from t=0 (oracle for the
        equivalence property tests and the E16 bench)."""
        state = Snapshot(time=0.0)
        for event in self.log:
            if until is not None and event.time > until:
                break
            _apply_event(state, event)
        if until is not None:
            state.time = until
        return state

    def replay_series(self, times: List[float]) -> Iterator[Snapshot]:
        """Snapshots at each requested time.

        Ascending runs of ``times`` are replayed incrementally with a
        forward cursor; a rewind (a moment earlier than its
        predecessor) restarts from the nearest checkpoint instead of
        silently reusing the too-advanced cursor state.
        """
        state = Snapshot(time=0.0)
        stream = self.log.events_after(-1)
        pending = next(stream, None)
        previous: Optional[float] = None
        for moment in times:
            if previous is not None and moment < previous:
                state, seq = self._replay_from_checkpoint(moment)
                stream = self.log.events_after(seq)
                pending = next(stream, None)
            while pending is not None and pending.time <= moment:
                _apply_event(state, pending)
                pending = next(stream, None)
            previous = moment
            view = state.copy()
            view.time = moment
            yield view


def _apply_event(state: Snapshot, event: NetworkEvent) -> None:
    """The WebUI state machine: fold one event into the snapshot."""
    data = event.data
    state.time = event.time
    if event.kind == EventKind.SWITCH_JOIN:
        dpid = int(data["dpid"])  # type: ignore[arg-type]
        if dpid not in state.switches:
            state.switches.append(dpid)
    elif event.kind == EventKind.SWITCH_LEAVE:
        dpid = int(data["dpid"])  # type: ignore[arg-type]
        if dpid in state.switches:
            state.switches.remove(dpid)
        state.links = [l for l in state.links if dpid not in l]
        state.link_loads = {
            key: load for key, load in state.link_loads.items()
            if key[0] != dpid
        }
    elif event.kind == EventKind.LINK_UP:
        pair = (int(data["src_dpid"]), int(data["dst_dpid"]))  # type: ignore[arg-type]
        if pair not in state.links:
            state.links.append(pair)
    elif event.kind == EventKind.LINK_DOWN:
        ends = {int(data["src_dpid"]), int(data["dst_dpid"])}  # type: ignore[arg-type]
        state.links = [l for l in state.links if set(l) != ends]
        # The dead link's ports stop carrying traffic; drop their load
        # readings (older recordings may lack the port fields).
        for dpid_key, port_key in (("src_dpid", "src_port"),
                                   ("dst_dpid", "dst_port")):
            if port_key in data:
                state.link_loads.pop(
                    (int(data[dpid_key]), int(data[port_key])),  # type: ignore[arg-type]
                    None,
                )
    elif event.kind == EventKind.HOST_JOIN:
        mac = str(data["mac"])
        existing = state.users.get(mac)
        if existing is None:
            state.users[mac] = UserView(
                mac=mac,
                ip=data.get("ip"),  # type: ignore[arg-type]
                dpid=int(data["dpid"]),  # type: ignore[arg-type]
                online=True,
            )
        else:
            # A returning user keeps their accumulated record
            # (applications, attacks, blocked) -- only presence and
            # attachment change.
            existing.online = True
            existing.ip = data.get("ip", existing.ip)  # type: ignore[assignment]
            existing.dpid = int(data["dpid"])  # type: ignore[arg-type]
    elif event.kind == EventKind.HOST_MOVE:
        mac = str(data["mac"])
        if mac in state.users:
            user = state.users[mac]
            user.dpid = int(data["dpid"])  # type: ignore[arg-type]
            user.online = True  # moving proves presence
    elif event.kind == EventKind.HOST_LEAVE:
        mac = str(data["mac"])
        if mac in state.users:
            state.users[mac].online = False
    elif event.kind == EventKind.ELEMENT_ONLINE:
        mac = str(data["mac"])
        state.elements[mac] = ElementView(
            mac=mac,
            service_type=str(data.get("service_type", "?")),
            dpid=int(data.get("dpid", 0)),  # type: ignore[arg-type]
            online=True,
        )
        state.users.pop(mac, None)  # elements are not users
    elif event.kind == EventKind.ELEMENT_LOAD:
        mac = str(data["mac"])
        if mac in state.elements:
            state.elements[mac].cpu = float(data.get("cpu", 0.0))  # type: ignore[arg-type]
            state.elements[mac].pps = float(data.get("pps", 0.0))  # type: ignore[arg-type]
    elif event.kind == EventKind.ELEMENT_OFFLINE:
        mac = str(data["mac"])
        if mac in state.elements:
            state.elements[mac].online = False
    elif event.kind == EventKind.PROTOCOL_IDENTIFIED:
        mac = str(data.get("user_mac", ""))
        app = str(data.get("application", "?"))
        if mac in state.users and app not in state.users[mac].applications:
            state.users[mac].applications.append(app)
    elif event.kind == EventKind.ATTACK_DETECTED:
        mac = str(data.get("user_mac", ""))
        if mac in state.users:
            state.users[mac].attacks += 1
        state.active_attacks.append(dict(data))
    elif event.kind == EventKind.FLOW_BLOCKED:
        mac = str(data.get("user_mac", ""))
        if mac in state.users:
            state.users[mac].blocked = True
    elif event.kind == EventKind.LINK_LOAD:
        key = (int(data["dpid"]), int(data["port"]))  # type: ignore[arg-type]
        state.link_loads[key] = float(data["utilization"])  # type: ignore[arg-type]


def render_snapshot(snapshot: Snapshot) -> str:
    """Text rendering of a snapshot (stands in for the Flash WebUI)."""
    lines = [
        f"=== LiveSec view @ t={snapshot.time:.2f}s ===",
        f"switches: {sorted(snapshot.switches)}"
        f"  logical full-mesh: {'yes' if snapshot.full_mesh() else 'NO'}",
    ]
    online = snapshot.online_users()
    lines.append(f"users online: {len(online)}")
    for user in sorted(online, key=lambda u: u.mac):
        apps = ",".join(user.applications) or "-"
        flags = []
        if user.attacks:
            flags.append(f"attacks={user.attacks}")
        if user.blocked:
            flags.append("BLOCKED")
        lines.append(
            f"  {user.mac} ip={user.ip or '?'} sw={user.dpid}"
            f" apps={apps} {' '.join(flags)}".rstrip()
        )
    offline = [u for u in snapshot.users.values() if not u.online]
    if offline:
        lines.append(f"users left: {sorted(u.mac for u in offline)}")
    lines.append(f"service elements: {len(snapshot.elements)}")
    for element in sorted(snapshot.elements.values(), key=lambda e: e.mac):
        status = "up" if element.online else "DOWN"
        lines.append(
            f"  {element.mac} type={element.service_type} sw={element.dpid}"
            f" cpu={element.cpu:.2f} pps={element.pps:.0f} [{status}]"
        )
    if snapshot.link_loads:
        hot = sorted(
            snapshot.link_loads.items(), key=lambda kv: -kv[1]
        )[:5]
        lines.append("hottest links:")
        for (dpid, port), load in hot:
            lines.append(f"  sw{dpid} port {port}: {load * 100:.1f}%")
    if snapshot.active_attacks:
        lines.append(f"attacks so far: {len(snapshot.active_attacks)}")
    return "\n".join(lines)
