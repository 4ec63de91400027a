"""Declarative fault plans for deterministic chaos runs.

A :class:`FaultPlan` is a seeded, ordered list of fault descriptors,
each pinned to a simulator-clock instant.  Plans are pure data: they
name their targets (elements, switches, link endpoints) and carry no
object references, so the same plan can be re-armed against a freshly
built network and -- because every random draw descends from the
plan's seed -- two same-seed runs replay identically, event for event.

Faults model what the paper's deployment actually suffers from
(Section V: VM-based service elements, OpenFlow switches, a legacy
fabric):

* ``element_crash`` -- the VM dies (daemon stops, frames dropped);
  optionally reboots later.
* ``element_hang`` -- the VM freezes for a while, then resumes and
  re-certifies by itself.
* ``element_slow_report`` -- the daemon's online-message cadence is
  stretched (possibly past the controller's liveness timeout).
* ``switch_disconnect`` -- the secure channel drops (controller sees
  a switch leave); optionally reconnects later.  The flow table is
  kept.
* ``switch_reboot`` -- the switch power-cycles: channel down, flow
  table gone without a FlowRemoved, channel back after ``down_s``.
* ``link_flap`` -- a physical link goes down and comes back.
* ``channel_chaos`` -- the secure channel starts dropping / delaying /
  duplicating individual OpenFlow messages, driven by a seeded RNG.
* ``switch_compromise`` -- the data plane itself turns adversarial:
  the switch skips its waypoint, misroutes tagged frames out a chosen
  port, or strips path tags (the SDNsec threat model); only the
  forwarding-accountability proofs can convict it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.openflow.switch import COMPROMISE_VARIANTS

VALID_DIRECTIONS = ("to_switch", "to_controller")


@dataclass(frozen=True)
class ElementCrash:
    at_s: float
    element: str  # element name
    restart_at_s: Optional[float] = None

    kind = "element-crash"


@dataclass(frozen=True)
class ElementHang:
    at_s: float
    element: str
    duration_s: float

    kind = "element-hang"


@dataclass(frozen=True)
class ElementSlowReport:
    at_s: float
    element: str
    interval_s: float  # the stretched report interval
    restore_at_s: Optional[float] = None
    restore_interval_s: Optional[float] = None  # default: prior interval

    kind = "element-slow-report"


@dataclass(frozen=True)
class SwitchDisconnect:
    at_s: float
    switch: str  # switch name
    reconnect_at_s: Optional[float] = None

    kind = "switch-disconnect"


@dataclass(frozen=True)
class SwitchReboot:
    at_s: float
    switch: str  # switch name
    down_s: float

    kind = "switch-reboot"


@dataclass(frozen=True)
class LinkFlap:
    at_s: float
    node_a: str  # names of the link's two endpoints
    node_b: str
    down_s: float

    kind = "link-flap"


@dataclass(frozen=True)
class ChannelChaos:
    at_s: float
    switch: str  # switch name, or "*" for every channel
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    extra_delay_s: float = 0.0
    until_s: Optional[float] = None  # impairment cleared at this time
    directions: Tuple[str, ...] = VALID_DIRECTIONS

    kind = "channel-chaos"


@dataclass(frozen=True)
class ShardCrash:
    """A whole controller shard dies (sharded deployments only): its
    secure channels drop and it stops answering the coordinator's sync
    rounds, so its switches re-home onto the survivors."""

    at_s: float
    shard: int
    restart_at_s: Optional[float] = None

    kind = "shard-crash"


@dataclass(frozen=True)
class AppCrash:
    """A controller app crashes in place: its bus subscriptions and
    periodic timers vanish silently (no lifecycle event -- a real
    crash announces nothing).  The controller's app watchdog, armed
    automatically when a plan carries this fault, detects the crashed
    state on its next scan and revives the app from its recorded
    config; detection and recovery are scored as TTD/TTR like element
    and shard faults."""

    at_s: float
    app: str  # app name, e.g. "steering"
    shard: Optional[int] = None  # sharded runs: which member's app

    kind = "app-crash"


@dataclass(frozen=True)
class SwitchCompromise:
    at_s: float
    switch: str  # switch name
    variant: str = "skip-waypoint"
    port: Optional[int] = None  # misroute: divert tagged frames here

    kind = "switch-compromise"


@dataclass
class FaultPlan:
    """An ordered, seeded schedule of faults.

    Builder methods validate and append, returning ``self`` so plans
    read as a chain::

        plan = (FaultPlan(seed=7)
                .element_crash(5.0, "ids-1")
                .channel_chaos(2.0, "*", drop_rate=0.1, until_s=8.0))
    """

    seed: int = 0
    faults: List[object] = field(default_factory=list)

    def _add(self, fault) -> "FaultPlan":
        if fault.at_s < 0:
            raise ValueError(f"fault time must be >= 0 (got {fault.at_s})")
        self.faults.append(fault)
        return self

    def element_crash(
        self, at_s: float, element: str,
        restart_at_s: Optional[float] = None,
    ) -> "FaultPlan":
        if restart_at_s is not None and restart_at_s <= at_s:
            raise ValueError("restart must come after the crash")
        return self._add(ElementCrash(at_s, element, restart_at_s))

    def element_hang(
        self, at_s: float, element: str, duration_s: float
    ) -> "FaultPlan":
        if duration_s <= 0:
            raise ValueError(f"hang duration must be positive ({duration_s})")
        return self._add(ElementHang(at_s, element, duration_s))

    def element_slow_report(
        self, at_s: float, element: str, interval_s: float,
        restore_at_s: Optional[float] = None,
        restore_interval_s: Optional[float] = None,
    ) -> "FaultPlan":
        if interval_s <= 0:
            raise ValueError(f"interval must be positive ({interval_s})")
        if restore_at_s is not None and restore_at_s <= at_s:
            raise ValueError("restore must come after the slowdown")
        return self._add(ElementSlowReport(
            at_s, element, interval_s, restore_at_s, restore_interval_s
        ))

    def switch_disconnect(
        self, at_s: float, switch: str,
        reconnect_at_s: Optional[float] = None,
    ) -> "FaultPlan":
        if reconnect_at_s is not None and reconnect_at_s <= at_s:
            raise ValueError("reconnect must come after the disconnect")
        return self._add(SwitchDisconnect(at_s, switch, reconnect_at_s))

    def switch_reboot(
        self, at_s: float, switch: str, down_s: float
    ) -> "FaultPlan":
        if down_s <= 0:
            raise ValueError(f"down time must be positive ({down_s})")
        return self._add(SwitchReboot(at_s, switch, down_s))

    def link_flap(
        self, at_s: float, node_a: str, node_b: str, down_s: float
    ) -> "FaultPlan":
        if down_s <= 0:
            raise ValueError(f"down time must be positive ({down_s})")
        return self._add(LinkFlap(at_s, node_a, node_b, down_s))

    def channel_chaos(
        self, at_s: float, switch: str = "*",
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        extra_delay_s: float = 0.0,
        until_s: Optional[float] = None,
        directions: Tuple[str, ...] = VALID_DIRECTIONS,
    ) -> "FaultPlan":
        for rate in (drop_rate, duplicate_rate):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"rates must be in [0, 1) (got {rate})")
        if extra_delay_s < 0:
            raise ValueError(f"delay must be >= 0 (got {extra_delay_s})")
        if until_s is not None and until_s <= at_s:
            raise ValueError("until must come after the start")
        bad = set(directions) - set(VALID_DIRECTIONS)
        if bad:
            raise ValueError(f"unknown directions {sorted(bad)}")
        return self._add(ChannelChaos(
            at_s, switch, drop_rate, duplicate_rate, extra_delay_s,
            until_s, tuple(directions),
        ))

    def shard_crash(
        self, at_s: float, shard: int,
        restart_at_s: Optional[float] = None,
    ) -> "FaultPlan":
        if shard < 0:
            raise ValueError(f"shard id must be >= 0 (got {shard})")
        if restart_at_s is not None and restart_at_s <= at_s:
            raise ValueError("restart must come after the crash")
        return self._add(ShardCrash(at_s, shard, restart_at_s))

    def app_crash(
        self, at_s: float, app: str, shard: Optional[int] = None,
    ) -> "FaultPlan":
        if not app:
            raise ValueError("app name must be non-empty")
        if shard is not None and shard < 0:
            raise ValueError(f"shard id must be >= 0 (got {shard})")
        return self._add(AppCrash(at_s, app, shard))

    def switch_compromise(
        self, at_s: float, switch: str,
        variant: str = "skip-waypoint",
        port: Optional[int] = None,
    ) -> "FaultPlan":
        if variant not in COMPROMISE_VARIANTS:
            raise ValueError(
                f"unknown compromise variant {variant!r};"
                f" choose from {COMPROMISE_VARIANTS}"
            )
        if variant == "misroute" and port is None:
            raise ValueError("misroute needs the divert port")
        return self._add(SwitchCompromise(at_s, switch, variant, port))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def describe(self) -> List[str]:
        """Human-readable one-liners, in schedule order."""
        return [
            f"t={fault.at_s:g}s {fault.kind} {fault}"
            for fault in sorted(self.faults, key=lambda f: f.at_s)
        ]
