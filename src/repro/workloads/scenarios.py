"""Canned multi-phase scenarios over a LiveSec deployment.

These reproduce, programmatically, the kind of day the deployment's
network actually has: users joining and leaving, a mix of web/SSH/
BitTorrent activity, and the occasional attack.  Scenarios power the
soak tests and give examples/CLI users a one-call way to generate
believable campus traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.deployment import LiveSecNetwork
from repro.core.policy import (
    FailMode,
    FlowSelector,
    Granularity,
    Policy,
    PolicyAction,
    PolicyTable,
)
from repro.net.topologies import GATEWAY_IP
from repro.workloads.flows import AttackWebFlow, PortScanFlow, VirusDownloadFlow
from repro.workloads.users import PROFILES, UserBehavior, UserChurn

ATTACK_KINDS = ("web", "portscan", "virus")


def gateway_ids_policies(
    name: str = "inspect-internet",
    chain: Tuple[str, ...] = ("ids",),
    granularity: Granularity = Granularity.FLOW,
    fail_mode: Optional[str] = None,
) -> PolicyTable:
    """The canonical 'Internet traffic traverses security' table: one
    CHAIN policy on everything addressed to the gateway.  The policy
    name rides session events into recorded digests, so scenarios that
    pin one pass their own."""
    table = PolicyTable()
    table.begin(source="scenario").add(Policy(
        name=name,
        selector=FlowSelector(dst_ip=GATEWAY_IP),
        action=PolicyAction.CHAIN,
        service_chain=tuple(chain),
        granularity=granularity,
        fail_mode=FailMode(fail_mode) if fail_mode else None,
    )).commit()
    return table


@dataclass
class ScenarioReport:
    """What a scenario did, for assertions and summaries."""

    duration_s: float = 0.0
    users: int = 0
    attacks_launched: int = 0
    attack_kinds: List[str] = field(default_factory=list)
    joins: int = 0
    leaves: int = 0


class CampusDayScenario:
    """User churn + mixed application traffic + periodic attacks.

    The scenario owns randomness through one seeded ``random.Random``,
    so a given (network, seed) pair replays identically.
    """

    def __init__(
        self,
        net: LiveSecNetwork,
        server_ip: str,
        seed: int = 7,
        mean_session_s: float = 20.0,
        mean_gap_s: float = 8.0,
        attack_interval_s: Optional[float] = 15.0,
        user_rate_bps: float = 1e6,
    ):
        self.net = net
        self.server_ip = server_ip
        self.rng = random.Random(seed)
        self.attack_interval_s = attack_interval_s
        self.report = ScenarioReport()
        self.behaviors = [
            UserBehavior(
                net.sim, host, server_ip,
                profile=self.rng.choice(PROFILES),
                rng=random.Random(self.rng.random()),
                rate_bps=user_rate_bps,
            )
            for host in net.topology.user_hosts
        ]
        self.report.users = len(self.behaviors)
        self.churn = UserChurn(
            net.sim, self.behaviors,
            mean_session_s=mean_session_s,
            mean_gap_s=mean_gap_s,
            seed=self.rng.randrange(1 << 30),
        )
        self._attack_timer = None

    # ------------------------------------------------------------------

    def run(self, duration_s: float) -> ScenarioReport:
        """Drive the scenario for ``duration_s`` simulated seconds."""
        self.churn.start()
        if self.attack_interval_s is not None:
            self._attack_timer = self.net.sim.every(
                self.attack_interval_s, self._launch_attack
            )
        self.net.run(duration_s)
        self.stop()
        self.report.duration_s += duration_s
        self.report.joins = self.churn.joins
        self.report.leaves = self.churn.leaves
        return self.report

    def stop(self) -> None:
        self.churn.stop()
        if self._attack_timer is not None:
            self._attack_timer.cancel()
            self._attack_timer = None

    # ------------------------------------------------------------------

    def _launch_attack(self) -> None:
        active = [b for b in self.behaviors if b.active]
        if not active:
            return
        attacker = self.rng.choice(active)
        kind = self.rng.choice(ATTACK_KINDS)
        if kind == "web":
            AttackWebFlow(
                self.net.sim, attacker.host, self.server_ip,
                rate_bps=1e6, duration_s=4.0,
            ).start()
        elif kind == "portscan":
            PortScanFlow(
                self.net.sim, attacker.host, self.server_ip, ports=30,
            ).start()
        else:
            VirusDownloadFlow(
                self.net.sim, attacker.host, self.server_ip,
                rate_bps=1e6, duration_s=4.0,
            ).start()
        self.report.attacks_launched += 1
        self.report.attack_kinds.append(kind)
