"""User behaviour and churn processes.

A :class:`UserBehavior` drives one host through an application
profile -- web browsing, SSH sessions, BitTorrent downloads -- with
seeded randomness so runs are reproducible.  :class:`UserChurn`
layers Poisson join/leave dynamics over a user population, which is
what exercises the controller's host discovery and expiry paths and
feeds the visualization scenarios.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional, Sequence

from repro.net.host import Host
from repro.workloads.flows import (
    BitTorrentFlow,
    HttpFlow,
    SshFlow,
    TrafficFlow,
)

PROFILES = ("web", "ssh", "bittorrent")


class UserBehavior:
    """One user's application activity against a server/gateway IP."""

    def __init__(
        self,
        sim,
        host: Host,
        server_ip: str,
        profile: str = "web",
        rng: Optional[random.Random] = None,
        rate_bps: float = 2e6,
    ):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; use one of {PROFILES}")
        self.sim = sim
        self.host = host
        self.server_ip = server_ip
        self.profile = profile
        self.rng = rng if rng is not None else random.Random(zlib.crc32(host.name.encode()))
        self.rate_bps = rate_bps
        self.flows: List[TrafficFlow] = []
        self.active = False

    def join(self) -> None:
        """Announce the host and start the profile's traffic."""
        self.active = True
        self.host.announce()
        self.sim.post(0.2 + self.rng.random() * 0.3, self._start_flow)

    def _start_flow(self) -> None:
        if not self.active:
            return
        flow = self._make_flow()
        flow.start()
        self.flows.append(flow)

    def _make_flow(self) -> TrafficFlow:
        if self.profile == "web":
            return HttpFlow(
                self.sim, self.host, self.server_ip, rate_bps=self.rate_bps
            )
        if self.profile == "ssh":
            return SshFlow(self.sim, self.host, self.server_ip)
        return BitTorrentFlow(
            self.sim, self.host, self.server_ip, rate_bps=self.rate_bps * 10
        )

    def switch_profile(self, profile: str) -> None:
        """Change application (e.g. the Figure 8 web->BitTorrent shift)."""
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        for flow in self.flows:
            flow.stop()
        self.flows.clear()
        self.profile = profile
        if self.active:
            self._start_flow()

    def leave(self) -> None:
        """Stop all traffic; the controller ages the host out."""
        self.active = False
        for flow in self.flows:
            flow.stop()
        self.flows.clear()


class UserChurn:
    """Poisson join/leave churn over a population of behaviours."""

    def __init__(
        self,
        sim,
        behaviors: Sequence[UserBehavior],
        mean_session_s: float = 30.0,
        mean_gap_s: float = 10.0,
        seed: int = 42,
    ):
        self.sim = sim
        self.behaviors = list(behaviors)
        self.mean_session_s = mean_session_s
        self.mean_gap_s = mean_gap_s
        self.rng = random.Random(seed)
        self.joins = 0
        self.leaves = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        for behavior in self.behaviors:
            self.sim.post(
                self.rng.expovariate(1.0 / self.mean_gap_s),
                self._join, behavior,
            )

    def stop(self) -> None:
        self._running = False
        for behavior in self.behaviors:
            if behavior.active:
                behavior.leave()

    def _join(self, behavior: UserBehavior) -> None:
        if not self._running:
            return
        behavior.join()
        self.joins += 1
        self.sim.post(
            self.rng.expovariate(1.0 / self.mean_session_s),
            self._leave, behavior,
        )

    def _leave(self, behavior: UserBehavior) -> None:
        if not self._running or not behavior.active:
            return
        behavior.leave()
        self.leaves += 1
        self.sim.post(
            self.rng.expovariate(1.0 / self.mean_gap_s),
            self._join, behavior,
        )
