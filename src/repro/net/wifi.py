"""OF Wi-Fi access points (the deployment's Pantou/OpenWrt APs).

An AP is an OpenFlow switch (it participates in the Access-Switching
layer exactly like an OvS, Section III.C) whose station-facing ports
share a single radio.  The shared medium is what limits a Pantou AP to
the ~43 Mbps the paper measures (Section V.B.1): every frame to or
from any station serializes through one :class:`AirMedium`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.links import Link
from repro.openflow.switch import OpenFlowSwitch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host
    from repro.net.simulator import Simulator

PANTOU_AIR_BPS = 43e6
WIFI_ONE_WAY_DELAY_S = 1e-3


class AirMedium:
    """The shared radio: one transmitter at a time, fixed capacity."""

    def __init__(self, bandwidth_bps: float = PANTOU_AIR_BPS):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive (got {bandwidth_bps})")
        self.bandwidth_bps = bandwidth_bps
        self.next_free = 0.0
        self.busy_time = 0.0
        self.frames = 0
        self.fluid = None  # as _Direction.fluid: who has frames on the air

    def reserve(self, now: float, size_bytes: int) -> float:
        """Reserve airtime for a frame; returns the completion time."""
        tx_time = size_bytes * 8.0 / self.bandwidth_bps
        start = max(now, self.next_free)
        if self.fluid is not None:
            start = max(start, self.fluid.latest(now, pending=True))
        done = start + tx_time
        self.next_free = done
        self.busy_time += tx_time
        self.frames += 1
        return done


class WirelessLink(Link):
    """A station<->AP link whose serialization goes through the air.

    The per-direction queue bound still applies, but transmission
    timing is governed by the shared :class:`AirMedium` rather than a
    per-direction channel, so stations contend with each other and
    with the AP's own downlink traffic.
    """

    def __init__(self, sim, end_a, end_b, medium: AirMedium,
                 delay_s: float = WIFI_ONE_WAY_DELAY_S,
                 queue_packets: int = 200):
        super().__init__(sim, end_a, end_b, medium.bandwidth_bps, delay_s,
                         queue_packets)
        self.medium = medium

    def transmit(self, from_port, frame) -> bool:
        if not self.up:
            from_port.tx_drops += 1
            return False
        direction = from_port.direction
        now = self.sim.now
        # Same drop-tail semantics as the wired link: a buffer slot is
        # held until the frame's airtime completes, not until it has
        # also crossed the propagation delay.
        if direction.occupancy(now) >= self.queue_packets:
            direction.dropped += 1
            from_port.tx_drops += 1
            return False
        size = frame.size
        done = self.medium.reserve(now, size)
        direction.next_free = done
        direction.pending_done.append(done)
        direction.busy_time += size * 8.0 / self.medium.bandwidth_bps
        direction.tx_packets += 1
        direction.tx_bytes += size
        self.sim.post_at(
            done + self.delay_s, self._deliver, frame, direction.to_port
        )
        return True

    def fluid_plan(self, from_port, arrival_offset_s: float):
        # Same wired plan, plus the shared radio: the analytic traffic
        # drives its serialization clock alongside the per-direction
        # one, and a settle accounts its airtime.
        plan = super().fluid_plan(from_port, arrival_offset_s)
        plan.medium = self.medium
        return plan


class WifiAccessPoint(OpenFlowSwitch):
    """An OpenFlow-enabled Wi-Fi AP with a shared-capacity radio."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        dpid: int,
        air_bandwidth_bps: float = PANTOU_AIR_BPS,
        forwarding_delay_s: float = 100e-6,
    ):
        # Pantou runs on much weaker hardware than a server OvS, hence
        # the higher per-frame forwarding cost.
        super().__init__(sim, name, dpid, forwarding_delay_s=forwarding_delay_s)
        self.medium = AirMedium(air_bandwidth_bps)
        self.stations: list = []

    def _forward(self, frame, in_port, plan) -> None:
        # Posted, not run ahead: the stations share this radio and can
        # reserve air inside the forwarding delay, so the downlink frame
        # must claim the air when it leaves, behind them.
        self.sim.post(
            self.forwarding_delay_s, self._apply_actions, frame, in_port, plan
        )

    def attach_station(self, station: "Host") -> WirelessLink:
        """Associate a wireless host with this AP."""
        ap_port = self.next_free_port()
        station_port = station.next_free_port()
        if ap_port.is_attached or station_port.is_attached:
            raise ValueError("port already wired")
        link = WirelessLink(self.sim, ap_port, station_port, self.medium)
        self.stations.append(station)
        return link
