"""The traditional architecture (paper Figure 1).

Hosts hang off plain legacy switching; one security middlebox sits
*inline* on the gateway path.  All Internet-bound traffic serializes
through that box, so (a) its capacity is the network's security
capacity -- the single point of performance bottleneck the paper's
introduction criticizes -- and (b) east-west traffic between hosts
never touches it, the "poor end-to-end security coverage" problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.elements.signatures import DEFAULT_IDS_RULES, IdsRule
from repro.net.host import Host
from repro.net.legacy import LegacySwitch
from repro.net.node import Node, connect
from repro.net.packet import Ethernet, Tcp, extract_nine_tuple
from repro.net.simulator import Simulator

INSIDE_PORT = 1
OUTSIDE_PORT = 2


class InlineMiddlebox(Node):
    """A two-armed inline middlebox with a processing-capacity model.

    Frames entering one arm are queued, charged processing time, then
    forwarded out the other arm.  With ``rules`` set it also performs
    inline intrusion detection and silently drops matching frames
    (traditional middleboxes enforce locally; there is no controller
    to report to).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_bps: float = 1e9,
        per_packet_cost_s: float = 4.5e-6,
        max_queue_bytes: int = 2_000_000,
        rules: Optional[Sequence[IdsRule]] = None,
    ):
        super().__init__(sim, name)
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps
        self.per_packet_cost_s = per_packet_cost_s
        self.max_queue_bytes = max_queue_bytes
        self.rules = tuple(rules) if rules is not None else ()
        self._busy_until = 0.0
        self._queue_bytes = 0
        self.busy_time_total = 0.0
        self.processed_packets = 0
        self.processed_bytes = 0
        self.dropped_overload = 0
        self.dropped_malicious = 0
        self._process_hist = None

    def attach_metrics(self, registry) -> None:
        """Publish this middlebox through an obs registry with the
        same metric vocabulary LiveSec elements report, so baseline
        and LiveSec runs export comparably."""
        labels = {"box": self.name}
        registry.gauge(
            "middlebox.processed_packets", "Frames fully processed", **labels,
        ).set_function(lambda: self.processed_packets)
        registry.gauge(
            "middlebox.processed_bytes", "Bytes fully processed", **labels,
        ).set_function(lambda: self.processed_bytes)
        registry.gauge(
            "middlebox.dropped_overload", "Frames dropped queue-full", **labels,
        ).set_function(lambda: self.dropped_overload)
        registry.gauge(
            "middlebox.dropped_malicious", "Frames dropped by IDS rules",
            **labels,
        ).set_function(lambda: self.dropped_malicious)
        registry.gauge(
            "middlebox.queue_bytes", "Bytes queued awaiting processing",
            **labels,
        ).set_function(lambda: self._queue_bytes)
        self._process_hist = registry.histogram(
            "middlebox.process_s",
            "Simulated per-frame processing time (serialization + fixed cost)",
            **labels,
        )

    def receive(self, frame: Ethernet, in_port: int) -> None:
        if in_port not in (INSIDE_PORT, OUTSIDE_PORT):
            return
        if self._queue_bytes + frame.size > self.max_queue_bytes:
            self.dropped_overload += 1
            return
        cost = frame.size * 8.0 / self.capacity_bps + self.per_packet_cost_s
        if self._process_hist is not None:
            self._process_hist.observe(cost)
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + cost
        self.busy_time_total += cost
        self._queue_bytes += frame.size
        self.sim.post_at(self._busy_until, self._finish, frame, in_port)

    def _finish(self, frame: Ethernet, in_port: int) -> None:
        self._queue_bytes -= frame.size
        self.processed_packets += 1
        self.processed_bytes += frame.size
        if self._is_malicious(frame):
            self.dropped_malicious += 1
            return
        out_port = OUTSIDE_PORT if in_port == INSIDE_PORT else INSIDE_PORT
        self.send(frame, out_port)

    def _is_malicious(self, frame: Ethernet) -> bool:
        if not self.rules:
            return False
        flow = extract_nine_tuple(frame)
        payload = frame.app_payload()
        transport = frame.transport()
        tcp_flags = transport.flags if isinstance(transport, Tcp) else None
        return any(
            rule.matches(payload, flow.nw_proto, flow.tp_dst, tcp_flags)
            for rule in self.rules
        )

    def utilization(self, window_start: float) -> float:
        elapsed = self.sim.now - window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time_total / elapsed)


@dataclass
class TraditionalNetwork:
    """A built traditional deployment."""

    sim: Simulator
    core: LegacySwitch
    access: List[LegacySwitch]
    hosts: List[Host]
    middlebox: Optional[InlineMiddlebox]
    gateway: Host
    metrics: Optional[object] = None

    def attach_metrics(self, registry) -> "TraditionalNetwork":
        """Report this baseline through the same obs registry type a
        LiveSec run uses, so benchmarks and the CLI can export both
        sides with identical machinery."""
        self.metrics = registry
        self.sim.attach_metrics(registry)
        if self.middlebox is not None:
            self.middlebox.attach_metrics(registry)
        return self

    def host(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)

    def run(self, duration_s: float) -> None:
        self.sim.run(until=self.sim.now + duration_s)

    def announce_all(self) -> None:
        for host in self.hosts:
            host.announce()
        self.gateway.announce()


def build_traditional_network(
    sim: Optional[Simulator] = None,
    num_access: int = 2,
    hosts_per_access: int = 2,
    host_bandwidth_bps: float = 100e6,
    middlebox_capacity_bps: float = 1e9,
    with_middlebox: bool = True,
    with_ids_rules: bool = True,
) -> TraditionalNetwork:
    """Figure 1: access switches -> core -> [inline middlebox] -> gateway.

    ``with_middlebox=False`` gives the pure legacy path used as the
    latency baseline in Section V.B.3.
    """
    if sim is None:
        sim = Simulator()
    core = LegacySwitch(sim, "core", bridge_id=1)
    access: List[LegacySwitch] = []
    hosts: List[Host] = []
    host_index = 1
    for a in range(num_access):
        switch = LegacySwitch(sim, f"acc{a + 1}", bridge_id=10 + a)
        connect(sim, switch, core, bandwidth_bps=1e9, delay_s=50e-6)
        access.append(switch)
        for _ in range(hosts_per_access):
            from repro.net.packet import ip_address, mac_address

            host = Host(
                sim, f"h{host_index}",
                mac_address(host_index), ip_address(host_index),
            )
            connect(sim, switch, host, bandwidth_bps=host_bandwidth_bps,
                    delay_s=20e-6)
            hosts.append(host)
            host_index += 1

    gateway = Host(sim, "gateway", "00:00:00:00:ff:fe", "10.255.255.254")
    middlebox: Optional[InlineMiddlebox] = None
    if with_middlebox:
        middlebox = InlineMiddlebox(
            sim, "mbox",
            capacity_bps=middlebox_capacity_bps,
            rules=DEFAULT_IDS_RULES if with_ids_rules else None,
        )
        connect(sim, core, middlebox, bandwidth_bps=1e9, delay_s=20e-6,
                port_b=INSIDE_PORT)
        connect(sim, middlebox, gateway, bandwidth_bps=1e9, delay_s=20e-6,
                port_a=OUTSIDE_PORT)
    else:
        connect(sim, core, gateway, bandwidth_bps=1e9, delay_s=20e-6)
    return TraditionalNetwork(
        sim=sim, core=core, access=access, hosts=hosts,
        middlebox=middlebox, gateway=gateway,
    )
