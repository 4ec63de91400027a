"""The service-element base: capacity model, daemon, event reports.

**Capacity model.**  Processing one frame costs
``size * 8 / capacity_bps + per_packet_cost_s`` of element CPU time;
frames queue FIFO behind the busy engine and are tail-dropped beyond
``max_queue_bytes``.  The defaults are calibrated against the paper's
Section V.B.1 measurements: an IDS element forwards ~500 Mbps of
large-frame traffic in bypass terms and ~421 Mbps of an HTTP mix
(1500-byte data frames) once the per-packet inspection cost bites.

**Daemon.**  Every ``report_interval_s`` the element emits an *online*
message -- service type, CPU utilization (busy fraction over the
window), memory (queue occupancy), processed packets/s, active flows --
as a LiveSec-formatted UDP datagram that the ingress AS switch punts
to the controller (Section III.D.1).  Inspection verdicts become
*event report* messages through the same channel; the element itself
never drops or blocks user traffic (actions are the controller's job:
"the action is not taken by distributed service elements").
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.core import messages as svcmsg
from repro.net import packet as pkt
from repro.net.host import HOST_PORT, Host
from repro.net.packet import Ethernet, FlowNineTuple, extract_nine_tuple

DEFAULT_REPORT_INTERVAL_S = 0.5
DEFAULT_QUEUE_BYTES = 2_000_000  # ~2 MB of buffered frames


class Verdict:
    """What an inspection pass concluded about one frame."""

    def __init__(self, kind: str, detail: Optional[Dict[str, str]] = None):
        self.kind = kind  # "attack" | "protocol" | "virus"
        self.detail = detail or {}

    def __repr__(self) -> str:
        return f"<Verdict {self.kind} {self.detail}>"


class ServiceElement(Host):
    """Base class for all VM-based service elements."""

    service_type = "generic"

    def __init__(
        self,
        sim,
        name: str,
        mac: str,
        ip: str,
        capacity_bps: float = 500e6,
        per_packet_cost_s: float = 4.5e-6,
        max_queue_bytes: int = DEFAULT_QUEUE_BYTES,
        report_interval_s: float = DEFAULT_REPORT_INTERVAL_S,
        bypass: bool = False,
    ):
        super().__init__(sim, name, mac, ip)
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive (got {capacity_bps})")
        self.capacity_bps = capacity_bps
        self.per_packet_cost_s = per_packet_cost_s
        self.max_queue_bytes = max_queue_bytes
        self.report_interval_s = report_interval_s
        self.bypass = bypass
        self.certificate: Optional[str] = None
        # Fault state (driven by repro.faults): a failed element is a
        # crashed VM (drops everything, daemon dead); a hung element is
        # alive but unresponsive until ``_hung_until``.
        self.failed = False
        self._hung_until = 0.0
        # Engine state.
        self._busy_until = 0.0
        self._queue_bytes = 0
        self.processed_packets = 0
        self.processed_bytes = 0
        self.dropped_packets = 0
        self._busy_time_total = 0.0
        # Reporting deltas.
        self._last_report_packets = 0
        self._last_report_busy = 0.0
        self._active_flows: Dict[FlowNineTuple, float] = {}
        self.reports_sent = 0
        self.events_sent = 0
        # Stable per-name phase offset (zlib.crc32, not hash(): str
        # hashing is randomized per process and would break run-to-run
        # determinism) so element reports do not all land together.
        phase = (zlib.crc32(name.encode()) % 100) / 250.0
        self._daemon = sim.every(
            report_interval_s,
            self._send_online_message,
            start=sim.now + report_interval_s * (0.1 + phase),
        )

    # ------------------------------------------------------------------
    # Provisioning

    def provision(self, certificate: str) -> None:
        """Install the controller-issued certificate (out of band)."""
        self.certificate = certificate

    def shutdown(self) -> None:
        """Stop the daemon; the controller will mark us offline."""
        self._daemon.cancel()

    # ------------------------------------------------------------------
    # Fault injection (the VM's failure modes)

    def fail(self) -> None:
        """Crash the VM: daemon dies, every frame is dropped."""
        self.failed = True
        self._daemon.cancel()

    def restart(self) -> None:
        """Reboot a crashed VM: the daemon reports again (first report
        after one interval) and the engine starts clean."""
        if not self.failed:
            return
        self.failed = False
        self._hung_until = 0.0
        self._queue_bytes = 0
        self._busy_until = self.sim.now
        self._daemon = self.sim.every(
            self.report_interval_s, self._send_online_message
        )

    def hang(self, duration_s: float) -> None:
        """Freeze the VM for ``duration_s``: frames are dropped and no
        online messages go out, then it resumes by itself (its daemon
        keeps ticking, so the first post-hang report re-certifies it)."""
        if duration_s <= 0:
            raise ValueError(f"hang duration must be positive ({duration_s})")
        self._hung_until = max(self._hung_until, self.sim.now + duration_s)

    def set_report_interval(self, interval_s: float) -> None:
        """Retune the daemon cadence (the slow-report fault stretches
        it past the controller's liveness timeout)."""
        if interval_s <= 0:
            raise ValueError(f"interval must be positive ({interval_s})")
        self.report_interval_s = interval_s
        if not self.failed:
            self._daemon.set_interval(interval_s)

    @property
    def hung(self) -> bool:
        return self.sim.now < self._hung_until

    # ------------------------------------------------------------------
    # Data path

    def receive(self, frame: Ethernet, in_port: int) -> None:
        if self.failed or self.hung:
            self.dropped_packets += 1
            return
        if frame.ethertype == pkt.ETH_TYPE_ARP:
            super().receive(frame, in_port)
            return
        if frame.dst != self.mac:
            return
        cost = self._processing_cost(frame)
        if self._queue_bytes + frame.size > self.max_queue_bytes:
            self.dropped_packets += 1
            return
        now = self.sim.now
        start = max(now, self._busy_until)
        done = start + cost
        self._busy_until = done
        self._busy_time_total += cost
        self._queue_bytes += frame.size
        self.sim.post_at(done, self._finish_processing, frame)

    def _processing_cost(self, frame: Ethernet) -> float:
        serialization = frame.size * 8.0 / self.capacity_bps
        if self.bypass:
            return serialization
        return serialization + self.per_packet_cost_s

    def _finish_processing(self, frame: Ethernet) -> None:
        self._queue_bytes -= frame.size
        self.processed_packets += 1
        self.processed_bytes += frame.size
        flow = extract_nine_tuple(frame)
        self._active_flows[flow] = self.sim.now
        verdicts: List[Verdict] = []
        if not self.bypass:
            verdicts = self.inspect(frame, flow)
        for verdict in verdicts:
            self._send_event_report(verdict, flow)
        # Re-emit the frame unchanged: the AS switch's "flow the service
        # element sends back" entry restores the real destination.
        self.send(frame, HOST_PORT)

    def inspect(self, frame: Ethernet, flow: FlowNineTuple) -> List[Verdict]:
        """Subclass hook: examine one frame, return verdicts (if any)."""
        return []

    # ------------------------------------------------------------------
    # Daemon messages

    def current_load(self) -> Tuple[float, float, float]:
        """(cpu, memory, pps) over the last report window."""
        window = self.report_interval_s
        busy_delta = self._busy_time_total - self._last_report_busy
        packets_delta = self.processed_packets - self._last_report_packets
        cpu = min(1.0, busy_delta / window)
        memory = min(1.0, self._queue_bytes / self.max_queue_bytes)
        pps = packets_delta / window
        return cpu, memory, pps

    def _send_online_message(self) -> None:
        if self.failed or self.hung:
            return
        cpu, memory, pps = self.current_load()
        self._last_report_busy = self._busy_time_total
        self._last_report_packets = self.processed_packets
        self._expire_flows()
        message = svcmsg.OnlineMessage(
            element_mac=self.mac,
            certificate=self.certificate or "UNPROVISIONED",
            service_type=self.service_type,
            cpu=cpu,
            memory=memory,
            pps=pps,
            active_flows=len(self._active_flows),
        )
        self._send_service_frame(svcmsg.encode_online(message))
        self.reports_sent += 1

    def _send_event_report(self, verdict: Verdict, flow: FlowNineTuple) -> None:
        message = svcmsg.EventReportMessage(
            element_mac=self.mac,
            certificate=self.certificate or "UNPROVISIONED",
            kind=verdict.kind,
            flow=flow,
            detail=verdict.detail,
        )
        self._send_service_frame(svcmsg.encode_event(message))
        self.events_sent += 1

    def _send_service_frame(self, payload: bytes) -> None:
        frame = pkt.make_udp(
            src_mac=self.mac,
            dst_mac=svcmsg.CONTROLLER_MAC,
            src_ip=self.ip,
            dst_ip=svcmsg.CONTROLLER_IP,
            sport=svcmsg.SERVICE_MESSAGE_PORT,
            dport=svcmsg.SERVICE_MESSAGE_PORT,
            payload=payload,
        )
        self.send(frame, HOST_PORT)

    def _expire_flows(self, max_idle_s: float = 10.0) -> None:
        now = self.sim.now
        stale = [f for f, seen in self._active_flows.items()
                 if now - seen > max_idle_s]
        for flow in stale:
            del self._active_flows[flow]

    # ------------------------------------------------------------------
    # Introspection

    def stats(self) -> dict:
        return {
            "service_type": self.service_type,
            "processed_packets": self.processed_packets,
            "processed_bytes": self.processed_bytes,
            "dropped_packets": self.dropped_packets,
            "queue_bytes": self._queue_bytes,
            "reports_sent": self.reports_sent,
            "events_sent": self.events_sent,
        }
