"""Packet-level application flow generators.

A :class:`TrafficFlow` paces frames from a source host toward a
destination IP at a target bit rate.  Subclasses shape the payload so
the service elements see realistic bytes: the first packets carry the
application's greeting (classifiable by the l7 element), attack flows
embed IDS-triggering content, and so on.

Every flow gets a unique ``flow_id`` stamped on its frames; receiving
hosts account delivered bytes per flow id, which is how the benches
measure goodput without touching headers.
"""

from __future__ import annotations

from typing import Optional

from repro.net.host import Host
from repro.net.packet import IP_PROTO_TCP, IP_PROTO_UDP

DEFAULT_PACKET_SIZE = 1500


class TrafficFlow:
    """A paced, fixed-rate flow of frames from ``src`` to ``dst_ip``."""

    proto = IP_PROTO_UDP
    default_dport = 9000

    def __init__(
        self,
        sim,
        src: Host,
        dst_ip: str,
        rate_bps: float = 10e6,
        packet_size: int = DEFAULT_PACKET_SIZE,
        duration_s: Optional[float] = None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        max_packets: Optional[int] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive (got {rate_bps})")
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive (got {packet_size})")
        self.sim = sim
        self.src = src
        self.dst_ip = dst_ip
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        # Neither is reassigned, so the pacing step is stored once.
        self.interval_s = packet_size * 8.0 / rate_bps
        self.duration_s = duration_s
        self.max_packets = max_packets
        self.sport = (
            sport if sport is not None else sim.next_id("udp-sport", 20000)
        )
        self.dport = dport if dport is not None else self.default_dport
        self.flow_id = sim.next_id("flow-id", 1)
        self.packets_sent = 0
        self.bytes_sent = 0
        self.running = False
        self._started_at: Optional[float] = None
        self._stop_at: Optional[float] = None
        self._pending = None

    def start(self, delay_s: float = 0.0) -> "TrafficFlow":
        """Begin emitting; returns self for chaining."""
        if self.running:
            raise RuntimeError("flow already running")
        self.running = True
        self._pending = self.sim.schedule(delay_s, self._begin)
        return self

    def _begin(self) -> None:
        self._started_at = self.sim.now
        if self.duration_s is not None:
            self._stop_at = self.sim.now + self.duration_s
        fluid = self.sim.fluid
        if fluid is not None:
            # A new flow's first packet must punt to the controller at
            # packet fidelity: resume everything, then register as a
            # fast-forward candidate.
            fluid.flow_started(self)
        self._emit()

    def stop(self) -> None:
        self.running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        fluid = self.sim.fluid
        if fluid is not None:
            fluid.flow_stopped(self)

    def paced_at(self, index: int) -> float:
        """The absolute emission time of the ``index``-th packet.

        Pacing is anchored to the flow's start: packet *k* goes out at
        ``_started_at + k * interval_s``.  Scheduling each packet
        relative to the previous one accumulated float error over long
        horizons (a 60 s flow drifted packets short); both the emit
        path and the fluid kernel's analytic advance evaluate this same
        expression, so they agree bit-for-bit.
        """
        return self._started_at + index * self.interval_s

    def _emit(self) -> None:
        if not self.running:
            return
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            self.running = False
            return
        if self.max_packets is not None and self.packets_sent >= self.max_packets:
            self.running = False
            return
        payload = self.payload_for(self.packets_sent)
        if self.proto == IP_PROTO_TCP:
            self.src.send_tcp(
                self.dst_ip, self.sport, self.dport,
                payload=payload, flags=self.flags_for(self.packets_sent),
                size=self.packet_size, flow_id=self.flow_id,
            )
        else:
            self.src.send_udp(
                self.dst_ip, self.sport, self.dport,
                payload=payload, size=self.packet_size, flow_id=self.flow_id,
            )
        self.packets_sent += 1
        self.bytes_sent += self.packet_size
        self._pending = self.sim.schedule_at(
            max(self.sim.now, self.paced_at(self.packets_sent)), self._emit
        )

    # Subclass hooks -----------------------------------------------------

    def payload_for(self, index: int) -> bytes:
        """The application bytes of the ``index``-th packet."""
        return b"X" * 32

    def flags_for(self, index: int) -> str:
        """TCP flags of the ``index``-th packet (TCP flows only)."""
        return "S" if index == 0 else ""

    # Accounting ---------------------------------------------------------

    def delivered_bytes(self, dst: Host) -> int:
        self.sim.settle_fluid()  # a suspended flow owes its deliveries
        return dst.rx_bytes_by_flow.get(self.flow_id, 0)

    def goodput_bps(self, dst: Host) -> float:
        """Delivered rate since the flow started."""
        if self._started_at is None:
            return 0.0
        elapsed = self.sim.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self.delivered_bytes(dst) * 8.0 / elapsed


class CbrUdpFlow(TrafficFlow):
    """Constant-bit-rate UDP (the paper's raw throughput tests)."""

    proto = IP_PROTO_UDP
    default_dport = 9000

    def payload_for(self, index: int) -> bytes:
        return b"CBRDATA%d" % index


class HttpFlow(TrafficFlow):
    """Web traffic: a GET then server-push-style data segments."""

    proto = IP_PROTO_TCP
    default_dport = 80

    def __init__(self, *args, url: str = "/index.html", **kwargs):
        super().__init__(*args, **kwargs)
        self.url = url

    def payload_for(self, index: int) -> bytes:
        if index == 0:
            return (
                f"GET {self.url} HTTP/1.1\r\nHost: server\r\n\r\n".encode()
            )
        return b"HTTP/1.1 200 OK payload segment %d" % index

    def flags_for(self, index: int) -> str:
        return "S" if index == 0 else ""


class SshFlow(TrafficFlow):
    """Interactive SSH: low rate, small packets, SSH banner first."""

    proto = IP_PROTO_TCP
    default_dport = 22

    def __init__(self, sim, src, dst_ip, rate_bps: float = 64e3,
                 packet_size: int = 128, **kwargs):
        super().__init__(sim, src, dst_ip, rate_bps=rate_bps,
                         packet_size=packet_size, **kwargs)

    def payload_for(self, index: int) -> bytes:
        if index == 0:
            return b"SSH-2.0-OpenSSH_5.8p1"
        return b"\x00\x00\x00\x1c encrypted"


class BitTorrentFlow(TrafficFlow):
    """A BitTorrent download: the protocol handshake then bulk pieces.

    Figure 8's traffic surge comes from one of these.
    """

    proto = IP_PROTO_TCP
    default_dport = 6881

    def payload_for(self, index: int) -> bytes:
        if index == 0:
            return b"\x13BitTorrent protocol" + b"\x00" * 8
        return b"piece-data" * 4


class AttackWebFlow(HttpFlow):
    """A web flow that requests malicious content after a few packets.

    The Figure 8 scenario: "another user is trying to access some
    malicious website, while this action is detected and reported by
    the service element immediately."
    """

    def __init__(self, *args, attack_after: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        self.attack_after = attack_after

    def payload_for(self, index: int) -> bytes:
        if index == self.attack_after:
            return b"GET /malware/dropper.exe HTTP/1.1\r\nHost: evil\r\n\r\n"
        return super().payload_for(index)


class PortScanFlow(TrafficFlow):
    """A SYN scan: one probe per destination port, sweeping upward."""

    proto = IP_PROTO_TCP
    default_dport = 1

    def __init__(self, sim, src, dst_ip, ports: int = 50,
                 rate_bps: float = 512e3, packet_size: int = 64, **kwargs):
        kwargs.setdefault("max_packets", ports)
        super().__init__(sim, src, dst_ip, rate_bps=rate_bps,
                         packet_size=packet_size, **kwargs)
        self.ports = ports

    def _emit(self) -> None:
        # A scan changes destination port per probe, so each probe is
        # its own 9-tuple: emit directly rather than through the paced
        # single-flow path.
        if not self.running or self.packets_sent >= self.ports:
            self.running = False
            return
        port = 1000 + self.packets_sent
        self.src.send_tcp(
            self.dst_ip, self.sport, port, payload=b"", flags="S",
            size=self.packet_size, flow_id=self.flow_id,
        )
        self.packets_sent += 1
        self.bytes_sent += self.packet_size
        self._pending = self.sim.schedule_at(
            max(self.sim.now, self.paced_at(self.packets_sent)), self._emit
        )


class VirusDownloadFlow(HttpFlow):
    """An HTTP download whose body contains a virus signature."""

    def __init__(self, *args, infected_packet: int = 5, **kwargs):
        super().__init__(*args, **kwargs)
        self.infected_packet = infected_packet

    def payload_for(self, index: int) -> bytes:
        if index == self.infected_packet:
            return b"X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR"
        return super().payload_for(index)
