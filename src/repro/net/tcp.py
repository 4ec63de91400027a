"""A compact reliable transport over the simulated network.

The paper's throughput evaluation uses real HTTP-over-TCP flows; the
paced generators in :mod:`repro.workloads.flows` reproduce their load
shape, but say nothing about how *loss* behaves.  This module adds a
small but honest TCP: three-way handshake, byte sequence numbers,
cumulative ACKs, AIMD congestion control (slow start + congestion
avoidance, halving on loss), retransmission timeouts with exponential
backoff, and FIN teardown.  It is enough to show LiveSec's steering
and blocking interacting with a real transport -- retransmissions
recover from overloaded-element drops, and a controller block stalls a
connection permanently.

Simplifications vs a kernel TCP: no SACK, no fast-retransmit dup-ACK
threshold tuning (a simple 3-dup-ACK rule is implemented), no window
scaling, no delayed ACKs, receive window assumed ample.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net import packet as pkt
from repro.net.host import Host
from repro.net.packet import Ethernet, IP_PROTO_TCP, Tcp

MSS = 1400  # payload bytes per segment
HEADERS = pkt.ETH_HEADER_BYTES + pkt.IP_HEADER_BYTES + pkt.TCP_HEADER_BYTES
INITIAL_RTO_S = 0.2
MAX_RTO_S = 5.0
INITIAL_CWND = 2 * MSS
DUP_ACK_THRESHOLD = 3


class TcpConnection:
    """One endpoint of a reliable byte-stream connection."""

    # Connection states.
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"

    def __init__(
        self,
        host: Host,
        peer_ip: str,
        local_port: int,
        peer_port: int,
        on_receive: Optional[Callable[[bytes], None]] = None,
        on_established: Optional[Callable[["TcpConnection"], None]] = None,
        on_close: Optional[Callable[["TcpConnection"], None]] = None,
        register: bool = True,
    ):
        self.host = host
        self.sim = host.sim
        self.peer_ip = peer_ip
        self.local_port = local_port
        self.peer_port = peer_port
        self.on_receive = on_receive
        self.on_established = on_established
        self.on_close = on_close
        self.state = self.CLOSED
        # Send side.
        self._send_buffer = b""
        self._unacked = b""  # in-flight bytes kept for retransmission
        self._snd_una = 0  # first unacked byte
        self._snd_nxt = 0  # next byte to send
        self.cwnd = INITIAL_CWND
        self.ssthresh = 64 * MSS
        self._rto = INITIAL_RTO_S
        self._rto_timer = None
        self._dup_acks = 0
        self._fin_queued = False
        # Receive side.
        self._rcv_nxt = 0
        self._out_of_order: Dict[int, bytes] = {}
        # Stats.
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.established_at: Optional[float] = None
        if register:
            self._register()

    # ------------------------------------------------------------------
    # Public API

    @classmethod
    def connect(
        cls,
        host: Host,
        peer_ip: str,
        peer_port: int,
        local_port: Optional[int] = None,
        on_receive: Optional[Callable[[bytes], None]] = None,
        on_established: Optional[Callable[["TcpConnection"], None]] = None,
        on_close: Optional[Callable[["TcpConnection"], None]] = None,
    ) -> "TcpConnection":
        """Open a client connection (sends the SYN immediately)."""
        conn = cls(
            host, peer_ip,
            local_port if local_port is not None
            else host.sim.next_id("tcp-sport", 40000),
            peer_port,
            on_receive=on_receive,
            on_established=on_established,
            on_close=on_close,
        )
        conn.state = cls.SYN_SENT
        conn._fluid_block()
        conn._emit(flags="S")
        conn._arm_rto()
        return conn

    def send(self, data: bytes) -> None:
        """Queue application bytes for reliable delivery."""
        if self.state not in (self.ESTABLISHED, self.SYN_SENT,
                              self.SYN_RECEIVED):
            raise RuntimeError(f"cannot send in state {self.state}")
        self._send_buffer += data
        self._pump()

    def close(self) -> None:
        """Finish sending queued data, then FIN."""
        self._fin_queued = True
        self._pump()

    @property
    def unacked_bytes(self) -> int:
        return self._snd_nxt - self._snd_una

    # ------------------------------------------------------------------
    # Wiring

    def _register(self) -> None:
        self.host.on_app(IP_PROTO_TCP, self.local_port, self._on_frame)

    def _emit(self, flags: str = "", payload: bytes = b"",
              seq: Optional[int] = None, ack: bool = True) -> None:
        segment_seq = self._snd_nxt if seq is None else seq
        frame = pkt.make_tcp(
            self.host.mac, pkt.BROADCAST_MAC, self.host.ip, self.peer_ip,
            self.local_port, self.peer_port,
            payload=payload,
            flags=flags,
            size=HEADERS + len(payload),
        )
        segment = frame.transport()
        segment.seq = segment_seq
        # Cumulative ACK piggybacks on everything after the handshake.
        if ack and self.state in (self.ESTABLISHED, self.SYN_RECEIVED,
                                  self.FIN_SENT):
            segment.flags = (segment.flags + "A") if "A" not in segment.flags \
                else segment.flags
            segment.ack_seq = self._rcv_nxt  # type: ignore[attr-defined]
        frame.created_at = self.sim.now
        self.host.resolve_and_send(frame, self.peer_ip)

    # ------------------------------------------------------------------
    # Send machinery

    def _pump(self) -> None:
        """Send whatever the congestion window currently allows."""
        if self.state != self.ESTABLISHED:
            return
        while self._send_buffer and self.unacked_bytes < self.cwnd:
            chunk = self._send_buffer[:MSS]
            self._send_buffer = self._send_buffer[len(chunk):]
            self._unacked += chunk
            self._emit(payload=chunk)
            self._snd_nxt += len(chunk)
            self.bytes_sent += len(chunk)
        if (
            self._fin_queued
            and not self._send_buffer
            and self.unacked_bytes == 0
            and self.state == self.ESTABLISHED
        ):
            self.state = self.FIN_SENT
            self._emit(flags="F", seq=self._snd_nxt)
            self._snd_nxt += 1  # FIN consumes a sequence number
        if self.unacked_bytes > 0:
            self._arm_rto()

    def _arm_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
        self._rto_timer = self.sim.schedule(self._rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.state == self.CLOSED:
            return
        if self.state == self.SYN_SENT:
            self._emit(flags="S", seq=0, ack=False)
            self.retransmissions += 1
        elif self.unacked_bytes > 0 or self.state == self.FIN_SENT:
            self._retransmit_head()
            # Loss signal: multiplicative decrease, restart slow start.
            self.ssthresh = max(2 * MSS, self.cwnd // 2)
            self.cwnd = INITIAL_CWND
        else:
            return
        self._rto = min(self._rto * 2, MAX_RTO_S)
        self._arm_rto()

    def _retransmit_head(self) -> None:
        """Resend the first unacknowledged segment."""
        self.retransmissions += 1
        if self.state == self.FIN_SENT and self._snd_una == self._snd_nxt - 1:
            self._emit(flags="F", seq=self._snd_una)
            return
        self._emit(payload=self._unacked[:MSS], seq=self._snd_una)

    # ------------------------------------------------------------------
    # Receive machinery

    def _on_frame(self, host: Host, frame: Ethernet) -> None:
        segment = frame.transport()
        if not isinstance(segment, Tcp) or segment.sport != self.peer_port:
            return
        ip = frame.ip()
        if ip is None or ip.src != self.peer_ip:
            return
        flags = segment.flags
        if "S" in flags and "A" in flags:
            self._on_syn_ack()
            return
        if "S" in flags:
            self._on_syn()
            return
        if "F" in flags:
            self._on_fin(segment)
            return
        if "A" in flags or segment.payload:
            self._on_data_or_ack(segment)

    def _on_syn(self) -> None:
        """Server side: a SYN arrived (listener dispatches to us)."""
        if self.state in (self.CLOSED, self.SYN_RECEIVED):
            if self.state == self.CLOSED:
                self._fluid_block()
            self.state = self.SYN_RECEIVED
            self._emit(flags="SA", seq=0, ack=False)

    def _on_syn_ack(self) -> None:
        if self.state == self.SYN_SENT:
            self._become_established()
            self._emit(flags="A", seq=0)
            self._pump()

    def _become_established(self) -> None:
        self.state = self.ESTABLISHED
        self.established_at = self.sim.now
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        self._rto = INITIAL_RTO_S
        if self.on_established is not None:
            self.on_established(self)

    def _on_data_or_ack(self, segment: Tcp) -> None:
        if self.state == self.SYN_RECEIVED:
            # The handshake ACK completes establishment server-side.
            self._become_established()
        ack_seq = getattr(segment, "ack_seq", None)
        if ack_seq is not None:
            self._process_ack(ack_seq)
        if segment.payload:
            self._process_data(segment.seq, segment.payload)

    def _process_ack(self, ack_seq: int) -> None:
        if ack_seq > self._snd_una:
            newly = ack_seq - self._snd_una
            self._unacked = self._unacked[newly:]
            self._snd_una = ack_seq
            self.bytes_acked += newly
            self._dup_acks = 0
            self._rto = INITIAL_RTO_S
            # AIMD growth.
            if self.cwnd < self.ssthresh:
                self.cwnd += min(newly, MSS)  # slow start
            else:
                self.cwnd += MSS * MSS // self.cwnd  # congestion avoidance
            if self.unacked_bytes == 0 and self._rto_timer is not None:
                self._rto_timer.cancel()
                self._rto_timer = None
            elif self.unacked_bytes > 0:
                self._arm_rto()
            self._pump()
        elif ack_seq == self._snd_una and self.unacked_bytes > 0:
            self._dup_acks += 1
            if self._dup_acks == DUP_ACK_THRESHOLD:
                # Fast retransmit + multiplicative decrease.
                self._retransmit_head()
                self.ssthresh = max(2 * MSS, self.cwnd // 2)
                self.cwnd = self.ssthresh
                self._dup_acks = 0

    def _process_data(self, seq: int, payload: bytes) -> None:
        if seq > self._rcv_nxt:
            self._out_of_order[seq] = payload
            self._emit(flags="A", seq=self._snd_nxt)  # dup ACK
            return
        if seq + len(payload) <= self._rcv_nxt:
            self._emit(flags="A", seq=self._snd_nxt)  # stale retransmit
            return
        # Deliver the new part, then any queued continuation.
        fresh = payload[self._rcv_nxt - seq:]
        self._deliver(fresh)
        while self._rcv_nxt in self._out_of_order:
            self._deliver(self._out_of_order.pop(self._rcv_nxt))
        self._emit(flags="A", seq=self._snd_nxt)

    def _deliver(self, data: bytes) -> None:
        self._rcv_nxt += len(data)
        self.bytes_received += len(data)
        if self.on_receive is not None:
            self.on_receive(data)

    def _on_fin(self, segment: Tcp) -> None:
        ack_seq = getattr(segment, "ack_seq", None)
        if ack_seq is not None:
            self._process_ack(ack_seq)
        if self.state == self.FIN_SENT:
            self._teardown()
            return
        # Passive close: ACK the FIN and close.
        self._rcv_nxt = segment.seq + 1
        self._emit(flags="FA", seq=self._snd_nxt)
        self._teardown()

    def _teardown(self) -> None:
        if self.state == self.CLOSED:
            return
        self.state = self.CLOSED
        self._fluid_unblock()
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.on_close is not None:
            self.on_close(self)

    def _fluid_block(self) -> None:
        """TCP's RTO/ack timing is stateful per packet: a live
        connection pins the whole simulation at packet fidelity."""
        fluid = self.host.sim.fluid
        if fluid is not None:
            fluid.tcp_opened(self)

    def _fluid_unblock(self) -> None:
        fluid = self.host.sim.fluid
        if fluid is not None:
            fluid.tcp_closed(self)


class TcpListener:
    """A passive endpoint accepting connections on one port."""

    def __init__(
        self,
        host: Host,
        port: int,
        on_connection: Optional[Callable[[TcpConnection], None]] = None,
        on_receive: Optional[Callable[[TcpConnection, bytes], None]] = None,
    ):
        self.host = host
        self.port = port
        self.on_connection = on_connection
        self.on_receive = on_receive
        self.connections: Dict[tuple, TcpConnection] = {}
        host.on_app(IP_PROTO_TCP, port, self._dispatch)

    def _dispatch(self, host: Host, frame: Ethernet) -> None:
        ip = frame.ip()
        segment = frame.transport()
        if ip is None or not isinstance(segment, Tcp):
            return
        key = (ip.src, segment.sport)
        conn = self.connections.get(key)
        if conn is None:
            if "S" not in segment.flags or "A" in segment.flags:
                return  # no connection and not a SYN: ignore
            conn = TcpConnection(
                self.host, ip.src,
                local_port=self.port, peer_port=segment.sport,
                register=False,
            )
            if self.on_receive is not None:
                handler = self.on_receive

                def bound(data: bytes, conn=conn) -> None:
                    handler(conn, data)

                conn.on_receive = bound
            self.connections[key] = conn
            if self.on_connection is not None:
                conn.on_established = lambda c: self.on_connection(c)
        conn._on_frame(host, frame)

    def close(self) -> None:
        for conn in list(self.connections.values()):
            conn.close()
