"""TCP-backed workloads: transfers that react to loss and blocking.

Unlike the paced generators in :mod:`repro.workloads.flows`, these ride
the real transport of :mod:`repro.net.tcp`: they back off under loss,
recover exactly, and -- importantly for LiveSec -- *stall permanently*
when the controller blocks their flow at the ingress switch, just as a
real attacker's connection would.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.host import Host
from repro.net.tcp import TcpConnection, TcpListener


class TcpServer:
    """A byte-sink server; optionally responds with ``response_bytes``."""

    def __init__(self, host: Host, port: int = 80,
                 response_bytes: int = 0):
        self.host = host
        self.port = port
        self.response_bytes = response_bytes
        self.bytes_received = 0
        self.connections_seen = 0
        self.listener = TcpListener(
            host, port,
            on_connection=self._on_connection,
            on_receive=self._on_receive,
        )

    def _on_connection(self, conn: TcpConnection) -> None:
        self.connections_seen += 1

    def _on_receive(self, conn: TcpConnection, data: bytes) -> None:
        self.bytes_received += len(data)
        if self.response_bytes and conn.bytes_sent == 0:
            conn.send(b"R" * self.response_bytes)


class TcpTransfer:
    """One reliable upload of ``size_bytes`` from ``src`` to a server.

    The first payload bytes carry an HTTP-looking request line so the
    L7 classifier identifies the connection.
    """

    def __init__(
        self,
        src: Host,
        server_ip: str,
        port: int = 80,
        size_bytes: int = 1_000_000,
        on_complete: Optional[Callable[["TcpTransfer"], None]] = None,
        leading_payload: bytes = b"GET /object HTTP/1.1\r\n\r\n",
    ):
        self.src = src
        self.sim = src.sim
        self.server_ip = server_ip
        self.port = port
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.leading_payload = leading_payload
        self.connection: Optional[TcpConnection] = None
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None

    def start(self, delay_s: float = 0.0) -> "TcpTransfer":
        self.sim.post(delay_s, self._begin)
        return self

    def _begin(self) -> None:
        self.started_at = self.sim.now
        body = self.leading_payload + b"D" * (
            self.size_bytes - len(self.leading_payload)
        )
        self.connection = TcpConnection.connect(
            self.src, self.server_ip, self.port,
            on_established=lambda conn: (conn.send(body), conn.close()),
            on_close=self._on_close,
        )

    def _on_close(self, conn: TcpConnection) -> None:
        self.completed_at = self.sim.now
        if self.on_complete is not None:
            self.on_complete(self)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def duration_s(self) -> Optional[float]:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def goodput_bps(self) -> Optional[float]:
        duration = self.duration_s
        if not duration:
            return None
        return self.size_bytes * 8.0 / duration
