"""Node and port abstractions.

Every device in the simulation -- host, legacy switch, OpenFlow switch,
Wi-Fi AP, service element -- is a :class:`Node` with numbered
:class:`Port` objects.  A :class:`repro.net.links.Link` attaches two
ports; sending out a port hands the frame to the link, which models
serialization and propagation before delivering it to the peer node's
:meth:`Node.receive`.

Whether a port can send -- attached and enabled -- is decided when its
wiring changes, not per frame: :meth:`Port._update_egress` keeps the
node's ``egress`` table (port number -> the link's transmit bound to
that port) current, and every sender reads it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, Optional, TYPE_CHECKING

from repro.net.packet import Ethernet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.links import Link
    from repro.net.simulator import Simulator


class Port:
    """One attachment point of a node.  At most one link per port.

    ``link`` and ``enabled`` are properties: writing either updates the
    node's ``egress`` entry for the port.
    """

    def __init__(self, node: "Node", number: int):
        self.node = node
        self.number = number
        # Set through ``link`` by the Link constructor, with
        # ``direction``: its transmit state for frames leaving this
        # port, which outlives an unplug (it holds the tx counters).
        self._link: Optional["Link"] = None
        self.direction = None
        # Through the property, like every later write: the egress
        # decision is made in one place from the port's first state on.
        self.enabled = True
        # Counters maintained by the link layer.  What left the port is
        # counted once, on its direction (tx_packets / tx_bytes below).
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_drops = 0

    @property
    def link(self) -> Optional["Link"]:
        """The attached link; ``None`` once unplugged."""
        return self._link

    @link.setter
    def link(self, link: Optional["Link"]) -> None:
        self._link = link
        self._update_egress()

    @property
    def enabled(self) -> bool:
        """Whether the port sends and accepts frames."""
        return self._enabled

    @enabled.setter
    def enabled(self, enabled: bool) -> None:
        self._enabled = enabled
        self._update_egress()

    def _update_egress(self) -> None:
        """The one place the port's send decision is made: the node's
        ``egress`` maps the port to its link's transmit while the port
        is attached and enabled, and does not hold it otherwise."""
        egress = self.node.egress
        if self._link is not None and self._enabled:
            egress[self.number] = partial(self._link.transmit, self)
        else:
            egress.pop(self.number, None)

    @property
    def tx_packets(self) -> int:
        """Frames sent out of this port: its link direction's count."""
        direction = self.direction
        return 0 if direction is None else direction.tx_packets

    @property
    def tx_bytes(self) -> int:
        """Bytes sent out of this port: its link direction's count."""
        direction = self.direction
        return 0 if direction is None else direction.tx_bytes

    @property
    def is_attached(self) -> bool:
        return self._link is not None

    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link, if any: an
        unplugged port has none, though it keeps its direction."""
        if self._link is None:
            return None
        return self.direction.to_port

    def __repr__(self) -> str:
        return f"<Port {self.node.name}:{self.number}>"


class Node:
    """Base class for all simulated devices."""

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self.ports: Dict[int, Port] = {}
        #: Port number -> ``transmit(frame)`` for each port that can
        #: send (written by :meth:`Port._update_egress` only).  What the
        #: datapaths emit through instead of :meth:`send`.
        self.egress: Dict[int, Callable[[Ethernet], bool]] = {}

    def port(self, number: int) -> Port:
        """The port with the given number, creating it on first use."""
        if number not in self.ports:
            self.ports[number] = Port(self, number)
        return self.ports[number]

    def next_free_port(self) -> Port:
        """Allocate the lowest-numbered port without a link."""
        number = 1
        while number in self.ports and self.ports[number].is_attached:
            number += 1
        return self.port(number)

    def attached_ports(self) -> Iterable[Port]:
        """Ports that have a link, in port-number order."""
        return [p for _, p in sorted(self.ports.items()) if p.is_attached]

    def send(self, frame: Ethernet, out_port: int) -> bool:
        """Transmit ``frame`` from ``out_port``.

        Returns False when the port has no link or is disabled (the
        frame is silently discarded, as real hardware would); a frame
        the link then drops still counts as sent.  The public egress
        and the override point (``EcmpLegacySwitch.send``); the OF
        action stage and a host's resolved send read ``egress`` in
        place.
        """
        transmit = self.egress.get(out_port)
        if transmit is None:
            return False
        transmit(frame)
        return True

    def flood(self, frame: Ethernet, in_port: Optional[int] = None) -> int:
        """Send a copy of ``frame`` out of every attached port except
        ``in_port``.  Returns the number of copies sent."""
        sent = 0
        for port in self.attached_ports():
            if in_port is not None and port.number == in_port:
                continue
            if not port.enabled:
                continue
            self.send(frame.clone(), port.number)
            sent += 1
        return sent

    def receive(self, frame: Ethernet, in_port: int) -> None:
        """Handle a frame arriving on ``in_port``.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def connect(
    sim: "Simulator",
    node_a: Node,
    node_b: Node,
    bandwidth_bps: float = 1e9,
    delay_s: float = 50e-6,
    queue_packets: int = 1000,
    port_a: Optional[int] = None,
    port_b: Optional[int] = None,
) -> "Link":
    """Wire two nodes together with a duplex link and return it.

    Ports are auto-allocated unless given explicitly.  The defaults
    model a Gigabit Ethernet cable with 50 microseconds of one-way
    latency, matching the building fabric of the deployment.
    """
    from repro.net.links import Link

    end_a = node_a.port(port_a) if port_a is not None else node_a.next_free_port()
    end_b = node_b.port(port_b) if port_b is not None else node_b.next_free_port()
    if end_a.is_attached or end_b.is_attached:
        raise ValueError(f"port already wired: {end_a} or {end_b}")
    return Link(sim, end_a, end_b, bandwidth_bps, delay_s, queue_packets)
