"""Node and port abstractions.

Every device in the simulation -- host, legacy switch, OpenFlow switch,
Wi-Fi AP, service element -- is a :class:`Node` with numbered
:class:`Port` objects.  A :class:`repro.net.links.Link` attaches two
ports; sending out a port hands the frame to the link, which models
serialization and propagation before delivering it to the peer node's
:meth:`Node.receive`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, TYPE_CHECKING

from repro.net.packet import Ethernet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.links import Link
    from repro.net.simulator import Simulator


class Port:
    """One attachment point of a node.  At most one link per port."""

    def __init__(self, node: "Node", number: int):
        self.node = node
        self.number = number
        # Both set by the Link constructor: the attached link, and its
        # transmit state for frames leaving this port.
        self.link: Optional["Link"] = None
        self.direction = None
        self.enabled = True
        # Counters maintained by the link layer.
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_drops = 0

    @property
    def is_attached(self) -> bool:
        return self.link is not None

    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link, if any."""
        if self.direction is None:
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
        frame is silently discarded, as real hardware would).
        """
        port = self.ports.get(out_port)
        if port is None or port.link is None or not port.enabled:
            return False
        port.link.transmit(port, frame)
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
