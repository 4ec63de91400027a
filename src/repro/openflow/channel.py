"""The secure channel between an OpenFlow switch and the controller.

Section III.C: "secure channels are established by AS switches to
connect to the control-plane".  The channel is out-of-band here (it
does not consume data-plane link capacity, as in the deployment where
the control network is separate) but has a configurable one-way latency
so the first-packet controller round trip is a measurable cost, and it
can be disconnected to exercise switch-leave handling.

For chaos runs (``repro.faults``) a :class:`ChannelFaults` impairment
can be attached: it drops, delays, or duplicates individual messages
in either direction, driven by a seeded RNG so a given fault plan
replays identically.  The controller's rule-install path is expected
to survive this (retry with backoff, barrier-acked installs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.openflow.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.simulator import Simulator
    from repro.openflow.controller_base import ControllerBase
    from repro.openflow.switch import OpenFlowSwitch

DEFAULT_CONTROL_LATENCY_S = 0.5e-3


@dataclass
class ChannelFaults:
    """Per-message impairment of a secure channel.

    ``drop_rate`` / ``duplicate_rate`` are probabilities per message,
    drawn from ``rng`` (seed it for reproducible chaos); ``extra_delay_s``
    is added to the channel latency of every delivered copy.
    ``directions`` limits the impairment (``"to_switch"``,
    ``"to_controller"``, or both).
    """

    rng: random.Random
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    extra_delay_s: float = 0.0
    directions: Tuple[str, ...] = ("to_switch", "to_controller")
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    def plan_delivery(self, direction: str) -> Tuple[int, float]:
        """(copies, extra_delay) for one message in ``direction``.

        0 copies means the message is dropped; 2 means duplicated.
        """
        if direction not in self.directions:
            return 1, 0.0
        if self.drop_rate > 0 and self.rng.random() < self.drop_rate:
            self.dropped += 1
            return 0, 0.0
        copies = 1
        if self.duplicate_rate > 0 and self.rng.random() < self.duplicate_rate:
            self.duplicated += 1
            copies = 2
        if self.extra_delay_s > 0:
            self.delayed += copies
        return copies, self.extra_delay_s


class SecureChannel:
    """Bidirectional, latency-modelled control channel."""

    def __init__(
        self,
        sim: "Simulator",
        switch: "OpenFlowSwitch",
        controller: "ControllerBase",
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
    ):
        self.sim = sim
        self.switch = switch
        self.controller = controller
        self.latency_s = latency_s
        self.connected = False
        self.to_controller_count = 0
        self.to_switch_count = 0
        self.faults: Optional[ChannelFaults] = None

    def connect(self) -> None:
        """Establish the channel: Hello + FeaturesReply handshake."""
        if self.connected:
            return
        self.connected = True
        self.switch.channel = self
        self.switch.on_channel_connected()
        self.sim.post(self.latency_s, self.controller._channel_up, self)

    def disconnect(self) -> None:
        """Tear the channel down; the controller sees a switch leave."""
        if not self.connected:
            return
        self.connected = False
        self.sim.post(self.latency_s, self.controller._channel_down, self)

    def inject_faults(self, faults: Optional[ChannelFaults]) -> None:
        """Attach (or with ``None`` clear) a message-level impairment."""
        self.faults = faults

    def to_controller(self, message: Message) -> None:
        """Deliver a switch-originated message after the channel latency."""
        if not self.connected:
            return
        self.to_controller_count += 1
        if self.faults is None:
            self.sim.post(
                self.latency_s,
                self.controller._handle_message, self.switch.dpid, message,
            )
            return
        copies, extra = self.faults.plan_delivery("to_controller")
        for _ in range(copies):
            self.sim.post(
                self.latency_s + extra,
                self.controller._handle_message, self.switch.dpid, message,
            )

    def to_switch(self, message: Message) -> None:
        """Deliver a controller-originated message after the latency."""
        if not self.connected:
            return
        self.to_switch_count += 1
        if self.faults is None:
            self.sim.post(self.latency_s, self.switch.handle_of_message, message)
            return
        copies, extra = self.faults.plan_delivery("to_switch")
        for _ in range(copies):
            self.sim.post(
                self.latency_s + extra, self.switch.handle_of_message, message
            )

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<SecureChannel dpid={self.switch.dpid} {state}>"
