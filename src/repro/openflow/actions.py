"""OpenFlow actions.

LiveSec uses a deliberately small action set (Section IV.A): output to
a port, flood, send to controller, rewrite the destination MAC (to
steer a flow toward a service element), and drop (an empty action
list, which is how OpenFlow 1.0 expresses drops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.net.packet import Ethernet

# Virtual port numbers (mirroring OFPP_CONTROLLER / OFPP_FLOOD).
CONTROLLER_PORT = -1
FLOOD_PORT = -2


class Action:
    """Base class; subclasses are immutable dataclasses."""

    def apply(self, frame: Ethernet) -> None:
        """Mutate the frame (header rewrites).  Forwarding actions are
        interpreted by the switch, not here."""


@dataclass(frozen=True)
class Output(Action):
    """Forward out of a port; may be CONTROLLER_PORT or FLOOD_PORT."""

    port: int

    def __str__(self) -> str:
        if self.port == CONTROLLER_PORT:
            return "output:CONTROLLER"
        if self.port == FLOOD_PORT:
            return "output:FLOOD"
        return f"output:{self.port}"


@dataclass(frozen=True)
class SetDlDst(Action):
    """Rewrite the destination MAC (service-element steering)."""

    mac: str

    def apply(self, frame: Ethernet) -> None:
        frame.dst = self.mac

    def __str__(self) -> str:
        return f"set_dl_dst:{self.mac}"


@dataclass(frozen=True)
class SetDlSrc(Action):
    """Rewrite the source MAC."""

    mac: str

    def apply(self, frame: Ethernet) -> None:
        frame.src = self.mac

    def __str__(self) -> str:
        return f"set_dl_src:{self.mac}"


@dataclass(frozen=True)
class PushPathTag(Action):
    """Attach a forwarding-accountability tag at the session's ingress.

    The descriptor is the expected dpid sequence plus its keyed tag
    (:mod:`repro.openflow.pathproof`).  The switch interprets this
    action itself (like Output) because stamping needs the switch's
    own secret; ``apply`` only attaches the empty tag.
    """

    descriptor: object  # pathproof.PathDescriptor

    def apply(self, frame: Ethernet) -> None:
        from repro.openflow.pathproof import PathTag

        frame.path_tag = PathTag(descriptor=self.descriptor)

    def __str__(self) -> str:
        dpids = getattr(self.descriptor, "dpids", ())
        return f"push_path_tag:{list(dpids)}"


@dataclass(frozen=True)
class PopPathTag(Action):
    """Strip the accountability tag at the session's egress.

    The switch special-cases this action: it removes the tag *and*
    reports the accumulated mark chain to the controller in a
    PathProofReport, which is what the accountability app verifies.
    """

    def __str__(self) -> str:
        return "pop_path_tag"


# Step kinds of a compiled action plan.
EMIT_PORT, EMIT_FLOOD, EMIT_CONTROLLER, POP_TAG, REWRITE = range(5)

#: ``(kind, arg, hand_over)`` per action, in order.
ActionPlan = Tuple[Tuple[int, object, bool], ...]


def compile_actions(actions: Tuple[Action, ...]) -> ActionPlan:
    """Compile an action tuple once for the datapath's per-frame loop.

    Which Output may hand over the original frame, and what kind each
    action is, depend only on the tuple, so a flow entry computes both
    when it is built (and again on MODIFY) and every frame it forwards
    reuses them.

    The steps mirror ``actions`` one to one: ``arg`` is the port of an
    ``EMIT_PORT`` and the action itself of a ``REWRITE`` (anything that
    is neither an Output nor a PopPathTag, PushPathTag included);
    ``hand_over`` marks the one emission that may pass the original
    frame on instead of a clone -- an Output that is the last action,
    so nothing after it could mutate a frame already in flight.
    """
    steps = []
    last = len(actions) - 1
    for index, action in enumerate(actions):
        if isinstance(action, Output):
            if action.port == CONTROLLER_PORT:
                kind = EMIT_CONTROLLER
            elif action.port == FLOOD_PORT:
                kind = EMIT_FLOOD
            else:
                kind = EMIT_PORT
            steps.append((kind, action.port, index == last))
        elif isinstance(action, PopPathTag):
            steps.append((POP_TAG, None, False))
        else:
            steps.append((REWRITE, action, False))
    return tuple(steps)
