"""End-to-end routing and service-element traversal (III.C.3, IV.A).

The Access-Switching layer is a logical full mesh, so any end-to-end
delivery is "abstract two-hop routing": one flow entry at the ingress
AS switch and one at the egress AS switch.  Steering a flow through an
off-path service element composes the same primitive twice with a
destination-MAC rewrite, producing exactly the four entries the paper
enumerates in Section IV.A:

  i)   ingress switch: match the original 9-tuple at the user port,
       rewrite dl_dst to the element's MAC, forward to the uplink;
  ii)  element's switch: match the rewritten flow arriving on the
       uplink, forward to the element's port;
  iii) element's switch: match the same rewritten flow arriving *from
       the element's port*, restore dl_dst to the real target (and
       relabel dl_src as the element, keeping the legacy fabric's MAC
       learning truthful about where frames are emitted), forward to
       the uplink;
  iv)  egress switch: match that flow on the uplink, restore the
       original dl_src, forward to the target's port.

:func:`compute_path_rules` generalizes this to any number of chained
waypoints and to hosts/elements sharing a switch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.core.nib import HostRecord, NetworkInformationBase
from repro.net.legacy import BPDU_MAC
from repro.net.packet import FlowNineTuple
from repro.openflow.actions import Action, Output, SetDlDst, SetDlSrc
from repro.openflow.match import Match

FORWARD_PRIORITY = 100
DROP_PRIORITY = 200
# Below every planned entry: a frame with an exact hit stops scanning
# the wildcard list when it reaches the group drop.
BPDU_DROP_PRIORITY = 1
DEFAULT_IDLE_TIMEOUT_S = 5.0


class RoutingError(Exception):
    """Raised when the NIB lacks the information to route a flow."""


@dataclass(frozen=True)
class RuleSpec:
    """A flow entry to install on one datapath."""

    dpid: int
    match: Match
    actions: Tuple[Action, ...]
    priority: int = FORWARD_PRIORITY
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT_S
    hard_timeout: float = 0.0
    cookie: int = 0
    send_flow_removed: bool = False


def compute_path_rules(
    nib: NetworkInformationBase,
    flow: FlowNineTuple,
    src: HostRecord,
    dst: HostRecord,
    waypoints: Sequence[HostRecord] = (),
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT_S,
    cookie: int = 0,
) -> List[RuleSpec]:
    """Flow entries realizing src -> waypoints... -> dst for ``flow``.

    ``flow.dl_dst`` must be the real destination MAC (what the source
    host put on the wire after ARP resolution).  The first returned
    rule is always the ingress rule (it carries ``send_flow_removed``
    so the controller learns when the session ends).

    Raises :class:`RoutingError` when an uplink port is not yet known
    (LLDP discovery has not confirmed the switch's logical links).
    """
    path: List[HostRecord] = [src, *waypoints, dst]
    rules: List[RuleSpec] = []
    # Labels the frame carries when it leaves each path node.  dl_dst:
    # the real destination until the ingress rewrite, then each
    # waypoint's MAC, then the real destination again.  dl_src: the
    # real source on the first leg, then -- for legs that cross the
    # legacy fabric -- the *emitting waypoint's* MAC.  The source
    # rewrite is load-bearing: the fabric's MAC learning tracks source
    # addresses, and a frame leaving the element's switch with the
    # original host's source MAC would teach the fabric that the host
    # lives behind the element's switch, blackholing replies.  With
    # the rewrite, every fabric-crossing frame's source matches the
    # switch it is emitted from; the egress switch restores the
    # original source before final delivery.
    arrival_dst = flow.dl_dst
    arrival_src = flow.dl_src

    for index in range(len(path) - 1):
        node = path[index]
        nxt = path[index + 1]
        is_last_hop = index == len(path) - 2
        next_dst = dst.mac if is_last_hop else nxt.mac

        hop_flow = flow._replace(dl_dst=arrival_dst, dl_src=arrival_src)
        same_switch = node.dpid == nxt.dpid

        if same_switch:
            # Local hand-off: no fabric involved, no src rewrite
            # needed; restore the original source when delivering to
            # the final host after an earlier rewrite.
            rewrite: Tuple[Action, ...] = ()
            if next_dst != arrival_dst:
                rewrite += (SetDlDst(next_dst),)
            if is_last_hop and arrival_src != flow.dl_src:
                rewrite += (SetDlSrc(flow.dl_src),)
            rules.append(
                RuleSpec(
                    dpid=node.dpid,
                    match=Match.from_nine_tuple(hop_flow, in_port=node.port),
                    actions=rewrite + (Output(nxt.port),),
                    idle_timeout=idle_timeout,
                    cookie=cookie,
                )
            )
            if not is_last_hop:
                arrival_dst = next_dst
                # arrival_src unchanged: local hop, no rewrite.
            continue

        out_uplink = nib.uplink_port(node.dpid)
        in_uplink = nib.uplink_port(nxt.dpid)
        if out_uplink is None or in_uplink is None:
            raise RoutingError(
                f"uplink unknown for dpid {node.dpid} or {nxt.dpid}"
                " (topology discovery incomplete)"
            )
        # Source label on the wire for this leg: the emitting node's
        # own MAC when it is a waypoint (index > 0), else the host's.
        leg_src = node.mac if index > 0 else flow.dl_src
        rewrite = ()
        if leg_src != arrival_src:
            rewrite += (SetDlSrc(leg_src),)
        if next_dst != arrival_dst:
            rewrite += (SetDlDst(next_dst),)
        rules.append(
            RuleSpec(
                dpid=node.dpid,
                match=Match.from_nine_tuple(hop_flow, in_port=node.port),
                actions=rewrite + (Output(out_uplink),),
                idle_timeout=idle_timeout,
                cookie=cookie,
            )
        )
        at_next_actions: Tuple[Action, ...] = ()
        if is_last_hop and leg_src != flow.dl_src:
            at_next_actions += (SetDlSrc(flow.dl_src),)
        rules.append(
            RuleSpec(
                dpid=nxt.dpid,
                match=Match.from_nine_tuple(
                    flow._replace(dl_dst=next_dst, dl_src=leg_src),
                    in_port=in_uplink,
                ),
                actions=at_next_actions + (Output(nxt.port),),
                idle_timeout=idle_timeout,
                cookie=cookie,
            )
        )
        arrival_dst = next_dst
        arrival_src = leg_src

    if not rules:
        raise RoutingError("empty path")
    first = rules[0]
    rules[0] = replace(first, send_flow_removed=True)
    return rules


def drop_rule(
    flow: FlowNineTuple,
    ingress: HostRecord,
    hard_timeout: float = 0.0,
    cookie: int = 0,
) -> RuleSpec:
    """A drop entry blocking ``flow`` at its ingress switch.

    Section IV.A: after an attack report "LiveSec controller will then
    modify relevant flow entries with the drop action in the ingress
    AS switch, to block this flow at the entrance."
    """
    return RuleSpec(
        dpid=ingress.dpid,
        match=Match.from_nine_tuple(flow, in_port=ingress.port),
        actions=(),
        priority=DROP_PRIORITY,
        idle_timeout=0.0,
        hard_timeout=hard_timeout,
        cookie=cookie,
    )


def bpdu_drop_rule(dpid: int) -> RuleSpec:
    """Drop the legacy fabric's 802.1D hellos on ``dpid``.

    The AS layer rides on a spanning-tree fabric (III.B) whose bridges
    send a hello out of every designated port each 50 ms; on an AS
    switch that is a table miss, a PacketIn, and a frame the controller
    has no reader for.  Derived from the dpid alone, so every join of
    the datapath writes it again."""
    return RuleSpec(
        dpid=dpid,
        match=Match(dl_dst=BPDU_MAC),
        actions=(),
        priority=BPDU_DROP_PRIORITY,
        idle_timeout=0.0,
    )


def source_block_rule(
    src_mac: str,
    ingress: HostRecord,
    cookie: int = 0,
) -> RuleSpec:
    """Drop *everything* a host sends (used for uncertified elements and
    quarantined users): wildcard match on the source MAC at its port."""
    return RuleSpec(
        dpid=ingress.dpid,
        match=Match(in_port=ingress.port, dl_src=src_mac),
        actions=(),
        priority=DROP_PRIORITY + 10,
        idle_timeout=0.0,
        cookie=cookie,
    )
