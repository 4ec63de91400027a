"""Steering's one invariant, checked after every trigger: what is
installed is what was planned.

Every trigger in :mod:`repro.core.apps.steering` is *select owners
from the book -> plan -> reconcile*, so one table drives them all --
on a single controller and on a 2-shard fabric -- and one checker
reads the switches' flow tables afterwards against the whole book:
the sessions and the blocks.  The policy engine's chain decision
(resolved / fail-open / fail-closed), which first packets, failover,
quarantine re-steer and adoption share, is tabled the same way.
"""

import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.apps.policy_engine import PolicyDecision
from repro.core.bus import SwitchQuarantined
from repro.core.deployment import (
    build_livesec_network,
    build_sharded_network,
)
from repro.core.events import EventKind
from repro.core.policy import (
    FailMode,
    FlowSelector,
    Policy,
    PolicyAction,
    PolicyTable,
)
from repro.core.routing import DROP_PRIORITY, FORWARD_PRIORITY
from repro.faults import FaultInjector, FaultPlan
from repro.faults.scenarios import GATEWAY_IP, chaos_policy_table
from repro.net.host import HOST_PORT
from repro.net.packet import FlowNineTuple, make_arp_request
from repro.openflow.channel import ChannelFaults
from repro.workloads import AttackWebFlow, CbrUdpFlow
from tests.conftest import REJECTED_MAC, attach_rejected_element

# Long enough that no entry idles out between a trigger and its check
# (the reply direction of a one-way CBR flow carries no traffic).
IDLE_TIMEOUT_S = 30.0
# Deletes cross the secure channel (0.5 ms), remote ops the inter-shard
# channel first (1 ms): settled well within this.
SETTLE_S = 0.01


def build(shards, fail_mode="open", num_elements=2, accountability=False,
          idle_timeout_s=IDLE_TIMEOUT_S):
    """4 access switches in a line, one host each, gateway on ovs4, an
    IDS on each of the first ``num_elements`` switches; with 2 shards,
    shard 0 owns dpids {1, 2} and shard 1 owns {3, 4} -- so shard 1
    steers through elements borrowed from shard 0, which also verify
    and forward what they report about shard 1's sessions."""
    common = dict(
        topology="linear", num_as=4, hosts_per_as=1,
        elements=[("ids", num_elements)], element_timeout_s=1.5,
        dispatcher="polling", idle_timeout_s=idle_timeout_s,
    )
    if shards == 1:
        net = build_livesec_network(
            policies=chaos_policy_table(fail_mode),
            accountability=accountability, **common,
        )
    else:
        net = build_sharded_network(
            num_shards=shards,
            policies=lambda: chaos_policy_table(fail_mode), **common,
        )
    net.start()
    return net


# Who is blocked in the population, and where: both on ovs3, which on
# the 2-shard fabric holds entries of its own shard's sessions only.
ATTACKER = "h3_1"
# The host -> host flow of the population: across the shard boundary
# on the fabric (dpid 2 -> dpid 4), in the *sender's* shard's book, and
# unsteered -- the chain policy selects on the gateway's address.
EAST_WEST = ("h2_1", "h4_1")
EAST_WEST_BPS = 1e6


def start_flows(net, duration_s=20.0):
    """One CBR flow per user host to the gateway and one host to host
    (kept as ``net.east_west`` for the roam triggers); an attack from
    ``ATTACKER`` that the IDS has blocked, and an uncertified element
    whose first (garbage) service message got its source blocked,
    before the first check."""
    for host in net.topology.hosts:
        if host is not net.topology.gateway:
            CbrUdpFlow(net.sim, host, GATEWAY_IP,
                       rate_bps=1e6, duration_s=duration_s).start()
    sender, receiver = map(net.host, EAST_WEST)
    net.east_west = CbrUdpFlow(net.sim, sender, receiver.ip,
                               rate_bps=EAST_WEST_BPS, duration_s=duration_s)
    net.east_west.start()
    attack = AttackWebFlow(net.sim, net.host(ATTACKER), GATEWAY_IP,
                           rate_bps=2e6, duration_s=duration_s)
    attack.start()
    attach_rejected_element(net, net.topology.attachments[ATTACKER].switch)
    net.run(1.0)
    return attack


def live_sessions(net):
    return [s for c in net.controllers for s in c.sessions]


def chained_sessions(net):
    """The sessions the chain policy selects: everything to the gateway."""
    return [s for s in live_sessions(net) if s.dst_mac == net.gateway.mac]


def blocks(net):
    return [b for c in net.controllers for b in c.sessions.blocks()]


def enforced_entries(net):
    """(dpid, entry) for every entry the book answers for -- session
    paths and drops -- on every switch."""
    return [
        (switch.dpid, entry)
        for switch in net.topology.all_openflow_switches()
        for entry in switch.table
        if entry.priority >= FORWARD_PRIORITY
    ]


def drops_for(net, mac):
    """(dpid, in_port) of every drop entry naming ``mac`` as source."""
    return sorted(
        (dpid, entry.match.in_port)
        for dpid, entry in enforced_entries(net)
        if entry.priority >= DROP_PRIORITY and entry.match.dl_src == mac
    )


def assert_installed_equals_planned(net):
    """Both directions, once the channel has drained: every rule of
    every owner in the book -- live session or block -- sits on its
    switch with the planned cookie and actions, and no entry at or
    above ``FORWARD_PRIORITY`` exists that the book did not plan.
    Every owner has rules, and each block one book only."""
    net.run(SETTLE_S)
    book = live_sessions(net) + blocks(net)
    assert all(owner.rules for owner in book)
    held = [(b.src_mac, b.flow) for b in blocks(net)]
    assert len(held) == len(set(held))
    planned = {}
    for owner in book:
        for rule in owner.rules:
            planned[(rule.dpid, rule.match, rule.priority)] = rule
    installed = {
        (dpid, entry.match, entry.priority): entry
        for dpid, entry in enforced_entries(net)
    }
    for key, rule in planned.items():
        entry = installed.get(key)
        assert entry is not None, f"missing {rule.describe()}"
        assert entry.cookie == rule.cookie
        assert entry.actions == rule.actions
    for key, entry in installed.items():
        assert key in planned, (
            f"unplanned entry on dpid {key[0]}: {entry.match}"
            f" cookie {entry.cookie}"
        )
    return {s.session_id: s for s in live_sessions(net)}


def logged(net, kind):
    return [
        event for controller in net.controllers
        for event in controller.log.query(kind=kind)
    ]


def failover_outcomes(net):
    return [
        event.data["outcome"]
        for event in logged(net, EventKind.FLOW_FAILOVER)
    ]


def crash_element_in_use(net):
    """Kill one element some session is steered through, then run past
    the liveness timeout so its directory expires it."""
    mac = chained_sessions(net)[0].element_macs[0]
    next(e for e in net.elements if e.mac == mac).fail()
    net.run(4.0)


# -- the triggers -------------------------------------------------------


def first_packet(net):
    assert all(s.is_steered for s in chained_sessions(net))
    assert len(live_sessions(net)) == len(chained_sessions(net)) + 1


def failover_recovered(net):
    crash_element_in_use(net)
    assert set(failover_outcomes(net)) == {"recovered"}
    assert all(s.is_steered for s in chained_sessions(net))


def failover_fail_open(net):
    crash_element_in_use(net)
    assert set(failover_outcomes(net)) == {"fail-open"}
    # The attack aside: blocked before, if at all, and then not failed
    # over.
    assert not any(s.is_steered or s.blocked for s in live_sessions(net)
                   if s.flow.tp_dst != 80)


def failover_fail_closed(net):
    crash_element_in_use(net)
    assert set(failover_outcomes(net)) == {"fail-closed"}
    assert all(s.blocked for s in chained_sessions(net))


def quarantine_resteer(net):
    controller = net.controller
    mac = next(iter(controller.sessions)).element_macs[0]
    dpid = controller.nib.host_by_mac(mac).dpid
    controller.quarantined_dpids[dpid] = "test"
    controller.bus.publish(SwitchQuarantined(dpid=dpid, reason="test"))
    assert "recovered" in failover_outcomes(net)
    for session in controller.sessions:
        for waypoint in session.element_macs:
            assert session.blocked or (
                controller.nib.host_by_mac(waypoint).dpid != dpid
            )


def accountability_drain(net):
    controller = net.controller
    assert all(s.path_descriptor is not None for s in controller.sessions)
    controller.stop_app("accountability")
    assert all(s.path_descriptor is None or s.blocked
               for s in controller.sessions)


def switch_reconnect(net):
    """The switch comes back having lost every session entry: the
    resync alone must restore its share of every session."""
    switch = net.topology.as_switches[0]
    channel = net.channels[switch.dpid]
    channel.disconnect()
    net.run(SETTLE_S)
    lost = [e for d, e in enforced_entries(net) if d == switch.dpid]
    assert lost
    for entry in lost:
        switch.table.delete(entry.match, strict=True, priority=entry.priority)
    channel.connect()
    net.run(SETTLE_S)
    assert logged(net, EventKind.SWITCH_RESYNC)


def switch_reboot(net):
    """The switch under the attacker and the rejected element loses
    power: table gone, no FlowRemoved.  The resync restores its share
    of the whole book -- both drops, and the blocked session's path
    back underneath."""
    switch = net.topology.attachments[ATTACKER].switch
    assert len(drops_for(net, net.host(ATTACKER).mac)) == 1
    assert len(drops_for(net, REJECTED_MAC)) == 1
    plan = FaultPlan().switch_reboot(net.sim.now + 0.1, switch.name, 0.05)
    FaultInjector(net, plan).arm()
    net.run(0.1 + SETTLE_S)
    assert not len(switch.table)
    net.run(0.1)
    assert [
        event.data["dpid"] for event in logged(net, EventKind.SWITCH_RESYNC)
    ] == [switch.dpid]


def roam(net, name, to_switch):
    host = net.host(name)
    net.topology.move_host(name, to_switch)
    host.announce()
    net.run(0.5)
    return host


def roam_keeping_every_session(net, name, to_dpid):
    """``name`` roams to ``to_dpid`` with an ARP: every session keeps
    its id -- re-planned in place, or handed to the book of the shard
    its source sits on now -- with no FLOW_END / FLOW_START pair, and
    every 1-s window of the host -> host flow after the move delivers."""
    before = set(assert_installed_equals_planned(net))
    starts = len(logged(net, EventKind.FLOW_START))
    receiver = net.host(EAST_WEST[1])
    net.topology.move_host(name, net.topology.as_switches[to_dpid - 1])
    net.host(name).announce()
    delivered = net.east_west.delivered_bytes(receiver)
    for _ in range(3):
        net.run(1.0)
        window = net.east_west.delivered_bytes(receiver) - delivered
        delivered += window
        assert window * 8 >= 0.9 * EAST_WEST_BPS
    assert {s.session_id for s in live_sessions(net)} == before
    assert not logged(net, EventKind.FLOW_END)
    assert len(logged(net, EventKind.FLOW_START)) == starts


def local_roam(net):
    """h1_1 roams dpid 1 -> dpid 3 under one controller: its session
    is re-planned in place."""
    roam_keeping_every_session(net, "h1_1", 3)


def dst_roam_within_shard(net):
    """The host -> host flow's receiver roams dpid 4 -> dpid 3, inside
    its shard: the fabric tells the *sender's* shard, whose book holds
    the session, and it re-plans toward the new port."""
    roam_keeping_every_session(net, EAST_WEST[1], 3)


def dst_roam_across_shards(net):
    """The receiver roams dpid 4 -> dpid 1, onto the sender's shard:
    its own sessions are handed over, the one toward it stays put."""
    roam_keeping_every_session(net, EAST_WEST[1], 1)


def src_roam_across_shards(net):
    """The sender roams dpid 2 -> dpid 3: both its sessions follow it
    into the other shard's book."""
    roam_keeping_every_session(net, EAST_WEST[0], 3)


def blocked_roam(net):
    """The blocked attacker roams dpid 3 -> dpid 1 (across shards, on
    the fabric): its drop is at the new port and nowhere else."""
    attacker = roam(net, ATTACKER, net.topology.as_switches[0])
    at = net.topology.attachments[ATTACKER]
    assert drops_for(net, attacker.mac) == [(at.switch.dpid, at.switch_port)]


def cross_shard_adopt(net):
    """h1_1 roams dpid 1 -> dpid 3: shard 0 releases its sessions,
    shard 1 adopts them under the same ids (so the same cookies)."""
    roamer = net.host("h1_1")
    before = {
        s.session_id
        for s in net.member_of(1).controller.sessions.sessions_of_user(
            roamer.mac
        )
    }
    assert before
    net.topology.move_host("h1_1", net.topology.as_switches[2])
    roamer.announce()
    net.run(0.5)
    assert not net.member_of(1).controller.sessions.sessions_of_user(
        roamer.mac
    )
    adopted = net.member_of(3).controller.sessions.sessions_of_user(
        roamer.mac
    )
    assert before <= {s.session_id for s in adopted}


def remote_setup_past_a_stopped_steering_app(net):
    """A new session on shard 0 toward the gateway while the steering
    app of the gateway's owner shard is stopped: the owner's controller
    applies the remote rules, no app of its in the path."""
    net.member_of(4).controller.stop_app("steering")
    before = len(live_sessions(net))
    CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
               rate_bps=1e6, duration_s=20.0).start()
    net.run(0.5)
    assert len(live_sessions(net)) == before + 1


TRIGGERS = [
    # (trigger, shard counts it runs on, build kwargs)
    (first_packet, (1, 2), {}),
    (failover_recovered, (1, 2), {}),
    (failover_fail_open, (1, 2), {"num_elements": 1}),
    (failover_fail_closed, (1, 2),
     {"num_elements": 1, "fail_mode": "closed"}),
    (quarantine_resteer, (1,), {"accountability": True}),
    (accountability_drain, (1,), {"accountability": True}),
    # One controller only: a shard resyncs its *own* book's share of a
    # reconnecting switch; entries it installed there on another
    # shard's behalf are not in it (ROADMAP item 2 (a)).  The rebooted
    # switch holds no such entry.
    (switch_reconnect, (1,), {}),
    (switch_reboot, (1, 2), {}),
    (local_roam, (1,), {}),
    (dst_roam_within_shard, (1, 2), {}),
    (dst_roam_across_shards, (1, 2), {}),
    (src_roam_across_shards, (1, 2), {}),
    (blocked_roam, (1, 2), {}),
    (cross_shard_adopt, (2,), {}),
    (remote_setup_past_a_stopped_steering_app, (2, 4), {}),
]


@pytest.mark.parametrize("trigger,shards,kwargs", [
    pytest.param(trigger, shards, kwargs,
                 id=f"{trigger.__name__}-{shards}shard")
    for trigger, shard_counts, kwargs in TRIGGERS
    for shards in shard_counts
])
def test_installed_equals_planned_after(trigger, shards, kwargs):
    net = build(shards, **kwargs)
    start_flows(net)
    assert assert_installed_equals_planned(net)
    trigger(net)
    assert assert_installed_equals_planned(net)


@pytest.mark.parametrize("shards", [1, 2])
def test_teardown_leaves_no_session_entries(shards):
    net = build(shards, idle_timeout_s=2.0)
    start_flows(net, duration_s=0.5)
    cookies = set(assert_installed_equals_planned(net))
    assert cookies
    net.run(4.0)  # flows stopped; ingress entries idle out; teardown
    assert not live_sessions(net)
    # What is left is what the blocks plan: a drop each.
    assert_installed_equals_planned(net)
    assert len(enforced_entries(net)) == len(blocks(net)) >= 1
    ended = {
        event.data["session"] for event in logged(net, EventKind.FLOW_END)
    }
    assert cookies <= ended


# -- what moves with a host ------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("how", ["announced", "silent", "rejoined", "expired"])
def test_a_block_follows_its_source(shards, how):
    """A blocked attacker changes port (dpid 3 -> dpid 1; across shards
    on the fabric) and keeps sending: exactly one drop for the flow
    exists, at the new port, and not one more byte reaches the gateway
    -- whether the move is announced by an ARP, first shows as a data
    frame after the blocked session idled out, or the host record had
    meanwhile left the NIB so it shows as a join -- dropped by hand, or
    expired by its owner with a HOST_LEAVE (the fabric's directory then
    forgets the port, not whose book the host's blocks are in)."""
    net = build(shards, idle_timeout_s=2.0)
    attacker = net.host(ATTACKER)
    attack = AttackWebFlow(net.sim, attacker, GATEWAY_IP, rate_bps=2e6,
                           duration_s=20.0)
    attack.start()
    net.run(1.0)
    assert drops_for(net, attacker.mac) == [(3, 2)]
    at_block = attack.delivered_bytes(net.gateway)
    starts = len(logged(net, EventKind.FLOW_START))

    net.topology.move_host(ATTACKER, net.topology.as_switches[0])
    if how == "announced":
        attacker.announce()
    elif how == "rejoined":
        for controller in net.controllers:
            controller.nib.remove_host(attacker.mac)
    elif how == "expired":
        owner = net.controllers[-1]
        # Aged through the NIB (not by poking the row): its idle-sweep
        # bound has to hear that a row got older.
        row = owner.nib.host_by_mac(attacker.mac)
        owner.nib.learn_host(row.mac, row.ip, row.dpid, row.port,
                             now=float("-inf"))
        owner.app("host-tracker").expire_hosts()
        assert logged(net, EventKind.HOST_LEAVE)
    net.run(6.0)

    at = net.topology.attachments[ATTACKER]
    assert drops_for(net, attacker.mac) == [(1, at.switch_port)]
    assert attack.delivered_bytes(net.gateway) == at_block
    assert len(blocks(net)) == 1
    # The flow the book blocks never got a session again.
    assert not any(s.flow.tp_dst == 80 for s in live_sessions(net))
    assert len(logged(net, EventKind.FLOW_START)) == starts
    assert_installed_equals_planned(net)


def test_a_block_comes_home_with_its_source():
    """Two shards.  The blocked attacker roams dpid 3 -> dpid 1 and
    back to the very port it left: its old shard forgot it at the
    handoff, so the return is a join there, and the block -- in one
    book at a time -- is handed home again."""
    net = build(2, idle_timeout_s=2.0)
    attacker = net.host(ATTACKER)
    attack = AttackWebFlow(net.sim, attacker, GATEWAY_IP, rate_bps=2e6,
                           duration_s=20.0)
    attack.start()
    net.run(1.0)
    at_block = attack.delivered_bytes(net.gateway)
    roam(net, ATTACKER, net.topology.as_switches[0])
    assert drops_for(net, attacker.mac) == [(1, 4)]
    roam(net, ATTACKER, net.topology.as_switches[2])
    net.run(4.0)
    assert drops_for(net, attacker.mac) == [(3, 2)]
    assert len(blocks(net)) == 1
    assert attack.delivered_bytes(net.gateway) == at_block
    assert not any(s.flow.tp_dst == 80 for s in live_sessions(net))
    assert_installed_equals_planned(net)


@pytest.mark.parametrize("mover,peer_ip", [
    ("h1_1", GATEWAY_IP),  # the source roams, steered through an IDS
    ("h2_1", None),        # the destination (h2_1 itself) roams
], ids=["source", "destination"])
def test_a_roaming_user_keeps_its_session(mover, peer_ip):
    """One controller, a 1 Mb/s CBR flow from h1_1, and one end roams
    dpid -> dpid 3 with an ARP: the session is re-planned in place, so
    every 1-s window after the move delivers (the parent: none for an
    idle timeout, at a PacketIn per frame)."""
    net = build(1)
    receiver = net.gateway if peer_ip else net.host(mover)
    flow = CbrUdpFlow(net.sim, net.host("h1_1"), peer_ip or receiver.ip,
                      rate_bps=1e6, duration_s=20.0)
    flow.start()
    net.run(1.0)
    before = set(assert_installed_equals_planned(net))
    assert len(before) == 1

    net.topology.move_host(mover, net.topology.as_switches[2])
    net.host(mover).announce()
    delivered = flow.delivered_bytes(receiver)
    for _ in range(6):
        net.run(1.0)
        window = flow.delivered_bytes(receiver) - delivered
        delivered += window
        assert window * 8 >= 0.9e6
    assert set(assert_installed_equals_planned(net)) == before
    assert not logged(net, EventKind.FLOW_END)
    assert len(logged(net, EventKind.FLOW_START)) == 1


def test_a_lost_delete_of_the_old_ingress_ends_nothing():
    """One controller; h1_1 roams dpid 1 -> dpid 3 mid-flow while
    nothing the controller sends reaches dpid 1, so the (un-acked)
    delete of the stale ingress entry is lost.  That entry idles out
    under the live cookie: it is no entry the session still plans, and
    its FlowRemoved ends nothing."""
    net = build(1, idle_timeout_s=2.0)
    roamer, receiver = net.host("h1_1"), net.host("h2_1")
    flow = CbrUdpFlow(net.sim, roamer, receiver.ip, rate_bps=1e6,
                      duration_s=20.0)
    flow.start()
    net.run(1.0)
    before = set(assert_installed_equals_planned(net))
    old = net.topology.attachments["h1_1"].switch
    net.channels[old.dpid].inject_faults(ChannelFaults(
        rng=random.Random(0), drop_rate=1.0, directions=("to_switch",),
    ))
    roam(net, "h1_1", net.topology.as_switches[2])
    net.channels[old.dpid].inject_faults(None)
    assert [e.cookie for d, e in enforced_entries(net) if d == old.dpid]
    delivered = flow.delivered_bytes(receiver)
    net.run(4.0)  # the stale entries idle out
    assert not [e for d, e in enforced_entries(net) if d == old.dpid]
    assert (flow.delivered_bytes(receiver) - delivered) * 8 >= 0.9 * 4e6
    assert {s.session_id for s in live_sessions(net)} == before
    assert not logged(net, EventKind.FLOW_END)


@pytest.mark.parametrize("dst_known", [True, False])
def test_a_flow_the_book_blocks_is_neither_charged_nor_flooded(dst_known):
    """The first evidence of a source the book blocks is a data frame
    at a port with no drop: the chain the policy engine resolved for it
    is given back (no session will ever serve it), and with the
    destination unknown the frame is not periphery-flooded past the
    block either -- the drop goes in at the punting port."""
    net = build(1)
    sender, controller = net.host("h1_1"), net.controller
    sender.arp_table[GATEWAY_IP] = (net.gateway.mac, net.sim.now)
    controller.sessions.block(sender.mac, None)
    if not dst_known:
        controller.nib.remove_host(net.gateway.mac)
    flow = CbrUdpFlow(net.sim, sender, GATEWAY_IP, rate_bps=1e6,
                      duration_s=1.0)
    flow.start()
    net.run(0.02)
    at = net.topology.attachments["h1_1"]
    assert drops_for(net, sender.mac) == [(at.switch.dpid, at.switch_port)]
    assert not live_sessions(net)
    assert flow.delivered_bytes(net.gateway) == 0
    assert not any(controller.balancer.pending(mac)
                   for mac in controller.registry.elements)


def test_an_attack_seen_by_a_borrowed_ids_is_blocked():
    """Both IDS on shard 0, the attacker on shard 1: the IDS reports to
    its own shard, which verifies the report, holds neither session nor
    source, and hands it to the shard that does -- the block lands in
    the source's book, once."""
    net = build(2)
    start_flows(net)
    at = net.topology.attachments[ATTACKER]
    assert drops_for(net, net.host(ATTACKER).mac) == [
        (at.switch.dpid, at.switch_port)
    ]
    home = net.member_of(at.switch.dpid).controller
    assert [b.src_mac for b in home.sessions.blocks()
            if b.flow is not None] == [net.host(ATTACKER).mac]
    assert len(logged(net, EventKind.ATTACK_DETECTED)) == 1


# -- found, not fixed: pinned so a fix has to come and say so --------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2 (i): a host move is"
                   " believed on an unauthenticated sender MAC")
def test_a_forged_arp_does_not_move_a_live_session():
    """h2_1 sends one gratuitous ARP in h1_1's name.  Before HostMoved
    had a subscriber that poisoned the NIB for sessions to come; now it
    also re-points h1_1's established session at the forger's port."""
    net = build(1)
    victim, forger = net.host("h1_1"), net.host("h2_1")
    CbrUdpFlow(net.sim, victim, GATEWAY_IP, rate_bps=1e6,
               duration_s=20.0).start()
    net.run(1.0)
    (session,) = live_sessions(net)
    ingress = session.rules[0].dpid, session.rules[0].match.in_port
    forger.send(make_arp_request(victim.mac, victim.ip, victim.ip), HOST_PORT)
    net.run(SETTLE_S)
    assert (session.rules[0].dpid, session.rules[0].match.in_port) == ingress


# -- the chain decision every trigger shares ------------------------------


def no_elements(net):
    return None


def one_healthy(net):
    net.add_element("ids", net.topology.as_switches[1])
    net.run(2.5)  # certify and report in


def only_on_quarantined_switch(net):
    one_healthy(net)
    dpid = net.topology.as_switches[1].dpid
    net.controller.quarantined_dpids[dpid] = "test"


@pytest.mark.parametrize(
    "fleet,policy_mode,on_no_element,verdict,fail_mode,steered", [
        (one_healthy, "closed", "allow", "allow", None, True),
        (no_elements, "open", "drop", "allow", FailMode.OPEN, False),
        (no_elements, "closed", "allow", "block", FailMode.CLOSED, False),
        # A policy without its own fail mode inherits the controller's.
        (no_elements, None, "allow", "allow", FailMode.OPEN, False),
        (no_elements, None, "drop", "block", FailMode.CLOSED, False),
        # A convicted switch's elements count as absent.
        (only_on_quarantined_switch, "closed", "allow",
         "block", FailMode.CLOSED, False),
    ],
)
def test_decide_chain_ladder(fleet, policy_mode, on_no_element,
                             verdict, fail_mode, steered):
    table = chaos_policy_table("open")
    policy = replace(
        table.get("chaos-ids"),
        fail_mode=FailMode(policy_mode) if policy_mode else None,
    )
    table.begin(source="test").replace_all([policy]).commit()
    net = build_livesec_network(
        topology="linear", num_as=2, hosts_per_as=1, policies=table,
        on_no_element=on_no_element,
    )
    net.start()
    fleet(net)
    src = net.controller.nib.host_by_mac(net.host("h1_1").mac)
    flow = FlowNineTuple(
        vlan=None, dl_src=src.mac, dl_dst=net.gateway.mac, dl_type=0x0800,
        nw_src=src.ip, nw_dst=GATEWAY_IP, nw_proto=17,
        tp_src=40000, tp_dst=9000,
    )
    engine = net.controller.app("policy-engine")
    decision = engine.decide_chain(policy, flow, src)
    assert isinstance(decision, PolicyDecision)
    assert (decision.verdict, decision.fail_mode) == (verdict, fail_mode)
    assert bool(decision.element_macs) == steered
    assert len(decision.waypoints) == len(decision.element_macs)
    # The first-packet entry point reaches the same verdict.
    assert engine.decide(flow, src).verdict == verdict


# -- nothing loads an element but a live session steered through it -------


def build_partial_chain(fail_mode):
    """2 x 2 hosts, two IDS elements and *no* l7 anywhere: port 9000 is
    chained ids -> l7 (which can only resolve in part), port 9001
    through ids alone; ``queuing`` ranks by live load."""
    table = PolicyTable()
    table.add(Policy(
        name="ids-then-l7",
        selector=FlowSelector(dst_ip=GATEWAY_IP, tp_dst=9000),
        action=PolicyAction.CHAIN, service_chain=("ids", "l7"),
        fail_mode=FailMode(fail_mode),
    ))
    table.add(Policy(
        name="ids-only",
        selector=FlowSelector(dst_ip=GATEWAY_IP, tp_dst=9001),
        action=PolicyAction.CHAIN, service_chain=("ids",),
    ))
    net = build_livesec_network(
        topology="linear", num_as=2, hosts_per_as=2, policies=table,
        elements=[("ids", 2)], dispatcher="queuing",
    )
    net.start()
    return net


def short_flow(net, host, dport):
    CbrUdpFlow(net.sim, host, GATEWAY_IP, rate_bps=1e6, max_packets=5,
               dport=dport).start()


def ids_loads(net):
    sessions = net.controller.sessions
    return [
        sessions.load_of(mac) for mac in sorted(net.controller.registry.elements)
    ]


def test_partial_chain_fail_closed_charges_nobody():
    net = build_partial_chain("closed")
    for host in net.topology.user_hosts:
        short_flow(net, host, 9000)
    net.run(1.0)
    assert len(net.controller.sessions) == 0
    assert net.controller.counters["flows_blocked"] == 4
    assert net.metrics_snapshot().get("balancer.flows_assigned").value == 0
    assert ids_loads(net) == [0, 0]


def test_partial_chain_leaves_dispatch_as_on_a_fresh_deployment():
    """Seen from outside: after one flow whose chain resolved only in
    part, an ids-only flow lands where it would on a fresh deployment
    -- the first IDS in MAC order -- not on the second because the
    first still carries a flow of a session that never existed."""
    net = build_partial_chain("closed")
    first, second = sorted(net.controller.registry.elements)
    short_flow(net, net.host("h1_1"), 9000)
    net.run(5.0)  # load reports halve any pending bias away
    short_flow(net, net.host("h2_1"), 9001)
    net.run(0.5)
    assert [s.element_macs for s in net.controller.sessions] == [(first,)]


def test_partial_chain_fail_open_charges_nobody():
    """Fail-open sessions are steered through *nothing*: while they
    live, no element is loaded by them."""
    net = build_partial_chain("open")
    for host in net.topology.user_hosts:
        short_flow(net, host, 9000)
    net.run(1.0)
    assert [s.element_macs for s in net.controller.sessions] == [()] * 4
    assert net.metrics_snapshot().get("balancer.flows_assigned").value == 0
    assert ids_loads(net) == [0, 0]


def test_deferred_route_charges_nobody(monkeypatch):
    """A first packet whose chain resolves but whose path cannot be
    computed yet (``routing_deferred``) forms no session, so it must
    load no element either."""
    net = build_partial_chain("closed")
    nib = net.controller.nib
    gateway_dpid = nib.host_by_mac(net.gateway.mac).dpid
    uplink_port = nib.uplink_port
    monkeypatch.setattr(
        nib, "uplink_port",
        lambda dpid: None if dpid == gateway_dpid else uplink_port(dpid),
    )
    short_flow(net, net.host("h1_1"), 9001)
    net.run(0.5)
    assert net.controller.counters["routing_deferred"] >= 1
    assert len(net.controller.sessions) == 0
    assert net.metrics_snapshot().get("balancer.flows_assigned").value == 0
    assert ids_loads(net) == [0, 0]


# -- one writer, one drop planner (scripts/check_rule_writers.py) ----------

RULE_WRITERS = Path(__file__).parent.parent / "scripts/check_rule_writers.py"


def check_rule_writers(core):
    return subprocess.run(
        [sys.executable, str(RULE_WRITERS), str(core)],
        capture_output=True, text=True,
    )


def test_the_tree_has_one_flowmod_writer_and_one_drop_planner():
    core = Path(__file__).parent.parent / "src/repro/core"
    result = check_rule_writers(core)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("path,source,complaint", [
    ("flowcontrol.py",
     "def penalize(controller, rule):\n"
     "    controller.send_flow_mod(rule.dpid, command='add')\n",
     "flowcontrol.py:2: .send_flow_mod() outside controller.py"),
    ("apps/steering.py",
     "def _block_flow(self, flow, src):\n"
     "    self._apply('add', drop_rule(flow, src))\n",
     "steering.py:2: drop_rule() outside _plan_block()"),
    ("apps/steering.py",
     "def on_source_block_requested(self, event):\n"
     "    self._apply('add', source_block_rule(event.mac, event.record))\n",
     "steering.py:2: source_block_rule() outside _plan_block()"),
])
def test_a_stray_rule_writer_fails_the_lint(tmp_path, path, source, complaint):
    (tmp_path / "apps").mkdir()
    # What is allowed stays allowed beside the planted violation.
    (tmp_path / "controller.py").write_text(
        "def apply_rule(self, rule):\n    self.send_flow_mod(rule.dpid)\n"
    )
    (tmp_path / "apps/planner.py").write_text(
        "def _plan_block(self, block, at):\n"
        "    return [drop_rule(block.flow, at)]\n"
    )
    assert check_rule_writers(tmp_path).returncode == 0
    (tmp_path / path).write_text(source)
    result = check_rule_writers(tmp_path)
    assert result.returncode == 1
    assert complaint in result.stderr
