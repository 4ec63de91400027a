"""Steering's one invariant, checked after every trigger: what is
installed is what was planned.

Every trigger in :mod:`repro.core.apps.steering` is *select sessions
-> plan -> reconcile*, so one table drives them all -- on a single
controller and on a 2-shard fabric -- and one checker reads the
switches' flow tables afterwards.  The policy engine's chain decision
(resolved / fail-open / fail-closed), which first packets, failover,
quarantine re-steer and adoption share, is tabled the same way.
"""

from dataclasses import replace

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
from repro.core.routing import FORWARD_PRIORITY
from repro.faults.scenarios import GATEWAY_IP, chaos_policy_table
from repro.net.packet import FlowNineTuple
from repro.workloads import CbrUdpFlow

# Long enough that no entry idles out between a trigger and its check
# (the reply direction of a one-way CBR flow carries no traffic).
IDLE_TIMEOUT_S = 30.0
# Deletes cross the secure channel (0.5 ms), remote ops the inter-shard
# channel first (1 ms): settled well within this.
SETTLE_S = 0.01


def build(shards, fail_mode="open", num_elements=2, accountability=False,
          idle_timeout_s=IDLE_TIMEOUT_S):
    """4 access switches in a line, one host each, gateway on ovs4;
    with 2 shards, shard 0 owns dpids {1, 2} and shard 1 owns {3, 4}."""
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


def start_flows(net, duration_s=20.0):
    for host in net.topology.hosts:
        if host is not net.topology.gateway:
            CbrUdpFlow(net.sim, host, GATEWAY_IP,
                       rate_bps=1e6, duration_s=duration_s).start()
    net.run(1.0)


def live_sessions(net):
    return [s for c in net.controllers for s in c.sessions]


def forward_entries(net):
    """(dpid, entry) for every session-path entry on every switch."""
    return [
        (switch.dpid, entry)
        for switch in net.topology.all_openflow_switches()
        for entry in switch.table
        if entry.priority == FORWARD_PRIORITY
    ]


def assert_installed_equals_planned(net):
    """Both directions, once the channel has drained: every rule of
    every live unblocked session sits on its switch under the session
    cookie, and no session-path entry exists that its cookie's session
    did not plan.  (A blocked session's old path stays shadowed under
    its ingress drop until it idles out -- the drop is outside the
    reconcile cycle on purpose -- so blocked cookies are skipped.)"""
    net.run(SETTLE_S)
    sessions = {s.session_id: s for s in live_sessions(net)}
    installed = {
        (dpid, entry.match, entry.priority): entry
        for dpid, entry in forward_entries(net)
    }
    for session in sessions.values():
        if session.blocked:
            continue
        assert session.rules
        for rule in session.rules:
            entry = installed.get((rule.dpid, rule.match, rule.priority))
            assert entry is not None, f"missing {rule.describe()}"
            assert entry.cookie == session.session_id
            assert entry.actions == rule.actions
    for (dpid, match, priority), entry in installed.items():
        session = sessions.get(entry.cookie)
        assert session is not None, (
            f"orphan entry on dpid {dpid}: cookie {entry.cookie}"
        )
        if not session.blocked:
            assert (dpid, match, priority) in {
                (r.dpid, r.match, r.priority) for r in session.rules
            }, f"unplanned entry on dpid {dpid} for session {entry.cookie}"
    return sessions


def failover_outcomes(net):
    return [
        event.data["outcome"]
        for controller in net.controllers
        for event in controller.log.query(kind=EventKind.FLOW_FAILOVER)
    ]


def crash_element_in_use(net):
    """Kill one element some session is steered through, then run past
    the liveness timeout so its directory expires it."""
    mac = live_sessions(net)[0].element_macs[0]
    next(e for e in net.elements if e.mac == mac).fail()
    net.run(4.0)


# -- the triggers -------------------------------------------------------


def first_packet(net):
    assert all(s.is_steered for s in live_sessions(net))


def failover_recovered(net):
    crash_element_in_use(net)
    assert set(failover_outcomes(net)) == {"recovered"}
    assert all(s.is_steered for s in live_sessions(net))


def failover_fail_open(net):
    crash_element_in_use(net)
    assert set(failover_outcomes(net)) == {"fail-open"}
    assert not any(s.is_steered or s.blocked for s in live_sessions(net))


def failover_fail_closed(net):
    crash_element_in_use(net)
    assert set(failover_outcomes(net)) == {"fail-closed"}
    assert all(s.blocked for s in live_sessions(net))


def quarantine_resteer(net):
    controller = net.controller
    mac = next(iter(controller.sessions)).element_macs[0]
    dpid = controller.nib.host_by_mac(mac).dpid
    controller.quarantined_dpids[dpid] = "test"
    controller.bus.publish(SwitchQuarantined(dpid=dpid, reason="test"))
    assert "recovered" in failover_outcomes(net)
    for session in controller.sessions:
        for waypoint in session.element_macs:
            assert controller.nib.host_by_mac(waypoint).dpid != dpid


def accountability_drain(net):
    controller = net.controller
    assert all(s.path_descriptor is not None for s in controller.sessions)
    controller.stop_app("accountability")
    assert all(s.path_descriptor is None for s in controller.sessions)


def switch_reconnect(net):
    """The switch comes back having lost every session entry: the
    resync alone must restore its share of every session."""
    switch = net.topology.as_switches[0]
    channel = net.channels[switch.dpid]
    channel.disconnect()
    net.run(SETTLE_S)
    lost = [e for d, e in forward_entries(net) if d == switch.dpid]
    assert lost
    for entry in lost:
        switch.table.delete(entry.match, strict=True, priority=entry.priority)
    channel.connect()
    net.run(SETTLE_S)
    assert any(
        controller.log.query(kind=EventKind.SWITCH_RESYNC)
        for controller in net.controllers
    )


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
    # One controller only: a shard resyncs its *own* sessions' share of
    # a reconnecting switch; entries it installed there on another
    # shard's behalf are not in its session store (ROADMAP item 4).
    (switch_reconnect, (1,), {}),
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
    assert not forward_entries(net)
    ended = {
        event.data["session"]
        for controller in net.controllers
        for event in controller.log.query(kind=EventKind.FLOW_END)
    }
    assert cookies <= ended


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
