"""Unit tests for two-hop routing and service-chain rule computation."""

import sys

import pytest

from repro.core.nib import HostRecord, NetworkInformationBase
from repro.core.routing import (
    RoutingError,
    compute_path_rules,
    drop_rule,
    source_block_rule,
)
from repro.net.packet import FlowNineTuple
from repro.openflow.actions import Output, SetDlDst, SetDlSrc
from repro.openflow.match import Match


def host(mac, dpid, port, is_element=False):
    return HostRecord(mac=mac, ip=None, dpid=dpid, port=port,
                      first_seen=0.0, last_seen=0.0, is_element=is_element)


def flow(src="hA", dst="hB"):
    return FlowNineTuple(
        vlan=None, dl_src=src, dl_dst=dst, dl_type=0x0800,
        nw_src="10.0.0.1", nw_dst="10.0.0.2", nw_proto=6,
        tp_src=1000, tp_dst=80,
    )


@pytest.fixture
def nib():
    """Three switches, uplink port 1 each, full mesh."""
    nib = NetworkInformationBase()
    for a in (1, 2, 3):
        nib.add_switch(a, f"sw{a}", (1, 2, 3), now=0.0)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a != b:
                nib.learn_link(a, 1, b, 1, now=0.0)
    return nib


class TestDirectPath:
    def test_two_rules_cross_switch(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 2, 3)
        rules = compute_path_rules(nib, flow(), src, dst, cookie=9)
        assert len(rules) == 2
        ingress, egress = rules
        assert ingress.dpid == 1
        assert ingress.match.in_port == 2
        assert ingress.actions == (Output(1),)  # out the uplink
        assert ingress.send_flow_removed
        assert ingress.cookie == 9
        assert egress.dpid == 2
        assert egress.match.in_port == 1  # in from the uplink
        assert egress.actions == (Output(3),)
        assert not egress.send_flow_removed

    def test_single_rule_same_switch(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 1, 3)
        rules = compute_path_rules(nib, flow(), src, dst)
        assert len(rules) == 1
        assert rules[0].actions == (Output(3),)
        assert rules[0].send_flow_removed

    def test_no_rewrites_on_direct_path(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 2, 3)
        for rule in compute_path_rules(nib, flow(), src, dst):
            assert not any(isinstance(a, SetDlDst) for a in rule.actions)


class TestSteering:
    def test_paper_four_rules(self, nib):
        """Section IV.A: exactly the 4 entries i)..iv)."""
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        element = host("eX", 2, 2, is_element=True)
        rules = compute_path_rules(nib, flow(), src, dst, waypoints=[element])
        assert len(rules) == 4
        r1, r2, r3, r4 = rules
        # i) ingress: rewrite to the element, out the uplink.
        assert r1.dpid == 1 and r1.match.in_port == 2
        assert r1.match.dl_dst == "hB"  # matches the *original* flow
        assert r1.actions == (SetDlDst("eX"), Output(1))
        # ii) element switch, from the fabric, to the element port.
        assert r2.dpid == 2 and r2.match.in_port == 1
        assert r2.match.dl_dst == "eX"
        assert r2.actions == (Output(2),)
        # iii) element switch, from the element: restore the dst,
        # relabel the src as the element (so fabric MAC learning sees
        # the frame coming from where it actually is), send on.
        assert r3.dpid == 2 and r3.match.in_port == 2
        assert r3.match.dl_dst == "eX"
        assert r3.actions == (SetDlSrc("eX"), SetDlDst("hB"), Output(1))
        # iv) egress switch: restore the original source, deliver.
        assert r4.dpid == 3 and r4.match.in_port == 1
        assert r4.match.dl_dst == "hB"
        assert r4.match.dl_src == "eX"
        assert r4.actions == (SetDlSrc("hA"), Output(2))

    def test_only_ingress_reports_removal(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        element = host("eX", 2, 2)
        rules = compute_path_rules(nib, flow(), src, dst, waypoints=[element])
        assert [r.send_flow_removed for r in rules] == [True, False, False, False]

    def test_element_on_ingress_switch(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        element = host("eX", 1, 3)
        rules = compute_path_rules(nib, flow(), src, dst, waypoints=[element])
        # hop1 local (1 rule) + hop2 cross-switch (2 rules)
        assert len(rules) == 3
        assert rules[0].actions == (SetDlDst("eX"), Output(3))

    def test_element_on_egress_switch(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        element = host("eX", 3, 3)
        rules = compute_path_rules(nib, flow(), src, dst, waypoints=[element])
        # hop1 cross-switch (2 rules) + hop2 local (1 rule)
        assert len(rules) == 3
        assert rules[-1].actions == (SetDlDst("hB"), Output(2))
        # Local final hop: src never rewritten, nothing to restore.
        assert not any(isinstance(a, SetDlSrc) for a in rules[-1].actions)

    def test_two_waypoint_chain(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        e1, e2 = host("e1", 2, 2), host("e2", 2, 3)
        rules = compute_path_rules(nib, flow(), src, dst,
                                   waypoints=[e1, e2])
        # hop1 cross (2) + hop2 local on sw2 (1) + hop3 cross (2)
        assert len(rules) == 5
        labels = [rule.match.dl_dst for rule in rules]
        assert labels == ["hB", "e1", "e1", "e2", "hB"]
        # Fabric-crossing legs after a waypoint carry the waypoint's
        # source MAC; the final egress restores the original.
        assert rules[-2].actions[0] == SetDlSrc("e2")
        assert rules[-1].actions[0] == SetDlSrc("hA")

    def test_cookie_propagated_to_all_rules(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        element = host("eX", 2, 2)
        rules = compute_path_rules(nib, flow(), src, dst,
                                   waypoints=[element], cookie=77)
        assert all(rule.cookie == 77 for rule in rules)


class TestHopMatches:
    def test_every_hop_matches_the_flow_under_its_arrival_labels(self, nib):
        """Each hop's match is ``Match.from_nine_tuple`` of the flow
        with the labels it arrives with -- built field by field, so
        a VLAN-tagged flow checks that no field lands in another's
        slot."""
        tagged = flow()._replace(vlan=7)
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        e1, e2 = host("e1", 2, 2), host("e2", 1, 3)
        for waypoints in ((), (e1,), (e1, e2)):
            for rule in compute_path_rules(nib, tagged, src, dst, waypoints):
                m = rule.match
                labelled = tagged._replace(dl_src=m.dl_src, dl_dst=m.dl_dst)
                assert m == Match.from_nine_tuple(labelled, m.in_port)


class TestPlanCallBudget:
    """Counts, not timings (like ``test_simulator.TestCallBudget`` for
    a frame): the Python functions one steered session's plan enters
    in routing -- the one-waypoint forward path and the direct reverse
    path, ``flow.reversed()`` included, as ``SteeringApp._plan`` calls
    them."""

    # 56 while Match and RuleSpec were frozen dataclasses and each hop
    # went through flow._replace and Match.from_nine_tuple.
    CALLS_PER_PLAN = 36

    def test_a_session_plan_enters_at_most_36_functions(self, nib):
        src, dst = host("hA", 1, 2), host("hB", 3, 2)
        element = host("eX", 2, 2, is_element=True)
        request = flow()
        entered = []

        def hook(frame_, event, arg):
            if event == "call":
                entered.append(frame_.f_code.co_qualname)

        # Put back whatever profiler was running (a coverage or call
        # audit hook), not None: it must see the rest of the suite.
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            forward = compute_path_rules(nib, request, src, dst, [element],
                                         cookie=7)
            reverse = compute_path_rules(nib, request.reversed(), dst, src,
                                         cookie=7)
        finally:
            sys.setprofile(previous)
        assert (len(forward), len(reverse)) == (4, 2)
        assert len(entered) <= self.CALLS_PER_PLAN, entered
        # Each cut stays cut.
        for gone in ("Match.from_nine_tuple", "replace"):
            assert gone not in entered


class TestErrors:
    def test_unknown_uplink_raises(self):
        nib = NetworkInformationBase()
        nib.add_switch(1, "a", (1,), now=0.0)
        nib.add_switch(2, "b", (1,), now=0.0)
        with pytest.raises(RoutingError):
            compute_path_rules(nib, flow(), host("hA", 1, 2), host("hB", 2, 2))


class TestDropRules:
    def test_drop_rule_is_high_priority_empty_actions(self):
        rule = drop_rule(flow(), host("hA", 1, 2), cookie=5)
        assert rule.dpid == 1
        assert rule.actions == ()
        assert rule.priority > 100
        assert rule.match.in_port == 2
        assert rule.match.dl_src == "hA"
        assert rule.cookie == 5

    def test_source_block_wildcards_everything_but_src(self):
        rule = source_block_rule("hA", host("hA", 1, 2))
        assert rule.match.dl_src == "hA"
        assert rule.match.dl_dst is None
        assert rule.match.nw_src is None
        assert rule.priority > drop_rule(flow(), host("hA", 1, 2)).priority
