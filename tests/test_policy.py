"""Unit tests for the global policy table."""

import pytest

from repro.core.policy import FlowSelector, Policy, PolicyAction, PolicyTable
from repro.net.packet import FlowNineTuple


def flow(**overrides):
    base = dict(
        vlan=None, dl_src="m1", dl_dst="m2", dl_type=0x0800,
        nw_src="10.0.0.1", nw_dst="10.255.255.254", nw_proto=6,
        tp_src=1000, tp_dst=80,
    )
    base.update(overrides)
    return FlowNineTuple(**base)


class TestSelector:
    def test_empty_selector_matches_all(self):
        assert FlowSelector().matches(flow())

    def test_exact_fields(self):
        selector = FlowSelector(dst_ip="10.255.255.254", nw_proto=6, tp_dst=80)
        assert selector.matches(flow())
        assert not selector.matches(flow(tp_dst=443))
        assert not selector.matches(flow(nw_proto=17))

    def test_prefix_matching(self):
        selector = FlowSelector(src_ip_prefix="10.0.")
        assert selector.matches(flow())
        assert not selector.matches(flow(nw_src="192.168.1.1"))
        assert not selector.matches(flow(nw_src=None))

    def test_mac_selectors(self):
        assert FlowSelector(src_mac="m1").matches(flow())
        assert not FlowSelector(src_mac="m9").matches(flow())
        assert FlowSelector(dst_mac="m2").matches(flow())

    def test_specificity_counts_pinned_fields(self):
        assert FlowSelector().specificity() == 0
        assert FlowSelector(src_ip="a", tp_dst=1).specificity() == 2


class TestPolicyValidation:
    def test_chain_requires_service_chain(self):
        with pytest.raises(ValueError):
            Policy(name="bad", selector=FlowSelector(),
                   action=PolicyAction.CHAIN)

    def test_non_chain_rejects_service_chain(self):
        with pytest.raises(ValueError):
            Policy(name="bad", selector=FlowSelector(),
                   action=PolicyAction.ALLOW, service_chain=("ids",))

    def test_valid_chain(self):
        policy = Policy(name="ok", selector=FlowSelector(),
                        action=PolicyAction.CHAIN, service_chain=("ids", "l7"))
        assert policy.service_chain == ("ids", "l7")


class TestTable:
    def test_first_match_by_priority(self):
        table = PolicyTable()
        table.add(Policy(name="low", selector=FlowSelector(),
                         action=PolicyAction.ALLOW, priority=10))
        table.add(Policy(name="high", selector=FlowSelector(tp_dst=80),
                         action=PolicyAction.DROP, priority=200))
        assert table.match(flow())[0].name == "high"
        assert table.match(flow(tp_dst=22))[0].name == "low"

    def test_specificity_breaks_priority_ties(self):
        table = PolicyTable()
        table.add(Policy(name="wide", selector=FlowSelector(),
                         action=PolicyAction.ALLOW, priority=100))
        table.add(Policy(name="narrow", selector=FlowSelector(tp_dst=80),
                         action=PolicyAction.DROP, priority=100))
        assert table.match(flow())[0].name == "narrow"

    def test_default_action_when_no_match(self):
        table = PolicyTable(default_action=PolicyAction.DROP)
        assert table.match(flow()) == (None, 0)
        assert table.default_action is PolicyAction.DROP

    def test_default_cannot_be_chain(self):
        with pytest.raises(ValueError):
            PolicyTable(default_action=PolicyAction.CHAIN)

    def test_duplicate_names_rejected(self):
        table = PolicyTable()
        table.add(Policy(name="p", selector=FlowSelector(),
                         action=PolicyAction.ALLOW))
        with pytest.raises(ValueError):
            table.add(Policy(name="p", selector=FlowSelector(),
                             action=PolicyAction.DROP))

    def test_remove_policy(self):
        table = PolicyTable()
        table.add(Policy(name="p", selector=FlowSelector(),
                         action=PolicyAction.DROP))
        removed = table.remove("p")
        assert removed.name == "p"
        assert table.match(flow())[0] is None
        assert table.remove("p") is None

    def test_lookup_is_side_effect_free(self):
        table = PolicyTable()
        policy = Policy(name="p", selector=FlowSelector(),
                        action=PolicyAction.ALLOW)
        table.add(policy)
        before = list(table)
        version = table.version
        for _ in range(3):
            assert table.match(flow()) == (policy, 1)
        assert list(table) == before and before[0] is policy
        assert table.version == version
        assert policy == Policy(name="p", selector=FlowSelector(),
                                action=PolicyAction.ALLOW)

    def test_match_reports_rows_scanned(self):
        table = PolicyTable()
        table.add(Policy(name="narrow", selector=FlowSelector(tp_dst=80),
                         action=PolicyAction.ALLOW, priority=200))
        table.add(Policy(name="wide", selector=FlowSelector(),
                         action=PolicyAction.ALLOW, priority=100))
        policy, scanned = table.match(flow())
        assert policy.name == "narrow" and scanned == 1
        policy, scanned = table.match(flow(tp_dst=22))
        assert policy.name == "wide" and scanned == 2
        table.remove("wide")
        miss, scanned = table.match(flow(tp_dst=22))
        assert miss is None and scanned == 1

    def test_version_bumps_on_change(self):
        table = PolicyTable()
        v0 = table.version
        table.add(Policy(name="p", selector=FlowSelector(),
                         action=PolicyAction.ALLOW))
        assert table.version == v0 + 1
        table.remove("p")
        assert table.version == v0 + 2

    def test_iteration_and_len(self):
        table = PolicyTable()
        for index in range(3):
            table.add(Policy(name=f"p{index}", selector=FlowSelector(),
                             action=PolicyAction.ALLOW, priority=index))
        assert len(table) == 3
        priorities = [p.priority for p in table]
        assert priorities == sorted(priorities, reverse=True)
