"""Unit tests for the dispatchers and the balancer's pending bias and
user pins (which session loads which element is the session table's:
tests/test_sessions.py)."""

import pytest

from repro.core.loadbalance import (
    DISPATCHERS,
    ElementLoad,
    HashDispatcher,
    LeastConnectionsDispatcher,
    LoadBalancer,
    MinLoadDispatcher,
    RoundRobinDispatcher,
    load_deviation,
    make_dispatcher,
)
from repro.core.policy import Granularity
from repro.net.packet import FlowNineTuple


def flow(tp_src=1000):
    return FlowNineTuple(
        vlan=None, dl_src="m1", dl_dst="m2", dl_type=0x0800,
        nw_src="10.0.0.1", nw_dst="10.0.0.2", nw_proto=6,
        tp_src=tp_src, tp_dst=80,
    )


def candidates(count=3, pps=0.0):
    return [
        ElementLoad(mac=f"e{index}", reported_pps=pps,
                    assigned_flows=0, pending=0)
        for index in range(count)
    ]


class TestDispatcherFactory:
    def test_all_paper_names_present(self):
        assert set(DISPATCHERS) == {"polling", "hash", "queuing", "minload"}

    def test_make_dispatcher(self):
        assert isinstance(make_dispatcher("polling"), RoundRobinDispatcher)
        assert isinstance(make_dispatcher("hash"), HashDispatcher)
        assert isinstance(make_dispatcher("queuing"),
                          LeastConnectionsDispatcher)
        assert isinstance(make_dispatcher("minload"), MinLoadDispatcher)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_dispatcher("round-robin")


class TestRoundRobin:
    def test_strict_rotation(self):
        dispatcher = RoundRobinDispatcher()
        picks = [dispatcher.pick(candidates(), flow(i), None).mac
                 for i in range(6)]
        assert picks == ["e0", "e1", "e2", "e0", "e1", "e2"]

    def test_rotation_stable_under_churn(self):
        # The cursor is the last-picked MAC, not an index: removing an
        # element must not reshuffle where "next" lands among the
        # survivors.
        dispatcher = RoundRobinDispatcher()
        pool = candidates(3)
        assert dispatcher.pick(pool, flow(1), None).mac == "e0"
        assert dispatcher.pick(pool, flow(2), None).mac == "e1"
        # e1 goes offline; rotation continues cleanly past the cursor.
        shrunk = [c for c in pool if c.mac != "e1"]
        picks = [dispatcher.pick(shrunk, flow(3 + i), None).mac
                 for i in range(4)]
        assert picks == ["e2", "e0", "e2", "e0"]

    def test_cursor_survives_element_replacement(self):
        dispatcher = RoundRobinDispatcher()
        dispatcher.pick(candidates(3), flow(1), None)  # cursor at e0
        # A whole new candidate set (e.g. after failover re-dispatch):
        # the pick is the first MAC after the cursor, wrapping.
        fresh = [
            ElementLoad(mac=mac, reported_pps=0.0,
                        assigned_flows=0, pending=0)
            for mac in ("a9", "e5")
        ]
        assert dispatcher.pick(fresh, flow(2), None).mac == "e5"
        assert dispatcher.pick(fresh, flow(3), None).mac == "a9"


class TestHash:
    def test_deterministic_per_flow(self):
        dispatcher = HashDispatcher()
        first = dispatcher.pick(candidates(), flow(1), None)
        second = dispatcher.pick(candidates(), flow(1), None)
        assert first.mac == second.mac

    def test_user_key_overrides_flow(self):
        dispatcher = HashDispatcher()
        a = dispatcher.pick(candidates(), flow(1), "alice")
        b = dispatcher.pick(candidates(), flow(2), "alice")
        assert a.mac == b.mac

    def test_spreads_over_many_flows(self):
        dispatcher = HashDispatcher()
        picks = {dispatcher.pick(candidates(8), flow(i), None).mac
                 for i in range(200)}
        assert len(picks) == 8


class TestLeastConnections:
    def test_prefers_fewest_assigned(self):
        pool = candidates()
        pool[0].assigned_flows = 5
        pool[1].assigned_flows = 1
        pool[2].assigned_flows = 3
        dispatcher = LeastConnectionsDispatcher()
        assert dispatcher.pick(pool, flow(), None).mac == "e1"

    def test_pending_counts_too(self):
        pool = candidates()
        pool[0].pending = 2
        dispatcher = LeastConnectionsDispatcher()
        assert dispatcher.pick(pool, flow(), None).mac == "e1"


class TestMinLoad:
    def test_prefers_lowest_reported_pps(self):
        pool = candidates()
        pool[0].reported_pps = 900
        pool[1].reported_pps = 100
        pool[2].reported_pps = 500
        dispatcher = MinLoadDispatcher()
        assert dispatcher.pick(pool, flow(), None).mac == "e1"

    def test_pending_bias_avoids_stale_reports(self):
        pool = candidates(2)
        pool[0].reported_pps = 100
        pool[0].pending = 10  # 10 x 200 pps bias -> effective 2100
        pool[1].reported_pps = 300
        dispatcher = MinLoadDispatcher(pending_bias_pps=200.0)
        assert dispatcher.pick(pool, flow(), None).mac == "e1"


class TestLoadBalancer:
    def test_assign_and_release(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        mac = balancer.assign(candidates(), flow(1))
        assert balancer.pending(mac) == 1
        assert balancer.assignments == 1
        balancer.release((mac,))
        assert balancer.pending(mac) == 0

    def test_assign_leaves_candidates_untouched(self):
        # The rows are the caller's (the policy engine builds them from
        # the session table): the balancer ranks them, never edits them.
        balancer = LoadBalancer(LeastConnectionsDispatcher())
        pool = candidates(2)
        pool[0].assigned_flows = 3
        assert balancer.assign(pool, flow(1)) == "e1"
        assert balancer.assign(pool, flow(2)) == "e1"
        assert [(c.assigned_flows, c.pending) for c in pool] == [(3, 0), (0, 0)]

    def test_release_unknown_element_is_noop(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        balancer.release(())
        balancer.release(("never-assigned",))
        assert balancer.pending("never-assigned") == 0

    def test_chained_flow_holds_multiple_assignments(self):
        # A chained policy assigns the same flow once per service type;
        # every pick is biased, and releasing the chain gives all back.
        balancer = LoadBalancer(RoundRobinDispatcher())
        first = balancer.assign(candidates(), flow(1))
        second = balancer.assign(candidates(), flow(1))
        assert first != second
        assert (balancer.pending(first), balancer.pending(second)) == (1, 1)
        balancer.release((first, second))
        assert (balancer.pending(first), balancer.pending(second)) == (0, 0)

    def test_no_candidates_raises(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        with pytest.raises(ValueError):
            balancer.assign([], flow(1))

    def test_user_granularity_pins(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        first = balancer.assign(candidates(), flow(1), user="alice",
                                granularity=Granularity.USER)
        second = balancer.assign(candidates(), flow(2), user="alice",
                                 granularity=Granularity.USER)
        assert first == second

    def test_user_pin_dropped_when_element_gone(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        first = balancer.assign(candidates(), flow(1), user="alice",
                                granularity=Granularity.USER)
        remaining = [c for c in candidates() if c.mac != first]
        second = balancer.assign(remaining, flow(2), user="alice",
                                 granularity=Granularity.USER)
        assert second != first

    def test_flow_granularity_ignores_user_pin(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        picks = {
            balancer.assign(candidates(), flow(i), user="alice",
                            granularity=Granularity.FLOW)
            for i in range(3)
        }
        assert len(picks) == 3

    def test_forget_element_drops_pending_and_pins(self):
        balancer = LoadBalancer(RoundRobinDispatcher())
        pool = candidates(1)
        balancer.assign(pool, flow(1), user="alice",
                        granularity=Granularity.USER)
        balancer.assign(pool, flow(2))
        assert balancer.pending("e0") == 2
        balancer.forget_element("e0")
        # It comes back unbiased, and alice is dispatched afresh.
        assert balancer.pending("e0") == 0
        assert balancer.assign(candidates(3), flow(3), user="alice",
                               granularity=Granularity.USER) == "e1"

    def test_load_report_clears_pending(self):
        balancer = LoadBalancer(MinLoadDispatcher())
        pool = candidates(2)
        mac = balancer.assign(pool, flow(1))
        assert balancer.pending(mac) == 1
        balancer.on_load_report(mac)
        assert balancer.pending(mac) == 0
        # Halved, not cleared: a report right after a burst does not
        # yet reflect it.
        for index in range(5):
            balancer.assign([pool[0]], flow(10 + index))
        balancer.on_load_report("e0")
        assert balancer.pending("e0") == 2

    def test_release_frees_pending_too(self):
        # Regression: a flow torn down before the element's next load
        # report used to leave the pending bias inflated, steering the
        # queuing/minload dispatchers away from the element.
        balancer = LoadBalancer(LeastConnectionsDispatcher())
        pool = candidates(2)
        mac = balancer.assign(pool, flow(1))
        assert balancer.pending(mac) == 1
        balancer.release((mac,))
        assert balancer.pending(mac) == 0
        # Short-lived flows churning on one element must not build a
        # permanent bias: after the churn, both elements look equal.
        for index in range(50):
            balancer.release((balancer.assign(pool, flow(100 + index)),))
        assert balancer.pending("e0") == 0
        assert balancer.pending("e1") == 0

    def test_release_after_report_does_not_go_negative(self):
        balancer = LoadBalancer(LeastConnectionsDispatcher())
        pool = candidates(2)
        mac = balancer.assign(pool, flow(1))
        balancer.on_load_report(mac)  # pending already decayed to 0
        balancer.release((mac,))
        assert balancer.pending(mac) == 0


class TestDeviationMetric:
    def test_balanced_loads(self):
        assert load_deviation([10.0, 10.0, 10.0]) == 0.0

    def test_single_element_is_zero(self):
        assert load_deviation([42.0]) == 0.0

    def test_all_zero_is_zero(self):
        assert load_deviation([0.0, 0.0]) == 0.0

    def test_max_relative_deviation(self):
        # mean 10, max deviation 5 -> 50%
        assert load_deviation([5.0, 10.0, 15.0]) == pytest.approx(0.5)

    def test_five_percent_bound_example(self):
        assert load_deviation([100, 103, 98, 99]) <= 0.05
