"""Property-based tests (hypothesis) for core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as svcmsg
from repro.core.loadbalance import (
    ElementLoad,
    LoadBalancer,
    load_deviation,
    make_dispatcher,
)
from repro.analysis.metrics import percentile
from repro.net.packet import FlowNineTuple, ip_address, mac_address
from repro.net.simulator import Simulator
from repro.openflow.match import Match

# ---------------------------------------------------------------------------
# Strategies

macs = st.integers(min_value=1, max_value=2 ** 48 - 1).map(mac_address)
ips = st.integers(min_value=1, max_value=2 ** 24).map(ip_address)
ports = st.integers(min_value=0, max_value=65535)
opt_ports = st.one_of(st.none(), ports)
opt_ips = st.one_of(st.none(), ips)


@st.composite
def nine_tuples(draw):
    proto = draw(st.sampled_from([None, 1, 6, 17]))
    has_transport = proto in (6, 17)
    return FlowNineTuple(
        vlan=draw(st.one_of(st.none(), st.integers(0, 4095))),
        dl_src=draw(macs),
        dl_dst=draw(macs),
        dl_type=draw(st.sampled_from([0x0800, 0x0806, 0x86DD])),
        nw_src=draw(opt_ips),
        nw_dst=draw(opt_ips),
        nw_proto=proto,
        tp_src=draw(opt_ports) if has_transport else None,
        tp_dst=draw(opt_ports) if has_transport else None,
    )


@st.composite
def matches(draw):
    def maybe(strategy):
        return draw(st.one_of(st.none(), strategy))

    return Match(
        in_port=maybe(st.integers(1, 48)),
        dl_src=maybe(macs),
        dl_dst=maybe(macs),
        dl_type=maybe(st.sampled_from([0x0800, 0x0806])),
        dl_vlan=maybe(st.integers(0, 4095)),
        nw_src=maybe(ips),
        nw_dst=maybe(ips),
        nw_proto=maybe(st.sampled_from([1, 6, 17])),
        tp_src=maybe(ports),
        tp_dst=maybe(ports),
    )


# ---------------------------------------------------------------------------
# 9-tuple properties


class TestNineTupleProperties:
    @given(nine_tuples())
    def test_reversal_is_involution(self, flow):
        assert flow.reversed().reversed() == flow

    @given(nine_tuples())
    def test_reversal_swaps_endpoints(self, flow):
        rev = flow.reversed()
        assert rev.dl_src == flow.dl_dst
        assert rev.nw_dst == flow.nw_src
        assert rev.tp_src == flow.tp_dst

    @given(nine_tuples())
    def test_reversal_preserves_invariants(self, flow):
        rev = flow.reversed()
        assert rev.vlan == flow.vlan
        assert rev.dl_type == flow.dl_type
        assert rev.nw_proto == flow.nw_proto


# ---------------------------------------------------------------------------
# Match properties


class TestMatchProperties:
    @given(matches())
    def test_subset_reflexive(self, match):
        assert match.is_subset_of(match)

    @given(matches())
    def test_everything_subset_of_wildcard(self, match):
        assert match.is_subset_of(Match())

    @given(matches(), matches())
    def test_subset_antisymmetry_on_distinct(self, a, b):
        if a.is_subset_of(b) and b.is_subset_of(a):
            assert a == b

    @given(nine_tuples(), st.integers(1, 48))
    def test_exact_match_from_nine_tuple_matches_nothing_stricter(
            self, flow, in_port):
        match = Match.from_nine_tuple(flow, in_port=in_port)
        assert match.wildcard_count() <= 12
        # The match must be covered by every selective relaxation.
        relaxed = Match.from_nine_tuple(flow)
        assert match.is_subset_of(relaxed)


# ---------------------------------------------------------------------------
# Message codec properties

texts = st.text(alphabet=string.ascii_letters + string.digits + ".:-_/ ",
                min_size=1, max_size=40)


class TestCodecProperties:
    @given(
        mac=macs,
        service=st.sampled_from(["ids", "l7", "firewall", "virus"]),
        cpu=st.floats(0, 1, allow_nan=False),
        mem=st.floats(0, 1, allow_nan=False),
        pps=st.floats(0, 1e7, allow_nan=False),
        flows=st.integers(0, 10**6),
    )
    def test_online_roundtrip(self, mac, service, cpu, mem, pps, flows):
        message = svcmsg.OnlineMessage(
            element_mac=mac, certificate="c", service_type=service,
            cpu=cpu, memory=mem, pps=pps, active_flows=flows,
        )
        decoded = svcmsg.decode(svcmsg.encode_online(message))
        assert decoded.element_mac == mac
        assert decoded.service_type == service
        assert abs(decoded.cpu - cpu) < 1e-3
        assert decoded.active_flows == flows

    @given(flow=st.one_of(st.none(), nine_tuples()),
           kind=st.sampled_from(["attack", "protocol", "virus"]),
           detail_key=texts, detail_value=texts)
    def test_event_roundtrip(self, flow, kind, detail_key, detail_value):
        message = svcmsg.EventReportMessage(
            element_mac="m", certificate="c", kind=kind, flow=flow,
            detail={detail_key: detail_value},
        )
        decoded = svcmsg.decode(svcmsg.encode_event(message))
        assert decoded.kind == kind
        assert decoded.flow == flow
        assert decoded.detail[detail_key] == detail_value

    @given(st.binary(max_size=64))
    def test_decode_never_crashes_unexpectedly(self, payload):
        try:
            svcmsg.decode(payload)
        except svcmsg.MessageFormatError:
            pass  # the only allowed failure mode

    @given(secret=texts, mac=macs)
    def test_certificate_verifies_itself_only(self, secret, mac):
        cert = svcmsg.issue_certificate(secret, mac)
        assert cert == svcmsg.issue_certificate(secret, mac)
        assert cert != svcmsg.issue_certificate(secret + "x", mac)


# ---------------------------------------------------------------------------
# Load-balancing properties


class TestBalancerProperties:
    @given(
        dispatcher_name=st.sampled_from(["polling", "hash", "queuing",
                                         "minload"]),
        n_elements=st.integers(1, 8),
        n_flows=st.integers(1, 40),
    )
    @settings(max_examples=40)
    def test_assignments_always_valid_and_released(
            self, dispatcher_name, n_elements, n_flows):
        balancer = LoadBalancer(make_dispatcher(dispatcher_name))
        pool = [
            ElementLoad(mac=f"e{i}", reported_pps=0,
                        assigned_flows=0, pending=0)
            for i in range(n_elements)
        ]
        flows = [
            FlowNineTuple(None, "a", "b", 0x0800, "10.0.0.1", "10.0.0.2",
                          6, 1000 + i, 80)
            for i in range(n_flows)
        ]
        macs_set = {c.mac for c in pool}
        picks = [balancer.assign(pool, flow) for flow in flows]
        assert set(picks) <= macs_set
        assert sum(balancer.pending(mac) for mac in macs_set) == n_flows
        # Releasing every pick -- and then some: a release the balancer
        # never saw assigned -- gives the bias back and never goes
        # below zero.
        for mac in picks + sorted(macs_set):
            balancer.release((mac,))
        assert all(balancer.pending(mac) == 0 for mac in macs_set)

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2,
                    max_size=20))
    def test_deviation_nonnegative(self, loads):
        assert load_deviation(loads) >= 0.0

    @given(st.floats(0.001, 1e6, allow_nan=False), st.integers(2, 10))
    def test_deviation_zero_for_uniform(self, value, count):
        # Float rounding in the mean can leave an ulp of residue.
        assert load_deviation([value] * count) < 1e-12

    @given(st.lists(st.floats(0.001, 1e6), min_size=2, max_size=20),
           st.floats(0.1, 100))
    def test_deviation_scale_invariant(self, loads, factor):
        original = load_deviation(loads)
        scaled = load_deviation([l * factor for l in loads])
        assert abs(original - scaled) < 1e-6 * max(1.0, original)


# ---------------------------------------------------------------------------
# Metric and simulator properties


class TestMetricProperties:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=50),
           st.floats(0, 100))
    def test_percentile_within_range(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                    max_size=50))
    def test_percentile_monotone(self, values):
        assert percentile(values, 25) <= percentile(values, 75)


class TestSimulatorProperties:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=50))
    @settings(max_examples=50)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.tuples(st.floats(0, 10, allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_cancelled_events_never_fire(self, plan):
        sim = Simulator()
        fired = []
        expected = 0
        for index, (delay, cancel) in enumerate(plan):
            handle = sim.schedule(delay, fired.append, index)
            if cancel:
                handle.cancel()
            else:
                expected += 1
        sim.run()
        assert len(fired) == expected
