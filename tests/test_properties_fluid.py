"""Property suite: the fluid kernel against the packet-level oracle.

Every test runs one seeded CBR mix twice -- pure packet fidelity, then
with a :class:`FluidRegion` attached -- and asserts the equivalence
contract (see ``repro/workloads/fluidcheck.py``): identical per-flow
sent/delivered outcomes and identical control-plane event-log digests.
Three tiers cover 300 randomized mixes:

* 200 small mixes (5 flows, 2.5 s window),
* 60 denser mixes (8 flows, 4 s window, faster rates),
* 40 fault mixes (a mid-run link flap; sent counts and digests stay
  exact, delivered frames tolerate the in-flight packets the oracle
  drops at the fault boundary -- see DESIGN.md).

and a fourth family puts a crowd on the wires:

* 16 crowded mixes (96 slow flows between 12 hosts, start phases
  anywhere in 0.4 s; the population still suspends), where background
  frames keep meeting analytic ones still serializing -- the clock
  readers' pull, exercised at the deployment level.

The small and fault tiers run again on 2- and 4-shard control planes
(40 and 16 seeds each, four switches), comparing every shard's digest.

The OpenFlow stats replies, which read what suspended flows owe rather
than settling them, are checked against settle-then-read
(``tests/oracles.settled_port_stats`` / ``settled_flow_stats``) on a
Wi-Fi mix, at random instants and right after a settle, a suspension
or a cap event's release; and a run polled by the monitor and by flow
control ends exactly where one whose replies settle first ends.

Plus targeted scenarios: a shared bottleneck that must *refuse*
fast-forward, uneven demands with room to spare that must not, and
sanity checks that the kernel actually engages and the crowd really
reads clocks in flight (a suite that silently never suspends would
pass vacuously).

The closed form itself (``sent_before``) and the modulo pre-filter in
front of it (``ClockShare.latest(pending=True)``) are checked against
brute-force references on grid points, one ulp either side of them,
and anywhere: by hypothesis, and by a fixed sweep dense enough to meet
every rounding case the fix-ups and the slack exist for.  The phase
index in front of the filter is checked against the read that visits
every member (``tests/oracles.clock_share_latest``) under membership
churn.
"""

import math
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_livesec_network
from repro.core.flowcontrol import AggregateFlowControl
from repro.net.fluid import ClockShare, sent_before
from repro.openflow import messages as msg
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.workloads.flows import CbrUdpFlow
from repro.workloads.fluidcheck import compare_modes
from tests import oracles

SMALL = dict(num_flows=5, traffic_s=2.5, max_rate_bps=2e6)
DENSE = dict(num_flows=8, traffic_s=4.0, max_rate_bps=4e6)
FLAP = dict(num_flows=5, traffic_s=2.5, max_rate_bps=2e6, link_flap=True)
CROWD = dict(num_flows=96, hosts_per_as=4, traffic_s=2.5, max_rate_bps=0.5e6)


def assert_equivalent(result):
    assert result["equivalent"], {
        "seed": result["seed"],
        "digests_equal": result["digests_equal"],
        "flow_mismatches": result["flow_mismatches"],
        "fluid_stats": result["fluid"].fluid_stats,
    }


@pytest.mark.parametrize("seed", range(200))
def test_small_mix_matches_oracle(seed):
    assert_equivalent(compare_modes(seed, **SMALL))


@pytest.mark.parametrize("seed", range(200, 260))
def test_dense_mix_matches_oracle(seed):
    assert_equivalent(compare_modes(seed, **DENSE))


@pytest.mark.parametrize("seed", range(300, 340))
def test_link_flap_mix_matches_oracle(seed):
    # Delivery is credited at emission, so packets in flight when the
    # flap lands are credited analytically while the oracle drops them
    # mid-path: allow the path's bandwidth-delay product in frames.
    assert_equivalent(
        compare_modes(seed, delivered_tolerance_frames=2, **FLAP)
    )


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("seed", range(40))
def test_small_mix_matches_oracle_on_shards(seed, shards):
    """Every shard's control digest matches the oracle's."""
    result = compare_modes(seed, num_as=4, num_shards=shards, **SMALL)
    assert len(result["fluid"].control_digests) == shards
    assert_equivalent(result)


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("seed", range(300, 316))
def test_link_flap_mix_matches_oracle_on_shards(seed, shards):
    assert_equivalent(compare_modes(
        seed, delivered_tolerance_frames=2, num_as=4, num_shards=shards,
        **FLAP,
    ))


@pytest.mark.parametrize("seed", range(400, 416))
def test_crowded_mix_matches_oracle(seed):
    assert_equivalent(compare_modes(seed, **CROWD))


def test_crowd_reads_clocks_in_flight(monkeypatch):
    """Guard against a vacuous crowd: its real frames must actually
    find analytic ones still serializing, many times a run."""
    in_flight = []
    latest = ClockShare.latest

    def counting(self, now, pending=False):
        answer = latest(self, now, pending)
        if pending and answer > now:
            in_flight.append(answer - now)
        return answer

    monkeypatch.setattr(ClockShare, "latest", counting)
    result = compare_modes(401, **CROWD)
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    assert stats["suspended_flows"] == 0 < stats["packets_synthesized"]
    assert stats["clock_reads"] > len(in_flight) >= 10


def test_same_instant_polls_match_oracle(monkeypatch):
    """The monitor polls all eight switches at one instant each second:
    the replies made while flows are suspended read what those flows
    owe (the first computes it, the rest find it kept), and the mix
    still matches the oracle exactly."""
    replies = Counter()
    reply = OpenFlowSwitch._handle_port_stats

    def counting(switch, request):
        fluid = switch.sim.fluid  # (None in the packet-level run)
        if fluid is not None and fluid._suspended:
            replies[switch.sim.now] += 1
        reply(switch, request)

    monkeypatch.setattr(OpenFlowSwitch, "_handle_port_stats", counting)
    result = compare_modes(7, num_as=8, hosts_per_as=1, **SMALL)
    assert_equivalent(result)
    assert result["fluid"].fluid_stats["packets_synthesized"] > 0
    assert max(replies.values()) >= 8


def test_kernel_actually_engages():
    """Guard against vacuous passes: in a plain steady mix the fluid
    run must really suspend flows and synthesize most of the traffic
    with far fewer events."""
    result = compare_modes(7, **SMALL)
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    assert stats["packets_synthesized"] > 0
    total_sent = sum(row["sent_packets"] for row in result["fluid"].flows)
    assert stats["packets_synthesized"] > 0.5 * total_sent
    assert (result["fluid"].events_processed
            < 0.5 * result["packet"].events_processed)


def test_shared_bottleneck_refuses_and_stays_exact():
    """Oversubscribed links: while demand exceeds the headroom cap --
    or a drop-tail backlog is still draining after it subsides -- the
    refuse policy must hold every flow at packet fidelity (drops and
    queueing would make synthesis a model, not an equivalence).  The
    kernel may legitimately engage once the survivors fit, and the
    outcome must still match the oracle exactly."""
    result = compare_modes(
        11, num_flows=4, hosts_per_as=1, traffic_s=1.5, max_rate_bps=60e6
    )
    assert_equivalent(result)
    stats = result["fluid"].fluid_stats
    refused = (stats["refusals"].get("congested", 0)
               + stats["refusals"].get("queue-backlog", 0))
    assert refused >= 1


def test_uneven_demands_with_headroom_are_not_congested():
    """Every wire of this mix has room for its flows (a 13.2 and a
    31.0 Mb/s flow share the busiest), so no attempt may be refused as
    congested: progressive filling that stalled one float step short
    of a 30.6 Mb/s demand did."""
    result = compare_modes(
        0, num_flows=6, hosts_per_as=1, traffic_s=2.0, max_rate_bps=50e6
    )
    assert_equivalent(result)
    assert "congested" not in result["fluid"].fluid_stats["refusals"]


# ----------------------------------------------------------------------
# Stats replies read what suspended flows owe

STATS_MIXES = {
    # Stations and wired users behind two OvS and two Wi-Fi APs.
    "wifi": dict(topology="fit", num_ovs=2, num_aps=2, wired_users=2,
                 wireless_users=4, redundant_core=False),
}


def stats_mix(kind, seed, stats_interval_s=None):
    """A started deployment carrying six seeded CBR flows; every odd one
    stops on its own, so its cap event wakes it mid-run."""
    net = build_livesec_network(
        fluid=True, idle_timeout_s=60.0, stats_interval_s=stats_interval_s,
        **STATS_MIXES[kind],
    )
    net.start()
    rng = random.Random(seed)
    hosts = net.topology.user_hosts
    flows = []
    for index in range(6):
        src, dst = rng.sample(hosts, 2)
        flow = CbrUdpFlow(
            net.sim, src, dst.ip, rate_bps=rng.uniform(0.2e6, 2e6),
            packet_size=rng.choice((256, 512, 1500)),
            duration_s=rng.uniform(1.0, 3.0) if index % 2 else None,
            sport=30000 + index, dport=9000 + index,
        )
        flow.start(delay_s=rng.uniform(0.0, 0.4))
        flows.append((flow, dst))
    return net, flows


def poll_round(net):
    """Every OF datapath's port-stats and flow-stats reply at ``now``,
    as the datapath sends them."""
    replies = []
    for switch in net.topology.all_openflow_switches():
        sent = []
        switch._reply = sent.append
        try:
            switch.handle_of_message(msg.PortStatsRequest())
            switch.handle_of_message(msg.FlowStatsRequest())
        finally:
            del switch._reply
        replies.append((switch, sent[0].stats, sent[1].entries))
    return replies


@pytest.mark.parametrize("kind", sorted(STATS_MIXES))
@pytest.mark.parametrize("seed", range(6))
def test_stats_replies_match_the_settled_oracle(kind, seed):
    """At random instants, and at instants where a settle, a suspension
    or a cap event's release came first (with a round of replies read
    before it at that instant too), every OF port's four counters and
    every entry's packets and bytes equal what settling and then
    reading gives, and the round settles nothing."""
    net, _flows = stats_mix(kind, seed)
    sim, region = net.sim, net.fluid
    rng = random.Random(seed)
    probes = Counter()  # rounds checked, per probe kind
    paid = Counter()  # of those, rounds whose flows owed something

    def check(kind_of_probe):
        probes[kind_of_probe] += 1
        settles = region.settles
        suspended = list(region._suspended.values())
        replies = poll_round(net)
        assert region.settles == settles
        for switch, ports, entries in replies:
            assert ports == oracles.settled_port_stats(switch)
            assert entries == oracles.settled_flow_stats(switch, Match())
        if region.settles > settles:
            paid[kind_of_probe] += 1
            paid["over the air"] += any(
                plan.medium is not None for sf in suspended
                for plan in sf.walk.hops
            )

    def after_a_settle():
        poll_round(net)
        sim.settle_fluid()
        check("settle")

    try_suspend, wake = region._try_suspend, region._wake

    def suspending():
        suspended = len(region._suspended)
        poll_round(net)
        try_suspend()
        if len(region._suspended) > suspended:
            check("suspension")

    def waking(sf):
        poll_round(net)
        wake(sf)
        check("wake")

    region._try_suspend, region._wake = suspending, waking
    for _ in range(12):
        sim.post(rng.uniform(0.5, 4.0), check, "random")
        sim.post(rng.uniform(0.5, 4.0), after_a_settle)
    net.run(4.0)
    assert region.packets_synthesized > 0
    assert len(probes) == 4, probes
    assert paid["random"] > 0 and paid["wake"] > 0, paid
    assert paid["over the air"] > 0, paid


def run_totals(net, flows):
    """What a run leaves behind: the event log, every OF port's and
    entry's counters, every flow's sent and delivered counts, and the
    fluid region's totals (not its settle counts)."""
    stats = net.fluid.stats()
    return {
        "digest": net.controller.log.digest(),
        "ports": [
            (switch.dpid, number, port.tx_packets, port.tx_bytes,
             port.rx_packets, port.rx_bytes, port.tx_drops,
             port.direction and port.direction.dropped)
            for switch in net.topology.all_openflow_switches()
            for number, port in sorted(switch.ports.items())
        ],
        "entries": [
            (switch.dpid, entry.match, entry.packets, entry.bytes)
            for switch in net.topology.all_openflow_switches()
            for entry in switch.table
        ],
        "flows": [
            (flow.packets_sent, flow.bytes_sent,
             dst.rx_frames_by_flow.get(flow.flow_id, 0),
             dst.rx_bytes_by_flow.get(flow.flow_id, 0))
            for flow, dst in flows
        ],
        "fluid": {key: stats[key] for key in (
            "packets_synthesized", "time_saved_s", "resumes", "refusals",
            "materializations",
        )},
    }


@pytest.mark.parametrize("kind", sorted(STATS_MIXES))
def test_polled_run_ends_where_settling_replies_end_it(kind, monkeypatch):
    """The monitor's port-stats poll and flow control's flow-stats poll
    (with a quota some flows break) answered by reads end a run exactly
    where replies that settle first end it: same event log, same
    counters, same synthesized packets -- in fewer settles."""

    def run(settling):
        with monkeypatch.context() as patch:
            if settling:
                patch.setattr(
                    OpenFlowSwitch, "_handle_port_stats",
                    lambda switch, request: switch._reply(msg.PortStatsReply(
                        dpid=switch.dpid,
                        stats=oracles.settled_port_stats(switch, request.port),
                    )),
                )
                patch.setattr(
                    OpenFlowSwitch, "_handle_flow_stats",
                    lambda switch, request: switch._reply(msg.FlowStatsReply(
                        dpid=switch.dpid,
                        entries=oracles.settled_flow_stats(
                            switch, request.match),
                    )),
                )
            net, flows = stats_mix(kind, 5, stats_interval_s=1.0)
            control = AggregateFlowControl(
                net.controller, default_quota_bps=1.5e6
            )
            net.run(6.0)
            return (run_totals(net, flows), net.fluid.settles,
                    control.throttle_events)

    read, read_settles, throttled = run(False)
    settled, settled_settles, _throttled = run(True)
    assert read == settled
    assert read["fluid"]["packets_synthesized"] > 0 and throttled > 0
    assert read_settles < settled_settles


# ----------------------------------------------------------------------
# The closed form and its pre-filter against brute force

#: 250 B at 100 kb/s (the ledger's flows), round decimals and values
#: with no short binary form.
_INTERVALS = st.one_of(
    st.sampled_from([250 * 8 / 100e3, 0.008, 0.1, 1.0 / 3.0, math.pi / 1e3]),
    st.floats(1e-3, 1.0),
)


@st.composite
def _members(draw, bases=st.floats(0.0, 10.0)):
    """One suspended flow on a clock: its pacing grid, the hop's offset
    (1 us to beyond an interval) and how much of it is settled."""
    interval = draw(_INTERVALS)
    return SimpleNamespace(
        base=draw(bases),
        interval=interval,
        offset=draw(st.one_of(st.floats(1e-6, 1e-3),
                              st.floats(1e-6, 2.5 * interval))),
        settled_back=draw(st.integers(0, 3)),
    )


@st.composite
def _instants(draw, member):
    """``now`` on one of ``member``'s grid points, one ulp either side,
    or anywhere (always past every flow's base)."""
    k = draw(st.integers(20_000, 2_000_000))
    point = member.base + k * member.interval
    return draw(st.sampled_from([
        point, math.nextafter(point, math.inf),
        math.nextafter(point, -math.inf),
        point + draw(st.floats(0.0, 1.0)) * member.interval,
    ]))


def _grid_before(base, interval, t):
    """Brute force: the first index whose emission is not before t."""
    k = max(0, int((t - base) / interval) - 3)
    assert k == 0 or base + (k - 1) * interval < t
    while base + k * interval < t:
        k += 1
    return k


class _Suspended:
    """What ``sent_before`` and a share read of a suspended flow
    (hashable by identity, like the real one)."""

    def __init__(self, base, interval, packets_sent):
        self.flow = SimpleNamespace(packets_sent=packets_sent)
        self.base, self.interval, self.limit = base, interval, sys.maxsize


def _suspended(member, now):
    count = _grid_before(member.base, member.interval, now)
    return _Suspended(member.base, member.interval,
                      max(0, count - member.settled_back)), count


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_sent_before_is_the_grid_count(data):
    member = data.draw(_members())
    now = data.draw(_instants(member))
    sf, count = _suspended(member, now)
    assert sent_before(sf, now) == count
    # Never below what is settled, never past the limit.
    sf.flow.packets_sent = count + 2
    assert sent_before(sf, now) == count + 2
    sf.flow.packets_sent = 0
    sf.limit = max(0, count - data.draw(st.integers(0, 2)))
    assert sent_before(sf, now) == sf.limit
    assert sent_before(sf, math.inf) == sf.limit


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_prefilter_never_changes_a_pending_answer(data):
    # Mixed intervals on one clock; ``now`` sits on the first flow's
    # grid, which is nowhere special on the others'.
    members = data.draw(st.lists(_members(), min_size=1, max_size=4))
    now = data.draw(_instants(members[0]))
    region = SimpleNamespace(clock_reads=0, closed_forms=0)
    share = ClockShare(region)
    expected = 0.0
    for member in members:
        sf, count = _suspended(member, now)
        share.add(sf, member.offset)
        if member.settled_back:  # else: nothing emitted since the settle
            expected = max(expected, member.base
                           + (count - 1) * member.interval + member.offset)
    unfiltered = share.latest(now)
    evaluated = region.closed_forms
    filtered = share.latest(now, pending=True)
    assert unfiltered == expected
    assert filtered <= unfiltered
    if filtered > now or unfiltered > now:
        assert filtered == unfiltered
    assert region.clock_reads == 2
    assert region.closed_forms - evaluated <= evaluated == len(members)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_the_phase_index_reads_what_the_scan_reads(data):
    """Mixed intervals (shared ones among them, and offsets past the
    interval), bases far from 0, ``now`` on or next to a grid point,
    and flows joining and leaving the share between reads: every
    pending read answers what visiting every member answers, after as
    many closed forms."""
    bases = st.one_of(st.floats(0.0, 10.0), st.floats(1e3, 1e5))
    pool = data.draw(st.lists(_members(bases), min_size=1, max_size=12))
    flows = [_Suspended(m.base, m.interval, 0) for m in pool]
    region = SimpleNamespace(clock_reads=0, closed_forms=0)
    share = ClockShare(region)
    for _ in range(data.draw(st.integers(1, 8))):
        churn = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=4))
        for index in churn:
            if flows[index] in share.members:
                share.discard(flows[index])
            else:
                share.add(flows[index], pool[index].offset)
        now = data.draw(_instants(data.draw(st.sampled_from(pool))))
        for member, sf in zip(pool, flows):
            sf.flow.packets_sent = max(0, _grid_before(
                member.base, member.interval, now
            ) - member.settled_back)
        before = region.closed_forms
        indexed = share.latest(now, pending=True)
        evaluated = region.closed_forms - before
        assert oracles.clock_share_latest(share, now, pending=True) == indexed
        assert region.closed_forms - before == 2 * evaluated


def test_a_pending_read_visits_only_flows_near_their_grid_point():
    """29 flows on the ledger's 20 ms grid, 0.5 ms apart, 30 us of
    serialization each: a read on one flow's grid point looks at that
    flow alone, a read between grid points at nobody."""
    interval, offset = 250 * 8 / 100e3, 30e-6
    region = SimpleNamespace(clock_reads=0, closed_forms=0)
    share = ClockShare(region)
    flows = [_Suspended(2.0 + i * 5e-4, interval, 0) for i in range(29)]
    for sf in flows:
        share.add(sf, offset)
    for sf in flows:
        point = sf.base + 4000 * interval
        assert [near for near, _offset in share._near_grid(point)] == [sf]
        assert share._near_grid(point + 2.5e-4) == []
    # Across the interval's edge: a frame emitted 15 us ago is still
    # serializing; a flow whose next frame is due in 10 us sent its
    # last almost an interval ago.
    share = ClockShare(region)
    before, after = (_Suspended(3.0 + shift, interval, 0)
                     for shift in (-10e-6, 15e-6))
    share.add(before, offset)
    share.add(after, offset)
    assert [near for near, _ in share._near_grid(10.0 + 5e-6)] == [before]


def test_sweep_meets_every_rounding_case():
    """One-in-ten-thousand roundings are what the closed form's fix-up
    loops and the filter's two-sided slack are for; random search
    seldom lands on them, a sweep along real-looking grids does."""
    rng = random.Random(18)
    region = SimpleNamespace(clock_reads=0, closed_forms=0)
    seen = Counter()
    intervals = [250 * 8 / 100e3, 0.008, 0.1, 1.0 / 3.0, math.pi / 1e3]
    intervals += [rng.uniform(1e-3, 1.0) for _ in range(5)]
    for interval in intervals:
        for base in (0.0, 2.0523516, rng.uniform(0.0, 10.0)):
            for k in range(200, 4000, 7):
                point = base + k * interval
                for now in (point, math.nextafter(point, math.inf),
                            math.nextafter(point, -math.inf),
                            point + 0.37 * interval):
                    count = _grid_before(base, interval, now)
                    floor = int((now - base) / interval) + 1
                    seen["floor short"] += floor < count
                    seen["floor long"] += floor > count
                    sf = _Suspended(base, interval, count - 1)
                    assert sent_before(sf, now) == count
                    last = base + (count - 1) * interval
                    phase = (now - base) % interval
                    for offset in (1e-6, 20e-6, now - last + math.ulp(now)):
                        share = ClockShare(region)
                        share.add(sf, offset)
                        pending = share.latest(now, pending=True)
                        if last + offset > now:
                            assert pending == last + offset
                            seen["phase wrapped"] += phase > interval / 2 > offset
                            seen["inside the slack"] += (
                                offset < phase <= offset + 1e-9
                            )
                        else:
                            assert pending in (0.0, last + offset)
                            seen["filtered"] += pending == 0.0
    assert all(seen[case] > 0 for case in (
        "floor short", "floor long", "phase wrapped", "inside the slack",
        "filtered",
    )), seen
