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

Plus targeted scenarios: a shared bottleneck that must *refuse*
fast-forward, and sanity checks that the kernel actually engages and
the crowd really reads clocks in flight (a suite that silently never
suspends would pass vacuously).

The closed form itself (``sent_before``) and the modulo pre-filter in
front of it (``ClockShare.latest(pending=True)``) are checked against
brute-force references on grid points, one ulp either side of them,
and anywhere: by hypothesis, and by a fixed sweep dense enough to meet
every rounding case the fix-ups and the slack exist for.
"""

import math
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fluid import ClockShare, sent_before
from repro.workloads.fluidcheck import compare_modes

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


def test_rate_policy_mix_keeps_wire_schedule():
    """The modeled ``rate`` policy changes delivery accounting under
    congestion but must never change what is *sent*: with headroom the
    two policies coincide, so an uncongested rate-policy mix still
    matches the oracle exactly."""
    assert_equivalent(compare_modes(5, congestion="rate", **SMALL))


# ----------------------------------------------------------------------
# The closed form and its pre-filter against brute force

#: 250 B at 100 kb/s (the ledger's flows), round decimals and values
#: with no short binary form.
_INTERVALS = st.one_of(
    st.sampled_from([250 * 8 / 100e3, 0.008, 0.1, 1.0 / 3.0, math.pi / 1e3]),
    st.floats(1e-3, 1.0),
)


@st.composite
def _members(draw):
    """One suspended flow on a clock: its pacing grid, the hop's offset
    (1 us to beyond an interval) and how much of it is settled."""
    interval = draw(_INTERVALS)
    return SimpleNamespace(
        base=draw(st.floats(0.0, 10.0)),
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
        share.members[sf] = member.offset
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
                        share.members[sf] = offset
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
