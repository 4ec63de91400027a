"""Property tests: the segmented/checkpointed event store against the
pre-change flat-list oracle.

Two oracles in ``tests/oracles.py`` serve this file and the E16
bench: ``query_linear`` (full scan, no segment skipping) and
``replay_linear`` (fold from t=0, no checkpoints).  Over randomized
event streams:

* checkpointed ``replay(until)`` must equal the linear fold exactly,
* segmented ``query`` must equal the linear scan exactly (lossless
  logs), and for compaction-enabled logs the *lifecycle* kinds must
  still match a flat list of everything ever emitted,
* ``counts_by_kind`` must agree with the retained events across
  segment rotation and compaction.

The seeded-loop style (rather than hypothesis) keeps the stream count
explicit: ``NUM_STREAMS`` independent streams per property, ≥500 in
total across the suite, deterministic under pytest-randomly.
"""

import random

from repro.core.events import SAMPLE_KINDS, EventKind, EventLog
from repro.core.visualization import MonitoringComponent
from tests import oracles

NUM_STREAMS = 250

LIFECYCLE_KINDS = (
    EventKind.SWITCH_JOIN, EventKind.SWITCH_LEAVE,
    EventKind.LINK_UP, EventKind.LINK_DOWN,
    EventKind.HOST_JOIN, EventKind.HOST_LEAVE, EventKind.HOST_MOVE,
    EventKind.ELEMENT_ONLINE, EventKind.ELEMENT_OFFLINE,
    EventKind.ATTACK_DETECTED, EventKind.FLOW_BLOCKED,
    EventKind.PROTOCOL_IDENTIFIED, EventKind.POLICY_CHANGED,
)


def random_stream(rng, length=None):
    """One plausible monitoring stream: nondecreasing times, a mix of
    lifecycle events and high-churn load samples over few keys."""
    length = length if length is not None else rng.randint(1, 120)
    now = 0.0
    events = []
    macs = [f"m{i}" for i in range(4)]
    dpids = [1, 2, 3]
    for __ in range(length):
        now += rng.choice((0.0, 0.1, 0.5))
        roll = rng.random()
        if roll < 0.45:  # churny samples dominate real logs
            if rng.random() < 0.5:
                events.append((now, EventKind.LINK_LOAD, {
                    "dpid": rng.choice(dpids), "port": rng.randint(1, 3),
                    "utilization": round(rng.random(), 3),
                }))
            else:
                events.append((now, EventKind.ELEMENT_LOAD, {
                    "mac": rng.choice(macs), "cpu": round(rng.random(), 3),
                    "pps": float(rng.randint(0, 1000)),
                }))
        elif roll < 0.65:
            mac = rng.choice(macs)
            kind = rng.choice((EventKind.HOST_JOIN, EventKind.HOST_LEAVE,
                               EventKind.HOST_MOVE))
            data = {"mac": mac}
            if kind != EventKind.HOST_LEAVE:
                data["dpid"] = rng.choice(dpids)
            if kind == EventKind.HOST_JOIN:
                data["ip"] = f"10.0.0.{rng.randint(1, 9)}"
            events.append((now, kind, data))
        elif roll < 0.8:
            dpid = rng.choice(dpids)
            kind = rng.choice((EventKind.SWITCH_JOIN,
                               EventKind.SWITCH_LEAVE))
            events.append((now, kind, {"dpid": dpid}))
        elif roll < 0.9:
            a, b = rng.sample(dpids, 2)
            kind = rng.choice((EventKind.LINK_UP, EventKind.LINK_DOWN))
            events.append((now, kind, {
                "src_dpid": a, "src_port": rng.randint(1, 3),
                "dst_dpid": b, "dst_port": rng.randint(1, 3),
            }))
        else:
            mac = rng.choice(macs)
            events.append((now, rng.choice((
                EventKind.ELEMENT_ONLINE, EventKind.ELEMENT_OFFLINE,
                EventKind.ATTACK_DETECTED, EventKind.FLOW_BLOCKED,
                EventKind.PROTOCOL_IDENTIFIED,
            )), {"mac": mac, "user_mac": mac, "application": "http",
                 "service_type": "ids", "dpid": rng.choice(dpids)}))
    return events


def probe_times(rng, events, count=5):
    """Interesting ``until`` values: None, out-of-range, and moments
    on/between event timestamps."""
    times = [e.time for e in events]
    probes = [None, -1.0, times[-1] + 10.0]
    for __ in range(count):
        probes.append(rng.choice((
            rng.choice(times),
            rng.uniform(0.0, times[-1] + 1.0),
        )))
    return probes


class TestCheckpointedReplayEquivalence:
    def test_replay_matches_linear_oracle_over_random_streams(self):
        for seed in range(NUM_STREAMS):
            rng = random.Random(seed)
            log = EventLog(segment_size=rng.choice((1, 3, 8, 32)))
            mon = MonitoringComponent(
                log,
                checkpoint_interval=rng.choice((2, 5, 13)),
                max_checkpoints=rng.choice((2, 4, 64)),
            )
            for when, kind, data in random_stream(rng):
                log.emit(when, kind, **data)
            for until in probe_times(rng, log.all()):
                checkpointed = mon.replay(until)
                linear = oracles.replay_linear(mon, until)
                assert checkpointed == linear, (
                    f"seed={seed} until={until}"
                )

    def test_replay_series_matches_per_moment_replay(self):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            log = EventLog(segment_size=4)
            mon = MonitoringComponent(log, checkpoint_interval=3)
            for when, kind, data in random_stream(rng, length=40):
                log.emit(when, kind, **data)
            horizon = log.all()[-1].time + 1.0
            moments = [round(rng.uniform(0.0, horizon), 2)
                       for __ in range(6)]  # deliberately unsorted
            series = list(mon.replay_series(moments))
            for snap, moment in zip(series, moments):
                assert snap == mon.replay(until=moment), (
                    f"seed={seed} moment={moment} moments={moments}"
                )


class TestSegmentedQueryEquivalence:
    def test_query_matches_linear_oracle_lossless(self):
        for seed in range(100):
            rng = random.Random(2000 + seed)
            log = EventLog(segment_size=rng.choice((1, 4, 16)))
            for when, kind, data in random_stream(rng):
                log.emit(when, kind, **data)
            horizon = log.all()[-1].time
            queries = [
                {},
                {"kind": rng.choice(LIFECYCLE_KINDS)},
                {"kind": EventKind.LINK_LOAD},
                {"since": rng.uniform(0, horizon)},
                {"until": rng.uniform(0, horizon)},
                {"kind": rng.choice(LIFECYCLE_KINDS),
                 "since": rng.uniform(0, horizon),
                 "until": rng.uniform(0, horizon)},
            ]
            for kwargs in queries:
                linear = oracles.query_linear(log, **kwargs)
                assert log.query(**kwargs) == linear, (
                    f"seed={seed} query={kwargs}"
                )
            assert log.counts_by_kind() == {
                kind: len(oracles.query_linear(log, kind=kind))
                for kind in log.counts_by_kind()
            }

    def test_compacted_lifecycle_queries_match_flat_oracle(self):
        for seed in range(150):
            rng = random.Random(3000 + seed)
            log = EventLog(segment_size=rng.choice((2, 4, 8)),
                           retention=rng.choice((0, 1, 2)))
            flat = []  # the pre-change unbounded list, event for event
            log.subscribe(flat.append)
            for when, kind, data in random_stream(rng):
                log.emit(when, kind, **data)
            for kind in LIFECYCLE_KINDS:
                expected = [e for e in flat if e.kind == kind]
                assert log.query(kind=kind) == expected, (
                    f"seed={seed} kind={kind}"
                )
            # Sample kinds may be thinned, never grown, and what
            # remains is a subsequence of the flat history.
            for kind in SAMPLE_KINDS:
                kept = log.query(kind=kind)
                original = [e for e in flat if e.kind == kind]
                assert len(kept) <= len(original)
                it = iter(original)
                assert all(e in it for e in kept), f"seed={seed}"
            # counts_by_kind reflects exactly the retained events.
            assert sum(log.counts_by_kind().values()) == len(log)
            assert len(log) + log.compacted_events == len(flat)
