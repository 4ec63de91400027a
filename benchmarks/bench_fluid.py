"""E19 (fluid fast-forward: wall-clock at deployment scale).

One thousand steady CBR flows over the linear deployment topology,
run once at pure packet fidelity and once with the fluid region
attached.  Once every flow is warm (first-packet punt done, rules
installed), the fluid kernel suspends the whole population and the
event queue collapses to the control-plane barriers -- the wall-clock
win is the point of the tentpole, and the gate is >= 10x.

``idle_timeout_s`` is raised above the traffic window: a one-way CBR
session's idle *reverse* rule would otherwise tear the session down
mid-run (normal deployment behavior, exercised by the property tests),
and E19 measures the steady phase, not session churn.

Starts are dealt the way ``perf``'s steady workloads deal them: flow 0
on the governor's grid, every other flow on a 10 ms slot plus 2-7 ms,
so no 20 ms pacing ever has a frame on a wire at a 50 ms governor tick.
The walk refuses the *whole* population while a real frame still holds
a hop when some flow's first analytic frame could start serializing
there (``queue-backlog``), so undealt starts are a phase lottery.

The uniform-start rows measure that lottery on its own, with starts
drawn from ``uniform(0, 0.1)`` (seed 19, 8 sim-s): 300 and 500 flows
suspend (time saved >= 90 % of the traffic span, per-flow delivered
bytes equal to the packet run's -- asserted), 1000 flows still refuse
every tick and are reported, not asserted, as the remaining cliff.
Asking whether a frame overlaps the first analytic one, rather than
whether any hop is non-empty, moved the cliff from between 200 and 300
flows to between 500 and 1000; it did not close it.

Runs standalone (``python benchmarks/bench_fluid.py`` with
``PYTHONPATH=src``) for ``make bench-smoke``, writing
``BENCH_fluid.json``, or under pytest-benchmark.
"""

import random
import sys
import time

from repro.analysis import format_table
from repro.core.deployment import build_livesec_network
from repro.workloads.flows import CbrUdpFlow

from common import run_once, write_result

NUM_AS = 8
HOSTS_PER_AS = 16
NUM_FLOWS = 1000
TRAFFIC_S = 16.0
FLOW_RATE_BPS = 100e3
PACKET_SIZE = 250
SPEEDUP_FLOOR = 10.0
#: Fault-boundary tolerance does not apply here (no faults): delivered
#: totals must agree to within the packets in flight at the final cut.
DELIVERED_TOLERANCE_FRAMES_PER_FLOW = 2
START_WINDOW_SLOTS = 10  # x 10 ms = the 0.1 s start window
#: The uniform-start rows: population sizes, the ones that must
#: suspend, and their traffic window.
UNIFORM_FLOWS = (300, 500, 1000)
UNIFORM_SUSPENDS = (300, 500)
UNIFORM_TRAFFIC_S = 8.0
UNIFORM_SAVED_SHARE_FLOOR = 0.9


def start_offset(rng: random.Random, index: int) -> float:
    """A start whose pacing keeps 2-7 ms clear of the governor's grid
    (anchored by flow 0); see the module docstring."""
    if index == 0:
        return 0.0
    slot = rng.randrange(START_WINDOW_SLOTS)
    return slot * 0.01 + rng.uniform(0.002, 0.007)


def uniform_offset(rng: random.Random, index: int) -> float:
    """An undealt start anywhere in the 0.1 s window."""
    return rng.uniform(0.0, 0.1)


def run_mode(fluid: bool, num_flows: int = NUM_FLOWS,
             traffic_s: float = TRAFFIC_S, offset=start_offset) -> dict:
    net = build_livesec_network(
        topology="linear",
        num_as=NUM_AS,
        hosts_per_as=HOSTS_PER_AS,
        idle_timeout_s=60.0,
        fluid=fluid,
    )
    net.start()
    rng = random.Random(19)
    hosts = net.topology.user_hosts
    flows = []
    dsts = []
    for index in range(num_flows):
        src, dst = rng.sample(hosts, 2)
        flow = CbrUdpFlow(
            net.sim, src, dst.ip,
            rate_bps=FLOW_RATE_BPS,
            packet_size=PACKET_SIZE,
            duration_s=traffic_s - 1.0,
            sport=30000 + index,
            dport=9000 + (index % 500),
        )
        # A tight start window: all-or-nothing suspension means every
        # flow stays at packet fidelity until the *last* one is warm,
        # and E19 measures the steady phase, not the ramp.
        flow.start(delay_s=offset(rng, index))
        flows.append(flow)
        dsts.append(dst)
    start = time.perf_counter()
    net.run(traffic_s)
    wall = time.perf_counter() - start
    delivered = [f.delivered_bytes(d) for f, d in zip(flows, dsts)]
    sent = [f.bytes_sent for f in flows]
    return {
        "mode": "fluid" if fluid else "packet",
        "wall_s": round(wall, 3),
        "events": net.sim.events_processed,
        "sent_bytes": sent,
        "delivered_bytes": delivered,
        "fluid_stats": net.fluid.stats() if net.fluid is not None else None,
    }


def run_uniform(num_flows: int) -> dict:
    """One uniform-start row: the fluid run, and the packet run beside
    it where the row must suspend."""
    fluid = run_mode(True, num_flows, UNIFORM_TRAFFIC_S, uniform_offset)
    stats = fluid["fluid_stats"]
    row = {
        "num_flows": num_flows,
        "fluid_wall_s": fluid["wall_s"],
        "fluid_events": fluid["events"],
        "time_saved_share": round(
            stats["time_saved_s"] / (UNIFORM_TRAFFIC_S - 1.0), 3),
        "refusals": stats["refusals"],
        "packet_wall_s": None,
        "delivered_equal": None,
    }
    if num_flows in UNIFORM_SUSPENDS:
        packet = run_mode(False, num_flows, UNIFORM_TRAFFIC_S, uniform_offset)
        row["packet_wall_s"] = packet["wall_s"]
        row["delivered_equal"] = (
            packet["delivered_bytes"] == fluid["delivered_bytes"])
    return row


def run_experiment():
    packet = run_mode(fluid=False)
    fluid = run_mode(fluid=True)
    per_flow_delta = [
        abs(p - f)
        for p, f in zip(packet["delivered_bytes"], fluid["delivered_bytes"])
    ]
    return {
        "num_flows": NUM_FLOWS,
        "traffic_s": TRAFFIC_S,
        "packet_wall_s": packet["wall_s"],
        "fluid_wall_s": fluid["wall_s"],
        "speedup": round(packet["wall_s"] / fluid["wall_s"], 2),
        "packet_events": packet["events"],
        "fluid_events": fluid["events"],
        "sent_equal": packet["sent_bytes"] == fluid["sent_bytes"],
        "max_delivered_delta_bytes": max(per_flow_delta),
        "fluid_stats": fluid["fluid_stats"],
        "uniform": [run_uniform(count) for count in UNIFORM_FLOWS],
    }


def report(results, out=sys.stderr):
    print(file=out)
    stats = results["fluid_stats"]
    print(
        format_table(
            # The kernel's own counts sit beside the wall-clock ratio
            # so a regression is attributable: more events, more
            # settles, or more clock pulls per settle.
            ["mode", "wall (s)", "events", "packets synthesized",
             "settles", "clock reads", "closed forms"],
            [
                ["packet", results["packet_wall_s"],
                 results["packet_events"], "-", "-", "-", "-"],
                ["fluid", results["fluid_wall_s"], results["fluid_events"],
                 stats["packets_synthesized"], stats["settles"],
                 stats["clock_reads"], stats["closed_forms"]],
                ["speedup", f'{results["speedup"]}x',
                 round(results["packet_events"]
                       / max(1, results["fluid_events"]), 1),
                 "-", "-", "-", "-"],
            ],
            title=f"E19: fluid fast-forward, {results['num_flows']} flows",
        ),
        file=out,
    )
    print(file=out)
    print(
        format_table(
            ["flows", "fluid wall (s)", "fluid events", "time saved share",
             "refusals", "packet wall (s)", "delivered == packet"],
            [
                [row["num_flows"], row["fluid_wall_s"], row["fluid_events"],
                 row["time_saved_share"],
                 ", ".join(f"{reason} {count}" for reason, count
                           in sorted(row["refusals"].items())) or "-",
                 "-" if row["packet_wall_s"] is None else row["packet_wall_s"],
                 "-" if row["delivered_equal"] is None
                 else row["delivered_equal"]]
                for row in results["uniform"]
            ],
            title=(f"uniform(0, 0.1) starts, {UNIFORM_TRAFFIC_S:g} sim-s:"
                   f" {', '.join(map(str, UNIFORM_SUSPENDS))} must suspend;"
                   f" the rest is the open cliff"),
        ),
        file=out,
    )


def check(results):
    assert results["sent_equal"], "emission schedules diverged"
    assert results["max_delivered_delta_bytes"] <= (
        DELIVERED_TOLERANCE_FRAMES_PER_FLOW * PACKET_SIZE
    ), results["max_delivered_delta_bytes"]
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        f"fluid speedup {results['speedup']}x below {SPEEDUP_FLOOR}x gate"
    )
    stats = results["fluid_stats"]
    assert stats["packets_synthesized"] > 0
    assert stats["time_saved_s"] > 0.5 * TRAFFIC_S
    for row in results["uniform"]:
        if row["num_flows"] in UNIFORM_SUSPENDS:
            assert row["time_saved_share"] >= UNIFORM_SAVED_SHARE_FLOOR, row
            assert row["delivered_equal"], row


def test_e19_fluid_fastforward(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    write_result("fluid", bench_results)
    check(bench_results)
