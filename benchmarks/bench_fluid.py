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
The walk refuses the *whole* population while any hop holds a frame
(``queue-backlog``), and starts drawn from ``uniform(0, 0.1)`` always
leave one at 1000 flows: 301 refusals, nothing synthesized, 1.0x --
the bench then measured the phase lottery, not the kernel.  That
eligibility cliff is still open; it is a separate ``net.fluid`` issue.

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


def start_offset(rng: random.Random, index: int) -> float:
    """A start whose pacing keeps 2-7 ms clear of the governor's grid
    (anchored by flow 0); see the module docstring."""
    if index == 0:
        return 0.0
    slot = rng.randrange(START_WINDOW_SLOTS)
    return slot * 0.01 + rng.uniform(0.002, 0.007)


def run_mode(fluid: bool) -> dict:
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
    for index in range(NUM_FLOWS):
        src, dst = rng.sample(hosts, 2)
        flow = CbrUdpFlow(
            net.sim, src, dst.ip,
            rate_bps=FLOW_RATE_BPS,
            packet_size=PACKET_SIZE,
            duration_s=TRAFFIC_S - 1.0,
            sport=30000 + index,
            dport=9000 + (index % 500),
        )
        # A tight start window: all-or-nothing suspension means every
        # flow stays at packet fidelity until the *last* one is warm,
        # and E19 measures the steady phase, not the ramp.
        flow.start(delay_s=start_offset(rng, index))
        flows.append(flow)
        dsts.append(dst)
    start = time.perf_counter()
    net.run(TRAFFIC_S)
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


def test_e19_fluid_fastforward(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    write_result("fluid", bench_results)
    check(bench_results)
