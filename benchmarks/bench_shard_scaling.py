"""E18 (shard fabric: control-plane scaling at the 100k-user point).

The sharding refactor's reason to exist: one LiveSec controller owns
the whole dpid space, so every punt and every liveness scan runs on
one core.  Partitioning the fabric into N shards puts 1/N of the
switches -- and, in a balanced campus, 1/N of the users -- behind each
controller process.

The deployment is a 16-switch linear fabric carrying 100k+ simulated
users (synthetic NIB residents, spread evenly over the edge), with a
burst of brand-new flows punting through the usual steering pipeline.
Because the simulator is single-threaded, the aggregate rate uses the
critical-path model of a sharded control plane: each shard is its own
process, so the fabric's session-setup throughput is the total number
of sessions divided by the *busiest* shard's control-plane time --
wall-clock PacketIn handling (the controller's own latency histograms)
plus the periodic hellos it paid for during the run
(``sharding.hello_wall_s``).  A hello carries the NIB's location
*version* and reads no host row, so that term is microseconds whatever
the population; while it carried a digest of the rows, the one-shard
row paid a 100k-row rehash that eight shards split eight ways, and part
of the measured speedup was that split.

The **churn table** counts what a sync round reads: ``CHURN_ROUNDS``
rounds on one shard of two with *k* hosts joining between rounds, at a
small and at the full population on that shard -- host rows hashed by the round (none) and
the hello's wall per round, beside what a round that called
``nib.location_digest()`` (a *digest-carrying* hello) would read and
cost: every resident row, whenever one row moved.

Runs standalone (``python benchmarks/bench_shard_scaling.py`` with
``PYTHONPATH=src``) for ``make bench-smoke``, writing
``BENCH_shard_scaling.json`` at the repo root, or under
pytest-benchmark like every other bench file.
"""

import gc
import sys
import time

from repro.core.deployment import build_livesec_network
from repro.analysis import format_table
from repro.core.sharding import SYNC_INTERVAL_S
from repro.net.topologies import GATEWAY_IP
from repro.workloads import CbrUdpFlow
from repro.workloads.scenarios import gateway_ids_policies

from common import run_once, write_result

SHARD_COUNTS = (1, 2, 4, 8)
NUM_SWITCHES = 16
USERS = 100_000
FLOWS = 1_200
FLOW_SPACING_S = 0.003
SPEEDUP_FLOOR_AT_8 = 3.0
CHURN_POPULATIONS = (1_000, USERS)
CHURN_JOINS = (0, 1, 100)
CHURN_ROUNDS = 20

PACKET_KINDS = ("arp", "dhcp", "service", "data")


def _populate_users(net, first: int = 0, count: int = USERS,
                    switches: int = NUM_SWITCHES) -> None:
    """Adopt ``count`` synthetic residents (numbered from ``first``)
    into the owning shards' NIBs, round-robin over the first
    ``switches`` of the edge -- USERS of them over all of it is the
    100k-user scale point."""
    for index in range(first, first + count):
        dpid = (index % switches) + 1
        net.owner(dpid).adopt_host(
            "02:fe:{:02x}:{:02x}:{:02x}:{:02x}".format(
                (index >> 24) & 0xFF, (index >> 16) & 0xFF,
                (index >> 8) & 0xFF, index & 0xFF,
            ),
            "172.{}.{}.{}".format(
                16 + (index >> 16), (index >> 8) & 0xFF, index & 0xFF
            ),
            dpid,
            2000 + index,
        )


def _shard_busy_seconds(controller, fabric) -> float:
    """One controller's control-plane seconds, both as measured during
    the run: PacketIn handling plus, on a fabric, the hellos of every
    sync round."""
    snapshot = controller.metrics.snapshot()
    busy = 0.0
    for kind in PACKET_KINDS:
        metric = snapshot.get("controller.packet_in_latency_s", kind=kind)
        if metric is not None:
            busy += metric.sum
    if controller.shard is None:
        return busy
    hellos = fabric.get("sharding.hello_wall_s",
                        shard=controller.shard.shard_id)
    return busy + (hellos.sum if hellos is not None else 0.0)


def _populated_fabric(num_shards: int, residents: int = USERS,
                      switches: int = NUM_SWITCHES):
    """The started 16-switch fabric with its residents adopted over the
    first ``switches`` of the edge."""
    net = build_livesec_network(
        num_shards=num_shards,
        topology="linear",
        policies=gateway_ids_policies,
        elements=[("ids", NUM_SWITCHES)],
        num_as=NUM_SWITCHES,
        hosts_per_as=1,
    )
    net.start()
    _populate_users(net, count=residents, switches=switches)
    return net


def run_config(num_shards: int) -> dict:
    net = _populated_fabric(num_shards)
    # One simulator process holds every shard's heap.  A full
    # collection would scan all N resident populations and land inside
    # whichever shard's PacketIn span is open -- a pause no shard of
    # the modelled deployment (one process each, 1/N of the residents)
    # pays, and one the max over shards picks up more often as N grows.
    # Parking the populated heap keeps young-object collections charged
    # and the residents out of them.
    gc.collect()
    gc.freeze()
    hosts = net.topology.user_hosts
    before = net.total_sessions_created()
    flows = []
    for index in range(FLOWS):
        host = hosts[index % len(hosts)]
        flow = CbrUdpFlow(
            net.sim, host, GATEWAY_IP, rate_bps=1e6,
            sport=30000 + index, max_packets=4,
        )
        flow.start(delay_s=index * FLOW_SPACING_S)
        flows.append(flow)
    net.run(FLOWS * FLOW_SPACING_S + 3.0)
    gc.unfreeze()

    sessions = net.total_sessions_created() - before
    fabric = net.metrics.snapshot()
    counters = fabric.counters()
    busiest = max(
        _shard_busy_seconds(controller, fabric)
        for controller in net.controllers
    )
    hosts_known = sum(len(c.nib.hosts) for c in net.controllers)
    return {
        "shards": num_shards,
        "hosts": hosts_known,
        "sessions": sessions,
        "busiest_shard_s": round(busiest, 4),
        "sessions_per_s": round(sessions / busiest, 1),
        "remote_rule_ops": int(counters.get("sharding.remote_rule_ops", 0)),
    }


class _DigestMeter:
    """Counts the host rows ``nib.location_digest`` reads: every one on
    a call after ``location_version`` moved, none on a memo hit."""

    def __init__(self, nib):
        self.nib = nib
        self.digest = nib.location_digest
        self.hashed_version = None
        self.rows = 0
        nib.location_digest = self

    def __call__(self) -> str:
        if self.hashed_version != self.nib.location_version:
            self.hashed_version = self.nib.location_version
            self.rows += len(self.nib.hosts)
        return self.digest()


def run_churn(population: int) -> list:
    """Shard 0 of two holding ``population`` residents (all on its own
    switches); per *k* in CHURN_JOINS, CHURN_ROUNDS sync rounds with *k*
    joins before each."""
    own = NUM_SWITCHES // 2  # shard 0's half of the contiguous split
    net = _populated_fabric(2, residents=population, switches=own)
    meter = _DigestMeter(net.controller.nib)

    def hello_seconds() -> float:
        return net.metrics.snapshot().get("sharding.hello_wall_s", shard=0).sum

    def hellos() -> int:
        return net.metrics.snapshot().get(
            "sharding.hello_wall_s", shard=0
        ).count

    meter.nib.location_digest()  # the planted rows, memoised
    joined = population
    rows = []
    for joins in CHURN_JOINS:
        rows_before, seconds_before = meter.rows, hello_seconds()
        hellos_before = hellos()
        digest_rows = digest_s = 0
        for _ in range(CHURN_ROUNDS):
            _populate_users(net, first=joined, count=joins, switches=own)
            joined += joins
            net.run(SYNC_INTERVAL_S)
            # What a digest-carrying hello adds to this round.
            before, started = meter.rows, time.perf_counter()
            meter.nib.location_digest()
            digest_s += time.perf_counter() - started
            digest_rows += meter.rows - before
        round_rows = meter.rows - rows_before - digest_rows
        round_s = hello_seconds() - seconds_before
        assert hellos() - hellos_before == CHURN_ROUNDS  # one round a step
        rows.append({
            "residents": population,
            "joins_per_round": joins,
            "rows_read_per_round": round_rows / CHURN_ROUNDS,
            "round_ms": round(1e3 * round_s / CHURN_ROUNDS, 4),
            "digest_rows_read_per_round": digest_rows / CHURN_ROUNDS,
            "digest_round_ms": round(
                1e3 * (round_s + digest_s) / CHURN_ROUNDS, 4
            ),
        })
    return rows


def run_experiment():
    scaling = [run_config(num_shards) for num_shards in SHARD_COUNTS]
    base = scaling[0]["sessions_per_s"]
    for row in scaling:
        row["speedup"] = round(row["sessions_per_s"] / base, 2)
    churn = [
        row for population in CHURN_POPULATIONS
        for row in run_churn(population)
    ]
    return {"scaling": scaling, "churn": churn}


def report(results, out=sys.stderr):
    print(file=out)
    print(
        format_table(
            ["shards", "users", "sessions", "busiest shard (s)",
             "agg sessions/s", "speedup", "remote rule ops"],
            [
                [r["shards"], r["hosts"], r["sessions"],
                 r["busiest_shard_s"], r["sessions_per_s"],
                 f'{r["speedup"]}x', r["remote_rule_ops"]]
                for r in results["scaling"]
            ],
            title="E18: session-setup throughput vs shard count"
                  " (critical-path model)",
        ),
        file=out,
    )
    print(file=out)
    print(
        format_table(
            ["residents", "joins/round", "rows read/round", "hello ms/round",
             "digest hello: rows read/round", "digest hello: ms/round"],
            [
                [r["residents"], r["joins_per_round"],
                 r["rows_read_per_round"], r["round_ms"],
                 r["digest_rows_read_per_round"], r["digest_round_ms"]]
                for r in results["churn"]
            ],
            title=f"E18: what a sync round reads under churn"
                  f" ({CHURN_ROUNDS} rounds, shard 0 of two)",
        ),
        file=out,
    )


def check(results):
    by_shards = {r["shards"]: r for r in results["scaling"]}
    for r in results["scaling"]:
        # The scale point is real: >= 100k users resident in the NIBs,
        # and every run sets up the full flow burst.
        assert r["hosts"] >= USERS, r
        assert r["sessions"] >= FLOWS, r
    # Each doubling must help, and the fabric must clear the 3x floor
    # at 8 shards -- near-linear scaling, net of handoff/remote-rule
    # overhead and shard imbalance.
    previous = 0.0
    for num_shards in SHARD_COUNTS:
        rate = by_shards[num_shards]["sessions_per_s"]
        assert rate > previous, by_shards[num_shards]
        previous = rate
    assert by_shards[8]["sessions_per_s"] >= (
        SPEEDUP_FLOOR_AT_8 * by_shards[1]["sessions_per_s"]
    ), (by_shards[1], by_shards[8])
    # Counted, not timed: no round reads a host row, whatever the
    # population and the churn; a digest would read all of them
    # whenever one moved.
    for r in results["churn"]:
        assert r["rows_read_per_round"] == 0, r
        if r["joins_per_round"]:
            assert r["digest_rows_read_per_round"] >= r["residents"], r
        else:
            assert r["digest_rows_read_per_round"] == 0, r


def test_e18_shard_scaling(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    write_result("shard_scaling", bench_results)
    check(bench_results)
