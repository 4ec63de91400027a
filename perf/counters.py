"""Per-layer counts and outside probes, read after a run.

Nothing here reaches into the program: counts come from the public
metrics registry (``net.metrics_snapshot()``) and public attributes,
probes time calls into layers' public functions on the post-run state.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterable, List, Optional

from repro.net import packet as pkt

import stats
from layers import LAYERS

#: Every metric the benchmark can print: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "sessions_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

COUNTS = {
    "net.simulator.events": ("count", "lower"),
    "net.simulator.events_per_s": ("1/s", "higher"),
    "net.simulator.heap_compactions": ("count", "lower"),
    "net.links.tx_packets": ("count", "lower"),
    "net.links.dropped": ("count", "lower"),
    "net.fluid.fastforwards": ("count", "higher"),
    "net.fluid.time_saved_share": ("ratio", "higher"),
    "net.fluid.packets_synthesized": ("count", "higher"),
    "net.fluid.resumes": ("count", "lower"),
    "net.fluid.refusals": ("count", "lower"),
    "openflow.switch.packets_forwarded": ("count", "higher"),
    "openflow.switch.packets_dropped": ("count", "lower"),
    "openflow.switch.packet_ins": ("count", "lower"),
    "openflow.flowtable.lookups": ("count", "lower"),
    "openflow.flowtable.exact_hit_share": ("ratio", "higher"),
    "openflow.flowtable.misses": ("count", "lower"),
    "openflow.flowtable.entries_end": ("count", "lower"),
    "openflow.channel.flowmods_sent": ("count", "lower"),
    "openflow.channel.barriers_sent": ("count", "lower"),
    "openflow.channel.install_retries": ("count", "lower"),
    "openflow.channel.install_failures": ("count", "lower"),
    "openflow.channel.batch_size_p50": ("count", "higher"),
    "core.controller.packet_in_wall_ms_p50": ("ms", "lower"),
    "core.controller.packet_in_wall_ms_p99": ("ms", "lower"),
    "core.controller.flow_setup_wall_ms_p50": ("ms", "lower"),
    "core.controller.flow_setup_wall_ms_p95": ("ms", "lower"),
    "core.controller.routing_cache_hit_share": ("ratio", "higher"),
    "core.controller.policy_lookup_scans": ("count", "lower"),
    "core.apps.events_published": ("count", "lower"),
    "core.events.logged": ("count", "lower"),
    "core.events.segments": ("count", "lower"),
    "core.sharding.hellos": ("count", "lower"),
    "core.sharding.remote_rule_ops": ("count", "lower"),
    "core.sharding.handoff_sessions": ("count", "lower"),
    "core.sharding.busiest_shard_s": ("s", "lower"),
    "elements.processed_packets": ("count", "higher"),
    "elements.dropped_packets": ("count", "lower"),
    "elements.alerts": ("count", "higher"),
    "faults.affected_sessions": ("count", "lower"),
    "faults.recovered_sessions": ("count", "higher"),
}

PROBES = {
    "openflow.flowtable.lookup_us": ("us", "lower"),
    "core.controller.nib_digest_ms": ("ms", "lower"),
    "core.sharding.hello_ms": ("ms", "lower"),
    "core.events.query_us": ("us", "lower"),
    "core.events.replay_ms": ("ms", "lower"),
    "core.events.save_ms": ("ms", "lower"),
    "core.journal.replay_ms": ("ms", "lower"),
    "core.events.read_s": ("s", "lower"),
}

SIM = {
    "sim.goodput_mbps": ("Mb/s", "higher"),
    "sim.setup_ms_p50": ("ms", "lower"),
    "sim.setup_ms_p95": ("ms", "lower"),
    "sim.ttr_s_max": ("s", "lower"),
}

HOST = {
    "host.wall_raw_s": ("s", "lower"),
    "host.speed_factor": ("ratio", "higher"),
    "host.calibration_samples": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

LAYER_COLUMNS = {
    "self_s": ("s", "lower"),
    "share": ("ratio", "lower"),
    "calls": ("count", "lower"),
}


def per_layer_schema() -> Dict[str, tuple]:
    """Every ``--trace 1`` metric, in print order."""
    schema: Dict[str, tuple] = {}
    for layer in LAYERS:
        for column, spec in LAYER_COLUMNS.items():
            schema[f"{layer}.{column}"] = spec
    for group in (COUNTS, PROBES, SIM, HOST):
        schema.update(group)
    return schema


LOOKUP_PROBES = 2000


def _snapshots(workload) -> list:
    snapshots = [c.metrics.snapshot() for c in workload.controllers()]
    coordinator = getattr(workload.net, "coordinator", None)
    if coordinator is not None:
        snapshots.append(coordinator.metrics.snapshot())
    return snapshots


def _total(snapshots: Iterable, name: str) -> float:
    """A counter or gauge summed over every label set and registry."""
    return sum(
        metric.value
        for snapshot in snapshots for metric in snapshot
        if metric.name == name and metric.kind != "histogram"
    )


def _samples(snapshots: Iterable, name: str) -> List[float]:
    """A histogram's pooled reservoir over label sets and registries."""
    pooled: List[float] = []
    for snapshot in snapshots:
        for metric in snapshot:
            if metric.name == name and metric.kind == "histogram":
                pooled.extend(metric.samples)
    return pooled


def _percentile_ms(samples: List[float], p: float) -> Optional[float]:
    try:
        return stats.percentile(samples, p) * 1e3
    except ValueError:
        return None


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _all_nodes(net) -> list:
    topology = net.topology
    return (list(topology.hosts) + list(topology.all_openflow_switches())
            + list(topology.legacy) + list(net.elements))


def collect_counts(workload, wall_raw_s: float) -> Dict[str, Optional[float]]:
    """The ``COUNTS`` table for a finished run."""
    net = workload.net
    snapshots = _snapshots(workload)
    sim = net.sim
    counts: Dict[str, Optional[float]] = {
        "net.simulator.events": sim.events_processed,
        "net.simulator.events_per_s": _share(sim.events_processed, wall_raw_s),
        "net.simulator.heap_compactions": sim.heap_compactions,
    }

    tx_packets = dropped = 0
    for node in _all_nodes(net):
        for port in node.ports.values():
            if port.link is not None:
                direction = port.link.stats(port)
                tx_packets += direction["tx_packets"]
                dropped += direction["dropped"]
    counts["net.links.tx_packets"] = tx_packets
    counts["net.links.dropped"] = dropped

    fluid = getattr(net, "fluid", None)
    fluid_stats = fluid.stats() if fluid is not None else {}
    counts["net.fluid.fastforwards"] = fluid_stats.get("fastforwards", 0)
    counts["net.fluid.time_saved_share"] = _share(
        fluid_stats.get("time_saved_s", 0.0), workload.sim_duration_s
    )
    counts["net.fluid.packets_synthesized"] = fluid_stats.get(
        "packets_synthesized", 0
    )
    counts["net.fluid.resumes"] = fluid_stats.get("resumes", 0)
    counts["net.fluid.refusals"] = sum(
        fluid_stats.get("refusals", {}).values()
    )

    switches = net.topology.all_openflow_switches()
    counts["openflow.switch.packets_forwarded"] = sum(
        s.packets_forwarded for s in switches
    )
    counts["openflow.switch.packets_dropped"] = sum(
        s.packets_dropped for s in switches
    )
    counts["openflow.switch.packet_ins"] = sum(s.packet_ins for s in switches)
    lookups = sum(s.table.lookups for s in switches)
    counts["openflow.flowtable.lookups"] = lookups
    counts["openflow.flowtable.exact_hit_share"] = _share(
        sum(s.table.exact_hits for s in switches), lookups
    )
    counts["openflow.flowtable.misses"] = sum(s.table.misses for s in switches)
    counts["openflow.flowtable.entries_end"] = sum(
        len(s.table) for s in switches
    )

    for short in ("flowmods_sent", "barriers_sent", "install_retries",
                  "install_failures"):
        counts[f"openflow.channel.{short}"] = _total(
            snapshots, f"controller.{short}"
        )
    batch = _samples(snapshots, "controller.install_batch_size")
    counts["openflow.channel.batch_size_p50"] = (
        stats.quartiles(batch)[1] if batch else None
    )

    packet_in = _samples(snapshots, "controller.packet_in_latency_s")
    counts["core.controller.packet_in_wall_ms_p50"] = _percentile_ms(packet_in, 50)
    counts["core.controller.packet_in_wall_ms_p99"] = _percentile_ms(packet_in, 99)
    flow_setup = _samples(snapshots, "controller.flow_setup_wall_s")
    counts["core.controller.flow_setup_wall_ms_p50"] = _percentile_ms(flow_setup, 50)
    counts["core.controller.flow_setup_wall_ms_p95"] = _percentile_ms(flow_setup, 95)
    hits = _total(snapshots, "controller.routing_cache_hits")
    misses = _total(snapshots, "controller.routing_cache_misses")
    counts["core.controller.routing_cache_hit_share"] = _share(hits, hits + misses)
    counts["core.controller.policy_lookup_scans"] = sum(
        metric.sum
        for snapshot in snapshots for metric in snapshot
        if metric.name == "controller.policy_lookup_scans"
    )

    counts["core.apps.events_published"] = _total(
        snapshots, "bus.events_published"
    )
    counts["core.events.logged"] = _total(snapshots, "eventlog.events")
    counts["core.events.segments"] = _total(snapshots, "eventlog.segments")

    for short in ("hellos", "remote_rule_ops", "handoff_sessions"):
        counts[f"core.sharding.{short}"] = _total(snapshots, f"sharding.{short}")
    counts["core.sharding.busiest_shard_s"] = _busiest_shard_s(
        net, counts["core.sharding.hellos"]
    )

    counts["elements.processed_packets"] = sum(
        e.processed_packets for e in net.elements
    )
    counts["elements.dropped_packets"] = sum(
        e.dropped_packets for e in net.elements
    )
    counts["elements.alerts"] = sum(e.events_sent for e in net.elements)

    summary = workload.injector_summary() or {}
    counts["faults.affected_sessions"] = summary.get("affected_sessions", 0)
    counts["faults.recovered_sessions"] = summary.get("recovered_sessions", 0)
    return counts


def _busiest_shard_s(net, hellos: float) -> float:
    """E18's critical-path model: the busiest shard's PacketIn handling
    plus its share of the digest hellos, each hello timed now."""
    members = getattr(net, "members", None)
    if not members:
        return 0.0
    rounds = hellos / len(members)
    busiest = 0.0
    for member in members:
        busy = sum(
            metric.sum for metric in member.controller.metrics.snapshot()
            if metric.name == "controller.packet_in_latency_s"
        )
        started = time.perf_counter()
        member.hello(net.sim.now)
        busy += (time.perf_counter() - started) * rounds
        busiest = max(busiest, busy)
    return busiest


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return stats.quartiles(samples)[1]


def _lookup_frames(switch, rng: random.Random) -> List[tuple]:
    """Seeded ``(frame, in_port)`` probes for one switch: half rebuilt
    from installed exact UDP entries (hits), half random (misses)."""
    probes: List[tuple] = []
    exact = [
        entry.match for entry in switch.table.entries()
        if entry.match.nw_proto == pkt.IP_PROTO_UDP
        and None not in (entry.match.dl_src, entry.match.dl_dst,
                         entry.match.nw_src, entry.match.nw_dst,
                         entry.match.tp_src, entry.match.tp_dst)
    ]
    ports = sorted(switch.ports) or [1]
    for index in range(LOOKUP_PROBES):
        if exact and index % 2 == 0:
            match = rng.choice(exact)
            frame = pkt.make_udp(
                match.dl_src, match.dl_dst, match.nw_src, match.nw_dst,
                match.tp_src, match.tp_dst, b"", 250, vlan=match.dl_vlan,
            )
            in_port = match.in_port if match.in_port is not None else ports[0]
        else:
            frame = pkt.make_udp(
                pkt.mac_address(rng.randrange(1, 4096)),
                pkt.mac_address(rng.randrange(1, 4096)),
                pkt.ip_address(rng.randrange(1, 4096)),
                pkt.ip_address(rng.randrange(1, 4096)),
                rng.randrange(1024, 65536), rng.randrange(1024, 65536),
                b"", 250,
            )
            in_port = rng.choice(ports)
        probes.append((frame, in_port))
    return probes


def run_probes(workload, seed: int) -> Dict[str, Optional[float]]:
    """The ``PROBES`` table: public calls timed on the post-run state
    (the read-phase rows are filled by the workload that has one)."""
    net = workload.net
    rng = random.Random(seed)
    probes: Dict[str, Optional[float]] = {name: None for name in PROBES}

    fullest = max(net.topology.all_openflow_switches(),
                  key=lambda s: len(s.table))
    frames = _lookup_frames(fullest, rng)
    now = net.sim.now
    started = time.perf_counter()
    for frame, in_port in frames:
        fullest.table.lookup(frame, in_port, now)
    probes["openflow.flowtable.lookup_us"] = (
        (time.perf_counter() - started) / len(frames) * 1e6
    )

    controllers = workload.controllers()
    largest = max(controllers, key=lambda c: len(c.nib.hosts))
    probes["core.controller.nib_digest_ms"] = _median_time(
        largest.nib.location_digest, 5
    ) * 1e3

    members = getattr(net, "members", None)
    if members:
        member = max(members, key=lambda m: len(m.controller.nib.hosts))
        probes["core.sharding.hello_ms"] = _median_time(
            lambda: member.hello(now), 5
        ) * 1e3

    probes.update(workload.read_timings)
    return probes
