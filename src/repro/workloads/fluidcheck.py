"""Oracle-equivalence harness for the fluid fast-forward kernel.

The packet-level simulator is the oracle; :func:`run_mix` builds one
deterministic deployment + randomized CBR mix and runs it either at
pure packet fidelity or with a :class:`~repro.net.fluid.FluidRegion`
attached.  :func:`compare_modes` runs both and diffs the observables
the kernel promises to preserve:

* per-flow delivered bytes and frames at the destination hosts,
* per-flow sent packets/bytes and final running state,
* the control-plane event-log digest (lifecycle events only --
  ``SAMPLE_KINDS`` load samples lead/lag by in-flight packets).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.deployment import build_livesec_network
from repro.core.events import SAMPLE_KINDS, EventKind
from repro.workloads.flows import CbrUdpFlow

#: Drain margin after the last flow may stop: idle timeout (5 s
#: default) + expiry sweep (1 s) + controller/teardown slack, so every
#: session's FLOW_END lands inside the measured window in both modes.
DRAIN_S = 7.5

_PACKET_SIZES = (256, 512, 800, 1500)


@dataclass
class MixResult:
    """Everything equivalence assertions need from one run."""

    mode: str
    flows: List[Dict[str, object]] = field(default_factory=list)
    control_digest: str = ""
    lifecycle_digest: str = ""  # control digest minus flow-end stats
    flow_ends: List[tuple] = field(default_factory=list)
    full_digest: str = ""
    events_processed: int = 0
    fluid_stats: Optional[dict] = None

    def outcome_table(self) -> List[tuple]:
        """The comparable per-flow record (stable across runs)."""
        return [
            (
                row["index"], row["sent_packets"], row["sent_bytes"],
                row["delivered_frames"], row["delivered_bytes"],
                row["running"],
            )
            for row in self.flows
        ]


def run_mix(
    seed: int,
    fluid: bool,
    num_as: int = 3,
    hosts_per_as: int = 2,
    num_flows: int = 8,
    traffic_s: float = 4.0,
    max_rate_bps: float = 4e6,
    link_flap: bool = False,
    congestion: str = "refuse",
) -> MixResult:
    """One seeded CBR mix, at packet fidelity or with fluid attached.

    Flow parameters (endpoints, rates, sizes, start/stop times) are
    drawn from ``random.Random(seed)`` so a (seed, config) pair builds
    the identical wire workload in both modes.  ``link_flap`` downs a
    core-facing access link mid-run and restores it, exercising both
    the drop path and the fault materialization hook.
    """
    net = build_livesec_network(
        topology="linear",
        num_as=num_as,
        hosts_per_as=hosts_per_as,
        fluid=fluid,
        fluid_config={"congestion": congestion},
    )
    net.start()
    rng = random.Random(seed)
    hosts = net.topology.user_hosts

    flows = []
    dsts = []
    for index in range(num_flows):
        src, dst = rng.sample(hosts, 2)
        # Durations all end within the traffic window, so no session
        # outlives another's idle expiry by enough for a data-path
        # (rather than sweep) eviction -- see DESIGN.md on FlowRemoved
        # quantization.
        duration = rng.uniform(0.8, traffic_s - 0.5)
        flow = CbrUdpFlow(
            net.sim, src, dst.ip,
            rate_bps=rng.uniform(0.2e6, max_rate_bps),
            packet_size=rng.choice(_PACKET_SIZES),
            duration_s=duration,
            sport=30000 + index,  # what the pinned `repro fluid` digests carry
            dport=9000 + index,
        )
        flow.start(delay_s=rng.uniform(0.0, 0.4))
        flows.append(flow)
        dsts.append(dst)

    if link_flap:
        # Flap one access switch's host-side link: every packet on it
        # drops while down, and the fluid region must materialize on
        # both transitions.  Timed identically in either mode.
        victim = hosts[0].ports[1].link
        down_at = net.sim.now + traffic_s * 0.4
        net.sim.post_at(down_at, victim.set_up, False)
        net.sim.post_at(down_at + 0.3, victim.set_up, True)

    net.run(traffic_s + DRAIN_S)

    result = MixResult(mode="fluid" if fluid else "packet")
    for index, (flow, dst) in enumerate(zip(flows, dsts)):
        result.flows.append({
            "index": index,
            "sent_packets": flow.packets_sent,
            "sent_bytes": flow.bytes_sent,
            "delivered_frames": dst.rx_frames_by_flow.get(flow.flow_id, 0),
            "delivered_bytes": flow.delivered_bytes(dst),
            "running": flow.running,
        })
    log = net.controller.log
    result.control_digest = log.control_digest()
    result.lifecycle_digest = log.digest(
        exclude_kinds=set(SAMPLE_KINDS) | {EventKind.FLOW_END}
    )
    result.flow_ends = [
        (event.time, event.data.get("session"), event.data.get("user_mac"),
         event.data.get("duration"), event.data.get("packets"),
         event.data.get("bytes"))
        for event in log.all() if event.kind == EventKind.FLOW_END
    ]
    result.full_digest = log.digest()
    result.events_processed = net.sim.events_processed
    if net.fluid is not None:
        result.fluid_stats = net.fluid.stats()
    return result


def compare_modes(
    seed: int, delivered_tolerance_frames: int = 0, **kwargs
) -> Dict[str, object]:
    """Run the same mix under both kernels and diff the observables.

    Sent packets/bytes and final flow state must always be identical.
    Delivered and forwarded counts are exact too, except across a
    fault boundary: delivery is credited at emission, so packets in
    flight when a link-admin fault lands are credited analytically
    while the oracle may drop them mid-path.  Fault scenarios
    therefore pass a small ``delivered_tolerance_frames`` (the
    bandwidth-delay product of the path, in packets -- typically 1-2).
    The same in-flight frames can reach the switches' per-entry
    counters, so with a nonzero tolerance the digest comparison
    excludes FLOW_END events and instead diffs them field-by-field,
    exact on timing/session/duration and tolerant only on the
    packet/byte stats.
    """
    packet = run_mix(seed, fluid=False, **kwargs)
    fluid = run_mix(seed, fluid=True, **kwargs)
    mismatches = []
    for row_p, row_f in zip(packet.outcome_table(), fluid.outcome_table()):
        if row_p == row_f:
            continue
        sent_p, sent_f = row_p[:3] + row_p[5:], row_f[:3] + row_f[5:]
        frames_delta = abs(row_p[3] - row_f[3])
        if sent_p == sent_f and frames_delta <= delivered_tolerance_frames:
            continue
        mismatches.append({"packet": row_p, "fluid": row_f})
    if delivered_tolerance_frames == 0:
        digests_equal = packet.control_digest == fluid.control_digest
    else:
        digests_equal = (
            packet.lifecycle_digest == fluid.lifecycle_digest
            and _flow_ends_match(
                packet.flow_ends, fluid.flow_ends,
                delivered_tolerance_frames,
            )
        )
    return {
        "seed": seed,
        "packet": packet,
        "fluid": fluid,
        "flow_mismatches": mismatches,
        "digests_equal": digests_equal,
        "equivalent": not mismatches and digests_equal,
    }


def _flow_ends_match(
    ends_p: List[tuple], ends_f: List[tuple], tolerance_frames: int
) -> bool:
    """FLOW_END events under fault tolerance: timing, session identity
    and duration must be exact; the packet/byte stats may differ by
    the in-flight frames (bytes bounded by a max-size frame each)."""
    if len(ends_p) != len(ends_f):
        return False
    for row_p, row_f in zip(ends_p, ends_f):
        if row_p[:4] != row_f[:4]:
            return False
        if abs(row_p[4] - row_f[4]) > tolerance_frames:
            return False
        if abs(row_p[5] - row_f[5]) > tolerance_frames * 1500:
            return False
    return True
