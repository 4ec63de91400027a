"""Controller introspection surfaces: status, counters, metric wiring.

The values all come from the one :class:`~repro.obs.MetricsRegistry`;
``controller.counters`` and ``controller.status()`` are typed reads of
it, not second copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, TYPE_CHECKING

from repro.obs import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import LiveSecController

# Diagnostic counter names as ``controller.counters`` keys them
# (registry metric: ``controller.<name>``).
LEGACY_COUNTER_NAMES = (
    "arp_in",
    "service_messages",
    "flows_installed",
    "flows_blocked",
    "transit_ignored",
    "orphan_chain_frames",
    "no_element_fallback",
    "routing_deferred",
    "conntrack_reports",
    # Shard fabric (all zero in single-controller deployments).
    "handoff_deferred",
    "remote_rules_sent",
    "remote_rules_dropped",
    "remote_rules_unowned",
    "remote_rules_applied",
    "sessions_handed_off",
    "sessions_adopted",
    "handoff_dropped",
    "handoff_duplicate",
)


@dataclass
class ControllerStatus:
    """Typed result of :meth:`LiveSecController.status`; the full
    metrics snapshot rides along as ``.metrics``."""

    nib: Dict[str, object]
    registry: Dict[str, object]
    sessions: int
    counters: Dict[str, int]
    events: int
    metrics: MetricsSnapshot

    def to_dict(self) -> dict:
        """The overview as a plain dict (everything but ``metrics``)."""
        return {
            key: getattr(self, key)
            for key in ("nib", "registry", "sessions", "counters", "events")
        }


def setup_controller_metrics(controller: "LiveSecController") -> None:
    """Register the controller's own metrics on its registry and hang
    the diagnostics counters and hot-path histograms off the instance."""
    registry = controller.metrics
    if hasattr(controller.sim, "attach_metrics"):
        controller.sim.attach_metrics(registry)
    controller.balancer.attach_metrics(registry)
    registry.gauge(
        "balancer.flows_assigned", "Live flow-to-element assignments"
    ).set_function(
        lambda: sum(len(s.element_macs) for s in controller.sessions)
    )
    controller._legacy_counters = {
        name: registry.counter(
            f"controller.{name}", f"Legacy diagnostics counter {name!r}"
        )
        for name in LEGACY_COUNTER_NAMES
    }
    # Hot-path latency histograms (wall clock: control-plane cost).
    controller._packet_in_hists = {
        kind: registry.histogram(
            "controller.packet_in_latency_s",
            "Wall-clock time spent handling one PacketIn",
            kind=kind,
        )
        for kind in ("arp", "dhcp", "service", "data")
    }
    registry.gauge(
        "controller.sessions_active", "Live (not torn down) sessions"
    ).set_function(lambda: len(controller.sessions))
    registry.gauge(
        "controller.hosts_known", "Hosts currently in the NIB"
    ).set_function(lambda: len(controller.nib.hosts))
    registry.gauge(
        "controller.policies", "Rows in the global policy table"
    ).set_function(lambda: len(controller.policies))
