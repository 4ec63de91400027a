"""Policy decisions: lookup, chain resolution, fail-mode arbitration.

A pure decision service (IV.A): given a first packet's nine-tuple and
its ingress host, produce the verdict the steering app enforces --
allow, drop, or steer through a resolved chain of service-element
waypoints.  Separating *decision* from *enforcement* is what lets the
failover path reuse exactly the same chain resolution the first-packet
path uses (and is the PEPS-style layering the refactor is after).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.apps.base import App, AppContext
from repro.core.bus import PolicyReloaded
from repro.core.events import EventKind
from repro.core.loadbalance import ElementLoad
from repro.core.nib import HostRecord
from repro.core.policy import FailMode, Policy, PolicyAction
from repro.net.packet import FlowNineTuple


@dataclass
class PolicyDecision:
    """What to do with one first packet.

    ``verdict`` is ``'allow'`` (install a plain two-hop session,
    possibly with a resolved ``waypoints`` chain) or ``'block'``
    (install an ingress drop).  ``policy_name`` labels the event-log
    line; ``policy`` rides along for rule parameters (inspect_reply).
    """

    verdict: str  # "allow" | "block"
    policy: Optional[Policy] = None
    waypoints: List[HostRecord] = field(default_factory=list)
    element_macs: Tuple[str, ...] = ()
    # Set when a chained service type had no healthy element: the fail
    # mode that produced the verdict (None: the chain resolved, or the
    # policy chains nothing).
    fail_mode: Optional[FailMode] = None

    @property
    def policy_name(self) -> str:
        return self.policy.name if self.policy is not None else "default"


class PolicyEngineApp(App):
    """Resolves policies into enforceable decisions."""

    name = "policy-engine"

    def __init__(self, ctx: AppContext):
        super().__init__(ctx)
        self._policy_scan_hist = ctx.metrics.histogram(
            "controller.policy_lookup_scans",
            "Policy-table rows scanned per first-packet lookup",
        )
        self.listen(PolicyReloaded, self.on_policy_reloaded)

    # ------------------------------------------------------------------
    # Policy lifecycle

    def on_policy_reloaded(self, event: PolicyReloaded) -> None:
        """Record the atomic swap in the event log: the new version and
        which policies came and went."""
        commit = event.commit
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.POLICY_CHANGED,
            version=commit.version,
            policies=commit.policies,
            added=list(commit.added),
            removed=list(commit.removed),
            source=commit.source,
        )

    # ------------------------------------------------------------------
    # First-packet decision

    def decide(self, flow: FlowNineTuple, src: HostRecord) -> PolicyDecision:
        """The full first-packet pipeline: match, resolve, fail-mode."""
        policy, scanned = self.ctx.policies.match(flow)
        self._policy_scan_hist.observe(scanned)
        if policy is not None:
            # Hit accounting is the engine's call, not the lookup's:
            # read-only consumers must not inflate hits.
            self.ctx.policies.record_hit(policy)
        action = (
            policy.action if policy is not None
            else self.ctx.policies.default_action
        )
        if action is PolicyAction.DROP:
            return PolicyDecision(verdict="block", policy=policy)
        if action is not PolicyAction.CHAIN:
            return PolicyDecision(verdict="allow", policy=policy)
        assert policy is not None
        decision = self.decide_chain(policy, flow, src)
        if decision.fail_mode is FailMode.OPEN:
            self.ctx.count("no_element_fallback")
        return decision

    # ------------------------------------------------------------------
    # Chain resolution (every steering trigger decides through here)

    def decide_chain(
        self, policy: Policy, flow: FlowNineTuple, src: HostRecord
    ) -> PolicyDecision:
        """Resolve ``policy``'s service chain for one flow, or apply its
        fail mode when a chained type has no healthy element: *closed*
        blocks, *open* allows the flow unsteered.  First packets,
        element failover, quarantine re-steer and cross-shard adoption
        all decide here, so they cannot drift apart."""
        resolved = self.resolve_chain(policy, flow, src)
        if resolved is None:
            fail_mode = self.effective_fail_mode(policy)
            return PolicyDecision(
                verdict="block" if fail_mode is FailMode.CLOSED else "allow",
                policy=policy, fail_mode=fail_mode,
            )
        waypoints, element_macs = resolved
        return PolicyDecision(
            verdict="allow", policy=policy,
            waypoints=waypoints, element_macs=tuple(element_macs),
        )

    def resolve_chain(
        self, policy: Policy, flow: FlowNineTuple, src: HostRecord
    ) -> Optional[Tuple[List[HostRecord], List[str]]]:
        """Pick one element per chained service type via the balancer.

        Nothing is charged here: an element's load is the live sessions
        the session table holds through it, so a chain that resolves
        only in part (or whose route is later deferred) loads nobody."""
        shard = self.ctx.controller.shard
        waypoints: List[HostRecord] = []
        element_macs: List[str] = []
        for service_type in policy.service_chain:
            located = self._candidates(
                self.ctx.registry.online_elements(service_type)
            )
            if not located and shard is not None:
                # Federated fallback: borrow a waypoint homed to another
                # shard (adopted into our NIB by the coordinator) only
                # when no local element of the type survives -- keeping
                # the common case O(local elements).
                located = self._candidates(
                    shard.coordinator.remote_candidates(shard, service_type)
                )
            if not located:
                self.ctx.balancer.release(element_macs)
                return None
            chosen = self.ctx.balancer.assign(
                located, flow,
                user=src.mac,
                granularity=policy.granularity,
            )
            record = self.ctx.nib.host_by_mac(chosen)
            assert record is not None
            waypoints.append(record)
            element_macs.append(chosen)
        return waypoints, element_macs

    def _candidates(self, rows) -> List[ElementLoad]:
        """The dispatchers' input, built here and nowhere else: one
        :class:`ElementLoad` per registry (or federated) row that the
        NIB can locate, with the session table's live count and the
        balancer's pending bias.

        Elements homed on a quarantined datapath (convicted by the
        accountability app) are never candidates: a compromised switch
        must not sit on the inspection path of new or re-steered
        sessions."""
        quarantined = self.ctx.controller.quarantined_dpids
        loads = []
        for row in rows:
            record = self.ctx.nib.host_by_mac(row.mac)
            if record is None or record.dpid in quarantined:
                continue
            loads.append(ElementLoad(
                mac=row.mac,
                reported_pps=row.pps,
                assigned_flows=self.ctx.sessions.load_of(row.mac),
                pending=self.ctx.balancer.pending(row.mac),
            ))
        return loads

    def effective_fail_mode(self, policy: Optional[Policy]) -> FailMode:
        """The fail mode governing a chained policy with no healthy
        element: the policy's own, else inherited from the controller's
        ``on_no_element`` default."""
        if policy is not None and policy.fail_mode is not None:
            return policy.fail_mode
        if self.ctx.controller.on_no_element == "drop":
            return FailMode.CLOSED
        return FailMode.OPEN
