"""One-call assembly of a complete LiveSec network.

:func:`build_livesec_network` wires a physical topology, the LiveSec
controller -- or N controller shards -- with its secure channels, and
a fleet of provisioned service elements into a ready-to-run
:class:`LiveSecNetwork`.  This is
the programmatic equivalent of the paper's Section V.A deployment
procedure and the entry point every example and benchmark uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.controller import LiveSecController
from repro.core.policy import PolicyCommit, PolicyTable
from repro.core.policy_io import load_policies
from repro.core.sharding import (
    ShardCoordinator,
    ShardMap,
    ShardMember,
    combined_digest,
)
from repro.core.visualization import MonitoringComponent
from repro.elements import ELEMENT_TYPES
from repro.elements.base import ServiceElement
from repro.net.fattree import fat_tree_topology
from repro.net.fluid import FluidRegion
from repro.net.host import Host
from repro.net.node import connect
from repro.net.simulator import Simulator
from repro.net.topologies import Topology, fit_building, linear, star
from repro.obs import MetricsSnapshot
from repro.openflow.channel import SecureChannel
from repro.openflow.switch import OpenFlowSwitch

DEFAULT_WARMUP_S = 1.5
ELEMENT_LINK_BPS = 1e9  # VM virtio into the local OvS


@dataclass
class LiveSecNetwork:
    """A running LiveSec deployment: substrate + controllers + elements.

    One controller owns every datapath, or ``N > 1`` controller shards
    split them: each :class:`~repro.core.sharding.ShardMember` in
    ``members`` wraps a full ``LiveSecController`` (its own EventBus,
    apps, NIB, metrics, event log), and the only shared objects are the
    simulator, the physical topology and the
    :class:`~repro.core.sharding.ShardCoordinator` running the
    inter-shard protocol.  On one controller ``coordinator`` and
    ``shard_map`` are ``None`` and ``members`` is empty.
    """

    sim: Simulator
    topology: Topology
    #: The one controller, or shard 0's on a fabric.
    controller: LiveSecController
    shard_map: Optional[ShardMap] = None
    coordinator: Optional[ShardCoordinator] = None
    members: List[ShardMember] = field(default_factory=list)
    # The WebUI view folds one controller's log: ``None`` on a fabric.
    monitoring: Optional[MonitoringComponent] = None
    elements: List[ServiceElement] = field(default_factory=list)
    channels: Dict[int, SecureChannel] = field(default_factory=dict)
    # The attached fast-forward region when built with ``fluid=True``.
    fluid: Optional[FluidRegion] = None
    started: bool = False

    @property
    def controllers(self) -> List[LiveSecController]:
        """Every controller, in shard order."""
        if self.coordinator is None:
            return [self.controller]
        return [member.controller for member in self.members]

    @property
    def metrics(self):
        """The registry deployment-wide instruments register on: the
        controller's, or the fabric's (each shard keeps its own)."""
        if self.coordinator is not None:
            return self.coordinator.metrics
        return self.controller.metrics

    def owner(self, dpid: int) -> LiveSecController:
        """The controller currently holding this datapath's channel
        (tracks re-homing); ``owner(dpid).shard`` is its member."""
        if self.coordinator is None:
            return self.controller
        member = self.coordinator.member_by_id.get(
            self.shard_map.assignments.get(dpid)
        )
        if member is None:
            raise KeyError(f"no shard member owns dpid {dpid}")
        return member.controller

    # perf/workloads.py's name for owner(); ROADMAP item 4 renames the
    # call there and deletes this line.
    member_of = owner

    # ------------------------------------------------------------------
    # Read surface

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Every registry of the deployment -- each controller's, then
        the fabric's -- merged into one snapshot: counters add up,
        histograms pool their samples."""
        registries = [controller.metrics for controller in self.controllers]
        if self.coordinator is not None:
            registries.append(self.coordinator.metrics)
        snapshot = registries[0].snapshot()
        for registry in registries[1:]:
            snapshot = snapshot.merge(registry.snapshot())
        return snapshot

    def event_digest(self) -> str:
        """The determinism digest two same-seed runs must agree on: the
        controller's log, or every shard's plus the coordinator's."""
        if self.coordinator is None:
            return self.controller.log.digest()
        return combined_digest(self.members, self.coordinator)

    def event_lines(self) -> List[str]:
        """One line per logged event, in digest order (on a fabric,
        shard order first and the coordinator's last)."""
        if self.coordinator is None:
            return [str(event) for event in self.controller.log.all()]
        lines = [
            f"shard{member.shard_id} {event}"
            for member in self.members
            for event in member.controller.log.all()
        ]
        lines.extend(f"fabric {event}" for event in self.coordinator.log.all())
        return lines

    def total_sessions_created(self) -> int:
        return sum(c.sessions.created for c in self.controllers)

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self, warmup_s: float = DEFAULT_WARMUP_S) -> None:
        """Run topology discovery to convergence, then bring hosts up.

        After ``start()`` returns, every controller's NIB holds its
        slice of the logical topology (cross-shard links included) and
        its hosts' and elements' locations: first packets route at once.
        """
        if self.started:
            raise RuntimeError("already started")
        self.started = True
        # Phase 1: LLDP discovery over the AS layer.
        self.sim.run(until=self.sim.now + warmup_s)
        # Phase 2: announce elements (their daemons have been reporting
        # already; re-announce so the legacy fabric learns their MACs
        # now that uplinks are known), then hosts.
        for controller in self.controllers:
            controller.refresh_announcements()
        for host in self.topology.hosts:
            host.announce()
        self.sim.run(until=self.sim.now + 0.5)

    def run(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        self.sim.run(until=self.sim.now + duration_s)

    def reload_policies(self, source) -> List[PolicyCommit]:
        """Hot-swap the policy table from ``source`` (what
        ``check_policies`` reads) at every shard count.  It compiles and
        verifies once -- error findings raise
        :class:`~repro.core.policy_compiler.PolicyConflictError` and
        every table keeps serving -- then commits the one artifact on
        each live controller, in shard order, and each re-decides the
        live sessions of its own book the commit changes.  Returns the
        commits."""
        from repro.core.policy_compiler import PolicyConflictError

        result = self.controller.check_policies(source)
        if not result.ok:
            raise PolicyConflictError(result.errors)
        label = source if isinstance(source, str) else "reload"
        live = self.controllers if self.coordinator is None else [
            member.controller for member in self.coordinator.live_members()
        ]
        return [
            controller.policies.apply_compiled(
                result.table, source=f"reload:{label}"
            )
            for controller in live
        ]

    # ------------------------------------------------------------------
    # Element management

    def add_element(
        self,
        element_type: str,
        switch: OpenFlowSwitch,
        name: Optional[str] = None,
        **element_kwargs,
    ) -> ServiceElement:
        """Create, wire, and provision one VM-based service element
        (certified by whichever controller owns its switch)."""
        try:
            factory = ELEMENT_TYPES[element_type]
        except KeyError:
            raise ValueError(
                f"unknown element type {element_type!r};"
                f" choose from {sorted(ELEMENT_TYPES)}"
            ) from None
        mac, ip = self.topology.allocator.host_addresses()
        if name is None:
            name = f"{element_type}-{len(self.elements) + 1}"
        element = factory(self.sim, name, mac, ip, **element_kwargs)
        switch_port = switch.next_free_port().number
        connect(
            self.sim, switch, element,
            bandwidth_bps=ELEMENT_LINK_BPS,
            delay_s=5e-6,
            port_a=switch_port,
            port_b=element.next_free_port().number,
        )
        element.provision(
            self.owner(switch.dpid).registry.issue_certificate(mac)
        )
        self.elements.append(element)
        self._register_capacity(switch)
        return element

    def _add_elements(self, elements: Sequence[Tuple[str, int]]) -> None:
        """The builder's fleet: ``(element_type, count)`` pairs dealt
        round-robin over the AS switches."""
        switches = self.topology.as_switches
        for element_type, count in elements:
            for index in range(count):
                self.add_element(element_type, switches[index % len(switches)])

    def elements_of_type(self, element_type: str) -> List[ServiceElement]:
        return [e for e in self.elements if e.service_type == element_type]

    # ------------------------------------------------------------------
    # Host/user management

    def add_user(self, name: str, switch, wireless: bool = False,
                 bandwidth_bps: float = 100e6) -> Host:
        """Attach a new user host at runtime (it must ``announce()``)."""
        return self.topology.add_host(
            name, switch, bandwidth_bps=bandwidth_bps, wireless=wireless
        )

    def host(self, name: str) -> Host:
        return self.topology.host_by_name(name)

    @property
    def gateway(self) -> Host:
        gw = self.topology.gateway
        if gw is None:
            raise RuntimeError("topology has no gateway")
        return gw

    # ------------------------------------------------------------------
    # Internals

    def _connect_channels(self) -> None:
        from repro.openflow.pathproof import derive_switch_secret

        for switch in self.topology.all_openflow_switches():
            owner = self.owner(switch.dpid)
            channel = SecureChannel(self.sim, switch, owner)
            channel.connect()
            # Per-switch path-proof keys derive from the deployment
            # secret, so a non-default controller secret still verifies.
            switch.path_secret = derive_switch_secret(
                owner.secret, switch.dpid
            )
            self.channels[switch.dpid] = channel
            switch.attach_metrics(owner.metrics)
            self._register_capacity(switch)

    def _register_capacity(self, switch) -> None:
        owner = self.owner(switch.dpid)
        for number, port in switch.ports.items():
            if port.link is not None:
                owner.register_port_capacity(
                    switch.dpid, number, port.link.bandwidth_bps
                )


_TOPOLOGY_BUILDERS = {
    "linear": linear,
    "star": star,
    "fit": fit_building,
    "fattree": fat_tree_topology,
}


def _build_topology(sim, topology: str, topology_kwargs) -> Topology:
    try:
        builder = _TOPOLOGY_BUILDERS[topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {topology!r};"
            f" choose from {sorted(_TOPOLOGY_BUILDERS)}"
        ) from None
    return builder(sim, **topology_kwargs)


def build_livesec_network(
    topology: str = "linear",
    policies: Union[PolicyTable, Callable[[], PolicyTable], None] = None,
    policy_file: Optional[str] = None,
    dispatcher: str = "minload",
    elements: Sequence[Tuple[str, int]] = (),
    idle_timeout_s: float = 5.0,
    host_timeout_s: float = 120.0,
    stats_interval_s: Optional[float] = 1.0,
    element_timeout_s: Optional[float] = None,
    accountability: bool = False,
    fluid: bool = False,
    num_shards: int = 1,
    sim: Optional[Simulator] = None,
    **topology_kwargs,
) -> LiveSecNetwork:
    """Build (but do not start) a LiveSec deployment.

    ``topology`` is ``'linear' | 'star' | 'fit' | 'fattree'`` (kwargs
    forwarded to the builder in :mod:`repro.net.topologies` /
    :mod:`repro.net.fattree`).  ``elements`` lists
    ``(element_type, count)`` pairs distributed round-robin over the
    AS switches and provisioned by whichever controller owns their
    switch -- e.g. the paper-scale fleet is ``[("ids", 160), ("l7",
    40)]`` on the ``'fit'`` topology.  ``policy_file`` loads (and
    conflict-verifies) a v1/v2 policy document, once per controller,
    instead of passing ``policies``: a table, or a zero-argument
    factory called once per controller.

    ``num_shards > 1`` splits the control plane into that many shards
    under a :class:`~repro.core.sharding.ShardCoordinator`: per pod on
    the fat-tree with ``num_shards == k``, everywhere else a balanced
    contiguous split of the dpid space.  Each shard needs its own
    table (its own version and commit subscribers), so ``policies``
    must then be a factory.

    ``fluid=True`` attaches a :class:`~repro.net.fluid.FluidRegion`:
    steady CBR phases are fast-forwarded analytically while anything
    control-plane-visible stays at packet fidelity.
    ``accountability=True`` turns on path proofs at any shard count.

    Call :meth:`LiveSecNetwork.start` before sending traffic.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard (got {num_shards})")
    if policy_file is not None and policies is not None:
        raise ValueError("pass either policies or policy_file, not both")
    if num_shards > 1:
        if policies is not None and not callable(policies):
            raise ValueError(
                "with num_shards > 1, pass policies as a factory callable:"
                " each shard needs its own PolicyTable, for its own version"
                " and commit subscribers"
            )
    if sim is None:
        sim = Simulator()
    topo = _build_topology(sim, topology, topology_kwargs)
    shard_map = coordinator = None
    if num_shards > 1:
        k = topology_kwargs.get("k", 4)
        if topology == "fattree" and num_shards == k:
            shard_map = ShardMap.per_pod(k)
        else:
            shard_map = ShardMap.contiguous(
                [s.dpid for s in topo.all_openflow_switches()], num_shards
            )
        coordinator = ShardCoordinator(sim, shard_map)
    controllers: List[LiveSecController] = []
    members: List[ShardMember] = []
    for shard_id in range(num_shards):
        table = policies() if callable(policies) else policies
        if policy_file is not None:
            # Deployment config loads run verified: a conflicting file
            # must fail the build, not serve insertion-order semantics.
            table = load_policies(policy_file, verify=True)
        controller = LiveSecController(
            sim,
            policies=table,
            dispatcher=dispatcher,
            idle_timeout_s=idle_timeout_s,
            host_timeout_s=host_timeout_s,
            stats_interval_s=stats_interval_s,
            element_timeout_s=element_timeout_s,
            accountability=accountability,
        )
        controllers.append(controller)
        if coordinator is not None:
            # Stride the id space so shard i of N mints ids i+1, i+1+N,
            # ... -- globally unique without coordination, handoff-safe.
            controller.sessions.reseed(shard_id + 1, num_shards)
            members.append(ShardMember(shard_id, controller, coordinator))
    network = LiveSecNetwork(
        sim=sim, topology=topo, controller=controllers[0],
        shard_map=shard_map, coordinator=coordinator, members=members,
        monitoring=(
            MonitoringComponent(controllers[0].log)
            if coordinator is None else None
        ),
    )
    if fluid:
        network.fluid = FluidRegion(sim)
        network.fluid.attach_metrics(network.metrics)
    network._connect_channels()
    if coordinator is not None:
        coordinator.attach_physical(
            switches={s.dpid: s for s in topo.all_openflow_switches()},
            channels=network.channels,
            register_capacity=network._register_capacity,
        )
    network._add_elements(elements)
    if coordinator is not None:
        coordinator.start()
    return network


# perf/workloads.py's name for the builder; ROADMAP item 4 renames the
# call there and deletes this line.
build_sharded_network = build_livesec_network
