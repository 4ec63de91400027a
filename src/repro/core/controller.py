"""The LiveSec controller: a composition root over NOX-style apps.

The paper's monolithic controller is decomposed into six apps, each
owning one concern, coordinated over a deterministic in-process event
bus (:mod:`repro.core.bus`) with the NIB and its sibling tables as the
shared-state surface:

* :class:`~repro.core.apps.host_tracker.HostTrackerApp` -- location
  discovery from ARP (Section III.C.2), the directory proxy answering
  ARP/DHCP without fabric broadcast, host expiry, announcements,
* :class:`~repro.core.apps.topology.TopologyApp` -- switch membership
  and the logical link mesh (III.C.1),
* :class:`~repro.core.apps.service_directory.ServiceDirectoryApp` --
  the in-band service-element channel with certification (III.D.1),
* :class:`~repro.core.apps.policy_engine.PolicyEngineApp` -- the
  global policy table resolved into per-flow decisions (IV.A),
* :class:`~repro.core.apps.steering.SteeringApp` -- interactive
  enforcement: session setup over the logical full mesh (III.C.3),
  element steering, ingress blocking, failover, teardown,
* :class:`~repro.core.apps.monitor.MonitorApp` -- port-stats polling
  and flow-stats fan-out for the monitoring views (IV.C, IV.D).

This class remains the single OpenFlow endpoint: it classifies raw
protocol input into typed bus events and owns the senders the apps
borrow.  One of those senders is the batched
:class:`~repro.openflow.pipeline.InstallPipeline` (one barrier per
datapath per tick instead of one per FlowMod): it lives here, not on
an app, so its in-flight batches, retry timers and barrier xids
survive an app restart.

The controller is deliberately reactive: it installs flow entries only
in response to first packets, keeps all decision logic here in the
control plane, and leaves the data plane to dumb flow-table lookups --
the 4D/OpenFlow separation the paper builds on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import messages as svcmsg
from repro.core.apps import (
    AccountabilityApp,
    App,
    AppContext,
    HostTrackerApp,
    MonitorApp,
    PolicyEngineApp,
    ServiceDirectoryApp,
    SteeringApp,
    TopologyApp,
)
from repro.core.apps.base import (
    APP_CRASHED,
    APP_RUNNING,
    APP_STOPPED,
    ServiceStatus,
    config_hash,
)
from repro.core.apps.host_tracker import (
    ANNOUNCE_MIN_GAP_S,
    ANNOUNCE_REFRESH_INTERVAL_S,
    HOST_EXPIRY_INTERVAL_S,
)
from repro.core.apps.monitor import DEFAULT_STATS_INTERVAL_S
from repro.core.apps.service_directory import REGISTRY_EXPIRY_INTERVAL_S
from repro.core.apps.steering import FAILOVER_OUTCOMES
from repro.core.bus import (
    AppLifecycleChanged,
    ArpIn,
    DataPacketIn,
    DhcpIn,
    EventBus,
    FlowRemovedIn,
    FlowStatsIn,
    LinkDiscovered,
    LinkTimedOut,
    PathProofIn,
    PolicyReloaded,
    PortStatsIn,
    ServiceFrameIn,
    SwitchJoined,
    SwitchLeft,
    TaggedPacketIn,
)
from repro.core.directory import DirectoryProxy
from repro.core.events import EventKind, EventLog
from repro.core.introspection import (
    LEGACY_COUNTER_NAMES,
    ControllerStatus,
    setup_controller_metrics,
)
from repro.core.loadbalance import LoadBalancer, make_dispatcher
from repro.core.nib import NetworkInformationBase
from repro.core.policy import PolicyTable
from repro.core.services import ServiceRegistry
from repro.core.sessions import SessionTable
from repro.net import packet as pkt
from repro.net.packet import Arp, Dhcp, Udp
from repro.obs import MetricsRegistry
from repro.openflow import messages as ofmsg
from repro.openflow.controller_base import (
    ControllerBase,
    DiscoveredLink,
    SwitchHandle,
)
from repro.openflow.pipeline import (
    DEFAULT_INSTALL_TIMEOUT_S,
    DEFAULT_MAX_ATTEMPTS as INSTALL_MAX_ATTEMPTS,
    InstallPipeline,
)

__all__ = [
    "LiveSecController",
    "ControllerStatus",
    "ServiceStatus",
    "DEFAULT_WATCHDOG_INTERVAL_S",
    "LEGACY_COUNTER_NAMES",
    "FAILOVER_OUTCOMES",
    "DEFAULT_SECRET",
    "DEFAULT_IDLE_TIMEOUT_S",
    "DEFAULT_STATS_INTERVAL_S",
    "DEFAULT_INSTALL_TIMEOUT_S",
    "INSTALL_MAX_ATTEMPTS",
    "HOST_EXPIRY_INTERVAL_S",
    "REGISTRY_EXPIRY_INTERVAL_S",
    "ANNOUNCE_REFRESH_INTERVAL_S",
    "ANNOUNCE_MIN_GAP_S",
]

DEFAULT_SECRET = "livesec-deployment-secret"
DEFAULT_IDLE_TIMEOUT_S = 5.0
#: How often the opt-in app watchdog scans for crashed apps.
DEFAULT_WATCHDOG_INTERVAL_S = 0.5


class LiveSecController(ControllerBase):
    """The centralized security-management controller.

    Parameters mirror the deployment's knobs: the dispatch algorithm
    (``'polling' | 'hash' | 'queuing' | 'minload'``), flow idle
    timeout, the certification secret, and whether/so-often to poll
    port statistics for the monitoring view.
    """

    def __init__(
        self,
        sim,
        policies: Optional[PolicyTable] = None,
        dispatcher: str = "minload",
        secret: str = DEFAULT_SECRET,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        host_timeout_s: float = 120.0,
        stats_interval_s: Optional[float] = DEFAULT_STATS_INTERVAL_S,
        on_no_element: str = "allow",
        lldp_enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        element_timeout_s: Optional[float] = None,
        accountability: bool = False,
    ):
        super().__init__(sim, lldp_enabled=lldp_enabled)
        if on_no_element not in ("allow", "drop"):
            raise ValueError(
                f"on_no_element must be allow|drop, got {on_no_element}"
            )
        # Forwarding accountability (SDNsec-style path proofs).  Off by
        # default: tag stamping adds per-frame work and per-session
        # egress reports, and existing deterministic digests predate it.
        self.accountability_enabled = accountability
        self.secret = secret
        # The shard fabric hook: a ShardMember when this controller is
        # one shard of a ShardedDeployment, None standalone.  Steering
        # routes foreign-dpid rules and handoff deferrals through it;
        # the policy engine borrows federated waypoint candidates.
        self.shard = None
        # dpid -> quarantine reason.  A dict, not a set: iteration order
        # is insertion order (determinism) and the reason is useful to
        # the policy engine's logs.
        self.quarantined_dpids: Dict[int, str] = {}
        # Shared state surfaces (the single source of truth between apps).
        self.nib = NetworkInformationBase(host_timeout_s=host_timeout_s)
        self.policies = policies if policies is not None else PolicyTable()
        registry_kwargs = {}
        if element_timeout_s is not None:
            registry_kwargs["liveness_timeout_s"] = element_timeout_s
        self.registry = ServiceRegistry(secret=secret, **registry_kwargs)
        self.balancer = LoadBalancer(make_dispatcher(dispatcher))
        self.sessions = SessionTable()
        self.directory = DirectoryProxy(self.nib)
        self.idle_timeout_s = idle_timeout_s
        self.on_no_element = on_no_element
        # Observability: one registry for every subsystem's metrics.
        # Created before the event log so the log's gauges register too.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = EventLog(metrics=self.metrics)
        setup_controller_metrics(self)
        # The one reliable-install path.  Owned here rather than by the
        # steering app: a restarted app must find the batches it left
        # in flight, and their BarrierReplies must find them.
        self.install_pipeline = InstallPipeline(self, metrics=self.metrics)
        # The bus and the apps.  Construction order is the dispatch
        # tie-break order (subscription seq) and ``start()`` order is
        # the timer registration order -- both are part of the
        # deterministic-digest contract; do not reorder casually.
        self.bus = EventBus(metrics=self.metrics)
        ctx = AppContext(
            sim=sim,
            bus=self.bus,
            controller=self,
            nib=self.nib,
            policies=self.policies,
            registry=self.registry,
            balancer=self.balancer,
            sessions=self.sessions,
            directory=self.directory,
            log=self.log,
            metrics=self.metrics,
            count=self.count,
        )
        self._app_ctx = ctx
        self._apps: Dict[str, App] = {}
        for app in (
            HostTrackerApp(ctx),
            TopologyApp(ctx),
            ServiceDirectoryApp(ctx),
            PolicyEngineApp(ctx),
            SteeringApp(ctx),
            MonitorApp(ctx, stats_interval_s=stats_interval_s),
        ):
            self._apps[app.name] = app
        if accountability:
            app = AccountabilityApp(ctx)
            self._apps[app.name] = app
        # Built-ins start silently (no lifecycle events): their wiring
        # predates the runtime-ops surface and existing deterministic
        # digests must not grow records from construction alone.
        for app in self._apps.values():
            app.start()
            app._mark_started()
        # The app watchdog (crash detection + restart) is opt-in: an
        # always-ticking timer would perturb existing deterministic
        # schedules.  Armed by start_app_watchdog() -- the fault
        # injector and the ops CLI call it.
        self._app_watchdog = None
        # Policy lifecycle: table commits become bus events (the
        # policy engine logs them), and the table's version gauges land
        # on this controller's registry.
        self.policies.on_commit(self._on_policy_commit)
        self.policies.attach_metrics(self.metrics)

    # ==================================================================
    # App registry

    @property
    def apps(self) -> List[App]:
        """The loaded apps, in construction (dispatch tie-break) order."""
        return list(self._apps.values())

    def app(self, name: str) -> App:
        """One app by its :attr:`~repro.core.apps.base.App.name`."""
        return self._apps[name]

    def add_app(
        self,
        factory: Callable[[AppContext], App],
        config: Optional[Dict[str, object]] = None,
    ) -> App:
        """Construct, register and start an extra app -- transactionally.

        ``factory`` (typically the :class:`App` subclass itself) is
        called with this controller's :class:`AppContext` plus any
        ``config`` kwargs.  The app subscribes after the built-ins, so
        at equal priority it sees each event last -- extensions
        observe, the stock pipeline decides.

        Registration is construct -> register -> start with rollback:
        a duplicate name or a failing ``start()`` tears down everything
        the constructor wired (bus subscriptions *and* timers), and a
        constructor that raises partway has its partial subscriptions
        purged by name -- a failed ``add_app`` leaves the bus exactly
        as it was.
        """
        config = dict(config or {})
        try:
            app = factory(self._app_ctx, **config)
        except Exception:
            # The object is unreachable, but any subscriptions it got
            # as far as wiring still carry the class's app name.
            name = getattr(factory, "name", None)
            if isinstance(name, str):
                self.bus.unsubscribe_app(name)
            raise
        if app.name in self._apps:
            app._teardown(APP_STOPPED)
            raise ValueError(f"app {app.name!r} already registered")
        self._apps[app.name] = app
        try:
            app.start()
        except Exception:
            del self._apps[app.name]
            app._teardown(APP_STOPPED)
            raise
        app._mark_started()
        if config and not app.config:
            app.config = config
        self._emit_lifecycle(app.name, "started", app.status())
        return app

    # ==================================================================
    # Runtime operations (the LiveSec "interactive management" premise:
    # apps are reconfigurable while the network keeps serving)

    def _emit_lifecycle(
        self, name: str, action: str, status: Optional[ServiceStatus]
    ) -> None:
        """Publish an app lifecycle transition: typed bus event for the
        apps (steering drains, sharding surfaces churn) plus an
        APP_LIFECYCLE event-log record for the journal/digest."""
        self.bus.publish(
            AppLifecycleChanged(app=name, action=action, status=status)
        )
        self.log.emit(
            self.sim.now,
            EventKind.APP_LIFECYCLE,
            app=name,
            action=action,
            state=status.state if status is not None else "removed",
        )

    def app_status(self) -> Dict[str, ServiceStatus]:
        """Typed per-app runtime status, in registration order."""
        return {name: app.status() for name, app in self._apps.items()}

    def accountability_active(self) -> bool:
        """Whether path-proof decoration should be applied to new
        sessions: accountability was enabled at construction *and* the
        accountability app is currently running (not stopped/crashed)."""
        if not self.accountability_enabled:
            return False
        app = self._apps.get("accountability")
        return app is not None and app.state == APP_RUNNING

    def stop_app(self, name: str) -> App:
        """Stop a running app in place: every bus subscription removed,
        every periodic timer cancelled.  The app stays registered (its
        slot and config survive) so ``start_app`` can revive it."""
        app = self._apps[name]
        if app.state == APP_RUNNING:
            app.stop()
            self._emit_lifecycle(name, "stopped", app.status())
        return app

    def start_app(self, name: str) -> App:
        """(Re)start a stopped or crashed app from its recorded config.

        Wiring lives in app constructors, so revival reconstructs the
        app; it re-subscribes at the back of the dispatch order for its
        priority tier.  Running apps are left untouched.
        """
        app = self._apps[name]
        if app.state == APP_RUNNING:
            return app
        return self._replace(name, dict(app.config), action="restarted")

    def restart_app(self, name: str) -> App:
        """Stop (if running) and reconstruct an app with its same
        config -- the bounce that clears soft state."""
        app = self._apps[name]
        return self._replace(name, dict(app.config), action="restarted")

    def reload_app(self, name: str, config: Dict[str, object]) -> App:
        """Reconstruct an app with a new config, skipping no-ops.

        The new config is hashed canonically; if it matches the running
        app's hash, nothing happens and the running instance is
        returned (a reload that changes nothing must not bounce
        subscriptions or reset timers).
        """
        app = self._apps[name]
        config = dict(config)
        if app.state == APP_RUNNING and config_hash(config) == app.config_hash():
            return app
        return self._replace(name, config, action="reloaded")

    def remove_app(self, name: str) -> App:
        """Stop an app and drop it from the registry entirely."""
        app = self._apps.pop(name)
        if app.state == APP_RUNNING:
            app.stop()
        else:
            app._teardown(APP_STOPPED)
        self._emit_lifecycle(name, "removed", None)
        return app

    def crash_app(self, name: str) -> App:
        """Simulate an app crash (the ``app_crash`` fault action): the
        app's wiring vanishes silently -- no lifecycle event, exactly
        like a real crash leaves no trace until the watchdog notices."""
        app = self._apps[name]
        app._teardown(APP_CRASHED)
        return app

    def start_app_watchdog(
        self, interval_s: float = DEFAULT_WATCHDOG_INTERVAL_S
    ):
        """Arm the periodic crashed-app scan (idempotent).

        Each tick, every app in state ``crashed`` is reported
        (``crash-detected``, the TTD edge for fault scoring) and then
        revived from its recorded config (``restarted``, the TTR edge).
        """
        if self._app_watchdog is None:
            self._app_watchdog = self.sim.every(
                interval_s, self._watchdog_scan
            )
        return self._app_watchdog

    def _watchdog_scan(self) -> None:
        for name in list(self._apps):
            app = self._apps[name]
            if app.state == APP_CRASHED:
                self._emit_lifecycle(name, "crash-detected", app.status())
                self._replace(name, dict(app.config), action="restarted")

    def _replace(
        self, name: str, config: Dict[str, object], action: str
    ) -> App:
        """Swap an app for a freshly constructed instance, atomically.

        Stop old -> construct new -> start new.  If the new constructor
        raises (bad config), its partial wiring is purged by app name
        and the *old* config is revived, so a failed reload leaves the
        app running as before the call.
        """
        old = self._apps[name]
        was_running = old.state == APP_RUNNING
        if was_running:
            old.stop()
        try:
            new = type(old)(self._app_ctx, **config)
        except Exception:
            self.bus.unsubscribe_app(name)
            revived = type(old)(self._app_ctx, **old.config)
            self._apps[name] = revived
            if was_running:
                revived.start()
                revived._mark_started()
            raise
        self._apps[name] = new
        new.start()
        new._mark_started()
        self._emit_lifecycle(name, action, new.status())
        return new

    @property
    def _host_tracker(self) -> HostTrackerApp:
        return self._apps["host-tracker"]

    @property
    def _monitor(self) -> MonitorApp:
        return self._apps["monitor"]

    # ==================================================================
    # Observability

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one diagnostics counter (``controller.<name>``)."""
        self._legacy_counters[name].inc(amount)

    @property
    def counters(self) -> Dict[str, int]:
        """The diagnostics counters by short name, read from the
        registry at call time (``controller.metrics`` holds the same
        values as ``controller.<name>``)."""
        return {
            name: int(counter.value)
            for name, counter in self._legacy_counters.items()
        }

    def subscribe_flow_stats(
        self, callback: Callable[[ofmsg.FlowStatsReply], None]
    ) -> Callable[[], None]:
        """Register a flow-stats observer; returns an unsubscribe
        callable.  Unsubscribing twice is a no-op."""
        return self._monitor.subscribe_flow_stats(callback)

    # ==================================================================
    # OpenFlow input -> bus events

    def on_switch_join(self, switch: SwitchHandle) -> None:
        self.bus.publish(SwitchJoined(handle=switch))

    def on_switch_leave(self, switch: SwitchHandle) -> None:
        # Abort in-flight installs: retrying against a dead channel is
        # pointless, and a reconnect resyncs the full session state.
        self.install_pipeline.abort_datapath(switch.dpid)
        self.bus.publish(SwitchLeft(handle=switch))

    def on_link_discovered(self, link: DiscoveredLink) -> None:
        self.bus.publish(LinkDiscovered(link=link))

    def on_link_timeout(self, link: DiscoveredLink) -> None:
        self.bus.publish(LinkTimedOut(link=link))

    def on_packet_in(self, event: ofmsg.PacketIn) -> None:
        frame = event.frame
        if frame.ethertype == pkt.ETH_TYPE_ARP and isinstance(
            frame.payload, Arp
        ):
            with self._packet_in_hists["arp"].time():
                self.bus.publish(ArpIn(packet_in=event, arp=frame.payload))
            return
        if isinstance(frame.payload, Dhcp):
            with self._packet_in_hists["dhcp"].time():
                self.bus.publish(DhcpIn(packet_in=event, dhcp=frame.payload))
            return
        transport = frame.transport()
        if isinstance(transport, Udp) and svcmsg.is_service_message(
            transport.payload
        ):
            with self._packet_in_hists["service"].time():
                self.bus.publish(
                    ServiceFrameIn(packet_in=event, payload=transport.payload)
                )
            return
        if frame.path_tag is not None:
            # A still-tagged data frame punted to the controller is
            # evidence of misrouting (the PopPathTag egress rule never
            # ran); it must never be steered as a fresh first packet.
            with self._packet_in_hists["data"].time():
                self.bus.publish(
                    TaggedPacketIn(packet_in=event, tag=frame.path_tag)
                )
            return
        if frame.ip() is not None:
            with self._packet_in_hists["data"].time():
                self.bus.publish(DataPacketIn(packet_in=event))
            return
        # Unknown ethertype (e.g. stray BPDUs leaking through): ignore.

    def on_path_proof(self, event: ofmsg.PathProofReport) -> None:
        self.bus.publish(PathProofIn(message=event))

    def on_flow_removed(self, event: ofmsg.FlowRemoved) -> None:
        self.bus.publish(FlowRemovedIn(message=event))

    def on_port_stats(self, event: ofmsg.PortStatsReply) -> None:
        self.bus.publish(PortStatsIn(message=event))

    def on_flow_stats(self, event: ofmsg.FlowStatsReply) -> None:
        self.bus.publish(FlowStatsIn(message=event))

    def on_barrier_reply(self, dpid: int, xid: int) -> None:
        self.install_pipeline.on_barrier_reply(dpid, xid)

    # ==================================================================
    # The rule sender

    def apply_rule(self, op: str, rule, buffer_id=None) -> None:
        """Carry out one ``"add"``/``"delete"`` on a datapath this
        controller holds the channel of -- for its own steering app and
        for rules another shard routed here alike.  Adds are
        barrier-acked and retried by the pipeline; a delete is a single
        un-acked FlowMod (a lost one leaves an entry that idles out)."""
        if op == "add":
            self.install_pipeline.install(rule, buffer_id=buffer_id)
        else:
            self.send_flow_mod(
                rule.dpid,
                command=ofmsg.FlowMod.DELETE_STRICT,
                match=rule.match,
                priority=rule.priority,
            )

    # ==================================================================
    # Policy lifecycle: compile, verify, atomic hot-swap

    def _on_policy_commit(self, commit) -> None:
        self.bus.publish(PolicyReloaded(commit=commit))

    def _known_service_types(self) -> set:
        """Service types a chain may legitimately reference: everything
        the deployment can instantiate plus whatever has already
        certified with the registry (covers custom element types)."""
        from repro.elements import ELEMENT_TYPES

        return set(ELEMENT_TYPES) | set(self.registry.service_types())

    def check_policies(self, source):
        """Compile + verify a policy document without touching the live
        table.  ``source`` is a file path, a parsed document dict, or an
        iterable of :class:`~repro.core.policy_compiler.PolicyIntent`.
        Returns the :class:`~repro.core.policy_compiler.CompileResult`.
        """
        from repro.core.policy_compiler import PolicyIntent, compile_intents
        from repro.core.policy_io import load_intents

        default = self.policies.default_action
        if isinstance(source, (str, dict)):
            intents, default = load_intents(source)
        else:
            intents = list(source)
            if not all(isinstance(i, PolicyIntent) for i in intents):
                raise TypeError(
                    "source must be a path, a document dict, or PolicyIntents"
                )
        return compile_intents(
            intents,
            default_action=default,
            service_types=self._known_service_types(),
        )

    def reload_policies(self, source):
        """Hot-swap the live policy table from ``source``.

        The document compiles and verifies first; error findings raise
        :class:`~repro.core.policy_compiler.PolicyConflictError` and the
        previously committed table keeps serving.  A clean compile swaps
        in atomically -- one version bump, one ``PolicyReloaded`` event
        -- without touching established sessions.  Returns the
        :class:`~repro.core.policy.PolicyCommit` record."""
        from repro.core.policy_compiler import PolicyConflictError

        result = self.check_policies(source)
        if not result.ok:
            raise PolicyConflictError(result.errors)
        label = source if isinstance(source, str) else "reload"
        return self.policies.apply_compiled(
            result.table, source=f"reload:{label}"
        )

    # ==================================================================
    # Delegations the deployment calls

    def refresh_announcements(self, force: bool = False) -> None:
        """Re-announce every known host into the legacy fabric (also
        called once by the deployment after discovery converges)."""
        self._host_tracker.refresh_announcements(force=force)

    def register_port_capacity(self, dpid: int, port: int, bps: float) -> None:
        """Tell the monitor a port's line rate so it can normalize load."""
        self._monitor.register_port_capacity(dpid, port, bps)

    # ==================================================================
    # Introspection

    def status(self) -> ControllerStatus:
        """One-call overview used by examples, tests and the CLI.

        The result is a typed :class:`ControllerStatus`; ``.to_dict()``
        gives the five overview fields as a plain dict.
        """
        return ControllerStatus(
            nib=self.nib.summary(),
            registry=self.registry.summary(),
            sessions=len(self.sessions),
            counters=self.counters,
            events=len(self.log),
            metrics=self.metrics.snapshot(),
        )
