"""Session steering: plan -> reconcile -> apply.

The enforcement half of interactive policy enforcement (IV.A): "all
above flow entries can be calculated and enforced simultaneously".
Every way a desired rule comes to exist or change -- first packet,
element failover, quarantine re-steer, policy commit, accountability
drain, host move, cross-shard adoption, reconnect resync, teardown,
handoff release -- selects owners from the one book (``SessionTable``: the
sessions, and the blocks that outlive them) and then runs the same
three steps (DESIGN 3.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.apps.base import App, AppContext
from repro.core.apps.policy_engine import PolicyDecision
from repro.core.bus import (
    AppLifecycleChanged,
    BlockRequested,
    DataPacketIn,
    ElementExpired,
    FlowRemovedIn,
    HostExpired,
    HostMoved,
    PolicyReloaded,
    SessionHandoffIn,
    SwitchJoined,
    SwitchQuarantined,
    UplinksLost,
)
from repro.core.events import EventKind
from repro.core.nib import HostRecord
from repro.core.policy import FailMode, Policy, PolicyAction
from repro.core.routing import (
    RoutingError,
    RuleSpec,
    bpdu_drop_rule,
    compute_path_rules,
    drop_rule,
    source_block_rule,
)
from repro.core.sessions import Block, Session
from repro.core.sharding import INTER_SHARD_LATENCY_S
from repro.net.packet import FlowNineTuple, extract_nine_tuple
from repro.openflow import messages as ofmsg
from repro.openflow.actions import Output, PopPathTag, PushPathTag
from repro.openflow.pathproof import PathDescriptor

FAILOVER_OUTCOMES = ("recovered", "fail-open", "fail-closed", "torn-down")


def _effect(policy: Optional[Policy], default: PolicyAction) -> tuple:
    """What a winning row -- None: the table's ``default`` -- does to
    a flow; two rows of one effect decide every flow alike."""
    if policy is None or policy.action is not PolicyAction.CHAIN:
        return (policy.action if policy is not None else default,)
    return (policy.service_chain, policy.granularity,
            policy.inspect_reply, policy.fail_mode)


class SteeringApp(App):
    """Turns first packets into installed, policy-steered sessions."""

    name = "steering"

    def __init__(self, ctx: AppContext):
        super().__init__(ctx)
        self._setup_metrics()
        self.listen(DataPacketIn, self.on_data_packet)
        self.listen(FlowRemovedIn, self.on_flow_removed)
        self.listen(SwitchJoined, self.on_switch_joined)
        self.listen(HostExpired, self.on_host_expired)
        self.listen(ElementExpired, self.on_element_expired)
        self.listen(UplinksLost, self.on_uplinks_lost)
        self.listen(HostMoved, self.on_host_moved)
        self.listen(BlockRequested, self.on_block_requested)
        self.listen(SwitchQuarantined, self.on_switch_quarantined)
        self.listen(PolicyReloaded, self.on_policy_reloaded)
        self.listen(SessionHandoffIn, self.on_session_handoff)
        self.listen(AppLifecycleChanged, self.on_app_lifecycle)

    def _setup_metrics(self) -> None:
        registry = self.ctx.metrics
        self._flow_setup_rules_hist = registry.histogram(
            "controller.flow_setup_rules",
            "Flow entries installed per end-to-end session setup",
        )
        self._flow_setup_wall_hist = registry.histogram(
            "controller.flow_setup_wall_s",
            "Wall-clock time to compute and install one session",
        )
        # Session lifetime is a *simulated-time* span.
        self._session_duration_hist = registry.histogram(
            "controller.session_duration_s",
            "Simulated lifetime of ended sessions",
            clock=lambda: self.ctx.sim.now,
        )
        self._rules_resynced = registry.counter(
            "controller.rules_resynced",
            "Flow entries re-pushed to a switch on reconnect",
        )
        self._failover_counters = {
            outcome: registry.counter(
                "controller.failover",
                "Live sessions re-decided: an element went offline, its"
                " switch was quarantined or a commit changed its policy",
                outcome=outcome,
            )
            for outcome in FAILOVER_OUTCOMES
        }

    # ==================================================================
    # First packets -> sessions

    def on_data_packet(self, event: DataPacketIn) -> None:
        packet_in = event.packet_in
        frame = packet_in.frame
        host_tracker = self.peer("host-tracker")
        periphery = host_tracker.is_periphery_port(
            packet_in.dpid, packet_in.in_port
        )
        flow = extract_nine_tuple(frame)

        if periphery is not True:
            # A transit copy flooded through the legacy fabric, a punt
            # from a switch whose uplink is still undiscovered, or a
            # frame whose entry here was lost: no first frame outruns a
            # remote entry (_reconcile), but a lossy channel can drop a
            # FlowMod whose barrier is acked anyway (ROADMAP item 2 (d);
            # every relay of campus_chaos seed 0, at an element's or the
            # gateway's switch).  Deliver locally if the destination
            # sits on this switch; never install state or learn from it.
            self.ctx.count("transit_ignored")
            dst = self.ctx.nib.host_by_mac(frame.dst)
            if (
                dst is not None
                and dst.dpid == packet_in.dpid
                and packet_in.buffer_id is not None
            ):
                self.ctx.controller.send_packet_out(
                    packet_in.dpid, actions=(Output(dst.port),),
                    buffer_id=packet_in.buffer_id,
                )
            return

        existing = self.ctx.sessions.lookup(flow)
        if existing is not None:
            self._release_along_session(packet_in, existing)
            return

        # Orphaned mid-chain frame: its destination MAC is a service
        # element's, i.e. it was rewritten by a (since torn down)
        # steering chain and missed the element switch's entries.  It
        # must neither teach us locations (its source MAC is the
        # *original* sender, nowhere near this port) nor form a
        # session (the real flow will re-punt at its true ingress and
        # re-form; the transport retransmits the lost packet).
        dst_record_early = self.ctx.nib.host_by_mac(frame.dst)
        if (
            dst_record_early is not None
            and dst_record_early.is_element
            and frame.src != dst_record_early.mac
        ):
            self.ctx.count("orphan_chain_frames")
            return

        # Learn-or-refresh: a packet from a periphery port is location
        # evidence and liveness evidence at once.
        src = host_tracker.learn_host(
            frame.src, flow.nw_src, packet_in.dpid, packet_in.in_port
        )
        # Shard fabric: if this host's session state is still in flight
        # from its previous owner shard, forming a fresh session now
        # would collide with the adopted one.  Drop the packet; the
        # transport retries after the (millisecond-scale) handoff.
        shard = self.ctx.controller.shard
        if shard is not None and shard.session_deferred(frame.src):
            self.ctx.count("handoff_deferred")
            return
        # A flow the book already blocks punted (its drop is in flight,
        # was lost, or sits at a port the source has left): it is
        # neither flooded nor given a session, only blocked again here.
        blocked = self.ctx.sessions.block_for(flow) is not None
        dst = host_tracker.locate(mac=frame.dst)
        if dst is None and not blocked:
            # Destination location unknown: fall back to a periphery
            # flood of this one packet; the session forms on a retry.
            host_tracker.periphery_flood(
                frame, exclude=(packet_in.dpid, packet_in.in_port)
            )
            return

        decision = self.peer("policy-engine").decide(flow, src)
        if decision.verdict == "block" or blocked:
            # Whatever chain was picked for it serves no session.
            self.ctx.balancer.release(decision.element_macs)
            self._block_flow(flow, src, policy_name=decision.policy_name)
            return

        with self._flow_setup_wall_hist.time():
            try:
                # "All above flow entries can be calculated and enforced
                # simultaneously" -- the ingress FlowMod releases the
                # buffered first packet through the new actions.
                session = self._open_session(
                    flow, src, dst, decision, self.ctx.sessions.next_id(),
                    self.ctx.sim.now, buffer=packet_in.buffer_id,
                )
            except RoutingError:
                # Topology discovery has not converged; deliver nothing
                # and let the application retry.
                self.ctx.count("routing_deferred")
                return
            self.ctx.count("flows_installed")
            self._flow_setup_rules_hist.observe(len(session.rules))
            self.ctx.log.emit(
                self.ctx.sim.now, EventKind.FLOW_START,
                session=session.session_id, user_mac=src.mac,
                dst_mac=dst.mac, policy=decision.policy_name,
                rules=len(session.rules),
            )
            if session.element_macs:
                self.ctx.log.emit(
                    self.ctx.sim.now, EventKind.FLOW_STEERED,
                    session=session.session_id,
                    elements=",".join(session.element_macs),
                )

    def _open_session(
        self,
        flow: FlowNineTuple,
        src: HostRecord,
        dst: HostRecord,
        decision: PolicyDecision,
        session_id: int,
        created_at: float,
        buffer: Optional[int] = None,
    ) -> Session:
        """Enter one session into the table and bring its rules up,
        newly minted (first packet) or under a transferred identity
        (adoption).  A ``block`` decision -- an adopted session whose
        chain failed closed -- enters blocked: ingress drop, no path.
        Raises :class:`RoutingError` before anything is created."""
        blocked = decision.verdict == "block"
        rules, descriptor = ([], None) if blocked else self._plan(
            flow, src, dst, decision.policy, session_id, decision.waypoints
        )
        session = self.ctx.sessions.create(
            flow=flow,
            src_mac=src.mac,
            dst_mac=dst.mac,
            policy=decision.policy,
            element_macs=decision.element_macs,
            now=created_at,
            session_id=session_id,
        )
        session.path_descriptor = descriptor
        if blocked:
            self._block_flow(
                flow, src, policy_name=decision.policy_name, session=session
            )
        else:
            self._reconcile(session, rules, buffer=buffer)
        return session

    # ==================================================================
    # plan: what entries should this session have

    def _plan(
        self,
        flow: FlowNineTuple,
        src: HostRecord,
        dst: HostRecord,
        policy: Optional[Policy],
        session_id: int,
        waypoints: Sequence[HostRecord],
    ) -> Tuple[List[RuleSpec], Optional[PathDescriptor]]:
        """Both directions' flow entries for one session (rules[0] is
        the forward ingress entry, the only one arming teardown), plus
        the forward path's accountability descriptor (None when
        accountability is disabled)."""
        idle_timeout = self.ctx.controller.idle_timeout_s
        forward = compute_path_rules(
            self.ctx.nib, flow, src, dst, waypoints,
            idle_timeout=idle_timeout, cookie=session_id,
        )
        inspect_reply = policy.inspect_reply if policy is not None else False
        reverse_waypoints = list(reversed(waypoints)) if inspect_reply else []
        reverse = compute_path_rules(
            self.ctx.nib, flow.reversed(), dst, src, reverse_waypoints,
            idle_timeout=idle_timeout, cookie=session_id,
        )
        # Only the *forward* ingress entry arms session teardown.  The
        # reply direction of a one-way flow is legitimately idle; its
        # expiry must not kill an active session (the teardown deletes
        # the reverse entries anyway, and a late reply packet simply
        # punts and re-forms the session from the other side).
        reverse[0] = reverse[0]._replace(send_flow_removed=False)
        descriptor = None
        # Gate on *active*, not merely enabled: a stopped or crashed
        # accountability app must not keep collecting proof obligations
        # nobody will ever audit.
        if self.ctx.controller.accountability_active():
            forward, descriptor = self._decorate_accountability(
                forward, session_id
            )
        return forward + reverse, descriptor

    def _decorate_accountability(
        self, forward: List[RuleSpec], session_id: int
    ) -> Tuple[List[RuleSpec], PathDescriptor]:
        """Arm the forward path with its SDNsec-style proof chain.

        The ingress rule pushes the per-session path descriptor (the
        expected dpid sequence in rule-traversal order: a waypoint's
        switch legitimately appears twice) and the egress rule pops it
        just before delivery, triggering the proof report."""
        descriptor = PathDescriptor.for_path(
            self.ctx.controller.secret, session_id,
            [rule.dpid for rule in forward],
        )
        first = forward[0]
        forward[0] = first._replace(
            actions=(PushPathTag(descriptor),) + tuple(first.actions)
        )
        last = forward[-1]
        actions = list(last.actions)
        for index in range(len(actions) - 1, -1, -1):
            if isinstance(actions[index], Output):
                actions.insert(index, PopPathTag())
                break
        forward[-1] = last._replace(actions=tuple(actions))
        return forward, descriptor

    def _replan(self, session: Session, element_macs: Sequence[str]) -> bool:
        """Plan a live session afresh through ``element_macs`` and swap
        its entries in place.  False, with nothing touched, when the
        path cannot be computed: an endpoint or waypoint has left the
        NIB, or discovery has lost an uplink."""
        src, dst = self._parties(session)
        waypoints = [self.ctx.nib.host_by_mac(mac) for mac in element_macs]
        if src is None or dst is None or None in waypoints:
            return False
        try:
            rules, descriptor = self._plan(
                session.flow, src, dst, session.policy, session.session_id,
                waypoints,
            )
        except RoutingError:
            return False
        self._reconcile(session, rules)
        self.ctx.sessions.resteer(session, element_macs)
        session.path_descriptor = descriptor
        return True

    def _parties(self, session):
        """Where a session's (or a handoff record's) endpoints sit now
        -- a remote one read afresh from the shard fabric's directory;
        each is None if it has left the NIB since the session formed."""
        locate = self.peer("host-tracker").locate
        return locate(mac=session.src_mac), locate(mac=session.dst_mac)

    # ==================================================================
    # reconcile: make the datapaths hold exactly the planned entries

    def _reconcile(
        self,
        owner: Union[Session, Block],
        desired: List[RuleSpec],
        buffer: Optional[int] = None,
        only_dpid: Optional[int] = None,
        skip_rule: Optional[Tuple[int, object]] = None,
    ) -> int:
        """Make ``desired`` the installed entries of ``owner`` -- a
        session or a block, the only writer of either's ``rules`` --
        and return how many were asserted.

        Desired entries go in first, in rule order, including those
        whose (dpid, match, priority) is already installed: the FlowMod
        ADD *replaces* such an entry rather than deleting it --
        this covers the ingress entry of a failover (same flow, same
        ingress port, same priority), so the flow is never without
        one.  Installed entries the desired set no longer contains --
        the stale ingress of a host that moved among them -- are then
        deleted; the FlowRemoved a deleted ingress entry echoes back
        names an entry the owner no longer plans and is ignored
        (:meth:`on_flow_removed`).

        Setup reconciles from an empty installed set (``buffer``: the
        first packet's buffer id, released by the ingress entry -- on
        the punting switch, where the source was just learned);
        teardown to an empty desired set (``skip_rule``: the (dpid,
        match) the datapath already expired); the reconnect resync
        re-asserts the installed set on ``only_dpid`` alone.  The
        ingress goes last: when a later hop is another shard's, it
        waits one inter-shard hop for that op (``Session.ready_at``),
        the order equal-latency channels give one controller for free."""
        controller = self.ctx.controller
        lag = 0.0
        if only_dpid is None and controller.shard is not None and any(
            rule.dpid not in controller.switches for rule in desired[1:]
        ):
            lag = INTER_SHARD_LATENCY_S
            owner.ready_at = self.ctx.sim.now + lag
        asserted = 0
        for rule in desired:
            if only_dpid is not None and rule.dpid != only_dpid:
                continue
            if lag and rule is desired[0]:
                self.ctx.sim.post_at(owner.ready_at, self._apply_ingress,
                                     owner, desired, buffer)
            else:
                self._apply("add", rule,
                            buffer_id=buffer if rule is desired[0] else None)
            asserted += 1
        if owner.rules:  # nothing to diff against on setup
            keep = {(r.dpid, r.match, r.priority) for r in desired}
            for rule in owner.rules:
                key = (rule.dpid, rule.match, rule.priority)
                if key not in keep and key[:2] != skip_rule:
                    self._apply("delete", rule)
        owner.rules = desired
        return asserted

    # ==================================================================
    # apply: one rule op, to whoever owns the datapath

    def _apply(self, op: str, rule: RuleSpec, buffer_id=None) -> None:
        """Carry out one ``"add"``/``"delete"``: on the controller's own
        sender when it holds the datapath's channel, over the shard
        fabric -- to the owner shard's sender -- when another does."""
        controller = self.ctx.controller
        if rule.dpid in controller.switches:
            controller.apply_rule(op, rule, buffer_id=buffer_id)
        elif controller.shard is not None:
            if controller.shard.coordinator.remote_rule(op, rule):
                self.ctx.count("remote_rules_sent")
            else:
                self.ctx.count("remote_rules_dropped")

    def _apply_ingress(self, session: Session, desired, buffer) -> None:
        """``desired``'s held-back ingress entry, unless a later
        reconcile replaced the plan meanwhile."""
        if session.rules is desired:
            self._apply("add", desired[0], buffer_id=buffer)

    def _release_along_session(
        self, packet_in: ofmsg.PacketIn, session: Session
    ) -> None:
        """A packet of an already-installed session was punted (it raced
        the FlowMods): push it through the session's ingress actions --
        no earlier than the ingress entry itself goes out."""
        if session.blocked or packet_in.buffer_id is None:
            return
        if session.ready_at > self.ctx.sim.now:
            self.ctx.sim.post_at(session.ready_at,
                                 self._release_along_session, packet_in,
                                 session)
            return
        for rule in session.rules:
            if rule.dpid == packet_in.dpid and rule.match.matches(
                packet_in.frame, packet_in.in_port
            ):
                self.ctx.controller.send_packet_out(
                    packet_in.dpid, actions=rule.actions,
                    buffer_id=packet_in.buffer_id,
                )
                return

    # ==================================================================
    # Blocking: a block is a desired rule like a session's

    def _plan_block(self, block: Block, at: HostRecord) -> List[RuleSpec]:
        """The drop entry ``block`` should have while its source sits
        at ``at``."""
        if block.flow is None:
            return [source_block_rule(block.src_mac, at)]
        return [drop_rule(block.flow, at, cookie=block.cookie)]

    def _block(
        self, mac: str, flow: Optional[FlowNineTuple], cookie: int,
        at: Optional[HostRecord],
    ) -> None:
        """Enter "drop ``flow`` (None: everything ``mac`` sends) at the
        entrance" into the book and assert it at ``at``.  A block the
        book holds already is re-asserted -- and moved there, if its
        drop sits elsewhere.  ``at`` is None only when an adopted
        mover left the NIB while its handoff was in flight: the block
        is kept, and its source's next packet asserts it."""
        block = self.ctx.sessions.block(mac, flow, cookie)
        if at is not None:
            self._reconcile(block, self._plan_block(block, at))

    def _block_flow(
        self,
        flow: FlowNineTuple,
        src: HostRecord,
        policy_name: str,
        session: Optional[Session] = None,
        attack: Optional[str] = None,
    ) -> None:
        """The flow dies at the entrance, from now on: its block owns
        the ingress drop, which no session's teardown touches."""
        self._block(
            src.mac, flow, session.session_id if session else 0, at=src
        )
        if session is not None:
            session.blocked = True
        self.ctx.count("flows_blocked")
        data = dict(user_mac=src.mac, dpid=src.dpid)
        if attack is not None:
            data["attack"] = attack
        else:
            data["policy"] = policy_name
        self.ctx.log.emit(self.ctx.sim.now, EventKind.FLOW_BLOCKED, **data)

    def on_block_requested(self, event: BlockRequested) -> None:
        if event.flow is None:
            self._block(event.src.mac, None, 0, at=event.src)
        else:
            self._block_flow(
                event.flow, event.src, policy_name="default",
                session=event.session, attack=event.attack,
            )

    # ==================================================================
    # Teardown

    def on_flow_removed(self, event: FlowRemovedIn) -> None:
        message = event.message
        removed = (message.dpid, message.match)
        session = self.ctx.sessions.by_id(message.cookie)
        if session is None or not any(
            (rule.dpid, rule.match) == removed for rule in session.rules
        ):
            # No session, or an entry it no longer plans -- a re-plan
            # moved its ingress and this is the echo of our delete, or
            # (that delete lost) the stale entry idling out: no news.
            return
        if message.packets > 0:
            # The session carried traffic: both endpoints were alive
            # until the idle timeout started counting (i.e. until
            # idle_timeout before the removal, not until now).
            active_until = (
                self.ctx.sim.now - self.ctx.controller.idle_timeout_s
            )
            for mac in (session.src_mac, session.dst_mac):
                self.ctx.nib.touch_host(mac, active_until)
        self.teardown_session(
            session,
            skip_rule=removed,
            packets=message.packets,
            bytes_=message.bytes,
        )

    def _withdraw(
        self, session: Session,
        skip_rule: Optional[Tuple[int, object]] = None,
    ) -> None:
        """Drop a session from the table (which is what stops it
        loading its elements) and pull its entries."""
        self.ctx.sessions.end(session)
        self._reconcile(session, [], skip_rule=skip_rule)
        self.ctx.balancer.release(session.element_macs)

    def teardown_session(
        self,
        session: Session,
        skip_rule: Optional[Tuple[int, object]] = None,
        packets: int = 0,
        bytes_: int = 0,
    ) -> None:
        self._withdraw(session, skip_rule)
        duration = self.ctx.sim.now - session.created_at
        self._session_duration_hist.observe(duration)
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.FLOW_END,
            session=session.session_id, user_mac=session.src_mac,
            packets=packets, bytes=bytes_, duration=duration,
        )

    def release_session_for_handoff(self, session: Session) -> None:
        """Origin-shard half of a cross-shard host move: the session
        leaves this shard like a teardown -- but with no FLOW_END and
        no duration sample.  Its identity continues on the destination
        shard."""
        self._withdraw(session)
        self.ctx.count("sessions_handed_off")

    def release_blocks_for_handoff(self, mac: str) -> tuple:
        """The same for the mover's blocks: out of this book, drops
        pulled, and the ``(flow, cookie)`` pairs returned for the
        destination shard to enter into its own."""
        blocks = self.ctx.sessions.take_blocks(mac)
        for block in blocks:
            self._reconcile(block, [])
        return tuple((block.flow, block.cookie) for block in blocks)

    def on_host_expired(self, event: HostExpired) -> None:
        for session in self.ctx.sessions.sessions_of_user(event.record.mac):
            self.teardown_session(session)

    def on_uplinks_lost(self, event: UplinksLost) -> None:
        for dpid in event.dpids:
            for session in list(self.ctx.sessions):
                if any(rule.dpid == dpid for rule in session.rules):
                    self.teardown_session(session)

    # ==================================================================
    # Re-steering triggers: select sessions -> plan -> reconcile

    def on_app_lifecycle(self, event: AppLifecycleChanged) -> None:
        """The *accountability* app was stopped, removed or found
        crashed: strip path-proof decoration from every accountable
        session -- waypoint logic must not outlive its auditor.

        Each session is re-planned with the accountability gate now off
        and swapped in place (same chain, same ingress entry -- traffic
        keeps flowing, just untagged), and its descriptor is dropped so
        a later accountability restart starts from a clean slate
        instead of auditing sessions whose proof chain it never
        armed."""
        if event.app != "accountability" or event.action not in (
            "stopped", "removed", "crash-detected"
        ):
            return
        for session in list(self.ctx.sessions):
            if session.path_descriptor is None or session.blocked:
                continue
            if not self._replan(session, session.element_macs):
                # The path can't be recomputed; at minimum stop
                # expecting proofs.
                session.path_descriptor = None

    def on_switch_joined(self, event: SwitchJoined) -> None:
        """Re-push this datapath's share of the book.

        A reconnecting switch's flow table may have lost entries (or
        the whole switch rebooted): the book is authoritative, so every
        block's and every live session's rules for this dpid are
        reinstalled -- drops first, and a blocked session's path back
        under its drop, where it idles out and ends the session.
        ADD semantics make this idempotent -- entries that survived are
        replaced in place, with no FlowRemoved.  Stale datapath entries
        for sessions the controller no longer tracks simply idle out.

        The spanning-tree group drop goes in first.  It is no book's:
        derived from the dpid, so a first join, a reconnect, a reboot
        and a re-home all write it, and not counted as resynced.
        """
        dpid = event.handle.dpid
        self._apply("add", bpdu_drop_rule(dpid))
        book = self.ctx.sessions
        resynced = sum(
            self._reconcile(owner, owner.rules, only_dpid=dpid)
            for owner in (*book.blocks(), *book)
        )
        if resynced:
            self._rules_resynced.inc(resynced)
            self.ctx.log.emit(self.ctx.sim.now, EventKind.SWITCH_RESYNC,
                              dpid=dpid, rules=resynced)

    def on_host_moved(self, event: HostMoved) -> None:
        """The mover's blocks follow it to its new port -- the diff
        deletes the stale drop -- and its sessions, either end, are
        re-planned in place from where it sits now."""
        record = event.record
        for block in self.ctx.sessions.blocks_of(record.mac):
            self._reconcile(block, self._plan_block(block, record))
        for session in self.ctx.sessions.sessions_of_user(record.mac):
            if not self._replan(session, session.element_macs):
                self.teardown_session(session)

    def on_element_expired(self, event: ElementExpired) -> None:
        mac = event.record.mac
        for session in self.ctx.sessions.sessions_via_element(mac):
            if not session.blocked:
                self._failover_session(session, session.policy,
                                       dead_element=mac)

    def on_switch_quarantined(self, event: SwitchQuarantined) -> None:
        """A datapath was convicted by the accountability app: stop
        trusting it as a service-element location.  Sessions whose
        chain runs through an element homed on the quarantined switch
        are re-steered exactly like an element-death failover (the
        policy engine now filters quarantined locations, so the
        replacement chain lands elsewhere).  Pure transit through the
        switch is left alone -- the fabric may offer no alternative
        path, and transit stamping still works under a skip-waypoint
        compromise."""
        for session in list(self.ctx.sessions):
            if session.blocked:
                continue
            for mac in session.element_macs:
                record = self.ctx.nib.host_by_mac(mac)
                if record is not None and record.dpid == event.dpid:
                    self._failover_session(
                        session, session.policy, dead_element=mac,
                        cause=f"quarantine:{event.reason}",
                    )
                    break

    def on_policy_reloaded(self, event: PolicyReloaded) -> None:
        """A commit re-decides each live session whose flow's winning
        row -- or the default, when none wins -- now does something
        other than the row it was decided under (:func:`_effect`).  A
        winner of the same effect (a rename, a priority or selector
        change) is only re-pointed: no log line, no FlowMod.  Blocks
        are never lifted; a blocked session is left as it is."""
        table = self.ctx.policies
        cause = f"policy:v{event.commit.version}"
        for session in list(self.ctx.sessions):
            if session.blocked:
                continue
            winner, _ = table.match(session.flow)
            # Live and unblocked, so a default it was decided under allowed.
            if _effect(winner, table.default_action) == _effect(
                session.policy, PolicyAction.ALLOW
            ):
                session.policy = winner
            else:
                self._failover_session(session, winner, cause=cause)

    def _failover_session(
        self, session: Session, policy: Optional[Policy], **why
    ) -> None:
        """Re-decide a live session under ``policy`` (None: the default
        action): its own row when its chain lost an element
        (``dead_element``, with a ``cause`` when its switch was
        quarantined rather than the element dead), a commit's winner
        otherwise (``cause=policy:v<N>``).  The policy engine decides
        afresh -- re-dispatching a chain over the survivors or applying
        the fail mode -- and the session is re-planned (or blocked, or
        torn down) and the outcome logged."""
        src, dst = self._parties(session)
        # Off its whole chain before re-resolving: surviving chain
        # members would otherwise be counted twice when the balancer
        # assigns the replacement chain.
        self.ctx.balancer.release(session.element_macs)
        self.ctx.sessions.resteer(session, ())
        session.policy = policy
        outcome = "torn-down"
        if src is not None and dst is not None:
            decision = self.peer("policy-engine").decide_chain(
                policy, session.flow, src
            )
            if decision.verdict == "block":
                self._block_flow(
                    session.flow, src, policy_name=decision.policy_name,
                    session=session,
                )
                outcome = "fail-closed"
            elif self._replan(session, decision.element_macs):
                outcome = (
                    "fail-open" if decision.fail_mode is FailMode.OPEN
                    else "recovered"
                )
        if outcome == "torn-down":
            self.teardown_session(session)
        self._failover_counters[outcome].inc()
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.FLOW_FAILOVER,
            session=session.session_id, outcome=outcome,
            user_mac=session.src_mac, **why,
        )

    def on_session_handoff(self, event: SessionHandoffIn) -> None:
        """Destination-shard half of a cross-shard host move: re-form
        each transferred session from the mover's new location,
        preserving its identity (id, created_at, application) and
        re-resolving its waypoint chain through our balancer so load
        accounting stays truthful."""
        handoff = event.handoff
        mover = self.ctx.nib.host_by_mac(handoff.mac)
        for flow, cookie in handoff.blocks:
            self._block(handoff.mac, flow, cookie, at=mover)
        for record in handoff.records:
            src, dst = self._parties(record)
            policy = record.policy
            if src is None or dst is None:
                self.ctx.count("handoff_dropped")
                continue
            if self.ctx.sessions.lookup(record.flow) is not None:
                self.ctx.count("handoff_duplicate")
                continue
            decision = PolicyDecision(verdict="allow", policy=policy)
            if policy is not None and record.element_macs:
                decision = self.peer("policy-engine").decide_chain(
                    policy, record.flow, src
                )
            try:
                session = self._open_session(
                    record.flow, src, dst, decision,
                    record.session_id, record.created_at,
                )
            except RoutingError:
                self.ctx.count("handoff_dropped")
                continue
            if session.blocked:
                continue
            session.blocked = (
                self.ctx.sessions.block_for(record.flow) is not None
            )
            session.application = record.application
            self.ctx.count("sessions_adopted")
            self.ctx.log.emit(
                self.ctx.sim.now, EventKind.SESSION_HANDOFF,
                session=record.session_id, user_mac=record.src_mac,
                from_shard=handoff.from_shard,
                elements=len(session.element_macs),
            )
