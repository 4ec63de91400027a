"""The service-element directory: wire messages, liveness, verdicts.

Owns the in-band element channel of Section III.D.1: ONLINE liveness
and load reports feed the service registry and the load balancer;
EVENT reports (attack detected, protocol identified, scan verdicts)
are verified against the element's certificate and turned into
blocking or log events.  Malformed or uncertified traffic gets the
offending source blocked at its ingress switch.

Decoding itself lives in the versioned codecs of
:mod:`repro.core.messages`; this app only handles *decoded, typed*
messages -- a malformed payload never reaches the handlers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import messages as svcmsg
from repro.core.apps.base import App, AppContext
from repro.core.bus import BlockRequested, ElementExpired, ServiceFrameIn
from repro.core.events import EventKind
from repro.core.nib import HostRecord
from repro.core.services import CertificateError, ServiceElementRecord
from repro.core.sessions import Session
from repro.core.sharding import FederatedElement

REGISTRY_EXPIRY_INTERVAL_S = 1.0


class ServiceDirectoryApp(App):
    """Tracks service elements and reacts to their reports."""

    name = "service-directory"

    def __init__(self, ctx: AppContext):
        super().__init__(ctx)
        self.listen(ServiceFrameIn, self.on_service_frame)

    def start(self) -> None:
        self.every(REGISTRY_EXPIRY_INTERVAL_S, self.expire_elements)

    # ------------------------------------------------------------------
    # Wire messages

    def on_service_frame(self, event: ServiceFrameIn) -> None:
        self.ctx.count("service_messages")
        packet_in = event.packet_in
        mac = packet_in.frame.src
        try:
            message = svcmsg.decode(event.payload)
        except svcmsg.MessageFormatError:
            self._reject_element(packet_in, mac, reason="malformed-message")
            return
        try:
            if isinstance(message, svcmsg.OnlineMessage):
                self._handle_online(packet_in, message)
            elif isinstance(message, svcmsg.ConnTrackMessage):
                self._handle_conntrack(message)
            else:
                self.handle_event_report(message)
        except CertificateError:
            self._reject_element(packet_in, mac, reason="bad-certificate")

    def _handle_online(self, packet_in, message: svcmsg.OnlineMessage) -> None:
        # Capture the prior liveness *before* handle_online refreshes
        # the record (which always leaves it online): an element
        # returning from an expiry must re-log ELEMENT_ONLINE.
        prior = self.ctx.registry.get(message.element_mac)
        was_online = prior is not None and prior.online
        record = self.ctx.registry.handle_online(message, self.ctx.sim.now)
        came_back = not was_online
        host = self.peer("host-tracker").learn_host(
            mac=message.element_mac,
            ip=None,
            dpid=packet_in.dpid,
            port=packet_in.in_port,
            is_element=True,
        )
        self.ctx.balancer.on_load_report(message.element_mac)
        if came_back or record.reports == 1:
            self.ctx.log.emit(
                self.ctx.sim.now, EventKind.ELEMENT_ONLINE,
                mac=message.element_mac,
                service_type=message.service_type,
                dpid=host.dpid,
            )
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.ELEMENT_LOAD,
            mac=message.element_mac, cpu=message.cpu, pps=message.pps,
            flows=message.active_flows,
        )

    def _handle_conntrack(self, message: svcmsg.ConnTrackMessage) -> None:
        """A stateful firewall reported a connection-state transition:
        certify it and log it for the global view."""
        self.ctx.registry.verify_event(message)
        self.ctx.count("conntrack_reports")
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.CONNTRACK_STATE,
            element=message.element_mac,
            state=message.state,
            conn=",".join(
                "" if part is None else str(part) for part in message.conn
            ),
        )

    def handle_event_report(
        self, message: svcmsg.EventReportMessage, forwarded: bool = False
    ) -> None:
        """Act on a report where its session is: in this book, or -- a
        borrowed element inspecting another shard's flow -- in the book
        of the flow's source's shard, handed there (``forwarded``) once
        verified here, where the element's certificate lives."""
        if not forwarded:
            self.ctx.registry.verify_event(message)
        session = self._find_session_for_report(message)
        shard = self.ctx.controller.shard
        if (session is None and shard is not None and not forwarded
                and shard.coordinator.forward_report(shard, message)):
            return
        if message.kind == "attack":
            self._block_attack(message, session)
        elif message.kind == "protocol":
            application = message.detail.get("application", "unknown")
            user_mac = session.src_mac if session else (
                message.flow.dl_src if message.flow else "?"
            )
            if session is not None:
                session.application = application
            self.ctx.log.emit(
                self.ctx.sim.now, EventKind.PROTOCOL_IDENTIFIED,
                user_mac=user_mac, application=application,
                element=message.element_mac,
            )
        else:
            # Other service results (virus, content, ...) are logged as
            # attacks for blocking purposes only when flagged malicious.
            if message.detail.get("verdict") == "malicious":
                self._block_attack(message, session)
            else:
                self.ctx.log.emit(
                    self.ctx.sim.now, EventKind.PROTOCOL_IDENTIFIED,
                    user_mac=message.flow.dl_src if message.flow else "?",
                    application=(
                        f"{message.kind}:{message.detail.get('result', '?')}"
                    ),
                    element=message.element_mac,
                )

    def _find_session_for_report(
        self, message: svcmsg.EventReportMessage
    ) -> Optional[Session]:
        """Map a reported flow back to its session.

        The element sees frames whose dl_dst was rewritten to its own
        MAC, so an exact 9-tuple lookup can fail; fall back to matching
        the sessions steered through that element on the stable fields.
        """
        if message.flow is None:
            return None
        direct = self.ctx.sessions.lookup(message.flow)
        if direct is not None:
            return direct
        for session in self.ctx.sessions.sessions_via_element(
            message.element_mac
        ):
            for candidate in (session.flow, session.reverse_flow):
                # Compare on the network/transport identity only: the
                # MAC labels the element saw may have been rewritten by
                # the steering chain (dl_dst always, dl_src for chains
                # of two or more elements).
                if (
                    candidate.nw_src == message.flow.nw_src
                    and candidate.nw_dst == message.flow.nw_dst
                    and candidate.nw_proto == message.flow.nw_proto
                    and candidate.tp_src == message.flow.tp_src
                    and candidate.tp_dst == message.flow.tp_dst
                ):
                    return session
        return None

    def _block_attack(
        self,
        message: svcmsg.EventReportMessage,
        session: Optional[Session],
    ) -> None:
        """Report the attack; the steering app installs the ingress drop."""
        attack_type = message.detail.get("attack", "unknown")
        if session is not None:
            flow = session.flow
            user_mac = session.src_mac
        elif message.flow is not None:
            flow = message.flow
            user_mac = message.flow.dl_src
        else:
            return
        src = self.ctx.nib.host_by_mac(user_mac)
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.ATTACK_DETECTED,
            user_mac=user_mac, attack=attack_type,
            element=message.element_mac,
            dpid=src.dpid if src else -1,
        )
        if src is None:
            return
        self.ctx.bus.publish(BlockRequested(
            src=src, flow=flow, session=session, attack=attack_type,
        ))

    def _reject_element(self, packet_in, mac: str, reason: str) -> None:
        """Uncertified/malformed element traffic: drop at the ingress."""
        record = self.ctx.nib.host_by_mac(mac)
        if record is None:
            record = HostRecord(
                mac=mac, ip=None, dpid=packet_in.dpid, port=packet_in.in_port,
                first_seen=self.ctx.sim.now, last_seen=self.ctx.sim.now,
            )
        self.ctx.bus.publish(BlockRequested(src=record))
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.ELEMENT_REJECTED, mac=mac, reason=reason
        )

    # ------------------------------------------------------------------
    # Shard federation

    def directory_export(self) -> List[FederatedElement]:
        """This shard's contribution to the federated directory: every
        online element homed on a switch this shard currently owns,
        with its NIB location and last reported load."""
        controller = self.ctx.controller
        rows = []
        for mac in sorted(self.ctx.registry.elements):
            record = self.ctx.registry.elements[mac]
            if not record.online:
                continue
            host = self.ctx.nib.host_by_mac(mac)
            if host is None or host.dpid not in controller.switches:
                continue
            rows.append(FederatedElement(
                mac=mac,
                service_type=record.service_type,
                shard_id=controller.shard.shard_id,
                dpid=host.dpid,
                port=host.port,
                ip=host.ip,
                pps=record.pps,
            ))
        return rows

    def remote_element_down(self, mac: str) -> None:
        """Fabric notification: an element this shard had borrowed as a
        waypoint is gone from its origin's export.  Mirrors the local
        expiry path so sessions steered through it fail over."""
        host = self.ctx.nib.host_by_mac(mac)
        if host is None or not host.is_element:
            return
        record = self.ctx.registry.get(mac)
        if record is None:
            record = ServiceElementRecord(
                mac=mac, service_type="remote",
                first_seen=self.ctx.sim.now, last_seen=self.ctx.sim.now,
                online=False,
            )
        elif record.online:
            record.online = False
        self.ctx.nib.remove_host(mac)
        self.ctx.balancer.forget_element(mac)
        self.ctx.log.emit(
            self.ctx.sim.now, EventKind.ELEMENT_OFFLINE, mac=mac,
            service_type=record.service_type,
        )
        self.ctx.bus.publish(ElementExpired(record))

    # ------------------------------------------------------------------
    # Liveness expiry

    def expire_elements(self) -> None:
        for record in self.ctx.registry.expire(self.ctx.sim.now):
            self.ctx.log.emit(
                self.ctx.sim.now, EventKind.ELEMENT_OFFLINE, mac=record.mac,
                service_type=record.service_type,
            )
            self.ctx.balancer.forget_element(record.mac)
            self.ctx.bus.publish(ElementExpired(record))
