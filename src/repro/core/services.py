"""Service-element registry and certification (Section III.D.1).

The controller "can be aware of the service element as a host, but
cannot find out whether it is a service element, or what the network
service is" -- elements identify themselves through the in-band message
channel.  This module keeps the registry those messages populate:
which elements exist, what service each provides, its latest load
report, and whether its certificate checks out.  Elements whose online
messages stop arriving are marked offline and excluded from dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import messages as svcmsg

DEFAULT_LIVENESS_TIMEOUT_S = 5.0


@dataclass
class ServiceElementRecord:
    """Registry row for one VM-based service element."""

    mac: str
    service_type: str
    first_seen: float
    last_seen: float
    cpu: float = 0.0
    memory: float = 0.0
    pps: float = 0.0
    active_flows: int = 0
    online: bool = True
    reports: int = 0
    offline_count: int = 0  # liveness-expiry transitions survived
    recovered_count: int = 0  # re-certifications after an expiry


class CertificateError(ValueError):
    """An element presented a missing or invalid certificate."""


class ServiceRegistry:
    """All known service elements, by MAC, with liveness tracking."""

    def __init__(
        self,
        secret: str,
        liveness_timeout_s: float = DEFAULT_LIVENESS_TIMEOUT_S,
    ):
        self._secret = secret
        self.liveness_timeout_s = liveness_timeout_s
        self.elements: Dict[str, ServiceElementRecord] = {}
        self.rejected_macs: Dict[str, str] = {}  # mac -> reason

    # ------------------------------------------------------------------
    # Certification

    def issue_certificate(self, element_mac: str) -> str:
        """Provision a certificate for a legitimate element (done out of
        band by the administrator when the VM is created)."""
        return svcmsg.issue_certificate(self._secret, element_mac)

    def verify_certificate(self, element_mac: str, certificate: str) -> bool:
        return certificate == svcmsg.issue_certificate(self._secret, element_mac)

    # ------------------------------------------------------------------
    # Message intake

    def handle_online(self, message: svcmsg.OnlineMessage, now: float
                      ) -> ServiceElementRecord:
        """Apply an online (liveness + load) message.

        Raises :class:`CertificateError` for a bad certificate; the
        controller then blocks the element's traffic at its ingress
        switch.
        """
        if not self.verify_certificate(message.element_mac, message.certificate):
            self.rejected_macs[message.element_mac] = "bad-certificate"
            raise CertificateError(
                f"element {message.element_mac} failed certification"
            )
        record = self.elements.get(message.element_mac)
        if record is None:
            record = ServiceElementRecord(
                mac=message.element_mac,
                service_type=message.service_type,
                first_seen=now,
                last_seen=now,
            )
            self.elements[message.element_mac] = record
        if not record.online:
            # Re-certification after a liveness expiry: the element is
            # a dispatch candidate again from this report on.
            record.recovered_count += 1
        record.service_type = message.service_type
        record.last_seen = now
        record.cpu = message.cpu
        record.memory = message.memory
        record.pps = message.pps
        record.active_flows = message.active_flows
        record.online = True
        record.reports += 1
        return record

    def verify_event(self, message: svcmsg.EventReportMessage) -> None:
        """Certificate check for event reports (same policy)."""
        if not self.verify_certificate(message.element_mac, message.certificate):
            self.rejected_macs[message.element_mac] = "bad-certificate"
            raise CertificateError(
                f"element {message.element_mac} failed certification"
            )

    # ------------------------------------------------------------------
    # Liveness and queries

    def expire(self, now: float) -> List[ServiceElementRecord]:
        """Mark elements silent beyond the timeout as offline.

        An expired element is excluded from :meth:`online_elements`
        until its next valid online message re-certifies it (at which
        point it returns as a dispatch candidate; the controller zeroes
        its balancer pending state when it expires, so it comes back
        unbiased).
        """
        expired = []
        for record in self.elements.values():
            if record.online and now - record.last_seen > self.liveness_timeout_s:
                record.online = False
                record.offline_count += 1
                expired.append(record)
        return expired

    def get(self, mac: str) -> Optional[ServiceElementRecord]:
        return self.elements.get(mac)

    def is_element(self, mac: str) -> bool:
        return mac in self.elements

    def online_elements(self, service_type: Optional[str] = None
                        ) -> List[ServiceElementRecord]:
        return [
            record
            for record in self.elements.values()
            if record.online
            and (service_type is None or record.service_type == service_type)
        ]

    def service_types(self) -> List[str]:
        return sorted({r.service_type for r in self.elements.values()})

    def summary(self) -> dict:
        online = [r for r in self.elements.values() if r.online]
        return {
            "total": len(self.elements),
            "online": len(online),
            "by_type": {
                kind: sum(1 for r in online if r.service_type == kind)
                for kind in self.service_types()
            },
            "rejected": len(self.rejected_macs),
        }
