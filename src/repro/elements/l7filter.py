"""Protocol identification element (the deployment ports l7-filter).

Classifies each flow from the first payload-carrying packets by byte
signature (the l7-filter approach), reports the application to the
controller once per flow, and gives up after a bounded number of
unclassified packets -- also like l7-filter, which stops matching a
connection after ~10 packets.

Pattern matching over payloads is more expensive per packet than the
IDS's fixed-offset checks; the default capacity reflects the paper's
aggregate numbers (2 Gbps protocol identification vs 8 Gbps IDS from
the same 200-element pool, Section V.B.1).
"""

from __future__ import annotations

from typing import Dict, List

from repro.elements.base import ServiceElement, Verdict
from repro.elements.signatures import classify_l7
from repro.net.packet import Ethernet, FlowNineTuple

GIVE_UP_AFTER_PACKETS = 10


class ProtocolIdentificationElement(ServiceElement):
    """An l7-filter-like application classifier element."""

    service_type = "l7"

    def __init__(self, sim, name, mac, ip,
                 capacity_bps: float = 200e6,
                 per_packet_cost_s: float = 12e-6,
                 **kwargs):
        super().__init__(sim, name, mac, ip, capacity_bps=capacity_bps,
                         per_packet_cost_s=per_packet_cost_s, **kwargs)
        # flow -> application name, or packet count while unknown.
        self._classified: Dict[FlowNineTuple, str] = {}
        self._unclassified_counts: Dict[FlowNineTuple, int] = {}
        self.classifications = 0

    def inspect(self, frame: Ethernet, flow: FlowNineTuple) -> List[Verdict]:
        if flow in self._classified:
            return []
        count = self._unclassified_counts.get(flow, 0)
        if count >= GIVE_UP_AFTER_PACKETS:
            return []
        payload = frame.app_payload()
        application = classify_l7(payload) if payload else None
        if application is None:
            self._unclassified_counts[flow] = count + 1
            if self._unclassified_counts[flow] == GIVE_UP_AFTER_PACKETS:
                self._classified[flow] = "unknown"
                return [
                    Verdict("protocol", {"application": "unknown"})
                ]
            return []
        self._classified[flow] = application
        self._unclassified_counts.pop(flow, None)
        self.classifications += 1
        return [Verdict("protocol", {"application": application})]
