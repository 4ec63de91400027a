"""Intrusion detection element (the deployment ports Snort).

Per-frame signature matching over payload content, ports and TCP
flags, plus a stateful port-scan detector (many distinct destination
ports probed by one source within a short window).  Each flow is
reported at most once per matched rule -- like Snort's event
suppression -- so a long attacking flow produces one event report, not
thousands.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.elements.base import ServiceElement, Verdict
from repro.elements.signatures import DEFAULT_IDS_RULES, IdsRule
from repro.net.packet import Ethernet, FlowNineTuple, Tcp, Udp

PORTSCAN_WINDOW_S = 2.0
PORTSCAN_THRESHOLD = 15  # distinct destination ports


class IntrusionDetectionElement(ServiceElement):
    """A Snort-like IDS service element."""

    service_type = "ids"

    def __init__(self, sim, name, mac, ip,
                 rules: Optional[Sequence[IdsRule]] = None,
                 capacity_bps: float = 500e6,
                 per_packet_cost_s: float = 4.5e-6,
                 **kwargs):
        super().__init__(sim, name, mac, ip, capacity_bps=capacity_bps,
                         per_packet_cost_s=per_packet_cost_s, **kwargs)
        self.rules: Tuple[IdsRule, ...] = tuple(
            rules if rules is not None else DEFAULT_IDS_RULES
        )
        # The needle screen (Snort's fast-pattern pass): every clause
        # needle in one alternation per case mode, searched once per
        # payload before any rule runs.  A rule with a content clause
        # matches only when each clause's needle lies inside its window,
        # hence somewhere in the payload; so a payload no screen finds
        # anything in can only match the rules without one, _bodiless.
        # An IGNORECASE bytes pattern folds ASCII only, as bytes.lower
        # does, and an empty needle makes its screen always pass.
        needles: Dict[bool, Set[bytes]] = {False: set(), True: set()}
        for rule in self.rules:
            for clause in rule.clauses:
                needles[clause.nocase].add(clause.needle)
        self._screens = tuple(
            re.compile(b"|".join(map(re.escape, sorted(found))),
                       re.IGNORECASE if nocase else 0)
            for nocase, found in needles.items() if found
        )
        self._bodiless = tuple(rule for rule in self.rules
                               if not rule.clauses)
        self._alerted: Set[Tuple[FlowNineTuple, str]] = set()
        # Port-scan state: src ip -> {dst_port: last probe time}.  Kept
        # as a per-port map so the per-packet work is O(1); the windowed
        # distinct-port count is only recomputed when a *new* port shows
        # up (the only time it can cross the threshold).
        self._probe_history: Dict[str, Dict[int, float]] = defaultdict(dict)
        self._scan_alerted: Set[str] = set()
        self.alerts = 0

    def inspect(self, frame: Ethernet, flow: FlowNineTuple) -> List[Verdict]:
        verdicts: List[Verdict] = []
        transport = frame.transport()
        tcp_flags = None
        payload = b""
        if isinstance(transport, Tcp):
            tcp_flags = transport.flags
            payload = transport.payload
        elif isinstance(transport, Udp):
            payload = transport.payload
        rules = self._bodiless
        for screen in self._screens:
            if screen.search(payload) is not None:
                rules = self.rules
                break

        for rule in rules:
            if not rule.matches(payload, flow.nw_proto, flow.tp_dst,
                                tcp_flags, tp_src=flow.tp_src):
                continue
            key = (flow, rule.name)
            if key in self._alerted:
                continue
            self._alerted.add(key)
            self.alerts += 1
            verdicts.append(
                Verdict(
                    "attack",
                    {
                        "attack": rule.name.replace("|", "/"),
                        "severity": rule.severity,
                        "verdict": "malicious",
                    },
                )
            )

        scan = self._check_portscan(flow)
        if scan is not None:
            verdicts.append(scan)
        return verdicts

    def _check_portscan(self, flow: FlowNineTuple) -> Optional[Verdict]:
        if flow.nw_src is None or flow.tp_dst is None:
            return None
        if flow.nw_src in self._scan_alerted:
            return None
        now = self.sim.now
        ports = self._probe_history[flow.nw_src]
        is_new_port = flow.tp_dst not in ports
        ports[flow.tp_dst] = now
        if not is_new_port:
            return None  # repeat traffic to a known port: not a scan
        cutoff = now - PORTSCAN_WINDOW_S
        stale = [port for port, seen in ports.items() if seen < cutoff]
        for port in stale:
            del ports[port]
        if len(ports) >= PORTSCAN_THRESHOLD:
            self._scan_alerted.add(flow.nw_src)
            self.alerts += 1
            return Verdict(
                "attack",
                {
                    "attack": "SCAN portscan detected",
                    "severity": "medium",
                    "verdict": "malicious",
                    "ports": str(len(ports)),
                },
            )
        return None
