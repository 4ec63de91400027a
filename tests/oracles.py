"""Reference implementations the property suites (and
``benchmarks/bench_policy.py``) compare the production code against.

``first_match`` and ``verify_rows_all_pairs`` are the two scans
:class:`repro.core.policy.PolicyIndex` replaced, kept word for word:
they read every row (pair), so they are the definition of what the
index may only ever prune towards.  :class:`PostedForwardingSwitch` is
the datapath whose forwarding delay is an event of its own, which the
run-ahead action stage must match frame for frame.
:func:`clock_share_latest` is the read of a fluid clock share that
visits every member, which the phase index in front of the pending read
may only prune towards.  :func:`lookup_linear` (with :func:`touch`) is
the flow-table scan the exact index and wildcard list replaced, and
:func:`ids_inspect_unscreened` the IDS pass over every rule that the
needle screen may only skip rules of.  :func:`settled_port_stats` and
:func:`settled_flow_stats` are the OpenFlow stats replies as they were
built when a reply settled every suspended fluid flow and then read the
stored counters, which the replies' read of what those flows owe must
match.  :class:`MutableHostTable` is the
NIB's routing table as it was when a row was a mutable record written in
place, which the tuple rows and their ``last_seen`` column must match
call for call.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.core.policy import flow_addrs
from repro.core.policy_compiler import _Space, _pair_finding, _row_findings
from repro.elements.base import Verdict
from repro.net.fluid import _PHASE_SLACK_S, sent_before
from repro.net.packet import Tcp
from repro.openflow.switch import OpenFlowSwitch


def first_match(rows, flow):
    """The first row (in the given order) whose selector matches, plus
    the number of rows scanned to find it (all of them on a miss)."""
    addrs = flow_addrs(flow)
    for scanned, policy in enumerate(rows, start=1):
        if policy.selector.matches(flow, addrs):
            return policy, scanned
    return None, len(rows)


def verify_rows_all_pairs(rows, service_types=None):
    """``policy_compiler.verify_rows`` without the index: the per-row
    findings, then the match-space algebra on every pair of rows."""
    spaces = [_Space.of(policy.selector) for policy in rows]
    findings = _row_findings(rows, spaces, service_types)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            finding = _pair_finding(rows[i], rows[j], spaces[i], spaces[j])
            if finding is not None:
                findings.append(finding)
    return findings


def clock_share_latest(share, now, pending=False):
    """``ClockShare.latest`` scanning every member: the modulo filter
    and the closed form, counted on the share's region the same way."""
    region = share.region
    region.clock_reads += 1
    latest = 0.0
    for sf, offset in share.members.items():
        if pending:
            phase = (now - sf.base) % sf.interval
            if offset + _PHASE_SLACK_S < phase < sf.interval - _PHASE_SLACK_S:
                continue
        region.closed_forms += 1
        count = sent_before(sf, now)
        if count > sf.flow.packets_sent:
            moved = sf.base + (count - 1) * sf.interval + offset
            if moved > latest:
                latest = moved
    return latest


def settled_port_stats(switch, port=None):
    """A port-stats reply's ``stats``, settle first: the fluid region
    pays every suspended flow, then the stored counters are read."""
    switch.sim.settle_fluid()
    return {
        number: {
            "tx_packets": each.tx_packets,
            "tx_bytes": each.tx_bytes,
            "rx_packets": each.rx_packets,
            "rx_bytes": each.rx_bytes,
            "tx_drops": each.tx_drops,
        }
        for number, each in sorted(switch.ports.items())
        if port is None or number == port
    }


def settled_flow_stats(switch, match):
    """A flow-stats reply's ``entries``, settle first."""
    switch.sim.settle_fluid()
    return tuple(
        {
            "match": entry.match,
            "priority": entry.priority,
            "cookie": entry.cookie,
            "packets": entry.packets,
            "bytes": entry.bytes,
            "age_s": switch.sim.now - entry.created_at,
        }
        for entry in switch.table
        if entry.match.is_subset_of(match)
    )


class PostedForwardingSwitch(OpenFlowSwitch):
    """``OpenFlowSwitch`` with the forwarding delay as an event: all
    three sites (lookup hit, PacketOut, buffered-frame release) post the
    action stage ``forwarding_delay_s`` ahead, so it reads the links,
    ports and channel when that event fires."""

    def _forward(self, frame, in_port, plan):
        self.sim.post(
            self.forwarding_delay_s, self._apply_actions, frame, in_port, plan
        )


def post_forwarding_delays(net):
    """Turn every AS switch of a built, not yet started deployment into
    a :class:`PostedForwardingSwitch` (Wi-Fi APs post already)."""
    for switch in net.topology.as_switches:
        switch.__class__ = PostedForwardingSwitch


def touch(entry, now, size):
    """Record a packet hit on a flow entry."""
    entry.last_used_at = now
    entry.packets += 1
    entry.bytes += size


def lookup_linear(table, frame, in_port, now):
    """``FlowTable.lookup`` as the pre-index scan: the first live entry
    of the table in linear-scan order (descending priority, then
    insertion) that matches, touched; expired entries are skipped, not
    evicted."""
    table.lookups += 1
    for entry in table:
        if entry.expired(now):
            continue
        if entry.match.matches(frame, in_port):
            touch(entry, now, frame.size)
            table.matched += 1
            return entry
    return None


def ids_inspect_unscreened(element, frame, flow):
    """``IntrusionDetectionElement.inspect`` with no needle screen:
    every rule evaluated in order on every payload."""
    verdicts = []
    payload = frame.app_payload()
    transport = frame.transport()
    tcp_flags = transport.flags if isinstance(transport, Tcp) else None

    for rule in element.rules:
        if not rule.matches(payload, flow.nw_proto, flow.tp_dst,
                            tcp_flags, tp_src=flow.tp_src):
            continue
        key = (flow, rule.name)
        if key in element._alerted:
            continue
        element._alerted.add(key)
        element.alerts += 1
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

    scan = element._check_portscan(flow)
    if scan is not None:
        verdicts.append(scan)
    return verdicts


@dataclass(slots=True)
class MutableHostRecord:
    """The routing-table row the NIB used to hand out and write in place."""

    mac: str
    ip: Optional[str]
    dpid: int
    port: int
    first_seen: float
    last_seen: float
    is_element: bool = False


class MutableHostTable:
    """The host half of ``NetworkInformationBase`` with mutable records:
    ``learn_host``, ``remove_host``, the lookups, the idle sweep and
    ``remove_switch``'s cascade as they were, plus steering's
    forward-only ``last_seen`` write as ``touch_host``.  The digest is
    hashed on every call (the memo is the NIB's business)."""

    def __init__(self, host_timeout_s):
        self.host_timeout_s = host_timeout_s
        self.hosts = {}
        self._hosts_by_ip = {}
        self.location_version = 0
        self._oldest_seen = 0.0

    def remove_switch(self, dpid):
        for mac in [m for m, h in self.hosts.items() if h.dpid == dpid]:
            self.remove_host(mac)

    def learn_host(self, mac, ip, dpid, port, now, is_element=False):
        existing = self.hosts.get(mac)
        if not self.hosts or now < self._oldest_seen:
            self._oldest_seen = now
        if existing is None:
            record = MutableHostRecord(mac, ip or None, dpid, port, now, now,
                                       is_element)
        else:
            if ip and ip != existing.ip:
                self._unindex_ip(mac, existing.ip)
            if existing.dpid == dpid and existing.port == port:
                existing.last_seen = now
                if ip:
                    if ip != existing.ip:
                        existing.ip = ip
                        self.location_version += 1
                    self._hosts_by_ip[ip] = mac
                if is_element and not existing.is_element:
                    existing.is_element = True
                    self.location_version += 1
                return existing, False
            record = MutableHostRecord(
                mac, ip or existing.ip, dpid, port, existing.first_seen, now,
                is_element or existing.is_element,
            )
        self.hosts[mac] = record
        if record.ip:
            self._hosts_by_ip[record.ip] = mac
        self.location_version += 1
        return record, True

    def touch_host(self, mac, at):
        record = self.hosts.get(mac)
        if record is not None:
            record.last_seen = max(record.last_seen, at)

    def remove_host(self, mac):
        record = self.hosts.pop(mac, None)
        if record is not None:
            self._unindex_ip(mac, record.ip)
            self.location_version += 1
        return record

    def _unindex_ip(self, mac, ip):
        if ip and self._hosts_by_ip.get(ip) == mac:
            del self._hosts_by_ip[ip]

    def host_by_mac(self, mac):
        return self.hosts.get(mac)

    def host_by_ip(self, ip):
        mac = self._hosts_by_ip.get(ip)
        return self.hosts.get(mac) if mac else None

    def records(self):
        return list(self.hosts.values())

    def expire_hosts(self, now, keep_alive=None):
        stale, timeout = [], self.host_timeout_s
        if now - self._oldest_seen <= timeout:
            return stale
        oldest = now
        for record in self.hosts.values():
            if now - record.last_seen > timeout:
                if keep_alive is not None and keep_alive(record):
                    record.last_seen = now
                else:
                    stale.append(record)
            elif record.last_seen < oldest:
                oldest = record.last_seen
        self._oldest_seen = oldest
        for record in stale:
            self.remove_host(record.mac)
        return stale

    def location_digest(self):
        digest = hashlib.sha256()
        for mac in sorted(self.hosts):
            h = self.hosts[mac]
            digest.update(
                f"{h.mac} {h.ip} {h.dpid} {h.port} {int(h.is_element)}\n"
                .encode()
            )
        return digest.hexdigest()
