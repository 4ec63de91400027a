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
needle screen may only skip rules of.
"""

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
