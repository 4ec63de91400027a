"""Reference implementations the property suites (and
``benchmarks/bench_policy.py``) compare the production code against.

``first_match`` and ``verify_rows_all_pairs`` are the two scans
:class:`repro.core.policy.PolicyIndex` replaced, kept word for word:
they read every row (pair), so they are the definition of what the
index may only ever prune towards.  :class:`PostedForwardingSwitch` is
the datapath whose forwarding delay is an event of its own, which the
run-ahead action stage must match frame for frame.
"""

from repro.core.policy import flow_addrs
from repro.core.policy_compiler import _Space, _pair_finding, _row_findings
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
