"""Reference implementations the property suites (and
``benchmarks/bench_policy.py``) compare the indexed readers against.

These are the two scans :class:`repro.core.policy.PolicyIndex`
replaced, kept word for word: they read every row (pair), so they are
the definition of what the index may only ever prune towards.
"""

from repro.core.policy import flow_addrs
from repro.core.policy_compiler import _Space, _pair_finding, _row_findings


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
