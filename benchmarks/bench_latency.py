"""E5 (Section V.B.3, latency).

Paper: "We test the network delay by pinging from the user to an
Internet server.  Compared with legacy switching network without
access the Internet through OpenFlow-enable equipment ... LiveSec only
increase the average latency by around 10%."

Regenerated rows: average ping RTT over the pure legacy path vs the
LiveSec path, measured by the same function ``python -m repro latency``
prints (:func:`repro.cli.measure_ping_latency`: 0.8 ms WAN each way,
30 pings 0.2 s apart, the setup ping left out of the LiveSec mean).
"""

import sys

from repro.analysis import format_table
from repro.cli import measure_ping_latency

from common import run_once


def test_e5_latency_overhead(benchmark):
    legacy_ms, livesec_ms = run_once(benchmark, measure_ping_latency)
    overhead = livesec_ms / legacy_ms - 1.0
    print(file=sys.stderr)
    print(
        format_table(
            ["path", "avg RTT (ms)"],
            [
                ["legacy switching (no OpenFlow)", round(legacy_ms, 3)],
                ["LiveSec Access-Switching layer", round(livesec_ms, 3)],
                ["overhead", f"{overhead * 100:.1f}%  (paper: ~10%)"],
            ],
            title="E5: ping latency, legacy vs LiveSec",
        ),
        file=sys.stderr,
    )
    # Shape: a modest single-digit-to-low-teens percentage increase.
    assert 0.0 < overhead < 0.25, f"overhead {overhead:.2%} out of shape"
