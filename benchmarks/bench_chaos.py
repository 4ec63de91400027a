"""E21 (robustness: failure recovery under deterministic chaos).

The paper deploys LiveSec on a production campus network (Section V),
where VM-based service elements *do* die.  This bench scores the
controller's failure-recovery machinery with the seeded fault harness
(:mod:`repro.faults`):

* one IDS of three crashes mid-run with live steered sessions: every
  affected session must fail over to a healthy peer, with the
  detection/recovery latency bounded by the liveness timeout plus the
  registry expiry sweep;
* the same plan replayed with the same seed must produce an
  event-for-event identical run (the harness is a reproduction tool,
  not a fuzzer);
* with OpenFlow-channel message drops layered on top, barrier-acked
  installs retry until the rules stick and sessions still recover.

E17 (adversarial data plane) scores the forwarding-accountability
loop: for each compromised-switch variant the controller must convict
the misbehaving datapath from path-proof evidence, quarantine it, and
re-steer its sessions -- deterministically.  Run this file directly
(``python benchmarks/bench_chaos.py``) to write the detection results
to ``BENCH_chaos_detect.json`` at the repo root.
"""

import sys

from repro.analysis import format_table
from repro.faults import run_chaos_scenario, run_compromised_switch_scenario

from common import run_once, write_result

COMPROMISE_VARIANTS = ("skip-waypoint", "misroute", "tag-strip")


def test_e21_chaos_recovery(benchmark):
    def experiment():
        clean = run_chaos_scenario(seed=7, fail_mode="open", crash="one",
                                   duration_s=12.0)
        replay = run_chaos_scenario(seed=7, fail_mode="open", crash="one",
                                    duration_s=12.0)
        lossy = run_chaos_scenario(seed=7, fail_mode="open", crash="one",
                                   duration_s=12.0, channel_drop_rate=0.15)
        return {"clean": clean, "replay": replay, "lossy": lossy}

    result = run_once(benchmark, experiment)
    clean, replay, lossy = (
        result["clean"], result["replay"], result["lossy"]
    )
    print(file=sys.stderr)
    print(
        format_table(
            ["quantity", "clean", "lossy channel"],
            [
                ["affected sessions",
                 clean.affected_sessions, lossy.affected_sessions],
                ["recovered sessions",
                 clean.recovered_sessions, lossy.recovered_sessions],
                ["unrecovered sessions",
                 clean.unrecovered_sessions, lossy.unrecovered_sessions],
                ["time-to-detect max (s)",
                 round(clean.time_to_detect_s["max"], 3),
                 round(lossy.time_to_detect_s["max"], 3)],
                ["time-to-recover max (s)",
                 round(clean.time_to_recover_s["max"], 3),
                 round(lossy.time_to_recover_s["max"], 3)],
                ["install retries",
                 clean.install_retries, lossy.install_retries],
                ["install failures",
                 clean.install_failures, lossy.install_failures],
            ],
            title="E21: failure recovery under chaos",
        ),
        file=sys.stderr,
    )
    # Shape: the crash hit live sessions and every one of them failed
    # over to a healthy peer.
    assert clean.affected_sessions > 0
    assert clean.recovered_sessions == clean.affected_sessions
    assert clean.unrecovered_sessions == 0
    # Detection is bounded by liveness timeout (1.5s) + report interval
    # + the 1s expiry sweep; recovery happens in the same sweep.
    assert clean.time_to_detect_s["max"] <= 3.5
    assert clean.time_to_recover_s["max"] <= 3.5
    # Same seed => identical event log, event for event.
    assert clean.event_digest == replay.event_digest
    # A lossy control channel forces retries, but barrier-acked
    # installs keep every session recoverable.
    assert lossy.install_retries > 0
    assert lossy.recovered_sessions == lossy.affected_sessions
    assert lossy.unrecovered_sessions == 0


def run_detect_experiment():
    results = []
    for variant in COMPROMISE_VARIANTS:
        report = run_compromised_switch_scenario(seed=7, variant=variant)
        replay = run_compromised_switch_scenario(seed=7, variant=variant)
        results.append({
            "variant": variant,
            "path_violations": report.path_violations,
            "quarantined_dpids": report.quarantined_dpids,
            "recovered_sessions": report.recovered_sessions,
            "time_to_detect_s": report.time_to_detect_s,
            "time_to_recover_s": report.time_to_recover_s,
            "event_digest": report.event_digest,
            "digest_stable": report.event_digest == replay.event_digest,
        })
    return results


def report_detect(results, out=sys.stderr):
    print(file=out)
    print(
        format_table(
            ["variant", "violations", "quarantined", "TTD max (s)",
             "TTR max (s)", "recovered", "digest stable"],
            [
                [r["variant"], r["path_violations"],
                 ",".join(str(d) for d in r["quarantined_dpids"]),
                 round(r["time_to_detect_s"]["max"], 3),
                 round(r["time_to_recover_s"]["max"], 3),
                 r["recovered_sessions"],
                 "yes" if r["digest_stable"] else "NO"]
                for r in results
            ],
            title="E17: compromised-switch detection and quarantine",
        ),
        file=out,
    )


def check_detect(results):
    for r in results:
        # Conviction: the compromised dpid (the middle AS switch, 2)
        # and only it, from path-proof evidence.
        assert r["quarantined_dpids"] == [2], r
        assert r["path_violations"] >= 1, r
        # Bounded detection: the egress proof convicts within a few
        # packets; the absence audit within the silence threshold (1s)
        # plus one audit sweep (0.5s).
        assert r["time_to_detect_s"]["max"] <= 2.0, r
        # Recovery: the quarantined switch's sessions were re-steered.
        assert r["recovered_sessions"] >= 1, r
        assert r["time_to_recover_s"]["max"] <= 2.5, r
        # Determinism: same seed, same event log.
        assert r["digest_stable"], r


def test_e17_compromised_switch_detection(benchmark):
    results = run_once(benchmark, run_detect_experiment)
    report_detect(results)
    check_detect(results)


if __name__ == "__main__":
    detect_results = run_detect_experiment()
    report_detect(detect_results, out=sys.stdout)
    write_result("chaos_detect", detect_results)
    check_detect(detect_results)
