# Convenience targets for the LiveSec reproduction.

.PHONY: install test bench experiments bench-smoke lint stats-smoke chaos-smoke \
	chaos-determinism accountability-smoke replay-smoke policy-smoke \
	shard-smoke fluid-smoke ops-smoke perf-smoke audit examples all

# $(call same_digest,<command>,<grep -o pattern>,<label>): run the
# command twice (output kept in /tmp/<label>-a.txt and -b.txt) and fail
# unless both runs printed the same, non-empty digest.
define same_digest
@$(1) | tee /tmp/$(3)-a.txt
@$(1) | tee /tmp/$(3)-b.txt
@a=$$(grep -o '$(2)' /tmp/$(3)-a.txt); \
b=$$(grep -o '$(2)' /tmp/$(3)-b.txt); \
if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
	echo "$(3): digest mismatch: '$$a' vs '$$b'"; exit 1; \
else \
	echo "$(3): same digest twice ($$a)"; \
fi
endef

install:
	python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

# Every paper experiment of the catalogue (E1-E14, E20) as the
# markdown tables EXPERIMENTS.md is pasted from; about 3 minutes.
experiments:
	PYTHONPATH=src python -m repro experiment all --format markdown

# Seconds-scale microbenches of the scan-vs-index hot paths, the
# shard fabric's scaling curve, and the fluid fast-forward kernel;
# each exits non-zero unless the new path beats its reference
# (indexed vs linear oracle; >=3x aggregate sessions/sec at 8 shards
# vs 1; >=10x wall-clock at 1000 suspended flows, and 300 / 500 flows
# with uniform(0, 0.1) starts suspending, delivered == packet).  Writes
# BENCH_flowtable.json + BENCH_eventlog.json + BENCH_policy.json +
# BENCH_shard_scaling.json + BENCH_fluid.json.
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_flowtable.py
	PYTHONPATH=src python benchmarks/bench_eventlog.py
	PYTHONPATH=src python benchmarks/bench_policy.py
	PYTHONPATH=src python benchmarks/bench_shard_scaling.py
	PYTHONPATH=src python benchmarks/bench_fluid.py

# The perf ledger at one-tenth size plus the checks on the harness
# itself.  run.py exits non-zero on a failed output check or when the
# untraced and the traced repetition disagree on a sim metric or a
# digest.  No timing gate: hosted runners cannot resolve one.
perf-smoke:
	python3 perf/run.py --quick
	python -m pytest perf/ -q

# ruff when available; otherwise a full-tree syntax check plus the
# stdlib-only unused-import checker (the part of ruff we rely on).
# check_dropped_handles enforces the kernel's calling convention: a
# `.schedule*(` whose handle is dropped should have been a `.post*(`.
# check_rule_writers keeps one FlowMod writer (controller.apply_rule),
# one drop planner (steering's _plan_block) and one writer of the
# spanning-tree group drop (SteeringApp.on_switch_joined) under core/.
# check_process_counters keeps what a run numbers the run's: no
# itertools.count made at import time under src/repro.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples scripts; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		python -m compileall -q src tests benchmarks examples scripts; \
	fi
	python scripts/check_unused_imports.py src tests benchmarks examples scripts
	python scripts/check_dropped_handles.py src/repro benchmarks examples
	python scripts/check_rule_writers.py src/repro/core
	python scripts/check_process_counters.py src/repro

# Which src/repro functions the entry points (ledger, smokes, CLI,
# examples, benches, catalogue) run, against tier-1 under the same
# profile hook: prints the per-module table and fails when more
# functions than the committed ceiling are reached by no entry point.
# About half an hour on a 2-core host, hence not part of lint.
audit:
	python scripts/call_audit.py

stats-smoke:
	PYTHONPATH=src python -m repro stats --quick

# Seeded chaos run: one element crash with healthy peers; exits
# non-zero unless every affected session failed over.
chaos-smoke:
	PYTHONPATH=src python -m repro chaos --seed 0 --assert-recovered

# The same seeded chaos run twice; the event-log digests must match
# exactly or the simulation is no longer deterministic.  The sharded
# variant repeats the check on a 4-shard control plane, where the
# digest folds every shard's log plus the coordinator's.
chaos-determinism:
	$(call same_digest,PYTHONPATH=src python -m repro chaos --seed 0,digest [0-9a-f]*,chaos)
	$(call same_digest,PYTHONPATH=src python -m repro chaos --seed 0 --shards 4,digest [0-9a-f]*,chaos-shards)

# Seeded compromised-switch scenario under forwarding accountability:
# the misbehaving datapath must be convicted and quarantined within
# bounded sim time, its sessions re-steered, and the event log
# digest-stable across two same-seed runs -- on one controller and on
# two shards, where evidence and the quarantine cross the fabric.
accountability-smoke:
	$(call same_digest,PYTHONPATH=src python -m repro chaos \
		--scenario compromised-switch --variant skip-waypoint --seed 0 \
		--assert-detected --assert-recovered,digest [0-9a-f]*,acct)
	@grep -q 'quarantined=\[2\]' /tmp/acct-a.txt || \
		{ echo "compromised dpid 2 was not quarantined"; exit 1; }
	$(call same_digest,PYTHONPATH=src python -m repro chaos \
		--scenario compromised-switch --variant skip-waypoint --seed 0 \
		--shards 2 --assert-detected --assert-recovered,digest [0-9a-f]*,acct-shards)
	@grep -q 'quarantined=\[2\]' /tmp/acct-shards-a.txt || \
		{ echo "compromised dpid 2 was not quarantined on 2 shards"; exit 1; }

# The shard fabric end to end: boot a 4-shard control plane twice,
# where a TCP connection between the first and the last shard's users
# must complete and both runs must print the same combined digest (a
# first frame's release waits on posted events), then the seeded
# shard-failover scenario -- a cross-pod roam must hand its established
# session off intact, and killing a shard must re-home its switches
# onto the survivors with the crashed pod's flows still delivering
# bytes afterwards and no session torn down (a dead shard's apps are
# crashed, so nothing of it fails a session over), before the shard
# restarts over an empty book.
shard-smoke:
	$(call same_digest,PYTHONPATH=src python -m repro shards --shards 4,combined digest: [0-9a-f]*,shard-fabric)
	@grep -q 'east-west=1/1' /tmp/shard-fabric-a.txt || \
		{ echo "a connection between two shards' users did not complete"; \
		  exit 1; }
	@PYTHONPATH=src python -m repro chaos --scenario shard-failover \
		--seed 0 --assert-rehomed | tee /tmp/shard-smoke.txt
	@grep -q 'roam-survived=True' /tmp/shard-smoke.txt || \
		{ echo "cross-pod handoff dropped the session"; exit 1; }
	@grep -q 'flows-after-crash=2/2' /tmp/shard-smoke.txt || \
		{ echo "sessions did not survive the shard crash"; exit 1; }
	@grep -q 'torn-down=0' /tmp/shard-smoke.txt || \
		{ echo "a session was torn down across the shard crash"; exit 1; }

# The fluid fast-forward kernel end to end: a seeded CBR mix must
# match the packet-level oracle flow-for-flow and digest-for-digest
# (--assert-equivalent exits non-zero otherwise), including under a
# mid-run link flap; the fluid run itself must be digest-stable
# across two identical invocations.
fluid-smoke:
	$(call same_digest,PYTHONPATH=src python -m repro fluid --seed 3 \
		--assert-equivalent,digest [0-9a-f]\{64\},fluid)
	@PYTHONPATH=src python -m repro fluid --seed 6 --link-flap \
		--assert-equivalent | tee /tmp/fluid-flap.txt
	@echo "fluid oracle equivalence OK (steady + link flap)"

# Record a seeded scenario's event log to JSONL, replay it from disk,
# and require the replayed digest to match the live run's exactly.
replay-smoke:
	@PYTHONPATH=src python -m repro chaos --seed 0 \
		--record /tmp/replay-live.jsonl | tee /tmp/replay-live.txt
	@PYTHONPATH=src python -m repro replay /tmp/replay-live.jsonl --at 6.0
	@PYTHONPATH=src python -m repro replay /tmp/replay-live.jsonl \
		--digest-only | tee /tmp/replay-again.txt
	@a=$$(grep -o 'digest [0-9a-f]\{64\}' /tmp/replay-live.txt); \
	b=$$(grep -o 'digest [0-9a-f]\{64\}' /tmp/replay-again.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "replay digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "replay round trip OK ($$a)"; \
	fi

# The policy-compiler lifecycle end to end: the sample intent file
# compiles clean, the seeded conflicting file is rejected with its
# structured report, and a mid-scenario hot-reload is digest-stable
# across two identical runs and re-decides the live sessions it changes.
policy-smoke:
	PYTHONPATH=src python -m repro policy check examples/policies/intents.json
	@if PYTHONPATH=src python -m repro policy check \
			examples/policies/conflicting_intents.json \
			> /tmp/policy-conflicts.txt 2>&1; then \
		echo "conflicting intent file was NOT rejected"; exit 1; \
	fi
	@grep -q "contradictory" /tmp/policy-conflicts.txt || \
		{ echo "missing contradictory finding"; exit 1; }
	@grep -q "shadowed" /tmp/policy-conflicts.txt || \
		{ echo "missing shadowed finding"; exit 1; }
	@echo "conflicting intent file rejected with both findings"
	$(call same_digest,PYTHONPATH=src python -m repro policy reload \
		examples/policies/intents.json \
		--record /tmp/policy-reload.jsonl,digest [0-9a-f]\{64\},policy)
	@grep -q "sessions re-decided: [1-9]" /tmp/policy-a.txt || \
		{ echo "the reload re-decided no live session"; exit 1; }

# Runtime app operations end to end: boot a deployment, stop ->
# reload -> start the monitor app mid-traffic, record the event log,
# and replay the session journal from disk (the CLI itself exits
# non-zero if the replayed digest diverges from the live one).  Run
# twice: the journal digest must be identical across same-seed runs.
ops-smoke:
	$(call same_digest,PYTHONPATH=src python -m repro ops --action cycle \
		--record /tmp/ops.jsonl,journal digest [0-9a-f]\{64\},ops)
	@PYTHONPATH=src python -m repro journal /tmp/ops.jsonl --digest-only

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/campus_visualization.py
	PYTHONPATH=src python examples/attack_mitigation.py
	PYTHONPATH=src python examples/load_balancing.py
	PYTHONPATH=src python examples/aggregate_flow_control.py
	PYTHONPATH=src python examples/datacenter_fabric.py

all: install test bench
