# Convenience targets for the LiveSec reproduction.

.PHONY: install test bench bench-smoke lint stats-smoke chaos-smoke \
	chaos-determinism accountability-smoke replay-smoke policy-smoke \
	shard-smoke fluid-smoke ops-smoke perf-smoke examples all

install:
	python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

# Seconds-scale microbenches of the scan-vs-index hot paths, the
# shard fabric's scaling curve, and the fluid fast-forward kernel;
# each exits non-zero unless the new path beats its reference
# (indexed vs linear oracle; >=3x aggregate sessions/sec at 8 shards
# vs 1; >=10x wall-clock at 1000 suspended flows).  Writes
# BENCH_flowtable.json + BENCH_eventlog.json +
# BENCH_shard_scaling.json + BENCH_fluid.json.
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_flowtable.py
	PYTHONPATH=src python benchmarks/bench_eventlog.py
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
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		python -m compileall -q src tests benchmarks; \
	fi
	python scripts/check_unused_imports.py src tests benchmarks

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
	@PYTHONPATH=src python -m repro chaos --seed 0 | tee /tmp/chaos-a.txt
	@PYTHONPATH=src python -m repro chaos --seed 0 | tee /tmp/chaos-b.txt
	@a=$$(grep -o 'digest [0-9a-f]*' /tmp/chaos-a.txt); \
	b=$$(grep -o 'digest [0-9a-f]*' /tmp/chaos-b.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "chaos digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "chaos determinism OK ($$a)"; \
	fi
	@PYTHONPATH=src python -m repro chaos --seed 0 --shards 4 \
		| tee /tmp/chaos-shards-a.txt
	@PYTHONPATH=src python -m repro chaos --seed 0 --shards 4 \
		| tee /tmp/chaos-shards-b.txt
	@a=$$(grep -o 'digest [0-9a-f]*' /tmp/chaos-shards-a.txt); \
	b=$$(grep -o 'digest [0-9a-f]*' /tmp/chaos-shards-b.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "sharded chaos digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "sharded chaos determinism OK ($$a)"; \
	fi

# Seeded compromised-switch scenario under forwarding accountability:
# the misbehaving datapath must be convicted and quarantined within
# bounded sim time, its sessions re-steered, and the event log
# digest-stable across two same-seed runs.
accountability-smoke:
	@PYTHONPATH=src python -m repro chaos --scenario compromised-switch \
		--variant skip-waypoint --seed 0 --assert-detected \
		--assert-recovered | tee /tmp/acct-a.txt
	@PYTHONPATH=src python -m repro chaos --scenario compromised-switch \
		--variant skip-waypoint --seed 0 --assert-detected \
		--assert-recovered | tee /tmp/acct-b.txt
	@a=$$(grep -o 'digest [0-9a-f]*' /tmp/acct-a.txt); \
	b=$$(grep -o 'digest [0-9a-f]*' /tmp/acct-b.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "accountability digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "accountability determinism OK ($$a)"; \
	fi
	@grep -q 'quarantined=\[2\]' /tmp/acct-a.txt || \
		{ echo "compromised dpid 2 was not quarantined"; exit 1; }

# The shard fabric end to end: boot a 4-shard control plane, then the
# seeded shard-failover scenario -- a cross-pod roam must hand its
# established session off intact, and killing a shard must re-home its
# switches onto the survivors with the crashed pod's flows still
# delivering bytes afterwards.
shard-smoke:
	PYTHONPATH=src python -m repro shards --shards 4
	@PYTHONPATH=src python -m repro chaos --scenario shard-failover \
		--seed 0 --assert-rehomed | tee /tmp/shard-smoke.txt
	@grep -q 'roam-survived=True' /tmp/shard-smoke.txt || \
		{ echo "cross-pod handoff dropped the session"; exit 1; }
	@grep -q 'flows-after-crash=2/2' /tmp/shard-smoke.txt || \
		{ echo "sessions did not survive the shard crash"; exit 1; }

# The fluid fast-forward kernel end to end: a seeded CBR mix must
# match the packet-level oracle flow-for-flow and digest-for-digest
# (--assert-equivalent exits non-zero otherwise), including under a
# mid-run link flap; the fluid run itself must be digest-stable
# across two identical invocations.
fluid-smoke:
	@PYTHONPATH=src python -m repro fluid --seed 3 --assert-equivalent \
		| tee /tmp/fluid-a.txt
	@PYTHONPATH=src python -m repro fluid --seed 3 --assert-equivalent \
		| tee /tmp/fluid-b.txt
	@a=$$(grep -o 'digest [0-9a-f]\{64\}' /tmp/fluid-a.txt); \
	b=$$(grep -o 'digest [0-9a-f]\{64\}' /tmp/fluid-b.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "fluid digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "fluid determinism OK ($$a)"; \
	fi
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
# across two identical runs.
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
	@PYTHONPATH=src python -m repro policy reload \
		examples/policies/intents.json \
		--record /tmp/policy-reload-a.jsonl | tee /tmp/policy-a.txt
	@PYTHONPATH=src python -m repro policy reload \
		examples/policies/intents.json \
		--record /tmp/policy-reload-b.jsonl | tee /tmp/policy-b.txt
	@a=$$(grep -o 'digest [0-9a-f]\{64\}' /tmp/policy-a.txt); \
	b=$$(grep -o 'digest [0-9a-f]\{64\}' /tmp/policy-b.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "policy reload digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "policy hot-reload OK, digest-stable ($$a)"; \
	fi

# Runtime app operations end to end: boot a deployment, stop ->
# reload -> start the monitor app mid-traffic, record the event log,
# and replay the session journal from disk (the CLI itself exits
# non-zero if the replayed digest diverges from the live one).  Run
# twice: the journal digest must be identical across same-seed runs.
ops-smoke:
	@PYTHONPATH=src python -m repro ops --action cycle \
		--record /tmp/ops-a.jsonl | tee /tmp/ops-a.txt
	@PYTHONPATH=src python -m repro ops --action cycle \
		--record /tmp/ops-b.jsonl | tee /tmp/ops-b.txt
	@PYTHONPATH=src python -m repro journal /tmp/ops-a.jsonl --digest-only
	@a=$$(grep -o 'journal digest [0-9a-f]\{64\}' /tmp/ops-a.txt); \
	b=$$(grep -o 'journal digest [0-9a-f]\{64\}' /tmp/ops-b.txt); \
	if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
		echo "ops journal digest mismatch: '$$a' vs '$$b'"; exit 1; \
	else \
		echo "ops lifecycle OK, journal digest-stable ($$a)"; \
	fi

examples:
	python examples/quickstart.py
	python examples/campus_visualization.py
	python examples/attack_mitigation.py
	python examples/load_balancing.py
	python examples/aggregate_flow_control.py
	python examples/datacenter_fabric.py

all: install test bench
