.PHONY: install test bench bench-smoke bench-e2e check-autotune check-backends check-chaos check-resilience check-scheduler check-static check-types tables csv examples all clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src pytest tests/

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Quick hot-path perf smoke (asserts bit-identical scalar/vectorized parity).
# PYTHONPATH makes it work from a bare checkout, before `make install`.
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_hotpaths.py

# End-to-end trajectory: the perfbench workloads, untraced, on seeds 1-3;
# appends one entry per measured tree to BENCH_e2e.json.  AGAINST=<rev>
# also measures that revision's committed files, alternating run by run
# with the working tree (about 7 minutes on 2 CPUs).
bench-e2e:
	python tools/bench_e2e.py $(if $(AGAINST),--against $(AGAINST))

# Backend-registry health: every registered backend agrees with the
# vectorized reference, context dispatch stays within 5% of a direct
# backend call, and the plan cache makes relaunching one shape strictly
# cheaper than recompiling every launch (hit rates + <1.0x gate; writes
# benchmarks/results/dispatch.json).
check-backends:
	PYTHONPATH=src python benchmarks/bench_dispatch.py --out benchmarks/results/dispatch.json

# Adaptive-dispatch health: sweep the Fig-14 density grid with
# backend="auto" against every static backend; at every point a cold
# planner must land within 1.05x of the best static backend, and a
# warmed AutotuneTable must shift at least one crossover-region choice
# (writes benchmarks/results/autotune.json).
check-autotune:
	PYTHONPATH=src python benchmarks/bench_autotune.py --out benchmarks/results/autotune.json

# Resilience health: a seeded fault plan (corrupted tiles + a killed
# device) on a checked multi-device closure must be detected (zero false
# negatives), recovered bit-identically via retry + repartition, with zero
# false positives on the clean run; ABFT-checked closure stays <1.3x of
# unchecked at 512² (writes benchmarks/results/resilience.json).
check-resilience:
	PYTHONPATH=src python benchmarks/bench_resilience.py --out benchmarks/results/resilience.json

# Chaos soak: >=50 seeded randomized fault schedules (tight deadlines,
# backoff, cancellation, breakers, brownout closures, threaded faults)
# through the full stack; every run must terminate with a bit-correct
# result or a typed error, every seed must replay byte-identically on a
# virtual clock, and a hard-failing backend must stop being dispatched
# once its breaker trips and recover via the half-open probe (writes
# benchmarks/results/chaos.json).
check-chaos:
	PYTHONPATH=src python benchmarks/bench_chaos.py --out benchmarks/results/chaos.json

# Scheduler health: lowering a single launch onto a LaunchGraph stays
# within 1.05x of direct dispatch; a 4-worker threaded banded closure is
# byte-identical to serial; and with w = min(4, CPUs) workers the 2048²
# w-band closure iteration runs >= 1 + 0.8(w-1)/3 times faster threaded
# (1.8x on 4 CPUs, 1.27x on 2; skipped, and recorded as skipped, on one
# CPU; writes benchmarks/results/scheduler.json).
check-scheduler:
	PYTHONPATH=src python benchmarks/bench_scheduler.py --out benchmarks/results/scheduler.json

# Static analysis gate: the repo-wide invariant lint (must be clean with
# zero suppressions) plus gradual typing.  Runs before the benchmark
# gates in CI so convention regressions fail fast.
check-static: check-types
	python tools/check_invariants.py

# Gradual typing: strict on repro.isa/repro.compile/repro.hooks,
# permissive elsewhere (config in pyproject.toml).  Skips gracefully
# when mypy is not installed — the bare container ships without it.
check-types:
	@if python -c "import mypy" 2>/dev/null; then \
		python -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping check-types (pip install mypy to enable)"; \
	fi

tables:
	PYTHONPATH=src python -m repro.bench

csv:
	PYTHONPATH=src python -c "from repro.bench.export import export_all; print(*export_all('benchmarks/results/csv'), sep='\n')"

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		PYTHONPATH=src python $$script || exit 1; \
	done

all: install test bench tables

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results build src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
