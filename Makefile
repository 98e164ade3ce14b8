# Local CI gate for the DistMSM reproduction.
#
# `make ci` runs, in order: ruff (lint), mypy (typecheck, scoped to the
# packages pyproject.toml names), the repro.analyze whole-program static
# analyzer (report written to results/analyze_report.json), the
# repro.verify pass, the smoke benchmarks, and the tier-1 test suite.  ruff and mypy are optional dev extras — when
# they are not installed the corresponding step is skipped with a notice
# instead of failing, so the gate works in offline environments that only
# carry the runtime deps.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: ci lint typecheck analyze verify bench-smoke bench-compare chaos-smoke byzantine-smoke serve-smoke cluster-smoke trace-smoke tune-smoke test

ci: lint typecheck analyze verify bench-smoke byzantine-smoke chaos-smoke serve-smoke cluster-smoke trace-smoke tune-smoke bench-compare test
	@echo "ci: all gates passed"

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "== ruff check src/ tests/"; \
		$(PYTHON) -m ruff check src tests || exit 1; \
	else \
		echo "== ruff not installed; skipping lint (pip install ruff)"; \
	fi

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		echo "== mypy (packages from pyproject.toml)"; \
		$(PYTHON) -m mypy || exit 1; \
	else \
		echo "== mypy not installed; skipping typecheck (pip install mypy)"; \
	fi

analyze:
	@echo "== python -m repro.analyze src/repro"
	@$(PYTHON) -m repro.analyze src/repro --json -o results/analyze_report.json

verify:
	@echo "== python -m repro.verify"
	@$(PYTHON) -m repro.verify

bench-smoke:
	@echo "== pipeline-overlap smoke benchmark"
	@$(PYTHON) benchmarks/bench_pipeline_overlap.py --smoke
	@echo "== fig3 window-policy benchmark"
	@$(PYTHON) benchmarks/bench_fig3.py
	@echo "== vectorized backend + heap engine smoke benchmark"
	@$(PYTHON) benchmarks/bench_vectorized.py --smoke
	@echo "== Groth16 G2 + pairing arithmetic vs frozen smoke benchmark"
	@$(PYTHON) benchmarks/bench_groth16.py --smoke
	@echo "== src/ size and unimported modules (fails if any module is unimported)"
	@$(PYTHON) benchmarks/bench_src_lines.py

bench-compare:
	@echo "== benchmark regression gate (results/ vs benchmarks/baselines/)"
	@$(PYTHON) benchmarks/compare_bench.py

chaos-smoke:
	@echo "== fault-recovery smoke benchmark"
	@$(PYTHON) benchmarks/bench_fault_recovery.py --smoke

byzantine-smoke:
	@echo "== byzantine-tolerance smoke benchmark"
	@$(PYTHON) benchmarks/bench_byzantine.py --smoke

serve-smoke:
	@echo "== serving-latency smoke benchmark"
	@$(PYTHON) benchmarks/bench_serving.py --smoke

cluster-smoke:
	@echo "== cluster-scaling smoke benchmark"
	@$(PYTHON) benchmarks/bench_cluster.py --smoke

trace-smoke:
	@echo "== traced-run smoke benchmark (observe audit)"
	@$(PYTHON) benchmarks/bench_trace.py --smoke

tune-smoke:
	@echo "== auto-tuner smoke benchmark (tuned vs analytic plans)"
	@$(PYTHON) benchmarks/bench_tune.py --smoke

test:
	@echo "== pytest (tier 1)"
	@$(PYTHON) -m pytest -x -q
