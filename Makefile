PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint staticcheck staticcheck-baseline bench bench-cache bench-serving bench-resilience bench-sqlengine bench-engine-ablation bench-tracing-overhead bench-multitenant bench-agents bench-e2e-smoke profile-e2e verify docs-check trace-demo

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.cli lint examples/

# Concurrency & determinism static analysis over the source tree
# (LCK/ASY/DET/OBS/CFG — see docs/staticcheck.md). --strict fails on
# warnings and stale baseline entries too, so any new finding breaks
# `make verify`.
staticcheck:
	$(PYTHON) -m repro.cli check src/ --strict

# Deliberately grandfather every current finding into the baseline.
# The tree is kept clean, so this should normally be a no-op.
staticcheck-baseline:
	$(PYTHON) -m repro.cli check src/ --write-baseline

# Every bench_*.py drill-down (and the e2e harness's unit tests) in one
# pytest run: the paper artifacts and every gated bench below.
bench:
	$(PYTHON) -m pytest benchmarks/ -q

# Warm-vs-cold cache speedup on text2sql; writes BENCH_cache.json.
bench-cache:
	$(PYTHON) -m pytest benchmarks/bench_cache.py -q

# The continuous-batching scheduler vs sequential dispatch (ratio bars
# at 16 and 64 clients, time-to-first-token); writes BENCH_serving.json.
bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving_throughput.py -q

# Survival rate and breaker recovery under a deterministic fault
# timeline, retries + fallback vs a retries-off, no-fallback baseline;
# writes BENCH_resilience.json.
bench-resilience:
	$(PYTHON) -m pytest benchmarks/bench_resilience.py -q

# Indexed point lookups, sorted range scans and hash joins vs their
# naive counterparts, plus filtered GROUP BY and a residual hash join
# held to a fixed multiple of a hand-written Python loop; writes
# BENCH_sqlengine.json.
bench-sqlengine:
	$(PYTHON) -m pytest benchmarks/bench_sqlengine.py -q

# The engine's two optimizer ablations: hash join vs nested loop and a
# secondary-index lookup vs a sequential scan, same answers, each
# required to win.
bench-engine-ablation:
	$(PYTHON) -m pytest benchmarks/bench_engine_ablation.py -q

# Tracing costs under 5% of an uncached text2sql turn: traced and
# untraced phases alternate, the smallest of three estimates is held to
# the budget (~3 s).
bench-tracing-overhead:
	$(PYTHON) -m pytest benchmarks/bench_tracing_overhead.py -q

# Noisy-neighbor isolation: 8 compliant tenants x 16 concurrent
# sessions vs one tenant 10x over quota; writes BENCH_multitenant.json.
bench-multitenant:
	$(PYTHON) -m pytest benchmarks/bench_multitenant.py -q

# Multi-hop agent plan completion under 20% sql-coder flapping,
# retries + fallback vs a retries-off, no-fallback baseline; writes
# BENCH_agents.json.
bench-agents:
	$(PYTHON) -m pytest benchmarks/bench_agents.py -q

# The full-stack benchmark's unit tests plus one quick, verified run of
# its four workloads: the only place agenerate/astream/ahandle run
# under the production configuration with their output checked, so a
# sync/async pair that drifts fails here rather than in the next
# benchmark run.
bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q
	$(PYTHON) -m benchmarks.e2e --quick --seed 1

# Where one full-stack round spends its CPU: one e2e round in-process
# under a per-thread CPU-clock profiler, reported by src/repro package
# and top functions. WORKLOAD is one of chat_repeat, chat_unique,
# dash_write_mix, gen_concurrent. A diagnosis tool, not part of verify.
WORKLOAD ?= gen_concurrent
profile-e2e:
	$(PYTHON) -m benchmarks.profile_e2e --workload $(WORKLOAD)

# Validate that every relative link in the documentation resolves.
docs-check:
	$(PYTHON) -m repro.doccheck README.md docs

# Run one traced request end-to-end and print its span tree.
trace-demo:
	$(PYTHON) -m repro.cli trace

# The repo self-check: static analysis over the examples and the
# source tree itself, doc link integrity, one traced end-to-end
# request, tier-1, then every bench_*.py drill-down once (`bench`, one
# pytest run, which also writes the BENCH_*.json artifacts CI
# re-checks) and the full-stack benchmark smoke.
verify: lint staticcheck docs-check trace-demo test bench bench-e2e-smoke
