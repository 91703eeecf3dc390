# Repository entry points. PYTHONPATH=src is required everywhere: the
# package is laid out src/repro without an installed distribution.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint check bench bench-federated bench-recovery ledger ledger-trace ledger-compare ledger-pairs loc

## Tier-1 verification: the full unit/integration suite.
test:
	$(PYTHON) -m pytest -x -q

## Engine-invariant linter: snapshot/restore pairing, the batch
## contract (RA902: push_batch receives a punctuation-free run,
## punctuation travels by push), package layering and the one frame
## boundary (RA904) over src/repro.
lint:
	$(PYTHON) -m repro.analysis --self

## CI gate: the invariant linter, tier-1 tests, the sharded-vs-unsharded
## identity corpus, the shared-vs-private multiplex corpus (cold and
## staggered admission) and the fault-injection corpus at reduced seed
## counts, every bench at smoke scale, then every example script (they
## drive the public repro.api surface end to end; each must exit 0).
check: lint test
	REPRO_SHARD_SEEDS=4 $(PYTHON) -m pytest tests/test_shard_identity.py -q
	REPRO_MUX_SEEDS=12 $(PYTHON) -m pytest tests/test_multiplex.py -q
	REPRO_FAULT_SEEDS=3 $(PYTHON) -m pytest tests/test_fault_recovery.py -q
	$(PYTHON) -m benchmarks --smoke
	for example in examples/*.py; do $(PYTHON) $$example > /dev/null || exit 1; done

## Run every bench_*.py non-interactively; writes BENCH_*.json artifacts.
bench:
	$(PYTHON) -m benchmarks

## Just the in-network vs ship-everything radio-cost benchmark
## (writes BENCH_federated.json).
bench-federated:
	$(PYTHON) -m benchmarks.bench_federated

## Just the checkpoint-overhead + shard-failover benchmark
## (writes BENCH_recovery.json).
bench-recovery:
	$(PYTHON) -m benchmarks.bench_recovery

## The layered performance ledger (benchmarks/ledger/README.md): every
## workload end to end, one child process each. LEDGER_OUT names the
## result file, LEDGER_ARGS adds flags, e.g.
##   make ledger LEDGER_OUT=ledger-out/change.json LEDGER_ARGS="--workloads xchg_pool4,standing7_proc2 --repeat 3"
LEDGER_OUT ?= ledger-out/run.json
ledger:
	$(PYTHON) -m benchmarks.ledger run --out $(LEDGER_OUT) $(LEDGER_ARGS)

## The per-layer evidence a change cites: every workload traced at seed 7
## and scale 0.2 (where a row's time goes, span by span), e.g.
##   make ledger-trace LEDGER_OUT=ledger-out/trace.json LEDGER_ARGS="--workloads standing7,xchg_pool4"
ledger-trace:
	$(PYTHON) -m benchmarks.ledger trace --out $(LEDGER_OUT) --seed 7 --scale 0.2 $(LEDGER_ARGS)

## Compare two ledger result files (the parent's, then the change's);
## exits non-zero on a regression beyond a metric's BENCHMARK.json bound.
##   make ledger-compare A=ledger-out/base.json B=ledger-out/change.json
ledger-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make ledger-compare A=base.json B=change.json"; exit 2; }
	$(PYTHON) -m benchmarks.ledger compare $(A) $(B)

## Alternating pairs against a base revision, the check a perf claim
## cites (benchmarks/pairs.py): BASE's committed files run from
## ledger-out/.base-<sha>/, this tree from here, seeds FIRST_SEED..
## FIRST_SEED+PAIRS-1 (a held-out repeat starts past the seeds the
## change was written against), base first on odd pairs; prints every
## pair and "ahead k/N" per metric. WORKLOAD=all runs every
## BENCHMARK.json workload and ends with one summary row each.
##   make ledger-pairs BASE=HEAD~1 WORKLOAD=standing7 PAIRS=10 SECONDS=25
##   make ledger-pairs BASE=HEAD~1 WORKLOAD=all FIRST_SEED=11
PAIRS ?= 10
SECONDS ?= 25
FIRST_SEED ?= 1
ledger-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make ledger-pairs BASE=rev WORKLOAD=name|all [PAIRS=10] [SECONDS=25] [FIRST_SEED=1]"; exit 2; }
	$(PYTHON) -m benchmarks.pairs --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(SECONDS) --first-seed $(FIRST_SEED)

## Net code lines of src/repro against a base revision, docstrings and
## comments counted apart (benchmarks/loc.py): one row per module, then
## the totals. Every simplicity change reports it.
##   make loc BASE=HEAD~1
loc:
	@test -n "$(BASE)" || { echo "usage: make loc BASE=rev"; exit 2; }
	$(PYTHON) -m benchmarks.loc --base $(BASE)
