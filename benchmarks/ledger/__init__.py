"""The ledger: one end-to-end + per-layer benchmark for the five
standing deployments (1 query, 7 queries, 1000 tenants, exchanged
pool, federated residual) plus the row-push and process-pool variants.

``BENCHMARK.json`` at the repository root names every workload and
metric; ``benchmarks/ledger/run.py`` is the per-workload entry point
the gate runs, and ``python -m benchmarks.ledger run|trace|compare`` is
the whole-ledger front end. See ``README.md`` beside this file.

The package drives the system only through its public surface
(``repro.api`` plus the names ``repro.sql``, ``repro.plan``,
``repro.analysis``, ``repro.stream`` and ``repro.sensor`` export); the
tracer resolves its wrap targets by dotted name at run time, so a later
refactor shows up as an *unresolved* target, never as a crash.
"""
