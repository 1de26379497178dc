"""End-to-end benchmark: four workloads, per-layer spans timed from outside.

``python -m benchmarks.e2e run --seed N`` runs every workload, each in a
fresh interpreter; ``run --trace`` reports per-layer numbers instead;
``compare A B`` judges two sets of runs against ``BENCHMARK.json``'s
bounds. See ``benchmarks/e2e/README.md``.
"""
