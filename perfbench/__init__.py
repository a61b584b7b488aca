"""The engine's benchmark: three workloads, end-to-end metrics, and a
per-layer traced run.  ``python3 perfbench/run.py --help`` runs it; see
``BENCHMARK.json`` at the root for the workloads and metrics."""
