"""The IDL federation benchmark: seeded workloads, end-to-end latency,
per-layer self time. Entry point: ``python3 perfbench/run.py``."""
