"""The repo benchmark: four wall-clock workloads and a traced per-layer pass.

See ``README.md`` in this directory for the workloads, metrics, bounds
and how to run it.
"""
