"""The repository's benchmark: three workloads, timed end to end and
split by layer.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
