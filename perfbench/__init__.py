"""The repository benchmark: three workloads, end-to-end metrics, and a
traced run that splits each workload's wall time into layer self times.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric table.
"""
