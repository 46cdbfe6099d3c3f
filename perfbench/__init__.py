"""The repository's serving benchmark (``python3 perfbench/run.py``).

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric prediction table.
"""
