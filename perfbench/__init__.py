"""End-to-end and layer-by-layer benchmark of the ``python -m repro`` CLI.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is the entry point; see ``perfbench/README.md``.
"""
