"""Layer-attributed benchmark of the multi-site test-infrastructure optimiser.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
