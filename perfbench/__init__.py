"""End-to-end benchmark of ``repro all`` and ``repro serve``.

Run ``python3 perfbench/run.py --workload cold|warm|serve --seed N
--seconds S --trace 0|1`` from the repository root; see README.md for
the workloads, the metrics and why each exists.
"""
