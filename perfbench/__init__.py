"""Benchmark harness for rflcs: workloads, output checks and traced runs.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see run.py.
"""
