"""Benchmark for biheun; run ``python3 perfbench/run.py --help`` from the repo root."""
