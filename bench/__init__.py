"""Benchmark for ctrlgauge; run it as `python3 bench/run.py` (see README.md)."""
