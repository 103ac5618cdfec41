"""Benchmark and per-layer tracer for the lookahead search loop; see run.py."""
