"""Benchmark harness for bridgeguard; see run.py."""
