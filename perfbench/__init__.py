"""Benchmark harness for melodygen; see ``perfbench/run.py`` for usage."""
