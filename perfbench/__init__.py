"""Benchmark of the dynlr reconstruction stack; see run.py for usage."""
