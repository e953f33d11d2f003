"""Layered benchmark of anharmprop; run it with ``python3 perfbench/run.py``."""
