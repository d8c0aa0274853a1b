"""End-to-end and per-layer benchmark of the rank-aware engine.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
