"""One-core benchmark of the CDC engine (see README.md; run perfbench/run.py)."""
