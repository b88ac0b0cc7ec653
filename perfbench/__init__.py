"""The repository benchmark: seeded serving and tuning workloads measured end
to end and per layer.  Run ``python3 perfbench/run.py --help``."""
