"""The repository benchmark: the paper's workflow, end to end and per layer.

``python3 perfbench/run.py --workload {cli,campaign,serve} --seed N
--seconds S --trace {0,1}`` runs one workload from the root of a checkout
and prints one JSON result line last.  ``MAP.md`` beside this file records
why each workload exists, what every metric means and which layer each
per-layer metric times.
"""
