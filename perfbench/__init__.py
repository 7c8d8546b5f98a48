"""Equal-oracle-budget benchmark of dgfm, dgfm-plus, gfm and gfm-plus.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
