"""Evaluation toolkit for grammatical error correction systems.

Reference-based metrics (n-gram overlap, edit-level F, token-level
improvement), reference-less grammaticality metrics (detector error
counts, a learned fluency model), linear interpolation between the two
families with an oracle mixing weight, and meta-evaluation utilities:
correlation with human rankings, reference ablation, and a gaming check.
"""

__version__ = "0.1.0"
