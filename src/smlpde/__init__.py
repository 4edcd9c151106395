"""All-at-once structured model learning for PDE systems on uniform grids.

States, physical parameter fields, and a small feed-forward network per
equation are recovered jointly from noisy, incomplete measurements by
minimizing a single regularized objective; a scale-indexed study drives
the penalty weights and data quality toward the full-measurement limit.
"""

__version__ = "0.1.0"
