"""Step-search SQP for equality-constrained problems with noisy objective
oracles, plus a reproducible benchmarking harness."""

__version__ = "0.1.0"
