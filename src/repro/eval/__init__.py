"""Evaluation harnesses: accuracy (DTW), latency, and the paper's tables."""
