"""Baseline imputation methods the paper compares against: GTI and SLI."""
