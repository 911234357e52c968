"""Synthetic AIS substrate: regions, simulator, datasets, gap injection."""
