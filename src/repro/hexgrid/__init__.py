"""Hexagonal grid substrate (offline H3 substitute). See ``hex.py``."""
