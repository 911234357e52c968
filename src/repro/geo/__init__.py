"""Geodesy + trajectory-geometry substrate (haversine, densify, RDP, DTW)."""
