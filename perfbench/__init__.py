"""Served-path benchmark for the busytime HTTP service (see README.md)."""
