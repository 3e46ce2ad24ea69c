"""Dual-clock end-to-end fleet benchmark (see README.md in this directory)."""
