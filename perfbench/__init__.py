"""Benchmark of the dckpca package: see README.md."""
