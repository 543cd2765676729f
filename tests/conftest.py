"""Pytest configuration shared by the whole tier-1 suite.

Makes the ``tests/strategies`` package (hypothesis strategies and settings)
and the ``tests/reference`` equivalence references importable from every
test file (the tests directory is intentionally not a package), mirroring
what ``benchmarks/conftest.py`` does for the benchmark helpers.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
