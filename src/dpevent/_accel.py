"""Merge-loop backend stamp.

The greedy merge loop is pure numpy and lives in :mod:`dpevent.entropy`.
"""

# kept because the benchmark's environment record reads both names
HAS_NUMBA = False


def backend_name() -> str:
    return "numpy"
