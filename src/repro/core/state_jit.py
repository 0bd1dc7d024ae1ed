"""Placeholder for the deleted numba-compiled kernel.

``perfbench/tracing.py`` imports this module and reads
:data:`HAVE_NUMBA`; the flag exists only so that import keeps working
until the tracer reads built-in spans (the observability item of
ROADMAP.md).
"""

__all__ = ["HAVE_NUMBA"]

HAVE_NUMBA = False
