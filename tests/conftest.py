"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)``: the most bytes tracemalloc saw allocated while ``fn(*args)`` ran.

    Only what the call allocates counts, its result included; what
    existed before the call does not.
    """

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
