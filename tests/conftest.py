"""Shared fixtures.

Frame construction dominates test startup, so the common frames are built
once per session. Tests that need a nonstandard frame build their own.
"""

import tracemalloc

import numpy as np
import pytest

import needlets.frame
from needlets import build_frame, jacobi_basis, make_filter, make_profile, wicksell_model


@pytest.fixture(scope="session")
def filt():
    return make_filter(make_profile("polynomial-shape", 2))


@pytest.fixture(scope="session")
def frame7(filt):
    # budget 256, exact span 129
    return build_frame(jacobi_basis(0.0, 1.0), filt, j_max=7)


@pytest.fixture(scope="session")
def frame8(filt):
    # budget 512, matches the default simulation setup
    return build_frame(jacobi_basis(0.0, 1.0), filt, j_max=8)


@pytest.fixture(scope="session")
def frame10(filt):
    # level 10 has 2048 nodes, two node blocks of frame.NODE_BLOCK
    return build_frame(jacobi_basis(0.0, 1.0), filt, j_max=10)


@pytest.fixture
def small_blocks(monkeypatch):
    """16-node blocks and 8-column Gram panels, which split level 6 (128
    nodes, 95 frequencies) into 8 node blocks and 12 panels in 4 groups."""
    monkeypatch.setattr(needlets.frame, "NODE_BLOCK", 16)
    monkeypatch.setattr(needlets.frame, "BLOCK", 8)
    assert [len(g) for g in needlets.frame._groups(95, 128)] == [2, 2, 3, 5]


@pytest.fixture(scope="session")
def wicksell512():
    return wicksell_model(512)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn) -> (fn(), the peak bytes traced while fn ran), so a memory bound takes one line.

    numpy reports its buffers to tracemalloc, so arrays formed before the
    call are not counted and arrays fn forms are.
    """

    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
