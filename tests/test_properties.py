"""Property tests of the closed forms over random barriers (hypothesis).

Derandomized, so every run draws the same cases.  The draws cover the
opaque regime (rho L up to about 1e4, far beyond the float range of
cosh), wavenumbers within 1e-8 w of the barrier top, and the
trigonometric continuation above it.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tunneltimes import BarrierConfig, interior_field  # noqa: E402
from tunneltimes.barrier import _collision_amplitudes  # noqa: E402

# k / w below the top, within 1e-8 of it, and above it
_RATIO = st.one_of(st.floats(1e-3, 0.999),
                   st.floats(-1e-8, 1e-8).map(lambda e: 1.0 + e),
                   st.floats(1.001, 3.0))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(w=st.floats(0.1, 50.0), ratio=_RATIO, width=st.floats(0.0, 200.0))
@example(w=16.0, ratio=0.5, width=100.0)  # rho L = 1386
@example(w=4.0, ratio=1.0 + 5e-9, width=3.0)
@example(w=4.0, ratio=2.5, width=3.0)
def test_collision_faces_and_unimodularity(w, ratio, width):
    b = BarrierConfig(w=w, width=width)
    k = ratio * w
    h = b.half_width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refl, trans = _collision_amplitudes(k, b)
        # psi(x) + psi(-x) at the faces x = +-h, psi the interior solution
        faces = interior_field(k, b, np.array([h, -h])).sum()
    s = refl + trans
    assert abs(abs(s) - 1.0) < 1e-13
    want = s * np.exp(1j * k * h) + np.exp(-1j * k * h)
    assert abs(faces - want) < 1e-13
