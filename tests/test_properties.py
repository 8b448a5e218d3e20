"""Property tests of the closed forms over random barriers (hypothesis).

Derandomized, so every run draws the same cases.  The draws cover the
opaque regime (rho L up to about 1e4, far beyond the float range of
cosh), wavenumbers within 1e-8 w of the barrier top, and the
trigonometric continuation above it.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tunneltimes import (BarrierConfig, interior_field,  # noqa: E402
                         scattering_delay, standard_transit_time,
                         transfer_matrix_amplitudes, transmission_modulus,
                         transmission_phase)
from tunneltimes.barrier import _collision_amplitudes  # noqa: E402

# k / w below the top, within 1e-8 of it, and above it
_RATIO = st.one_of(st.floats(1e-3, 0.999),
                   st.floats(-1e-8, 1e-8).map(lambda e: 1.0 + e),
                   st.floats(1.001, 3.0))
_DRAWS = settings(derandomize=True, database=None, max_examples=300, deadline=None)
_BARRIERS = given(w=st.floats(0.1, 50.0), ratio=_RATIO, width=st.floats(0.0, 200.0))


@_DRAWS
@_BARRIERS
@example(w=16.0, ratio=0.5, width=100.0)  # rho L = 1386
@example(w=4.0, ratio=1.0 + 5e-9, width=3.0)
@example(w=4.0, ratio=2.5, width=3.0)
def test_collision_faces_and_unimodularity(w, ratio, width):
    # R_B + T_B and the flux |R_B|^2 + |T_B|^2 are 1; the interior field
    # meets the exterior one at both faces
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
    assert abs(abs(refl) ** 2 + abs(trans) ** 2 - 1.0) < 1e-14
    want = s * np.exp(1j * k * h) + np.exp(-1j * k * h)
    assert abs(faces - want) < 1e-13


@_DRAWS
@_BARRIERS
@example(w=16.0, ratio=0.5, width=100.0)  # rho L = 1386: |T| underflows to 0
@example(w=4.0, ratio=0.5, width=100.0)  # rho L = 346
@example(w=4.0, ratio=1.0 + 5e-9, width=3.0)
@example(w=4.0, ratio=1.0 - 5e-9, width=3.0)
@example(w=4.0, ratio=2.5, width=3.0)
def test_transmitted_channel_is_modulus_and_phase(w, ratio, width):
    # the transmitted packet's column T_B e^{ikL} is |T| e^{i Theta}
    b = BarrierConfig(w=w, width=width)
    k = ratio * w
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trans = _collision_amplitudes(k, b)
        modulus = transmission_modulus(k, b)
        want = modulus * np.exp(1j * transmission_phase(k, b))
    assert abs(trans * np.exp(1j * k * width) - want) <= 1e-14 * modulus


@_DRAWS
@_BARRIERS
@example(w=16.0, ratio=0.5, width=100.0)  # e^{rho L} overflows
@example(w=4.0, ratio=1.0 + 5e-9, width=3.0)
@example(w=4.0, ratio=2.5, width=3.0)
def test_transfer_matrix_oracle(w, ratio, width):
    # the oracle's (T, R) is the closed forms' (T_B, R_B) wherever it is
    # defined: off the top, and below the overflow of e^{rho L}
    b = BarrierConfig(w=w, width=width)
    k = ratio * w
    rho_l = math.sqrt(max(w * w - k * k, 0.0)) * width
    at_top = abs(k - w) < 1e-9 * w
    refl, trans = _collision_amplitudes(k, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            t, r = transfer_matrix_amplitudes(k, b)
        except ValueError:
            # the propagator overflows from rho L = 709.8, the product
            # a little earlier when |1 + rho / k|^2 is large
            assert at_top or rho_l > 690.0
            return
    assert not at_top and rho_l < 709.8
    assert abs(t - trans) <= 1e-11 * abs(trans)
    assert abs(r - refl) <= 1e-11


@_DRAWS
@_BARRIERS
@example(w=16.0, ratio=0.5, width=100.0)  # rho L = 1386
@example(w=4.0, ratio=1.0, width=3.0)
@example(w=4.0, ratio=2.5, width=3.0)
def test_phase_times_positive(w, ratio, width):
    # t_T and the scattering delay are finite and positive on both sides
    # of the top, and exactly 0 at L = 0
    b = BarrierConfig(w=w, width=width)
    k = ratio * w
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times = standard_transit_time(k, b), scattering_delay(k, b)
    for t in times:
        assert math.isfinite(t)
        # tau = L / k is 0 at L = 0, and also when a subnormal L underflows
        assert t > 0.0 if width / k else t == 0.0
