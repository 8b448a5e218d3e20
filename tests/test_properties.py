"""Property tests of the closed forms over random barriers (hypothesis).

Derandomized, so every run draws the same cases.  The draws cover the
opaque regime (rho L up to about 1e4, far beyond the float range of
cosh), wavenumbers within 1e-8 w of the barrier top, and the
trigonometric continuation above it.  `find_kmax` is checked against the
dense scan of every grid point that its bounded scan replaced, and the
collision report against its plain gate (test_packets.report_on_plain_gate).
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_packets import report_on_plain_gate  # noqa: E402
from tunneltimes import (BarrierConfig, GaussianSpectrum,  # noqa: E402
                         QuadratureSpec, collision_timing_report,
                         containment_outside, find_kmax, interior_field,
                         scattering_delay, standard_transit_time,
                         transfer_matrix_amplitudes, transmission_modulus,
                         transmission_phase)
from tunneltimes.barrier import _collision_amplitudes  # noqa: E402
from tunneltimes.spectrum import KmaxResult, _interior_maxima  # noqa: E402

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


def dense_kmax(spectrum, barrier, scan_points):
    """One barrier's find_kmax by the dense scan: log(g |T|) at every point
    of linspace(1e-9 w, w, scan_points), then golden section on the
    bracket of its first maximum.  None where that maximum is the first
    point, which find_kmax rejects."""
    k0 = spectrum.k0
    k_max, flag = (k0, False) if barrier.width == 0.0 else (barrier.w, True)
    if barrier.width > 0.0:
        ks = np.linspace(barrier.w * 1e-9, barrier.w, scan_points)
        with np.errstate(divide="ignore"):
            vals = -(ks - k0) ** 2 / 4.0 + np.log(transmission_modulus(ks, barrier))
            i = int(np.argmax(vals))
            if i == 0:
                return None
            if i < scan_points - 1:
                [peak] = _interior_maxima(k0, [barrier], [ks[i - 1]], [ks[i + 1]], [vals[-1]])
                if peak is not None:
                    k_max, flag = peak, False
    return KmaxResult(k_max, flag, containment_outside(spectrum, barrier))


# (w / k0, w L): w L log-uniform from 1e-6 to 300, from 300 to 2e3 (rho L
# > 300 over most of the scan), or 0, each about a third of the cells
_CELLS = st.lists(st.tuples(st.floats(1.001, 50.0),
                            st.one_of(st.floats(-6.0, 2.48).map(lambda e: 10.0 ** e),
                                      st.floats(2.48, 3.3).map(lambda e: 10.0 ** e),
                                      st.just(0.0))),
                  min_size=1, max_size=4)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(k0=st.floats(0.05, 20.0), cells=_CELLS,
       scan_points=st.sampled_from([3, 4, 5, 17, 4096, 20001]))
@example(k0=1.0, cells=[(1.5, 1.2), (4.0, 0.0), (20.0, 800.0), (4.0, 2.0)],
         scan_points=4096)  # boundary-dominated, L = 0, rho L = 800 and a scaled tail
@example(k0=1.0, cells=[(50.0, 0.5)], scan_points=5)  # maximum on the first point
@example(k0=1.0, cells=[(1e10, 0.01)], scan_points=4096)  # spectrum below the scan
def test_find_kmax_matches_dense_scan(k0, cells, scan_points):
    s = GaussianSpectrum(k0=k0)
    barriers = [BarrierConfig(w=ratio * k0, width=wl / (ratio * k0)) for ratio, wl in cells]
    want = [dense_kmax(s, b, scan_points) for b in barriers]
    apart = []
    for b, one in zip(barriers, want):
        if one is None:
            with pytest.raises(ValueError, match="k_max cannot be resolved"):
                find_kmax(s, [b], scan_points)
        else:
            apart += find_kmax(s, [b], scan_points)
    if None in want:
        with pytest.raises(ValueError, match="k_max cannot be resolved"):
            find_kmax(s, barriers, scan_points)
    else:
        assert apart == want
        assert find_kmax(s, barriers, scan_points) == want


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(k0=st.floats(2.0, 20.0), ratio=st.floats(1.1, 4.0), wl=st.floats(0.02, 3.0),
       tol=st.sampled_from([1e-3, 1e-8, 1e-12]))
@example(k0=8.0, ratio=2.0, wl=1.6, tol=1e-8)  # the CLI's collide default
def test_collision_report_equals_the_plain_gate(k0, ratio, wl, tol):
    # beyond the benchmark's draws (k0 7.2-8.8, w/k0 1.6-2.4, w L 1.2-2.1):
    # whichever rule the far-end probe starts the gate from, the report,
    # or the error it raises, is that of the plain gate
    spec = GaussianSpectrum(k0=k0)
    b = BarrierConfig(w=ratio * k0, width=wl / (ratio * k0))
    quad = QuadratureSpec(tol=tol)
    try:
        want = report_on_plain_gate(spec, b, quad)
    except (ArithmeticError, RuntimeError, ValueError) as err:
        with pytest.raises(type(err)) as got:
            collision_timing_report(spec, b, quad)
        assert str(got.value) == str(err)
    else:
        assert collision_timing_report(spec, b, quad) == want
