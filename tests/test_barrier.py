import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from tunneltimes import (BarrierConfig, collision_phase, interior_field,
                         interior_matching, symmetric_amplitudes,
                         transfer_matrix_amplitudes, transmission_modulus,
                         transmission_phase)

# reference values at (w a, L/a, k a) = (4, 0.5, 1), frozen from a
# 40-digit evaluation of the continuity-matched amplitudes
REF = {
    "mod_T": 0.14116722105885254779,
    "theta": -1.0476219891062515815,
    "phi": 2.4767779718898160618,
    "R_B": -0.98971994140734531324 - 0.022940210965944010265j,
    "T_B": 0.0032711640366376653057 - 0.14112931583241077492j,
}


def barrier(w=4.0, L=0.5):
    return BarrierConfig(w=w, width=L)


def test_barrier_config_validation():
    for w, width in [(0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5),
                     (1.0, -0.5), (1.0, math.inf), (1.0, math.nan), (1e200, 0.1)]:
        with pytest.raises(ValueError):
            BarrierConfig(w=w, width=width)
    # the largest accepted w is the last whose square is finite, and the
    # kernels stay finite there
    w_max = math.sqrt(np.finfo(float).max)
    with pytest.raises(ValueError):
        BarrierConfig(w=math.nextafter(w_max, math.inf), width=0.1)
    top = BarrierConfig(w=w_max, width=0.1)
    assert transmission_modulus(1.0, top) == 0.0
    assert transmission_phase(1.0, top) == -math.pi / 2
    # the width is bounded the same way, through (w width)^2: at w = 4 a
    # width of 1e160 would overflow z = (w^2 - k^2) L^2 in every kernel
    with pytest.raises(ValueError):
        BarrierConfig(w=4.0, width=1e160)
    l_max = 3.351951982485649e153  # the largest width with (4 width)^2 finite
    assert (4.0 * l_max) * (4.0 * l_max) < math.inf
    with pytest.raises(ValueError):
        BarrierConfig(w=4.0, width=math.nextafter(l_max, math.inf))
    wide = BarrierConfig(w=4.0, width=l_max)
    assert transmission_modulus(1.0, wide) == 0.0
    assert math.isfinite(transmission_phase(1.0, wide))
    assert math.isfinite(collision_phase(1.0, wide))
    # keyword-only: a positional (height, width) call cannot be read as w
    with pytest.raises(TypeError):
        BarrierConfig(0.5, 1.0)
    b = BarrierConfig(w=2.0, width=0.0)
    assert (b.w, b.width) == (2.0, 0.0)


def test_modulus_sech_special_case():
    # at 2 k^2 = w^2 the bracket reduces to 1 + sinh^2, so |T| = sech(w L / sqrt 2)
    for w, L in [(4.0, 0.5), (2.0, 1.3), (7.0, 0.2)]:
        b = barrier(w, L)
        k = w / math.sqrt(2.0)
        assert transmission_modulus(k, b) == pytest.approx(
            1.0 / math.cosh(w * L / math.sqrt(2.0)), rel=1e-12)


def test_modulus_top_of_barrier_limit():
    b = barrier(4.0, 0.5)
    want = 1.0 / math.sqrt(1.0 + (4.0 * 0.5 / 2.0) ** 2)
    assert transmission_modulus(4.0, b) == pytest.approx(want, rel=1e-12)


def test_modulus_frozen_reference_and_oracle():
    b = barrier()
    assert transmission_modulus(1.0, b) == pytest.approx(REF["mod_T"], rel=1e-13)
    t_or, _ = transfer_matrix_amplitudes(1.0, b)
    assert transmission_modulus(1.0, b) == pytest.approx(abs(t_or), rel=1e-12)


def test_modulus_rejects_k_zero():
    with pytest.raises(ValueError):
        transmission_modulus(0.0, barrier())
    with pytest.raises(ValueError):
        transmission_phase(0.0, barrier())
    for k in (math.nan, math.inf, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            transmission_modulus(k, barrier())
        with pytest.raises(ValueError):
            collision_phase(k, barrier())


def _one_sided_limit(f, w, side, eps=1e-4):
    # Richardson-extrapolated limit of f at w approached from one side
    vals = [f(w * (1.0 + side * eps / 2**j)) for j in range(3)]
    r1 = 2.0 * vals[1] - vals[0]
    r2 = 2.0 * vals[2] - vals[1]
    return 2.0 * r2 - r1


def test_continuity_across_top():
    b = barrier(4.0, 0.7)
    for f in (lambda k: transmission_modulus(k, b),
              lambda k: transmission_phase(k, b)):
        below = _one_sided_limit(f, 4.0, -1)
        above = _one_sided_limit(f, 4.0, +1)
        assert abs(below - above) < 1e-8


def test_theta_zero_points():
    b = barrier(4.0, 0.5)
    assert transmission_phase(4.0 / math.sqrt(2.0), b) == pytest.approx(0.0, abs=1e-12)
    b0 = barrier(4.0, 0.0)
    assert transmission_phase(1.3, b0) == 0.0


def test_theta_matches_oracle_phase():
    # Theta = arg(T e^{i k L}) for the independently matched amplitude
    for w, L, k in [(4.0, 0.5, 1.0), (2.0, 1.1, 0.7), (3.0, 0.8, 2.9), (3.0, 0.8, 5.0)]:
        b = barrier(w, L)
        t_or, _ = transfer_matrix_amplitudes(k, b)
        want = cmath.phase(t_or * cmath.exp(1j * k * L))
        got = transmission_phase(k, b)
        assert (got - want) % (2.0 * math.pi) == pytest.approx(0.0, abs=1e-10) \
            or (got - want) % (2.0 * math.pi) == pytest.approx(2.0 * math.pi, abs=1e-10)


def test_theta_frozen_reference():
    assert transmission_phase(1.0, barrier()) == pytest.approx(REF["theta"], rel=1e-13)


def test_amplitudes_frozen_reference():
    amps = symmetric_amplitudes(1.0, barrier())
    assert amps.reflection == pytest.approx(REF["R_B"], abs=1e-13)
    assert amps.transmission == pytest.approx(REF["T_B"], abs=1e-13)
    assert amps.phi == pytest.approx(REF["phi"], rel=1e-13)


def test_amplitudes_zero_width_degenerate():
    amps = symmetric_amplitudes(1.3, barrier(4.0, 0.0))
    assert amps.reflection == 0.0
    assert amps.transmission == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert amps.phi == 0.0
    # series limit: reflection vanishes linearly as L -> 0
    tiny = symmetric_amplitudes(1.3, barrier(4.0, 1e-12))
    assert abs(tiny.reflection) < 1e-10


def test_unimodularity_grid():
    rng = np.random.default_rng(7)
    for _ in range(300):
        w = rng.uniform(0.5, 20.0)
        k = rng.uniform(1e-3, 1.0 - 1e-3) * w
        L = rng.uniform(0.0, 20.0 / w)
        amps = symmetric_amplitudes(k, BarrierConfig(w=w, width=L))
        assert abs(abs(amps.combined) - 1.0) < 1e-12


def test_combined_equals_phase_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.uniform(0.5, 10.0)
        k = rng.uniform(1e-2, 1.0 - 1e-2) * w
        L = rng.uniform(0.0, 20.0 / w)
        b = BarrierConfig(w=w, width=L)
        amps = symmetric_amplitudes(k, b)
        want = cmath.exp(-1j * (k * L + collision_phase(k, b)))
        assert abs(amps.combined - want) < 1e-10


def test_phi_special_point():
    # at 2 k^2 = w^2 the cosh term drops out: phi = arctan(sinh(w L / sqrt 2))
    for w, L in [(4.0, 0.5), (2.0, 1.7)]:
        b = barrier(w, L)
        want = math.atan(math.sinh(w * L / math.sqrt(2.0)))
        assert collision_phase(w / math.sqrt(2.0), b) == pytest.approx(want, rel=1e-12)


def test_phi_opaque_limit_at_huge_w():
    # deep below the top phi -> arctan2(2 k rho, 2 k^2 - w^2), which is
    # 2 pi / 3 at k = w/2; 2k(w^2 - k^2) alone would overflow here
    for w in (1e100, 1e150):
        b = BarrierConfig(w=w, width=0.1)
        assert collision_phase(w / 2.0, b) == pytest.approx(2.0 * math.pi / 3.0,
                                                           rel=1e-15)
        assert symmetric_amplitudes(w / 2.0, b).phi == pytest.approx(
            2.0 * math.pi / 3.0, rel=1e-15)


def test_phi_frozen_values():
    # bit-for-bit values of the unscaled form: scaling by 2^-e changes no rounding
    for w, L, k, want in [(4.0, 0.5, 1.0, 2.476777971889816),
                          (16.0, 0.1, 8.0, 1.608918832712266),
                          (2.0, 3.0, 1.999, 0.005983547445574223),
                          (4.0, 400.0, 2.0, 2.0943951023931957),
                          (4.0, 0.5, 6.0, -1.985102172315316),
                          (20.0, 0.3, 14.0, 1.5632461418642472),
                          (1.5, 1.0, 1.0, 1.0317844607614999)]:
        assert collision_phase(k, BarrierConfig(w=w, width=L)) == want


def test_phi_identity_with_theta():
    # phi = arctan[w^2 sinh(rho L)/(2 k rho)] - Theta, on the tunneling branch
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.uniform(0.5, 8.0)
        k = rng.uniform(0.05, 0.95) * w
        L = rng.uniform(1e-3, 15.0 / w)
        b = BarrierConfig(w=w, width=L)
        r = math.sqrt(w * w - k * k)
        eta = math.atan2(w * w * math.sinh(r * L), 2.0 * k * r)
        want = eta - transmission_phase(k, b)
        assert collision_phase(k, b) == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_phi_branch_is_continuous_and_bounded():
    b = barrier(2.0, 3.0)
    ks = np.linspace(1e-3, 2.0 - 1e-9, 2000)
    phis = collision_phase(ks, b)
    assert np.all(phis > 0.0)
    assert np.all(phis < math.pi)
    assert np.abs(np.diff(phis)).max() < 0.05  # no branch jumps


def test_large_width_amplitudes_stay_finite():
    # deep tunneling: rho L up to 800 must neither overflow nor lose unimodularity
    for w, L, k in [(40.0, 1.0, 1.0), (1600.0, 0.5, 1.0), (4.0, 400.0, 2.0)]:
        amps = symmetric_amplitudes(k, BarrierConfig(w=w, width=L))
        assert math.isfinite(abs(amps.reflection))
        assert math.isfinite(abs(amps.transmission))
        assert abs(abs(amps.combined) - 1.0) < 1e-12
        assert transmission_modulus(k, BarrierConfig(w=w, width=L)) >= 0.0


def test_scaled_seam_matches_mpmath():
    # the amplitude kernel switches to e^{-rho L}-scaled forms at
    # (rho L)^2 = 9e4; both sides of the switch must match 50-digit closed forms
    for w, L in [(40.0, 10.0), (1000.0, 0.5), (3.0, 120.0)]:
        b = BarrierConfig(w=w, width=L)
        sides = set()
        for rl in (300.0 - 1e-6, 300.0 - 1e-9, 300.0 + 1e-9, 300.0 + 1e-6):
            k = math.sqrt(w * w - (rl / L) ** 2)
            sides.add((w * w - k * k) * L * L <= 9.0e4)
            with mp.workdps(50):
                km, wm = mp.mpf(k), mp.mpf(w)
                r = mp.sqrt(wm**2 - km**2)
                sh, ch = mp.sinh(r * L), mp.cosh(r * L)
                t_b = mp.exp(-1j * km * L) / (ch + 1j * (wm**2 - 2 * km**2) * sh
                                              / (2 * km * r))
                want = {key: complex(val) for key, val in {
                    "mod": 1 / mp.sqrt(1 + (wm**2 * sh / (2 * km * r)) ** 2),
                    "theta": mp.atan((2 * km**2 - wm**2) * mp.tanh(r * L) / (2 * km * r)),
                    "phi": mp.atan2(2 * km * r * sh, wm**2 + (2 * km**2 - wm**2) * ch),
                    "R_B": -1j * wm**2 * sh / (2 * km * r) * t_b,
                    "T_B": t_b,
                }.items()}
            amps = symmetric_amplitudes(k, b)
            got = {"mod": amps.modulus, "theta": amps.theta, "phi": amps.phi,
                   "R_B": amps.reflection, "T_B": amps.transmission}
            for key, val in got.items():
                assert abs(val - want[key]) <= 1e-12 * abs(want[key]), key
            assert abs(abs(amps.combined) - 1.0) < 1e-12
        assert sides == {True, False}


def test_oracle_unitarity_and_no_barrier():
    b = barrier(4.0, 0.5)
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = rng.uniform(1e-2, 2.5) * 4.0
        if abs(k - 4.0) < 1e-3:
            continue
        t, r = transfer_matrix_amplitudes(k, b)
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-12
    t0, r0 = transfer_matrix_amplitudes(1.3, barrier(4.0, 0.0))
    assert t0 == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert abs(r0) < 1e-14


def test_oracle_sech_cross_check():
    # k = w/sqrt2 with w L / sqrt2 = 1: both routes must give sech(1)
    w = 3.0
    L = math.sqrt(2.0) / w
    b = barrier(w, L)
    k = w / math.sqrt(2.0)
    t, _ = transfer_matrix_amplitudes(k, b)
    assert abs(t) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-12)
    assert transmission_modulus(k, b) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-12)


def test_oracle_rejects_top_and_nonpositive():
    with pytest.raises(ValueError):
        transfer_matrix_amplitudes(4.0, barrier())
    for k in (0.0, math.nan, math.inf, 1e160):  # 1e160: k^2 overflows
        with pytest.raises(ValueError):
            transfer_matrix_amplitudes(k, barrier())


def test_oracle_rejects_overflow():
    # rho L = 1386: e^{rho L} overflows the propagator.  At rho L = 705
    # it is finite, but the product with (1 + rho/k)^2 / 4 ~ 2.5e5 is not
    rho = math.sqrt(50.0**2 - 0.05**2)
    for k, b in ((8.0, barrier(16.0, 100.0)), (0.05, barrier(50.0, 705.0 / rho))):
        with pytest.raises(ValueError, match="overflows"):
            transfer_matrix_amplitudes(k, b)


def _residuals(coeffs, b, k):
    # continuity of value and derivative at both interfaces
    w = b.w
    r = math.sqrt(w * w - k * k)
    h = b.half_width
    if coeffs.incident == "left":
        def outer1(x):
            return cmath.exp(1j * k * x) + coeffs.reflection * cmath.exp(-1j * k * x)

        def outer1p(x):
            return 1j * k * cmath.exp(1j * k * x) - 1j * k * coeffs.reflection * cmath.exp(-1j * k * x)

        def outer3(x):
            return coeffs.transmission * cmath.exp(1j * k * x)

        def outer3p(x):
            return 1j * k * coeffs.transmission * cmath.exp(1j * k * x)

        def inner(x):
            return coeffs.alpha * cmath.exp(-r * x) + coeffs.beta * cmath.exp(r * x)

        def innerp(x):
            return -r * coeffs.alpha * cmath.exp(-r * x) + r * coeffs.beta * cmath.exp(r * x)
    else:
        def outer1(x):
            return cmath.exp(-1j * k * x) + coeffs.reflection * cmath.exp(1j * k * x)

        def outer1p(x):
            return -1j * k * cmath.exp(-1j * k * x) + 1j * k * coeffs.reflection * cmath.exp(1j * k * x)

        def outer3(x):
            return coeffs.transmission * cmath.exp(-1j * k * x)

        def outer3p(x):
            return -1j * k * coeffs.transmission * cmath.exp(-1j * k * x)

        def inner(x):
            return coeffs.alpha * cmath.exp(r * x) + coeffs.beta * cmath.exp(-r * x)

        def innerp(x):
            return r * coeffs.alpha * cmath.exp(r * x) - r * coeffs.beta * cmath.exp(-r * x)
    near = -h if coeffs.incident == "left" else h
    far = h if coeffs.incident == "left" else -h
    return (abs(outer1(near) - inner(near)), abs(outer1p(near) - innerp(near)),
            abs(outer3(far) - inner(far)), abs(outer3p(far) - innerp(far)))


def test_interior_matching_continuity():
    b = barrier()
    coeffs = interior_matching(1.0, b, incident="left")
    assert max(_residuals(coeffs, b, 1.0)) < 1e-12
    # matching reproduces the closed-form amplitudes
    amps = symmetric_amplitudes(1.0, b)
    assert coeffs.reflection == pytest.approx(amps.reflection, abs=1e-12)
    assert coeffs.transmission == pytest.approx(amps.transmission, abs=1e-12)


def test_interior_matching_mirror_symmetry():
    b = barrier(3.0, 0.8)
    left = interior_matching(1.2, b, incident="left")
    right = interior_matching(1.2, b, incident="right")
    assert max(_residuals(right, b, 1.2)) < 1e-12
    # the x -> -x image: same coefficient values in the mirrored basis
    assert right.alpha == pytest.approx(left.alpha, abs=1e-13)
    assert right.beta == pytest.approx(left.beta, abs=1e-13)
    assert right.reflection == pytest.approx(left.reflection, abs=1e-13)
    assert right.transmission == pytest.approx(left.transmission, abs=1e-13)


def test_interior_matching_rejects_degenerate():
    with pytest.raises(ValueError):
        interior_matching(1.0, barrier(4.0, 0.0))
    with pytest.raises(ValueError):
        interior_matching(4.0, barrier(4.0, 0.5))
    with pytest.raises(ValueError):
        interior_matching(5.0, barrier(4.0, 0.5))


def test_interior_matching_rejects_overflow():
    # e^{rho L/2} overflows a float; just below that, r e^{rho L/2} does
    for width in (40.0, 35.44):
        with pytest.raises(ValueError):
            interior_matching(1.0, barrier(40.0, width))


def test_interior_field_matches_coefficients():
    b = barrier()
    k = 1.0
    coeffs = interior_matching(k, b)
    xs = np.linspace(-b.half_width, b.half_width, 7)
    want = np.array([coeffs.alpha * cmath.exp(-math.sqrt(15.0) * x)
                     + coeffs.beta * cmath.exp(math.sqrt(15.0) * x) for x in xs])
    got = interior_field(k, b, xs)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_interior_field_opaque_matches_mpmath():
    # rho L = 1386 and rho d = 1247: T_B and cosh(rho d) are far outside
    # the float range, their product is not
    w, L, k, x = 16.0, 100.0, 8.0, -40.0
    got = interior_field(k, barrier(w, L), x)
    wm, lm, km = mp.mpf(w), mp.mpf(L), mp.mpf(k)
    r = mp.sqrt(wm**2 - km**2)
    d = lm / 2 - x
    t_b = mp.exp(-1j * km * lm) / (mp.cosh(r * lm) + 1j * (wm**2 - 2 * km**2)
                                   * mp.sinh(r * lm) / (2 * km * r))
    want = complex(t_b * mp.exp(1j * km * lm / 2)
                   * (mp.cosh(r * d) - 1j * km * mp.sinh(r * d) / r))
    assert want != 0.0
    assert abs(got - want) <= 1e-12 * abs(want)


def test_kernels_reject_overflowing_square():
    # accepted barrier (w width = 4e152), but (k width)^2 overflows above the top
    b = BarrierConfig(w=4.0, width=1e152)
    for f in (transmission_modulus, transmission_phase, collision_phase):
        with pytest.raises(ValueError):
            f(1000.0, b)
        with pytest.raises(ValueError):
            f(np.array([1.0, 1000.0]), b)


def test_array_calls_equal_scalar_calls_across_branches():
    # one array through every kernel branch: (rho L)^2 above 9e4 (scaled),
    # ordinary, the series window at the top, and above the top
    b = BarrierConfig(w=4.0, width=100.0)
    ks = np.array([0.5, 2.0, 3.0, 3.99, 4.0, 4.0 + 1e-12, 4.5, 10.0])
    for f in (transmission_modulus, transmission_phase, collision_phase):
        assert f(ks, b).tolist() == [f(k, b) for k in ks.tolist()]
