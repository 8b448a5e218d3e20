import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from tunneltimes import (BarrierConfig, collision_phase, opaque_limit_time,
                         rate_scattering, rate_standard, rate_table,
                         scattering_delay, scattering_time_coshsq_variant,
                         standard_transit_time, transmission_phase)
from tunneltimes.numerics import ridders_derivative
from tunneltimes.phase_times import _time_params

mp.mp.dps = 40


def barrier(w=4.0, L=0.5):
    return BarrierConfig(w=w, width=L)


# frozen 40-digit references at (w a, L/a) = (4, 0.5)
T_TRANSIT_AT_21155 = 0.27441651338284889009     # k a = 2.1155
T_SCATT_AT_K1 = -0.68149921179846080906         # (1/k0) dphi/dk at k0 a = 1
T_SCATT_COSHSQ_AT_K1 = 0.14510571648379781027   # diagnostic variant there


def mp_amplitudes(q, w, L):
    """Complex numbers whose arguments are Theta and phi at q, written in the
    signed square z = (w^2 - q^2) L^2 so that they continue through the top."""
    w, L = mp.mpf(w), mp.mpf(L)
    z = (w * w - q * q) * L * L
    root = mp.sqrt(mp.mpc(z))
    s, c = (mp.re(mp.sinh(root) / root), mp.re(mp.cosh(root))) if z else (1, 1)
    return (mp.mpc(2 * q * c, (2 * q * q - w * w) * L * s),
            mp.mpc(w * w + (2 * q * q - w * w) * c, 2 * q * (w * w - q * q) * L * s))


def mp_times(k, w, L):
    """(t_T, delay) = ((1/k) dTheta/dk, -(1/k) dphi/dk) by mpmath derivatives."""
    k = mp.mpf(k)
    ref = mp_amplitudes(k, w, L)
    # each phase relative to its value at k is continuous there on any branch
    d = [mp.diff(lambda q, i=i: mp.arg(mp_amplitudes(q, w, L)[i] / ref[i]), k)
         for i in (0, 1)]
    return float(d[0] / k), float(-d[1] / k)


def ridders_time(phase, k, b):
    """(1/k) d phase/dk by Ridders' method, the finite-difference oracle,
    with its error estimate in time units."""
    d, err = ridders_derivative(lambda q: phase(q, b), k, 0.125 * min(k, b.w - k))
    return d / k, err / k


class TestTimeParams:
    def test_fields(self):
        # (z, n, m, tau) below, at and above the top of (w, L) = (4, 0.5)
        for k, want in [(1.0, (3.75, 1.0 / 16.0, 15.0 / 16.0, 0.5)),
                        (4.0, (0.0, 1.0, 0.0, 0.125)), (8.0, (-12.0, 4.0, -3.0, 0.0625))]:
            assert _time_params(k, barrier()) == pytest.approx(want, rel=1e-15)
        # m = (w - k)(w + k)/w^2 keeps the digits that 1 - (k/w)^2 loses
        k = 4.0 * (1.0 - 1e-12)
        z, _, m, _ = _time_params(k, barrier())
        want = (16 - mp.mpf(k) ** 2) / 16
        assert m == pytest.approx(float(want), rel=1e-15)
        assert z == pytest.approx(float(want * 4), rel=1e-15)

    def test_domain(self):
        # any finite k > 0, at and above the top too, with (w^2 - k^2) L^2 finite
        for k in (4.0, 6.0, 1e3):
            _time_params(k, barrier())
        for k in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                _time_params(k, barrier())
        with pytest.raises(ValueError):
            _time_params(1e200, barrier(w=1.0, L=1e150))


class TestRates:
    @pytest.mark.parametrize("n", [0.25, 0.5, 0.75])
    def test_small_alpha_limits(self, n):
        assert abs(rate_standard(1e-4, n) - (1.0 + 0.5 / n)) < 1e-3
        assert abs(rate_scattering(1e-4, n) - (1.0 + 1.0 / n)) < 1e-3

    @pytest.mark.parametrize("n", [0.25, 0.5, 0.75, 1.0])
    def test_large_alpha_decay(self, n):
        assert rate_standard(1e3, n) < 1e-2
        assert rate_scattering(1e3, n) < 1e-2

    def test_noncommuting_limit_at_n1(self):
        # alpha -> 0 at n = 1 gives 4/3, not the 3/2 obtained by sending
        # n -> 1 inside the n < 1 limit; the discontinuity is real
        assert abs(rate_standard(1e-4, 1.0) - 4.0 / 3.0) < 1e-3
        assert rate_standard(0.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert rate_standard(0.0, 0.999999) == pytest.approx(1.5, rel=1e-5)
        # the series' constant terms both vanish at n = 1: an underflowing
        # alpha^2 must not turn the ratio into 0/0
        for a in (1e-160, 1e-200, 1e-320):
            assert rate_standard(a, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert np.all(np.isfinite(rate_standard(np.array([1e-320, 1e-4]), 1.0)))

    def test_alpha_zero_exact(self):
        assert rate_standard(0.0, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert rate_scattering(0.0, 0.5) == pytest.approx(3.0, rel=1e-15)
        assert rate_scattering(0.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_matches_mpmath_midrange(self):
        for a in (0.01, 0.5, 2.0, 10.0, 40.0, 300.1, 1e4, 1e154):
            for n in (0.1, 0.5, 0.9, 1.0):
                am = mp.mpf(a)
                want_std = float((2 / am) * ((mp.cosh(am) * mp.sinh(am) - am * n * (2 * n - 1))
                                             / (4 * n * (1 - n) + mp.sinh(am) ** 2)))
                want_sc = float((2 / am) * ((n * am + mp.sinh(am)) / (2 * n - 1 + mp.cosh(am))))
                assert rate_standard(a, n) == pytest.approx(want_std, rel=1e-12)
                assert rate_scattering(a, n) == pytest.approx(want_sc, rel=1e-12)

    def test_series_constant_keeps_digits_below_n1(self):
        # 1 + n - 2n^2 cancels as n -> 1; the factored (1 - n)(1 + 2n) does not
        for n in (1.0 - 1e-12, 1.0 - 1e-9):
            for a in (1e-7, 1e-3):
                am, nm = mp.mpf(a), mp.mpf(n)
                want = float((2 / am) * ((mp.cosh(am) * mp.sinh(am) - am * nm * (2 * nm - 1))
                                         / (4 * nm * (1 - nm) + mp.sinh(am) ** 2)))
                assert rate_standard(a, n) == pytest.approx(want, rel=1e-12)

    def test_branch_seam_overlap(self):
        # both branches must agree across the series crossover to well
        # below 1e-10, including the cancellation-prone n = 1
        for n in (0.3, 1.0):
            for a in (0.0999, 0.1001):
                am = mp.mpf(a)
                want_std = float((2 / am) * ((mp.cosh(am) * mp.sinh(am) - am * n * (2 * n - 1))
                                             / (4 * n * (1 - n) + mp.sinh(am) ** 2)))
                want_sc = float((2 / am) * ((n * am + mp.sinh(am)) / (2 * n - 1 + mp.cosh(am))))
                assert rate_standard(a, n) == pytest.approx(want_std, rel=1e-11)
                assert rate_scattering(a, n) == pytest.approx(want_sc, rel=1e-11)

    def test_scattering_rate_full_precision(self):
        # the half-angle form has no cancellation: a few ulp for every n and
        # alpha, up to the largest alpha whose square is finite
        alphas = np.concatenate([[0.0, 1e-300, 1e-9], np.geomspace(1e-4, 2e3, 60),
                                 [0.0999, 0.1001, 599.9, 600.1, 1e154]])
        for n in (1e-12, 1e-3, 0.3, 1.0 - 1e-9, 1.0):
            got = rate_scattering(alphas, n)
            for a, val in zip(alphas.tolist(), got.tolist()):
                am, nm = mp.mpf(a), mp.mpf(n)
                want = 1 + 1 / nm if a == 0.0 else (
                    (2 / am) * (nm * am + mp.sinh(am)) / (2 * nm - 1 + mp.cosh(am)))
                assert val == pytest.approx(float(want), rel=2e-15)

    def test_scattering_rate_monotone_decrease(self):
        alphas = np.geomspace(1e-3, 1e2, 400)
        for n in (0.25, 0.5, 0.75, 1.0):
            vals = rate_scattering(alphas, n)
            assert np.all(np.diff(vals) < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_standard(-1.0, 0.5)
        with pytest.raises(ValueError):
            rate_standard(1.0, 0.0)
        with pytest.raises(ValueError):
            rate_scattering(1.0, 1.5)
        # alpha^2 must be finite: the barrier kernels form (rho L)^2 too
        for alpha, n in [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan),
                         ([1.0, math.nan], 0.5), (1e200, 0.5), ([1.0, 1e155], 1.0)]:
            with pytest.raises(ValueError):
                rate_standard(alpha, n)
            with pytest.raises(ValueError):
                rate_scattering(alpha, n)

    def test_rate_table_layout(self):
        rows = rate_table([0.5, 1.0], [0.1, 1.0, 10.0])
        assert len(rows) == 6
        assert rows[0][1] == 0.5 and rows[3][1] == 1.0
        assert rows[1][2] == pytest.approx(rate_standard(1.0, 0.5), rel=1e-15)


class TestStandardTransitTime:
    def test_closed_form_equals_derivative_at_reference(self):
        t = standard_transit_time(2.1155, barrier())
        assert type(t) is float
        assert t == pytest.approx(T_TRANSIT_AT_21155, rel=1e-13)
        deriv, err = ridders_time(transmission_phase, 2.1155, barrier())
        assert deriv == pytest.approx(t, rel=1e-6)
        assert t == pytest.approx(mp_times(2.1155, 4.0, 0.5)[0], rel=1e-12)
        assert math.isfinite(err) and err < 1e-10

    def test_derivative_consistency_random(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 40:
            w = rng.uniform(1.0, 12.0)
            k = rng.uniform(0.1, 0.9) * w
            r = math.sqrt(w * w - k * k)
            L = rng.uniform(0.05, min(4.0, 19.0 / r))
            b = BarrierConfig(w=w, width=L)
            assert ridders_time(transmission_phase, k, b)[0] == pytest.approx(
                standard_transit_time(k, b), rel=1e-6)
            checked += 1

    def test_opaque_regime_becomes_width_independent(self):
        # alpha >> 1 at fixed k: the transit time approaches 2m/(k rho)
        w, k = 2.0, 1.2
        r = math.sqrt(w * w - k * k)
        t30 = standard_transit_time(k, BarrierConfig(w=w, width=30.0 / r))
        assert t30 == pytest.approx(2.0 / (k * r), rel=1e-6)

    def test_linear_small_alpha_regime_near_top(self):
        # alpha -> 0 with n = 1: t -> (2 m L / w) * (2/3) = 4 m L / (3 w)
        L, w = 0.5, 4.0
        assert rate_standard(1e-6, 1.0) * (L / w) == pytest.approx(
            4.0 * L / (3.0 * w), rel=1e-10)

    def test_domain(self):
        # both times take any finite k > 0, at and above the top too
        b = barrier()
        for k in (4.0, 6.0):
            assert standard_transit_time(k, b) > 0.0 and scattering_delay(k, b) > 0.0
        for k in (0.0, -1.0, math.nan, math.inf):
            for time in (standard_transit_time, scattering_delay):
                with pytest.raises(ValueError):
                    time(k, b)

    def test_exact_top_is_the_continuous_limit(self):
        # t_T(w) = (2L/w)(3 + 2v/3)/(4 + v), v = (w L)^2: between 4/3 tau (opaque)
        # and 3/2 tau (thin), and not rate_standard's 4/3 at n = 1 (alpha -> 0
        # first); the delay there is 2 tau
        for w, L in [(4.0, 0.5), (4.0, 0.2), (1.0, 10.0), (16.0, 20.0)]:
            b = barrier(w, L)
            v, tau = (w * L) ** 2, L / w
            want = (2.0 * L / w) * (3.0 + 2.0 * v / 3.0) / (4.0 + v)
            assert standard_transit_time(w, b) == pytest.approx(want, rel=1e-15)
            assert 4.0 / 3.0 < want / tau < 1.5
            # t_T moves by about (4/15) eps v off the top, 3e-8 at (16, 20)
            for eps in (-1e-12, 1e-12) if v <= 100.0 else ():
                assert standard_transit_time(w * (1.0 + eps), b) == pytest.approx(want, rel=1e-9)
            assert scattering_delay(w, b) == pytest.approx(2.0 * tau, rel=1e-15)

    @pytest.mark.parametrize("w, L", [(4.0, 0.2), (16.0, 0.1), (4.0, 3.0), (2.0, 0.4),
                                      (1.0, 10.0), (16.0, 20.0)])
    def test_both_times_match_mpmath_through_the_top(self, w, L):
        # below, within 1e-9 w of, at and above the top; rho L = 305 at
        # (16, 20) and k = 0.3 w
        b = barrier(w, L)
        for ratio in (0.3, 0.999, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001, 1.5, 3.0):
            k = ratio * w
            theta, phi = (complex(a) for a in mp_amplitudes(mp.mpf(k), w, L))
            assert abs(cmath.exp(1j * transmission_phase(k, b)) - theta / abs(theta)) < 1e-13
            assert abs(cmath.exp(1j * collision_phase(k, b)) - phi / abs(phi)) < 1e-13
            t_want, delay_want = mp_times(k, w, L)
            assert standard_transit_time(k, b) == pytest.approx(t_want, rel=1e-12)
            assert scattering_delay(k, b) == pytest.approx(delay_want, rel=1e-12)


class TestOpaqueLimitTime:
    def test_symmetric_point(self):
        b = barrier(w=2.0, L=1.0)
        k = 2.0 / math.sqrt(2.0)
        assert opaque_limit_time(k, b) == pytest.approx(4.0 / 4.0, rel=1e-14)

    def test_diverges_monotonically_toward_top(self):
        # k rho peaks at k = w/sqrt2, so the divergence toward the top is
        # monotone from there on
        b = barrier(w=2.0, L=1.0)
        ks = np.linspace(2.0 / math.sqrt(2.0), 2.0 - 1e-9, 200)
        vals = [opaque_limit_time(float(k), b) for k in ks]
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] > 1e3

    def test_rejects_top(self):
        with pytest.raises(ValueError):
            opaque_limit_time(2.0, barrier(w=2.0, L=1.0))


class TestScatteringPhaseTime:
    def test_zero_width(self):
        assert scattering_delay(1.0, barrier(4.0, 0.0)) == 0.0
        assert scattering_time_coshsq_variant(1.0, barrier(4.0, 0.0)) == 0.0

    def test_frozen_reference(self):
        delay = scattering_delay(1.0, barrier())
        assert type(delay) is float
        assert delay == pytest.approx(-T_SCATT_AT_K1, rel=1e-13)
        assert ridders_time(collision_phase, 1.0, barrier())[0] == pytest.approx(
            T_SCATT_AT_K1, rel=1e-9)
        assert scattering_time_coshsq_variant(1.0, barrier()) == pytest.approx(
            T_SCATT_COSHSQ_AT_K1, rel=1e-12)

    def test_variant_stays_finite_beyond_cosh_overflow(self):
        def want(k0, w, L):
            k0, w, L = mp.mpf(k0), mp.mpf(w), mp.mpf(L)
            am = mp.sqrt(w * w - k0 * k0) * L
            return float((2 * L / k0) * (w * w * mp.sinh(am) / am - k0 * k0)
                         / (2 * k0 * k0 - w * w + w * w * mp.cosh(am) ** 2))

        # alpha = 400: cosh^2 overflows, the value is about 1e-170
        L = 400.0 / math.sqrt(15.0)
        assert scattering_time_coshsq_variant(1.0, barrier(4.0, L)) == pytest.approx(
            want(1.0, 4.0, L), rel=1e-12)
        # alpha = 800: cosh overflows, and the value itself underflows to 0
        L = 800.0 / math.sqrt(15.0)
        assert scattering_time_coshsq_variant(1.0, barrier(4.0, L)) == want(1.0, 4.0, L) == 0.0
        # e^-alpha (or 2 e^-alpha / alpha) below the smallest normal float,
        # with a prefactor 4 L / (k0 alpha) that keeps the value itself normal
        for k0, w, L in [(1e-200, 1.0, 800.0), (1e-100, 2.0, 360.0),
                         (1e-10, 1.0, 703.0), (1e-51, 1e-50, 4.79e52)]:
            assert scattering_time_coshsq_variant(k0, barrier(w, L)) == pytest.approx(
                want(k0, w, L), rel=1e-12)
        # the widest barrier BarrierConfig accepts at w = 4: (4 L)^2 just
        # below overflow, alpha = 1.3e154
        assert scattering_time_coshsq_variant(
            1.0, barrier(4.0, 3.351951982485649e153)) == 0.0
        # below alpha = 300 the direct form is kept, bit for bit
        for L, frozen in [(0.2, 0.4867909754151232), (3.0, 9.28886821621043e-06),
                          (50.0, 8.189352661996051e-85), (77.4, 6.699316098489803e-131)]:
            assert scattering_time_coshsq_variant(1.0, barrier(4.0, L)) == frozen

    def test_variant_keeps_the_tunneling_window(self):
        # unlike the delay, the diagnostic variant is not continued through the top
        for k0 in (4.0, 6.0, 0.0):
            with pytest.raises(ValueError):
                scattering_time_coshsq_variant(k0, barrier())

    def test_closed_form_is_minus_ridders_derivative(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            w = rng.uniform(1.0, 10.0)
            k0 = rng.uniform(0.15, 0.85) * w
            r = math.sqrt(w * w - k0 * k0)
            L = rng.uniform(0.05, min(4.0, 15.0 / r))
            b = BarrierConfig(w=w, width=L)
            assert -ridders_time(collision_phase, k0, b)[0] == pytest.approx(
                scattering_delay(k0, b), rel=1e-6)

    def test_reproducible_under_mpmath_derivative(self):
        b = barrier()

        def f(q):
            return collision_phase(float(q), b)

        want = float(mp.diff(f, mp.mpf(1.0), h=1e-6)) * 1.0
        assert scattering_delay(1.0, b) == pytest.approx(-want, rel=1e-6)

    def test_small_alpha_delay_rate(self):
        # delay/tau -> 1 + 1/n as alpha -> 0
        w = 2.0
        k0 = w / math.sqrt(2.0)   # n = 1/2
        b = BarrierConfig(w=w, width=1e-5)
        tau = b.width / k0
        assert scattering_delay(k0, b) / tau == pytest.approx(3.0, rel=1e-3)

    def test_variant_disagrees_with_derivative(self):
        # the squared-cosh variant is not the derivative of phi; the
        # mismatch at the reference point is documented, not patched
        deriv = ridders_time(collision_phase, 1.0, barrier())[0]
        delay = scattering_delay(1.0, barrier())
        variant = scattering_time_coshsq_variant(1.0, barrier())
        print(f"scattering time: derivative={deriv:.12f} delay={delay:.12f} "
              f"coshsq-variant={variant:.12f}")
        assert abs(variant - deriv) > 0.1 * abs(deriv)


def test_theta_derivative_matches_mpmath_spot():
    b = barrier(2.0, 0.7)
    want = mp_times(1.1, 2.0, 0.7)[0]
    assert standard_transit_time(1.1, b) == pytest.approx(want, rel=1e-12)
    assert transmission_phase(1.1, b) == pytest.approx(
        float(mp.atan((2 * 1.1**2 - 4.0) * mp.tanh(mp.sqrt(4 - 1.21) * 0.7)
                      / (2 * 1.1 * mp.sqrt(4 - 1.21)))), rel=1e-13)
