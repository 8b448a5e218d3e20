import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from tunneltimes import (BarrierConfig, GaussianSpectrum, QuadratureSpec,
                         containment_outside, cutoff_packet_profile,
                         cutoff_time_estimate, distortion_onset, find_kmax,
                         synthesize_incident, transmission_modulus)
from tunneltimes.cli import _TABLE1_LA, _TABLE1_WA
from tunneltimes.numerics import ridders_derivative
from tunneltimes.spectrum import _CONTAINMENT_LIMIT, KmaxResult, modulated_spectrum


def barrier(w=4.0, L=0.5):
    return BarrierConfig(w=w, width=L)


def spectrum(k0=1.0):
    return GaussianSpectrum(k0=k0)


class TestGaussianSpectrum:
    def test_normalized_intensity(self):
        s = spectrum()
        ks = np.linspace(-10, 12, 20001)
        mass = np.trapezoid(s.amplitude(ks) ** 2, ks)
        assert mass == pytest.approx(1.0, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianSpectrum(k0=-1.0)

    def test_containment_closed_form(self):
        s = spectrum()
        b = barrier(w=4.0)
        # sigma of the intensity is 1: mass below 0 ~ Phi(-1), above 4 ~ Phi(-3)
        want = 0.5 * math.erfc(1.0 / math.sqrt(2.0)) + 0.5 * math.erfc(3.0 / math.sqrt(2.0))
        assert containment_outside(s, b) == pytest.approx(want, rel=1e-12)


class TestModulatedSpectrum:
    def test_zero_width_is_bare_gaussian(self):
        s, b = spectrum(), barrier(4.0, 0.0)
        ks = np.linspace(0.1, 4.0, 50)
        np.testing.assert_allclose(modulated_spectrum(ks, s, b), s.amplitude(ks),
                                   rtol=1e-14)

    def test_value_at_top(self):
        s, b = spectrum(), barrier(4.0, 0.5)
        want = s.amplitude(4.0) / math.sqrt(1.0 + (4.0 * 0.5 / 2.0) ** 2)
        assert modulated_spectrum(4.0, s, b) == pytest.approx(want, rel=1e-12)

    def test_stationary_at_kmax(self):
        s, b = spectrum(), barrier(4.0, 0.5)
        [res] = find_kmax(s, [b])
        assert res.containment_outside > _CONTAINMENT_LIMIT
        eps = 1e-6
        d = (modulated_spectrum(res.k_max + eps, s, b)
             - modulated_spectrum(res.k_max - eps, s, b)) / (2 * eps)
        assert abs(d) < 1e-6


class TestFindKmax:
    @pytest.mark.parametrize("wa,la,want", [
        (4.0, 0.5, 2.1155),
        (10.0, 0.2, 2.0204),
        (1.5, 0.1, 1.0235),
        (20.0, 1.0, 2.1392),
    ])
    def test_reference_cells(self, wa, la, want):
        [res] = find_kmax(spectrum(), [BarrierConfig(w=wa, width=la)])
        assert not res.boundary_dominated
        assert res.k_max == pytest.approx(want, abs=1e-3)

    def test_zero_width_returns_k0(self):
        [res] = find_kmax(spectrum(), [barrier(4.0, 0.0)])
        assert res.containment_outside > _CONTAINMENT_LIMIT
        assert res.k_max == 1.0
        assert not res.boundary_dominated

    def test_boundary_dominated_cell(self):
        s, b = spectrum(), BarrierConfig(w=1.5, width=0.8)
        [res] = find_kmax(s, [b])
        assert res.containment_outside > _CONTAINMENT_LIMIT
        assert res.boundary_dominated
        assert res.k_max == 1.5
        assert (modulated_spectrum(b.w, s, b)
                >= modulated_spectrum(res.k_max, s, b) - 1e-15)

    def test_kmax_bracket_invariant(self):
        # k0 <= k_max <= w over a random sweep; equality with k0 only at L = 0
        rng = np.random.default_rng(23)
        for _ in range(50):
            wa = rng.uniform(1.2, 20.0)
            la = rng.uniform(0.0, 1.0)
            [res] = find_kmax(spectrum(), [BarrierConfig(w=wa, width=la)])
            assert 1.0 - 1e-9 <= res.k_max <= wa + 1e-12
            if la > 1e-3:
                assert res.k_max > 1.0

    def test_barrier_list_equals_one_call_each(self):
        # the default table (its brackets scale with w, so lanes take 33 to
        # 39 steps), L = 0, a boundary-dominated cell, rho L > 300, and a
        # wider w (more steps still)
        barriers = [BarrierConfig(w=wa, width=la)
                    for wa in _TABLE1_WA for la in _TABLE1_LA]
        barriers += [BarrierConfig(w=1.5, width=0.8), BarrierConfig(w=20.0, width=40.0),
                     BarrierConfig(w=4.0, width=0.0), BarrierConfig(w=60.0, width=0.05)]
        together = find_kmax(spectrum(), barriers)
        apart = [r for b in barriers for r in find_kmax(spectrum(), [b])]
        assert together == apart
        flags = {r.boundary_dominated for r in together}
        assert flags == {True, False}

    def test_kmax_digits_frozen(self):
        # On the flat top of g |T| the last bits of each objective value
        # steer the search; this cell's 9th digit moves if the squared
        # offset (k - k0)^2 is rounded differently.
        [res] = find_kmax(GaussianSpectrum(k0=0.943344),
                          [BarrierConfig(w=3.93541, width=0.8)])
        assert res.containment_outside > _CONTAINMENT_LIMIT
        assert res.k_max == 2.4917002839056845

    def test_result_shape_follows_argument(self):
        s, b = GaussianSpectrum(k0=8.0), BarrierConfig(w=16.0, width=0.1)
        [one] = find_kmax(s, [b])
        assert isinstance(one, KmaxResult)
        assert find_kmax(s, (b, b)) == [one, one]
        assert find_kmax(s, []) == []
        with pytest.raises(TypeError):
            find_kmax(s, b)

    def test_one_containment_warning_per_leaky_barrier(self):
        # at k0 = 8: w = 9 and w = 10 leak (0.16, 0.023), w = 12 and 16 do not
        leaky = [BarrierConfig(w=9.0, width=0.1), BarrierConfig(w=10.0, width=0.2)]
        tight = [BarrierConfig(w=12.0, width=0.0), BarrierConfig(w=16.0, width=0.1)]
        results = find_kmax(GaussianSpectrum(k0=8.0),
                            [leaky[0], tight[0], leaky[1], tight[1]])
        outside = [r.containment_outside for r in results]
        assert [x > _CONTAINMENT_LIMIT for x in outside] == [True, False, True, False]
        assert outside == [containment_outside(GaussianSpectrum(k0=8.0), b)
                           for b in (leaky[0], tight[0], leaky[1], tight[1])]

    def test_containment_quiet_when_contained(self):
        [res] = find_kmax(GaussianSpectrum(k0=8.0),
                          [BarrierConfig(w=16.0, width=0.1)])
        assert res.containment_outside <= _CONTAINMENT_LIMIT


class TestKmaxTable:
    def test_monotone_down_columns_before_star(self):
        las = [round(0.1 * i, 1) for i in range(11)]
        for wa in (4.0, 6.0):
            results = find_kmax(spectrum(), [barrier(wa, la) for la in las])
            col = [r.k_max for r in results if not r.boundary_dominated]
            assert np.all(np.diff(col) > 0.0)

    def test_custom_k0(self):
        barriers = [barrier(wa, la) for wa in (1.5, 4.0) for la in (0.0, 0.3, 0.6)]
        for b, r in zip(barriers, find_kmax(spectrum(0.5), barriers)):
            if not r.boundary_dominated:
                assert 0.5 - 1e-9 <= r.k_max <= b.w


class TestDistortionOnset:
    def test_reference_point(self):
        rep = distortion_onset(spectrum(), 1.5)
        # candidates and numeric onset in their established order
        assert rep.onset_linear_candidate == pytest.approx(
            math.sqrt(1.5) * (1.0 - 1.0 / 1.5), rel=1e-12)
        assert rep.onset_sqrt_candidate == pytest.approx(
            math.sqrt(1.5) * math.sqrt(1.0 - 1.0 / 1.5), rel=1e-12)
        assert rep.onset_linear_candidate < rep.onset_sqrt_candidate < rep.onset_numeric
        # the numeric onset solves the quadratic log-derivative limit
        assert rep.onset_numeric == pytest.approx(rep.onset_quadratic_limit, rel=1e-4)

    def test_gaussian_logderiv_identity(self):
        # -g'(w - k0)/g(w - k0) = a^2 (w - k0)/2, checked against an
        # independent numerical derivative
        s = spectrum()
        w = 1.5
        d, _ = ridders_derivative(lambda dk: float(s.amplitude(1.0 + dk)), w - 1.0, 0.05)
        got = -d / float(s.amplitude(w))
        assert got == pytest.approx((w - 1.0) / 2.0, rel=1e-10)
        assert rep_logderiv_matches(s, w)

    def test_slope_sign_flips_at_onset(self):
        s = spectrum()
        rep = distortion_onset(s, 1.5)
        eps = 1e-5

        def slope(length):
            b = BarrierConfig(w=1.5, width=length)
            return (modulated_spectrum(1.5, s, b)
                    - modulated_spectrum(1.5 - eps, s, b)) / eps

        assert slope(rep.onset_numeric * 0.9) < 0.0
        assert slope(rep.onset_numeric * 1.1) > 0.0

    def test_quadratic_limit_matches_numeric_logderiv(self):
        rep = distortion_onset(spectrum(), 2.0)
        assert rep.t_logderiv_numeric == pytest.approx(rep.t_logderiv_quadratic, rel=1e-5)
        # the w L^2 variant is dimensionally odd and genuinely different
        assert abs(rep.t_logderiv_linear_variant - rep.t_logderiv_quadratic) \
            > 0.01 * rep.t_logderiv_quadratic

    def test_rejects_k0_at_or_above_w(self):
        with pytest.raises(ValueError):
            distortion_onset(spectrum(1.0), 1.0)

    def test_find_kmax_rejects_k0_at_or_above_w(self):
        # outside the tunneling regime there is no interior maximum to find
        for w in (1.0, 0.5):
            for L in (0.0, 0.3):
                with pytest.raises(ValueError):
                    find_kmax(spectrum(1.0), [barrier(w, L)])
                with pytest.raises(ValueError, match="k0 < w"):
                    find_kmax(spectrum(1.0), [barrier(4.0, L), barrier(w, L)])


    @pytest.mark.parametrize("gap", [1e-13, 1e-12, 3e-12, 1e-11, 1e-10])
    def test_candidates_near_top_match_extended_precision(self, gap):
        # w - k0 from 1e-13 w to 1e-10 w: 1 - k0/w would round k0/w first
        # and lose up to 4e-4 relative to the cancellation
        w = 3.3
        k0 = w - w * gap
        rep = distortion_onset(spectrum(k0), w)
        with mp.workdps(60):
            frac = (mp.mpf(w) - mp.mpf(k0)) / mp.mpf(w)
            want_lin = float(mp.sqrt(1.5) * frac)
            want_sqrt = float(mp.sqrt(1.5) * mp.sqrt(frac))
        assert rep.onset_linear_candidate == pytest.approx(want_lin, rel=1e-12)
        assert rep.onset_sqrt_candidate == pytest.approx(want_sqrt, rel=1e-12)

    @pytest.mark.parametrize("w", [1.5, 1.0 + 1e-12, 40.0, 1e6, 1e150])
    def test_onset_matches_extended_precision(self, w):
        # root of v^2 + 3(1 - C) v - 12 C = 0, v = (w L)^2, C = w (w - k0)/2,
        # taken in its cancellation-free form at 60 digits
        with mp.workdps(60):
            mw = mp.mpf(w)
            c = mw * (mw - 1) / 2
            b = 3 * (1 - c)
            r = mp.sqrt(b * b + 48 * c)
            v = 24 * c / (b + r) if b > 0 else (r - b) / 2
            want = float(mp.sqrt(v) / mw)
        rep = distortion_onset(spectrum(1.0), w)
        assert rep.onset_numeric == pytest.approx(want, rel=1e-14)
        assert rep.onset_quadratic_limit == rep.onset_numeric

    @pytest.mark.parametrize("w, L", [(1.5, 0.78), (2.0, 0.3), (16.0, 0.1), (4.0, 2.0)])
    def test_logderiv_identity_at_top(self, w, L):
        # d/dk log|T| across k = w equals (w L^2/4)(1 + v/3)/(1 + v/4);
        # an initial step of 0.1 w would miss by 9% at (4, 2)
        b = barrier(w, L)
        d, _ = ridders_derivative(
            lambda k: math.log(float(transmission_modulus(k, b))), w, 0.1)
        v = (w * L) ** 2
        assert d == pytest.approx((w * L * L / 4.0) * (1.0 + v / 3.0) / (1.0 + v / 4.0),
                                  rel=1e-12)

    def test_huge_w_fields_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = distortion_onset(spectrum(1.0), 1e150)
        assert all(math.isfinite(x) for x in dataclasses.astuple(rep))
        assert rep.onset_numeric == pytest.approx(math.sqrt(1.5), rel=1e-12)

    def test_tiny_w_onset(self):
        # (w L)^2 underflows here; L^2 -> 2 (1 - k0/w) as w -> 0
        rep = distortion_onset(GaussianSpectrum(k0=1e-300), 2e-300)
        assert rep.onset_numeric == pytest.approx(1.0, rel=1e-14)


def rep_logderiv_matches(s, w):
    rep = distortion_onset(s, w)
    return math.isclose(rep.gaussian_logderiv, (w - s.k0) / 2.0,
                        rel_tol=1e-12)


class TestCutoffTime:
    def test_values(self):
        assert cutoff_time_estimate(0.1, 1.0) == pytest.approx(20.0, rel=1e-12)
        assert cutoff_time_estimate(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cutoff_time_estimate(0.0, 4.0)
        with pytest.raises(ValueError):
            cutoff_time_estimate(-0.5, 4.0)
        # w not positive and finite, or 2 / (w delta) overflowing
        for w in (-1.0, math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError):
                cutoff_time_estimate(0.5, w)


class TestCutoffProfile:
    def test_uncut_tail_is_negligible(self):
        # k0 well above the k = 0 edge: no truncation anywhere, so the
        # profile is the plain gaussian envelope with negligible tails
        s = GaussianSpectrum(k0=8.0)
        xs = np.linspace(-10.0, 10.0, 2001)
        fld, _ = cutoff_packet_profile(s, xs, s.k0 + 8.0)
        mag = np.abs(fld.psi)
        tail = mag[np.abs(xs) > 6.0]
        assert tail.max() < 1e-3 * mag.max()

    def test_wide_grid_is_sized_by_the_gate(self):
        # on x in [-200, 200] the 4-panel rule misses the profile by 1.4 %;
        # the gated profile matches a fixed 96-panel rule to the tolerance
        s = GaussianSpectrum(k0=2.0)
        xs = np.linspace(-200.0, 200.0, 4001)
        k_cut = 0.9 * 4.0
        fld, change = cutoff_packet_profile(s, xs, k_cut)
        got = np.abs(fld.psi)
        ref = np.abs(synthesize_incident(s, xs, 0.0, quad=QuadratureSpec(panels=96),
                                         k_interval=(1e-12, k_cut)).psi)
        raw = np.abs(synthesize_incident(s, xs, 0.0, k_interval=(1e-12, k_cut)).psi)
        assert np.abs(raw - ref).max() > 1e-3 * ref.max()
        assert np.abs(got - ref).max() < QuadratureSpec().tol * ref.max()
        assert 0.0 <= change < QuadratureSpec().tol

    def test_tails_grow_as_cutoff_tightens(self):
        xs = np.linspace(-12.0, 12.0, 2401)
        window = (np.abs(xs) >= 5.0) & (np.abs(xs) <= 9.0)
        metrics = []
        s = GaussianSpectrum(k0=2.0)
        # uncut, then cut at 0.9 w and 0.7 w for w = 4
        for k_cut in (s.k0 + 8.0, 0.9 * 4.0, 0.7 * 4.0):
            fld, _ = cutoff_packet_profile(s, xs, k_cut)
            mag = np.abs(fld.psi)
            metrics.append(mag[window].max() / mag.max())
        assert metrics[0] < metrics[1] < metrics[2]

    def test_side_lobe_spacing_tracks_cutoff(self):
        # truncation ringing: lobe spacing in the far tail ~ 2 pi / k_cut
        s = GaussianSpectrum(k0=2.0)
        k_cut = 0.7 * 4.0
        xs = np.linspace(5.0, 12.0, 7001)
        mag = np.abs(cutoff_packet_profile(s, xs, k_cut)[0].psi)
        inner = mag[1:-1]
        peaks = xs[1:-1][(inner > mag[:-2]) & (inner > mag[2:])]
        spacing = float(np.median(np.diff(peaks)))
        assert spacing == pytest.approx(2.0 * math.pi / k_cut, rel=0.3)

    def test_empty_support_rejected(self):
        xs = np.linspace(-1, 1, 11)
        for k_cut in (0.01 * 1e-9, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                cutoff_packet_profile(GaussianSpectrum(k0=2.0), xs, k_cut)
        # a window the gaussian does not reach: the profile underflows to 0
        with pytest.raises(ValueError, match="identically zero"):
            cutoff_packet_profile(GaussianSpectrum(k0=100.0), xs, 0.9 * 4.0)


def test_symmetry_of_profile():
    s = GaussianSpectrum(k0=2.0)
    xs = np.linspace(-8.0, 8.0, 1601)
    mag = np.abs(cutoff_packet_profile(s, xs, 0.8 * 4.0)[0].psi)
    np.testing.assert_allclose(mag, mag[::-1], atol=1e-12 * mag.max())


def test_modulus_matches_modulated_ratio():
    # modulated_spectrum / amplitude == |T| wherever the gaussian is nonzero
    s, b = spectrum(), barrier()
    ks = np.linspace(0.2, 3.9, 25)
    np.testing.assert_allclose(modulated_spectrum(ks, s, b) / s.amplitude(ks),
                               transmission_modulus(ks, b), rtol=1e-12)
