import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from tunneltimes import (BarrierConfig, GaussianSpectrum, QuadratureSpec,
                         containment_outside, cutoff_packet_profile,
                         cutoff_time_estimate, distortion_onset, find_kmax,
                         synthesize_incident, transmission_modulus)
from tunneltimes.cli import _TABLE1_LA, _TABLE1_WA
from tunneltimes import spectrum as spectrum_module
from tunneltimes.numerics import ridders_derivative
from tunneltimes.spectrum import _CONTAINMENT_LIMIT, KmaxResult, modulated_spectrum


# the default table1 k_max by w a (rows L/a = 0, 0.1, ..., 1), recorded from
# the dense scan of all 4096 points per barrier
_DEFAULT_KMAX = {
    1.5: [1.0, 1.0235010200334431, 1.0794362716289063, 1.1478431153670177, 1.219627447568043,
          1.2921242420970267, 1.3649474369899195, 1.4382702290772806, 1.5, 1.5, 1.5],
    2.0: [1.0, 1.0648369397872968, 1.1824555522321183, 1.300085478462215, 1.4115982832142975,
          1.519367919710391, 1.6266175772384677, 1.735994590772179, 1.8488956810528547,
          1.9645615868264923, 2.0],
    4.0: [1.0, 1.3798940282557757, 1.6571235688710613, 1.843015709562672, 1.987435381080171,
          2.1155297252301235, 2.2428778275832086, 2.3818557251241734, 2.5466332540144316,
          2.7626788240195417, 3.113663158447245],
    6.0: [1.0, 1.6769416636140786, 1.9178368545355649, 2.0288550518075743, 2.102483990644117,
          2.166814772413347, 2.2314456670601146, 2.3001810780179053, 2.37507527018279,
          2.4578370826697027, 2.5504281974643312],
    8.0: [1.0, 1.8546891418737181, 1.9999869786933506, 2.056254525754901, 2.098614026288617,
          2.1399043446885626, 2.1828215449014836, 2.22810881218476, 2.276137321268875,
          2.3272360061070847, 2.381769058757242],
    10.0: [1.0, 1.9396686187539955, 2.0204041366960026, 2.055062871609764, 2.085739237341139,
           2.11699796797965, 2.1494908179464325, 2.183385956146271, 2.2187979974381213,
           2.255845328302197, 2.2946586414217203],
    20.0: [1.0, 2.0051293555365612, 2.020320923427743, 2.034237040874939, 2.048393394033181,
           2.0628168898057835, 2.077516203831161, 2.092499664333883, 2.107776454313024,
           2.12335574763278, 2.139247301497865],
}


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

    def test_float_k_has_the_bits_of_an_array_k(self):
        # a 0-d square went through C pow, an array square is exact: 14 of
        # these 20,000 k differed in the last bit, among them the two named
        s = spectrum()
        ks = np.concatenate([[8.152155927547579, 3.213235898488402],
                             np.random.default_rng(5).uniform(0.0, 10.0, 20000)])
        assert [s.amplitude(k) for k in ks.tolist()] == s.amplitude(ks).tolist()

    def test_numpy_k0_is_stored_as_a_float(self):
        assert type(GaussianSpectrum(k0=np.float64(2.5)).k0) is float

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
        # the default table, every cell to the last bit, as the dense scan
        # of all 4096 points per barrier gave it
        results = find_kmax(spectrum(), [BarrierConfig(w=wa, width=la)
                                         for wa in _TABLE1_WA for la in _TABLE1_LA])
        assert [r.k_max for r in results] == [k for wa in _TABLE1_WA for k in _DEFAULT_KMAX[wa]]
        assert [r.boundary_dominated for r in results].count(True) == 4

    def test_default_table_scan_work(self, monkeypatch):
        # The dense scan evaluated 70 x 4096 = 286,720 points.  The scan
        # now evaluates 70 x 256 coarse points, the 15 inner points of
        # each interval whose bound reaches the best coarse value (the
        # last, 14 long, repeats one) and the 70 points k = w, 33,560 in
        # all; golden section adds 2,772.
        counts = {}
        kernel, golden = spectrum_module._scaled_solution, spectrum_module._interior_maxima

        def count(k, w, L):
            counts[stage] = counts.get(stage, 0) + np.size(k)
            return kernel(k, w, L)

        def refine(*args):
            nonlocal stage
            stage = "golden"
            return golden(*args)

        monkeypatch.setattr(spectrum_module, "_scaled_solution", count)
        monkeypatch.setattr(spectrum_module, "_interior_maxima", refine)
        barriers = [BarrierConfig(w=wa, width=la) for wa in _TABLE1_WA for la in _TABLE1_LA]
        for _ in range(2):  # the count repeats exactly
            counts.clear()
            stage = "scan"
            find_kmax(spectrum(), barriers)
            assert counts == {"scan": 33_560, "golden": 2_772}
        assert counts["scan"] < 50_000

    def test_default_table_scan_memory(self):
        # the scan goes through the kernel in blocks of at most 4096
        # points; the dense scan, one 4096-point call per barrier, peaked
        # at 311 KB
        barriers = [BarrierConfig(w=wa, width=la) for wa in _TABLE1_WA for la in _TABLE1_LA]
        find_kmax(spectrum(), barriers)
        tracemalloc.start()
        try:
            find_kmax(spectrum(), barriers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 311 * 1024

    def test_maximum_below_the_scan_window_is_rejected(self):
        # At w = 1e10 the scan starts at 1e-9 w = 10, above the whole
        # spectrum (k0 = 1, true maximum near 2.00003): the grid maximum
        # sits on the first point, which once came back as k_max = 10.
        s, low = spectrum(), BarrierConfig(w=1e10, width=1e-12)
        for barriers in ([low], [barrier(4.0, 0.5), low], [low, barrier(4.0, 0.0)]):
            with pytest.raises(ValueError, match="k_max cannot be resolved.*w = 1e[+]10"):
                find_kmax(s, barriers)
        # a scan whose second point, 12.5, lies far above the maximum near
        # 1.985 that a finer one brackets
        b = BarrierConfig(w=50.0, width=0.01)
        with pytest.raises(ValueError, match="below the second, 12.5$"):
            find_kmax(s, [b], scan_points=5)
        [res] = find_kmax(s, [b], scan_points=9)
        assert res.k_max == pytest.approx(1.98488104, abs=1e-8)

    def test_result_shape_follows_argument(self):
        s, b = GaussianSpectrum(k0=8.0), BarrierConfig(w=16.0, width=0.1)
        [one] = find_kmax(s, [b])
        assert isinstance(one, KmaxResult)
        assert find_kmax(s, (b, b)) == [one, one]
        assert find_kmax(s, []) == []
        with pytest.raises(TypeError):
            find_kmax(s, b)

    def test_scan_points_must_be_an_integer(self):
        s, b = GaussianSpectrum(k0=8.0), BarrierConfig(w=16.0, width=0.1)
        for points in (3.5, 4096.0, math.nan, 2):
            with pytest.raises(ValueError, match="scan_points"):
                find_kmax(s, [b], scan_points=points)
        assert find_kmax(s, [b], scan_points=np.int64(4096)) == find_kmax(s, [b])

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
        [ref] = synthesize_incident(s, xs, [0.0], quad=QuadratureSpec(panels=96),
                                    k_interval=(1e-12, k_cut))
        [raw] = synthesize_incident(s, xs, [0.0], k_interval=(1e-12, k_cut))
        ref, raw = np.abs(ref.psi), np.abs(raw.psi)
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
        for k0, k_cut in ((2.0, 0.01 * 1e-9), (2.0, 0.0), (2.0, math.nan),
                          (2.0, math.inf),
                          # above 1e-9 k0, below the window's lower end 1e-12
                          (1e-6, 5e-13)):
            with pytest.raises(ValueError, match="k_cut"):
                cutoff_packet_profile(GaussianSpectrum(k0=k0), xs, k_cut)
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
