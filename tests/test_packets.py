import math

import numpy as np
import pytest

from tunneltimes import (BarrierConfig, GaussianSpectrum, PacketField,
                         QuadratureSpec, collision_sync_time,
                         collision_timing_report, ensure_converged,
                         symmetric_amplitudes, synthesize_collision,
                         synthesize_incident, synthesize_transmitted,
                         track_peak, transmission_timing_report)
from tunneltimes.barrier import _collision_amplitudes, interior_field
from tunneltimes.packets import _X_CHUNK, ConvergenceError, _phase_matvec


def barrier(w=4.0, L=0.2):
    return BarrierConfig(w=w, width=L)


def spectrum(k0=1.0):
    return GaussianSpectrum(k0=k0)


class TestPacketField:
    def test_validation(self):
        with pytest.raises(ValueError):
            PacketField(x=np.array([0.0, 1.0]), t=0.0, psi=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PacketField(x=np.array([0.0, 2.0, 1.0]), t=0.0,
                        psi=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            PacketField(x=np.array([0.0, 1.0, 2.0]), t=0.0, psi=np.array([1.0]))
        # increasing but not uniform: peak refinement would take the wrong
        # spacing (0.402587 for a peak at 0.4), so every entry point refuses it
        u = np.linspace(-1.0, 1.0, 401)
        x = 5.0 * np.sign(u) * np.abs(u) ** 1.5
        b = barrier()
        with pytest.raises(ValueError):
            PacketField(x=x, t=0.0, psi=np.exp(-(x - 0.4) ** 2).astype(complex))
        with pytest.raises(ValueError):
            synthesize_incident(spectrum(k0=2.0), 2.0 * x, 1.0)
        with pytest.raises(ValueError):
            synthesize_transmitted(spectrum(), b, b.half_width + 5.0 + x, 1.0)
        with pytest.raises(ValueError):
            synthesize_collision(spectrum(k0=2.0), b, x, 1.0)

    def test_peak_and_centroid(self):
        x = np.linspace(-5, 5, 1001)
        psi = np.exp(-(x - 0.4) ** 2)
        f = PacketField(x=x, t=0.0, psi=psi.astype(complex))
        assert f.peak_position == pytest.approx(0.4, abs=1e-10)
        assert f.centroid == pytest.approx(0.4, abs=1e-10)
        assert f.norm == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-8)

    def test_multimodality_detection(self):
        x = np.linspace(-6, 6, 1201)
        psi = np.exp(-(x + 2) ** 2) + 0.7 * np.exp(-(x - 2) ** 2)
        f = PacketField(x=x, t=0.0, psi=psi.astype(complex))
        assert f.is_multimodal()
        g = PacketField(x=x, t=0.0, psi=np.exp(-x**2).astype(complex))
        assert not g.is_multimodal()


class TestQuadrature:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec().nodes(1.0, 0.5)
        with pytest.raises(ValueError):
            QuadratureSpec(panels=0)
        with pytest.raises(ValueError):
            QuadratureSpec(tol=math.inf)

    def test_convergence_at_default_resolution(self):
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 8.0, 257)
        quad = QuadratureSpec(panels=8, order=32)
        fld, change = ensure_converged(
            lambda q: synthesize_transmitted(spec, b, xs, 0.4, quad=q), quad)
        assert change < quad.tol

    def test_convergence_error_is_diagnosable(self):
        # an impossibly tight tolerance with a tiny doubling budget must fail loudly
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 8.0, 65)
        quad = QuadratureSpec(panels=1, order=2, tol=1e-16)
        with pytest.raises(ConvergenceError):
            ensure_converged(
                lambda q: synthesize_transmitted(spec, b, xs, 0.4, quad=q),
                quad, max_doublings=1)

    def test_every_snapshot_is_gated(self):
        # 4 x 16 nodes resolve t <= 2 but not t = 20, where the phase
        # k^2 t / 2m winds ~160 rad across [0, w]: a set gated only on its
        # first time would pass
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 8.0, 129)
        quad = QuadratureSpec(panels=4, order=16)

        def synth(ts):
            return lambda q: synthesize_transmitted(spec, b, xs, ts, quad=q)

        fields, change = ensure_converged(synth([0.4, 1.0, 2.0]), quad,
                                          max_doublings=1)
        assert [f.t for f in fields] == [0.4, 1.0, 2.0]
        assert change < quad.tol
        ensure_converged(synth([0.4]), quad, max_doublings=1)
        with pytest.raises(ConvergenceError):
            ensure_converged(synth([0.4, 1.0, 20.0]), quad, max_doublings=1)


def _assert_matches_naive_product(x, rng, k_max=6.0):
    """_phase_matvec against exp(i outer(x, k)) @ amp, for 2-D and 1-D amp."""
    ks = rng.uniform(0.0, k_max, 97)
    amp = rng.normal(size=(97, 3)) + 1j * rng.normal(size=(97, 3))
    naive = np.exp(1j * np.outer(x, ks))
    scale = np.abs(amp).sum(axis=0)
    got = _phase_matvec(x, ks, amp)
    assert got.shape == (len(x), 3)
    assert np.abs(got - naive @ amp).max() < 1e-13 * scale.max()
    col = _phase_matvec(x, ks, amp[:, 1])
    assert col.shape == (len(x),)
    assert np.abs(col - naive @ amp[:, 1]).max() < 1e-13 * scale[1]


class TestBatchedSynthesis:
    @pytest.mark.parametrize("n_x", [_X_CHUNK - 1, _X_CHUNK, _X_CHUNK + 1,
                                     2 * _X_CHUNK + 1])
    def test_phase_matvec_matches_unchunked_product(self, n_x):
        # a non-uniform grid has no factored evaluation and must raise;
        # chunk boundaries are covered by test_phase_matvec_factors_uniform_grids
        rng = np.random.default_rng(n_x)
        x = np.sort(rng.uniform(-20.0, 20.0, n_x))
        with pytest.raises(ValueError):
            _phase_matvec(x, rng.uniform(0.0, 6.0, 97), rng.normal(size=97))

    @pytest.mark.parametrize("n_x", [1, 2, _X_CHUNK - 1, _X_CHUNK, _X_CHUNK + 1,
                                     2 * _X_CHUNK + 1])
    def test_phase_matvec_factors_uniform_grids(self, n_x):
        # linspace, arange, |x| up to 1e3, and a contiguous slice of a
        # linspace as synthesize_collision passes x[region].  On the 1e3
        # grid k stays below 1: at k x ~ 6e3 the naive product's own phase
        # rounding (~5e-13 rad per term) reaches the bound.
        grids = [(np.linspace(-20.0, 20.0, n_x), 6.0),
                 (np.arange(-3.7, -3.7 + (n_x - 0.5) * 0.013, 0.013), 6.0),
                 (np.linspace(-1e3, 1e3, n_x), 1.0),
                 (np.linspace(-12.0, 12.0, 3 * n_x)[n_x:2 * n_x], 6.0)]
        for x, k_max in grids:
            assert len(x) == n_x
            _assert_matches_naive_product(x, np.random.default_rng(n_x), k_max)

    @pytest.mark.parametrize("x, bound", [
        (np.linspace(-16.0, 16.0, 1601), 2e-13),   # the collide default
        (np.linspace(0.05, 120.0, 8001), 5e-13),   # the report's largest grid
        (np.arange(-6.0, 14.0, 0.002), 2e-13),     # a time-signal grid
    ])
    def test_phase_matvec_offsets_match_extended_precision(self, x, bound):
        # the doubled offset block against e^{i k x} at the float x in long
        # double; the bound is the direct block's own error on these grids
        ks, _ = QuadratureSpec(panels=48, order=48).nodes(0.0, 24.0)
        got = _phase_matvec(x, ks, np.eye(len(ks)))
        kl = ks.astype(np.longdouble)
        for lo in range(0, len(x), 1000):  # rows in blocks to bound memory
            sl = slice(lo, lo + 1000)
            ref = np.exp(1j * np.outer(x[sl].astype(np.longdouble), kl))
            assert np.abs(got[sl] - ref).max() <= bound

    def test_phase_matvec_uniformity_check_is_tight(self):
        # a factored evaluation of this grid would miss by about k * 1e-6 dx
        x = np.linspace(-20.0, 20.0, 2 * _X_CHUNK + 1)
        x[700] += 1e-6 * (x[1] - x[0])
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            _phase_matvec(x, rng.uniform(0.0, 6.0, 97), rng.normal(size=97))

    def test_time_batch_matches_one_call_per_time(self):
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 10.0, 601)
        ts = [0.0, 0.7, 1.9, 4.0]
        batch = synthesize_transmitted(spec, b, xs, ts)
        assert isinstance(batch, list) and len(batch) == len(ts)
        single = [synthesize_transmitted(spec, b, xs, float(t)) for t in ts]
        assert all(isinstance(f, PacketField) for f in single)
        peak = max(np.abs(f.psi).max() for f in single)
        for f, g in zip(batch, single):
            assert f.t == g.t
            assert np.abs(f.psi - g.psi).max() <= 1e-12 * peak

        spec2, b2 = spectrum(k0=2.0), BarrierConfig(w=4.0, width=0.4)
        xs2 = np.linspace(-12.0, 12.0, 1201)
        ts2 = collision_sync_time(spec2, b2) + np.array([0.0, 0.5, 1.5])
        batch = synthesize_collision(spec2, b2, xs2, ts2)
        single = [synthesize_collision(spec2, b2, xs2, float(t)) for t in ts2]
        peak = max(np.abs(f.psi).max() for f in single)
        for f, g in zip(batch, single):
            assert f.t == g.t
            assert np.abs(f.psi - g.psi).max() <= 1e-12 * peak

    def test_rejects_non_finite_times(self):
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 4.0, 65)
        for t in (math.nan, [0.0, math.inf], [[0.0, 1.0]], np.array([])):
            with pytest.raises(ValueError):
                synthesize_transmitted(spec, b, xs, t)
            with pytest.raises(ValueError):
                synthesize_collision(spec, b, xs - 2.0, t)

    def test_incident_rejects_non_finite_time(self):
        xs = np.linspace(-5.0, 5.0, 11)
        for t in (math.nan, math.inf, [0.0, 1.0]):
            with pytest.raises(ValueError):
                synthesize_incident(spectrum(k0=2.0), xs, t)

    def test_collision_regions_match_explicit_solutions(self):
        # reference: each region summed from its explicit left- and
        # right-incident solutions, e^{-ikx} evaluated directly.  On the
        # asymmetric grid the right region (x > 0.5) is uniform only to the
        # rounding of the whole grid (9.5 ulps of its own max |x|), and must
        # still be accepted.
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=1.0)
        h = b.half_width
        ts = np.array([0.0, 0.8])
        quad = QuadratureSpec(panels=8, order=32)
        ks, wts = quad.nodes(1e-9 * spec.k0, spec.k0 + 8.0)
        refl, trans = _collision_amplitudes(ks, b)
        for xs in (np.linspace(-6.0, 6.0, 241), np.linspace(-16.0, 1.0, 201)):
            assert np.count_nonzero(np.abs(xs) < h) > 10
            fields = synthesize_collision(spec, b, xs, ts, quad=quad)
            xc = xs[:, None]
            e_in, e_out = np.exp(1j * ks * xc), np.exp(-1j * ks * xc)
            solution = np.where(
                xc < -h, e_in + refl * e_out + trans * e_out,
                np.where(xc > h, trans * e_in + e_out + refl * e_in,
                         interior_field(ks, b, xc, trans)
                         + interior_field(ks, b, -xc, trans)))
            for f, t in zip(fields, ts):
                ref = solution @ (spec.amplitude(ks) * wts
                                  * np.exp(-0.5j * ks * ks * t))
                assert np.abs(f.psi - ref).max() <= 1e-12 * np.abs(ref).max()


class TestIncident:
    def test_ballistic_peak_motion(self):
        spec = spectrum(k0=2.0)
        xs = np.linspace(-10, 20, 3001)
        f0 = synthesize_incident(spec, xs, 0.0)
        f1 = synthesize_incident(spec, xs, 2.0)
        assert f0.peak_position == pytest.approx(0.0, abs=2 * (xs[1] - xs[0]))
        assert f1.peak_position - f0.peak_position == pytest.approx(
            4.0, abs=2 * (xs[1] - xs[0]))

    def test_centroid_moves_at_group_velocity(self):
        # Ehrenfest: the centroid velocity is exactly k0/m even while spreading
        spec = spectrum(k0=1.0)
        xs = np.linspace(-30, 40, 7001)
        c = [synthesize_incident(spec, xs, t).centroid for t in (0.0, 4.0)]
        assert (c[1] - c[0]) / 4.0 == pytest.approx(1.0, rel=1e-3)

    def test_width_grows(self):
        spec = spectrum(k0=1.0)
        xs = np.linspace(-40, 50, 4501)

        def width(t):
            f = synthesize_incident(spec, xs, t)
            dens = f.density
            mu = np.trapezoid(xs * dens, xs) / np.trapezoid(dens, xs)
            var = np.trapezoid((xs - mu) ** 2 * dens, xs) / np.trapezoid(dens, xs)
            return math.sqrt(var)

        ws = [width(t) for t in (0.0, 2.0, 5.0)]
        assert ws[0] < ws[1] < ws[2]


class TestTransmitted:
    def test_zero_width_barrier_gives_truncated_free_packet(self):
        spec = spectrum(k0=1.0)
        b = barrier(4.0, 0.0)
        xs = np.linspace(0.0, 6.0, 601)
        f = synthesize_transmitted(spec, b, xs, 0.0)
        # |T| = 1, Theta = 0: same integral as the window-truncated free packet
        g = synthesize_incident(spec, xs, 0.0, k_interval=(1e-9 * b.w, b.w))
        np.testing.assert_allclose(np.abs(f.psi), np.abs(g.psi), atol=1e-12)
        assert f.peak_position == pytest.approx(0.0, abs=0.05)

    def test_norm_bounded_by_incident(self):
        spec, b = spectrum(), barrier(4.0, 0.5)
        xs = np.linspace(b.half_width, b.half_width + 40.0, 4001)
        xs_free = np.linspace(-40.0, 40.0, 8001)
        t = 6.0
        trans = synthesize_transmitted(spec, b, xs, t)
        free = synthesize_incident(spec, xs_free, t, k_interval=(1e-9 * b.w, b.w))
        assert trans.norm < free.norm

    def test_rejects_grid_inside_barrier(self):
        with pytest.raises(ValueError):
            synthesize_transmitted(spectrum(), barrier(4.0, 0.5),
                                   np.linspace(0.0, 5.0, 100), 0.1)


class TestCollision:
    def test_mirror_symmetry(self):
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=0.4)
        xs = np.linspace(-12.0, 12.0, 1201)
        for t in (collision_sync_time(spec, b), 0.4, 1.5):
            f = synthesize_collision(spec, b, xs, t)
            mag = np.abs(f.psi)
            assert np.abs(mag - mag[::-1]).max() < 1e-10 * mag.max()

    def test_rejects_times_before_sync(self):
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=0.4)
        with pytest.raises(ValueError):
            synthesize_collision(spec, b, np.linspace(-5, 5, 101),
                                 collision_sync_time(spec, b) - 0.01)

    def test_outgoing_spectral_modulus_is_incident_gaussian(self):
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=0.4)
        ks = np.linspace(0.05, 10.0, 800)
        g = spec.amplitude(ks)
        s_abs = np.array([abs(symmetric_amplitudes(float(k), b).combined)
                          for k in ks])
        np.testing.assert_allclose(g * s_abs, g, atol=1e-13 * g.max())

    def test_outgoing_delay_matches_scattering_rate(self):
        # narrow spectrum (k0 a = 8): the envelope is undistorted, so the
        # ballistic-fit delay lands on tau * rate_scattering to well under 2%
        spec = spectrum(k0=8.0)
        b = BarrierConfig(w=16.0, width=0.1)
        rep = collision_timing_report(spec, b)
        assert rep.symmetry_residual < 1e-10
        assert rep.spectral_residual_max < 1e-12
        assert rep.velocity_fit == pytest.approx(8.0, rel=2e-3)
        assert rep.delay_measured == pytest.approx(rep.delay_predicted, rel=0.02)


class TestTrackPeak:
    def test_needs_three_samples(self):
        spec = spectrum(k0=2.0)
        xs = np.linspace(-10, 10, 501)
        with pytest.raises(ValueError):
            track_peak([synthesize_incident(spec, xs, 0.0),
                        synthesize_incident(spec, xs, 1.0)])


class TestTransmissionTimingReport:
    def test_thin_barrier_measurement_reproducible(self):
        # broad spectrum (k0 a = 1): the measured phase-induced delay is
        # stable and well below the stationary-phase value at the modulated
        # maximum; it matches no spectral average of the transit time
        # (0.366 |g T|^2-weighted, 0.271 flux-weighted)
        rep = transmission_timing_report(spectrum(), barrier(4.0, 0.2))
        assert rep.k_max == pytest.approx(1.6571, abs=1e-3)
        assert rep.delay_measured == pytest.approx(0.2121, abs=5e-3)
        assert rep.t_spm == pytest.approx(0.30301, abs=1e-4)
        assert not rep.multimodal
        assert not rep.filter_effect
        assert not rep.boundary_dominated

    def test_thick_barrier_flags_breakdown(self):
        rep = transmission_timing_report(spectrum(), barrier(4.0, 1.0))
        assert rep.filter_effect or rep.multimodal
        assert rep.filter_shift_sigmas > 1.0
        assert not rep.spm_reliable

    def test_leaky_spectrum_is_not_reliable(self):
        # k0 a = 2, w a = 4: the delay lands inside the band with neither
        # breakdown flag set, but 4.6 % of the intensity lies outside [0, w]
        rep = transmission_timing_report(spectrum(k0=2.0), barrier(4.0, 0.2))
        assert rep.containment_outside == pytest.approx(0.0455, abs=1e-4)
        assert rep.within_band
        assert not (rep.multimodal or rep.filter_effect or rep.boundary_dominated)
        assert not rep.spm_reliable

    def test_narrow_spectrum_converges_to_spm(self):
        # same physical barrier scaled to a narrow packet (k0 a = 8):
        # the measured delay approaches the stationary-phase prediction
        rep = transmission_timing_report(GaussianSpectrum(k0=8.0),
                                         BarrierConfig(w=32.0, width=0.025))
        assert abs(rep.discrepancy) < 0.10 * rep.tau
