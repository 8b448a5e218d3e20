import math
import warnings

import numpy as np
import pytest

from tunneltimes import (BarrierConfig, GaussianSpectrum, PacketField,
                         QuadratureSpec, collision_sync_time,
                         collision_timing_report, ensure_converged,
                         symmetric_amplitudes, synthesize_collision,
                         synthesize_incident, synthesize_transmitted,
                         transmission_timing_report)
from tunneltimes.barrier import _collision_amplitudes, interior_field
from tunneltimes.packets import (_X_CHUNK, ConvergenceError, _offset_block,
                                 _phase_matvec)


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

    def test_centroid_of_zero_field_rejected(self):
        x = np.linspace(-5, 5, 101)
        with pytest.raises(ValueError, match="norm is zero"):
            PacketField(x=x, t=0.0, psi=np.zeros_like(x, dtype=complex)).centroid

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
        fld, change, _ = ensure_converged(
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

        fields, change, _ = ensure_converged(synth([0.4, 1.0, 2.0]), quad,
                                             max_doublings=1)
        assert [f.t for f in fields] == [0.4, 1.0, 2.0]
        assert change < quad.tol
        ensure_converged(synth([0.4]), quad, max_doublings=1)
        with pytest.raises(ConvergenceError):
            ensure_converged(synth([0.4, 1.0, 20.0]), quad, max_doublings=1)

    def test_gate_returns_the_rule_it_evaluated(self):
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 8.0, 257)
        fld, change, rule = ensure_converged(
            lambda q: synthesize_transmitted(spec, b, xs, 0.4, quad=q),
            QuadratureSpec())
        raw = synthesize_transmitted(spec, b, xs, 0.4, quad=rule)
        np.testing.assert_array_equal(fld.psi, raw.psi)
        assert rule.order == QuadratureSpec().order
        assert change < rule.tol

    def test_gate_does_not_pass_falsely_on_wide_collision_grid(self):
        # the collide default physics on x in [-200, 200]: 4 -> 8 panels
        # changes |psi| by 0.63, and the gate first passes at 32 -> 64
        spec, b = spectrum(k0=8.0), barrier(16.0, 0.1)
        xs = np.linspace(-200.0, 200.0, 401)
        ts = np.linspace(collision_sync_time(spec, b), 1.5, 2)
        fields, change, rule = ensure_converged(
            lambda q: synthesize_collision(spec, b, xs, ts, quad=q), QuadratureSpec())
        assert rule.panels >= 32
        fixed = synthesize_collision(spec, b, xs, ts, quad=QuadratureSpec(panels=96))
        for f, ref in zip(fields, fixed):
            assert np.abs(np.abs(f.psi) - np.abs(ref.psi)).max() \
                < rule.tol * np.abs(ref.psi).max()

    @pytest.mark.parametrize("t", [0.0, 2.0, 5.0])
    def test_gate_does_not_pass_falsely_on_wide_incident_grid(self, t):
        spec = spectrum(k0=1.0)
        xs = np.linspace(-40.0, 50.0, 4501)
        fld, change, rule = ensure_converged(
            lambda q: synthesize_incident(spec, xs, t, quad=q), QuadratureSpec())
        assert rule.panels > QuadratureSpec().panels
        fixed = synthesize_incident(spec, xs, t, quad=QuadratureSpec(panels=96))
        ref = np.abs(fixed.psi)
        assert np.abs(np.abs(fld.psi) - ref).max() < rule.tol * ref.max()


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
        # the doubled offset block times each chunk's factor e^{i k x_c},
        # the entries that _phase_matvec multiplies into amp, against
        # e^{i k x} at the float x: k x is formed and reduced mod 2 pi in
        # long double, then cos and sin are taken in double.  The bound is
        # the direct block's own error on these grids.
        ks, _ = QuadratureSpec(panels=48, order=48).nodes(0.0, 24.0)
        offs = _offset_block(x, ks)
        assert offs.shape == (min(len(x), _X_CHUNK), len(ks))
        kl = ks.astype(np.longdouble)
        # 2 pi to long double precision: float(2 pi) plus its rounding error
        two_pi = np.longdouble(2.0 * np.pi) + np.longdouble(2.4492935982947064e-16)
        for lo in range(0, len(x), _X_CHUNK):
            xc = x[lo:lo + _X_CHUNK]
            got = offs[:len(xc)] * np.exp(xc[0] * 1j * ks)
            for j in range(0, len(xc), 32):  # reference rows in cache-sized blocks
                kx = np.outer(xc[j:j + 32].astype(np.longdouble), kl)
                r = (kx - two_pi * np.rint(kx / two_pi)).astype(float)
                want = np.cos(r) + 1j * np.sin(r)
                assert np.abs(got[j:j + 32] - want).max() <= bound

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
                         interior_field(ks, b, xc)
                         + interior_field(ks, b, -xc)))
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
            # 4 panels alias on this 90-wide grid: size the rule by the gate
            f, _, _ = ensure_converged(
                lambda q: synthesize_incident(spec, xs, t, quad=q), QuadratureSpec())
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

    def test_opaque_interior_stays_finite(self):
        # rho(k0) L = 1386: T_B underflows and cosh(rho d) overflows, but
        # the interior field is their finite product; only wavenumbers near
        # the top reach the middle of the barrier
        spec = spectrum(k0=8.0)
        b = BarrierConfig(w=16.0, width=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = synthesize_collision(spec, b, np.linspace(-16.0, 16.0, 401), 0.0)
        assert np.isfinite(f.psi).all()
        assert 0.0 < np.abs(f.psi).max() < 1e-10

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


class TestReportsOnGatedRule:
    """Each report from the 4-panel start agrees with its evaluation from
    a 24-panel start: the same flags, and the measured delay within 1e-6."""

    @pytest.mark.parametrize("k0a", [1.0, 4.0, 16.0])
    def test_transmission_matches_24_panels(self, k0a):
        # the criterion-9 sweep: w/k0 = 4 and L k0 = 0.2
        spec, b = GaussianSpectrum(k0=k0a), BarrierConfig(w=4.0 * k0a, width=0.2 / k0a)
        gated = transmission_timing_report(spec, b)
        fixed = transmission_timing_report(spec, b, quad=QuadratureSpec(panels=24))
        for flag in ("boundary_dominated", "within_band", "multimodal",
                     "filter_effect", "spm_reliable"):
            assert getattr(gated, flag) == getattr(fixed, flag)
        assert gated.delay_measured == pytest.approx(fixed.delay_measured, abs=1e-6)
        assert 0.0 <= gated.quadrature_change < QuadratureSpec().tol

    def test_collision_matches_24_panels(self):
        # the criterion-10 point
        spec, b = GaussianSpectrum(k0=8.0), BarrierConfig(w=16.0, width=0.1)
        gated = collision_timing_report(spec, b)
        fixed = collision_timing_report(spec, b, quad=QuadratureSpec(panels=24))
        assert gated.delay_measured == pytest.approx(fixed.delay_measured, abs=1e-6)
        assert gated.symmetry_residual < 1e-10
        assert gated.spectral_residual_max < 1e-8
        assert 0.0 <= gated.quadrature_change < QuadratureSpec().tol
