import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from tunneltimes import (BarrierConfig, GaussianSpectrum, PacketField,
                         QuadratureSpec, collision_sync_time,
                         collision_timing_report, cutoff_packet_profile,
                         ensure_converged, synthesize_collision,
                         synthesize_incident, synthesize_transmitted,
                         transmission_modulus, transmission_phase,
                         transmission_timing_report)
from tunneltimes.barrier import _collision_amplitudes, interior_field
from tunneltimes.packets import (_CHUNK_ROWS, _MAX_DOUBLINGS, _SPAN_ROWS,
                                 ConvergenceError, _degree, _offset_block,
                                 _phase_matvec)


def barrier(w=4.0, L=0.2):
    return BarrierConfig(w=w, width=L)


def spectrum(k0=1.0):
    return GaussianSpectrum(k0=k0)


def report_on_plain_gate(spec, b, quad=QuadratureSpec()):
    """collision_timing_report with its gate call replaced by the plain
    ensure_converged over the same synth, from `quad` with its panels
    doubled and one doubling fewer than the default, whatever start and
    doublings the report passes."""
    def plain(synth, start, doublings):
        return ensure_converged(synth, replace(quad, panels=2 * quad.panels),
                                _MAX_DOUBLINGS - 1)

    with mock.patch("tunneltimes.packets.ensure_converged", plain):
        return collision_timing_report(spec, b, quad)


class TestPacketField:
    def test_validation(self):
        with pytest.raises(ValueError):
            PacketField(x=np.array([0.0, 1.0]), t=0.0, psi=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PacketField(x=np.array([0.0, 2.0, 1.0]), t=0.0,
                        psi=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            PacketField(x=np.array([0.0, 1.0, 2.0]), t=0.0, psi=np.array([1.0]))
        # a 2-D psi would give a flattened argmax as the peak
        with pytest.raises(ValueError):
            PacketField(x=np.linspace(0, 1, 5), t=0.0, psi=np.ones((5, 3)))
        with pytest.raises(ValueError):
            PacketField(x=np.linspace(0, 1, 5), t=math.nan, psi=np.ones(5))
        # increasing but not uniform: peak refinement would take the wrong
        # spacing (0.402587 for a peak at 0.4), so every entry point refuses it
        u = np.linspace(-1.0, 1.0, 401)
        x = 5.0 * np.sign(u) * np.abs(u) ** 1.5
        b = barrier()
        with pytest.raises(ValueError):
            PacketField(x=x, t=0.0, psi=np.exp(-(x - 0.4) ** 2).astype(complex))
        with pytest.raises(ValueError):
            synthesize_incident(spectrum(k0=2.0), 2.0 * x, [1.0])
        with pytest.raises(ValueError):
            synthesize_transmitted(spectrum(), b, b.half_width + 5.0 + x, [1.0])
        with pytest.raises(ValueError):
            synthesize_collision(spectrum(k0=2.0), b, x, [1.0])

    @pytest.mark.parametrize("x", [
        np.array([0.0, 0.5, 1.0, math.inf]),
        np.array([-math.inf, 0.5, 1.0, 1.5]),
        # an interior inf made max |x|, the scale of the tolerance, infinite
        np.array([0.0, math.inf, 1.0, 1.5]),
    ], ids=["inf-end", "minus-inf-end", "inf-inside"])
    def test_non_finite_grid_rejected_without_warnings(self, x):
        # no step may be formed from an infinite end: arange(n) * inf would
        # warn before the ValueError
        spec, b = spectrum(k0=2.0), barrier(4.0, 0.0)
        for make in (lambda: PacketField(x=x, t=0.0, psi=np.ones(len(x))),
                     lambda: synthesize_incident(spec, x, [0.0]),
                     lambda: synthesize_transmitted(spec, b, x, [0.0]),
                     lambda: synthesize_collision(spec, b, x, [0.0]),
                     lambda: cutoff_packet_profile(spec, x, 3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    make()

    def test_peak_and_centroid(self):
        x = np.linspace(-5, 5, 1001)
        psi = np.exp(-(x - 0.4) ** 2)
        f = PacketField(x=x, t=0.0, psi=psi.astype(complex))
        assert f.peak_position == pytest.approx(0.4, abs=1e-10)
        norm = np.trapezoid(f.density, x)
        assert np.trapezoid(x * f.density, x) / norm == pytest.approx(0.4, abs=1e-10)
        assert norm == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-8)

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
        for lo, hi in [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                       (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                QuadratureSpec().nodes(lo, hi)
        for field, value in (("panels", 0), ("panels", 2.5), ("panels", math.nan),
                             ("panels", 4.0), ("order", 2.5), ("order", 1)):
            with pytest.raises(ValueError, match=field):
                QuadratureSpec(**{field: value})
        assert QuadratureSpec(panels=np.int64(4)).nodes(0.0, 1.0)[0].size == 4 * 48
        with pytest.raises(ValueError):
            QuadratureSpec(tol=math.inf)

    def test_gate_needs_a_whole_number_of_doublings(self):
        # checked before anything is synthesized; 0 doublings compared nothing
        # and reported a change of inf
        def synth(q):
            raise AssertionError("synthesized")

        for bad in (0, -1, 1.5, math.nan):
            with pytest.raises(ValueError, match="max_doublings"):
                ensure_converged(synth, QuadratureSpec(), max_doublings=bad)

    def test_convergence_at_default_resolution(self):
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 8.0, 257)
        quad = QuadratureSpec(panels=8, order=32)
        _, change, _ = ensure_converged(
            lambda q: synthesize_transmitted(spec, b, xs, [0.4], quad=q), quad)
        assert change < quad.tol

    def test_convergence_error_is_diagnosable(self):
        # an impossibly tight tolerance with a tiny doubling budget must fail loudly
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 8.0, 65)
        quad = QuadratureSpec(panels=1, order=2, tol=1e-16)
        with pytest.raises(ConvergenceError):
            ensure_converged(
                lambda q: synthesize_transmitted(spec, b, xs, [0.4], quad=q),
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
        [fld], change, rule = ensure_converged(
            lambda q: synthesize_transmitted(spec, b, xs, [0.4], quad=q),
            QuadratureSpec())
        [raw] = synthesize_transmitted(spec, b, xs, [0.4], quad=rule)
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
        [fld], change, rule = ensure_converged(
            lambda q: synthesize_incident(spec, xs, [t], quad=q), QuadratureSpec())
        assert rule.panels > QuadratureSpec().panels
        [fixed] = synthesize_incident(spec, xs, [t], quad=QuadratureSpec(panels=96))
        ref = np.abs(fixed.psi)
        assert np.abs(np.abs(fld.psi) - ref).max() < rule.tol * ref.max()


def _assert_rejected_before_any_phase_sum(monkeypatch, x):
    """Every synthesis raises ValueError on the grid x with _phase_matvec
    patched to fail, while the uniform grid on the same ends reaches it:
    the collision too, with or without exterior rows."""
    def phase_sum(*args):
        raise AssertionError("phase sum reached")

    monkeypatch.setattr("tunneltimes.packets._phase_matvec", phase_sum)
    spec, b = spectrum(k0=2.0), barrier(4.0, 0.0)
    inside = barrier(4.0, 4.0 * (abs(x[0]) + abs(x[-1])))  # no exterior rows
    for grid, error in ((x, ValueError),
                        (np.linspace(x[0], x[-1], len(x)), AssertionError)):
        for synth in (lambda g: synthesize_incident(spec, g, [1.0]),
                      lambda g: synthesize_transmitted(spec, b, g, [1.0]),
                      lambda g: synthesize_collision(spec, b, g, [1.0]),
                      lambda g: synthesize_collision(spec, inside, g, [1.0])):
            with pytest.raises(error):
                synth(grid)


def _assert_matches_naive_product(x, rng, k_max=6.0, ks=None):
    """_phase_matvec against exp(i outer(x, k)) @ amp, for two parts on one
    setup: all rows of x, and its rows from len(x) // 3 on with other
    amplitudes; ks defaults to 97 uniform draws from [0, k_max)."""
    if ks is None:
        ks = rng.uniform(0.0, k_max, 97)
    amp = rng.normal(size=(len(ks), 3)) + 1j * rng.normal(size=(len(ks), 3))
    naive = np.exp(1j * np.outer(x, ks))
    scale = np.abs(amp).sum(axis=0)
    lo = len(x) // 3
    got, tail = _phase_matvec(x, ks, [(0, len(x), amp), (lo, len(x), amp[:, 1:])])
    assert got.shape == (len(x), 3) and tail.shape == (len(x) - lo, 2)
    assert np.abs(got - naive @ amp).max() < 1e-13 * scale.max()
    assert np.abs(tail - naive[lo:] @ amp[:, 1:]).max() < 1e-13 * scale.max()


class TestBatchedSynthesis:
    @pytest.mark.parametrize("n_x", [_SPAN_ROWS - 1, _SPAN_ROWS, _SPAN_ROWS + 1,
                                     2 * _SPAN_ROWS + 1])
    def test_phase_matvec_matches_unchunked_product(self, n_x, monkeypatch):
        # a non-uniform grid has no factored evaluation: every synthesis
        # rejects it before _phase_matvec; chunk boundaries are covered by
        # test_phase_matvec_factors_uniform_grids
        rng = np.random.default_rng(n_x)
        x = np.sort(rng.uniform(0.0, 40.0, n_x))
        _assert_rejected_before_any_phase_sum(monkeypatch, x)

    @pytest.mark.parametrize("n_x", [1, 2, _SPAN_ROWS - 1, _SPAN_ROWS,
                                     _SPAN_ROWS + 1, 2 * _SPAN_ROWS + 1])
    def test_phase_matvec_factors_uniform_grids(self, n_x):
        # linspace, arange, |x| up to 1e3, and a contiguous slice of a
        # linspace, uniform only to the rounding of the whole grid.  On the 1e3
        # grid k stays below 1: at k x ~ 6e3 the naive product's own phase
        # rounding (~5e-13 rad per term) reaches the bound.
        grids = [(np.linspace(-20.0, 20.0, n_x), 6.0),
                 (np.arange(-3.7, -3.7 + (n_x - 0.5) * 0.013, 0.013), 6.0),
                 (np.linspace(-1e3, 1e3, n_x), 1.0),
                 (np.linspace(-12.0, 12.0, 3 * n_x)[n_x:2 * n_x], 6.0)]
        for x, k_max in grids:
            assert len(x) == n_x
            _assert_matches_naive_product(x, np.random.default_rng(n_x), k_max)

    @pytest.mark.parametrize("x, ks", [
        # one k node: zero k width, which the interpolation matrix would
        # divide by; repeated, every k lies on every Chebyshev node
        (np.linspace(-20.0, 20.0, 2 * _SPAN_ROWS + 1), np.array([2.5])),
        (np.linspace(-20.0, 20.0, 2 * _SPAN_ROWS + 1), np.full(8, 2.5)),
        # descending nodes, as the exit-plane signal passes -k^2/2
        (np.arange(-6.0, 14.0, 0.002),
         -QuadratureSpec().nodes(4e-9, 4.0)[0] ** 2 / 2.0),
        # one x point: a block of zero width
        (np.array([3.0]), np.linspace(0.0, 6.0, 97)),
    ])
    def test_phase_matvec_degenerate_inputs(self, x, ks):
        _assert_matches_naive_product(x, np.random.default_rng(len(ks)), ks=ks)

    @pytest.mark.parametrize("x, rule, bound, interpolated", [
        # the collide default
        pytest.param(np.linspace(-16.0, 16.0, 1601), (48, 48), 2e-13, True,
                     id="x0-2e-13"),
        # the report's largest grid
        pytest.param(np.linspace(0.05, 120.0, 8001), (48, 48), 5e-13, True,
                     id="x1-5e-13"),
        # a time-signal grid
        pytest.param(np.arange(-6.0, 14.0, 0.002), (48, 48), 2e-13, True,
                     id="x2-2e-13"),
        # fewer ks than Chebyshev nodes: the block's columns are the ks
        pytest.param(np.linspace(-16.0, 16.0, 1601), (1, 48), 2e-13, False,
                     id="x3-2e-13"),
    ])
    def test_phase_matvec_offsets_match_extended_precision(self, x, rule, bound,
                                                           interpolated):
        # the entries that _phase_matvec multiplies into amp, built as it
        # builds them (block rows times interpolation matrix times the chunk
        # factor e^{i k x_s} e^{i k ((c - s) dx + hw)}, x_s the start of the
        # span that holds the chunk start c) at every row count the chunk
        # rule can pick, against e^{i k x} at the float x: k x is formed and
        # reduced mod 2 pi in long double, then cos and sin are taken in
        # double.  The bound is the direct block's own error on these
        # grids; `interpolated` is whether the longest chunk interpolates.
        ks, _ = QuadratureSpec(*rule).nodes(0.0, 24.0)
        dx = (x[-1] - x[0]) / (len(x) - 1)
        blocks = {}
        for rows in _CHUNK_ROWS:
            assert rows % 32 == 0  # every 32-row block below lies in one chunk
            offs, interp, hw = _offset_block(dx, min(rows, len(x)), ks)
            n_cols = len(ks) if interp is None else len(interp)
            assert offs.shape == (min(rows, len(x)), n_cols)
            if rows == max(_CHUNK_ROWS):
                assert (interp is not None) == interpolated
            if interp is not None:
                assert interp.shape == (offs.shape[1], len(ks)) and interp.dtype == float
                offs = offs @ interp
            blocks[rows] = offs, hw
        kl = ks.astype(np.longdouble)
        # 2 pi to long double precision: float(2 pi) plus its rounding error
        two_pi = np.longdouble(2.0 * np.pi) + np.longdouble(2.4492935982947064e-16)
        for j in range(0, len(x), 32):  # reference rows in cache-sized blocks
            kx = np.outer(x[j:j + 32].astype(np.longdouble), kl)
            r = (kx - two_pi * np.rint(kx / two_pi)).astype(float)
            want = np.cos(r) + 1j * np.sin(r)
            span = j - j % _SPAN_ROWS  # the exp of e^{i k x} before row j
            at = np.exp(x[span] * 1j * ks)
            for rows, (offs, hw) in blocks.items():
                c = j - j % rows  # the start of the chunk that holds row j
                shift = np.exp(((c - span) * dx + hw) * 1j * ks)
                got = offs[j - c:j - c + len(kx)] * (at * shift)
                assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("kappa", [0.0, 1e-3, 1.0, 12.0, 41.0, 100.0, 300.0])
    def test_degree_interpolates_to_round_off(self, kappa):
        # barycentric interpolation of e^{i kappa s} on the _degree(kappa)
        # first-kind Chebyshev points, all in long double so that only the
        # truncation error the degree rule bounds is left above 1e-15
        n = _degree(kappa)
        pi = np.longdouble(np.pi) + np.longdouble(1.2246467991473532e-16)
        theta = (np.arange(n, dtype=np.longdouble) + 0.5) * (pi / n)
        nodes = np.cos(theta)
        weights = np.sin(theta) * (-1.0) ** np.arange(n)
        s = np.linspace(-1.0, 1.0, 2001).astype(np.longdouble)
        terms = weights[:, None] / (s - nodes[:, None])
        values = np.cos(kappa * nodes) + 1j * np.sin(kappa * nodes)
        got = (terms * values[:, None]).sum(axis=0) / terms.sum(axis=0)
        want = np.cos(kappa * s) + 1j * np.sin(kappa * s)
        assert np.abs(got - want).max() <= 1e-15

    def test_degree_matches_its_defining_search(self):
        # _degree bisects for the r that this loop finds by counting up
        def by_loop(kappa):
            r = 1
            while kappa > 0.0 and (r * math.log(kappa / 2.0) - math.lgamma(r + 1.0)
                                   >= -60.0 * math.log(2.0) - math.log(2.0 * r + 2.0)):
                r += 1
            return r + 2

        for kappa in [0.0, *np.geomspace(1e-20, 1e3, 3001)]:
            assert _degree(kappa) == by_loop(kappa), kappa

    def test_phase_matvec_uniformity_check_is_tight(self, monkeypatch):
        # a factored evaluation of this grid would miss by about k * 1e-6 dx
        x = np.linspace(0.0, 40.0, 2 * _SPAN_ROWS + 1)
        x[700] += 1e-6 * (x[1] - x[0])
        _assert_rejected_before_any_phase_sum(monkeypatch, x)

    def test_every_synthesis_returns_one_field_per_time(self):
        spec, b = spectrum(k0=2.0), barrier()
        xs = np.linspace(b.half_width, b.half_width + 6.0, 61)
        for synth in (lambda t: synthesize_incident(spec, xs, t),
                      lambda t: synthesize_transmitted(spec, b, xs, t),
                      lambda t: synthesize_collision(spec, b, xs, t)):
            for ts in ([0.3], (0.3, 0.9), np.array([0.3, 0.9, 1.5])):
                fields = synth(ts)
                assert isinstance(fields, list)
                assert all(isinstance(f, PacketField) for f in fields)
                assert [f.t for f in fields] == list(ts)
            for t in (0.3, np.float64(0.3), np.array(0.3)):
                with pytest.raises(ValueError):
                    synth(t)

    def test_time_batch_matches_one_call_per_time(self):
        spec, b = spectrum(), barrier()
        xs = np.linspace(b.half_width, b.half_width + 10.0, 601)
        ts = [0.0, 0.7, 1.9, 4.0]
        batch = synthesize_transmitted(spec, b, xs, ts)
        assert isinstance(batch, list) and len(batch) == len(ts)
        single = [f for t in ts for f in synthesize_transmitted(spec, b, xs, [t])]
        assert all(isinstance(f, PacketField) for f in single)
        peak = max(np.abs(f.psi).max() for f in single)
        for f, g in zip(batch, single):
            assert f.t == g.t
            assert np.abs(f.psi - g.psi).max() <= 1e-12 * peak

        spec2, b2 = spectrum(k0=2.0), BarrierConfig(w=4.0, width=0.4)
        xs2 = np.linspace(-12.0, 12.0, 1201)
        ts2 = collision_sync_time(spec2, b2) + np.array([0.0, 0.5, 1.5])
        batch = synthesize_collision(spec2, b2, xs2, ts2)
        single = [f for t in ts2 for f in synthesize_collision(spec2, b2, xs2, [t])]
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
        for t in ([math.nan], [math.inf], [0.0, -math.inf]):
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
        # then a grid of several chunks, and grids with no left and no
        # right exterior region
        for xs in (np.linspace(-6.0, 6.0, 241), np.linspace(-16.0, 1.0, 201),
                   np.linspace(-30.0, 30.0, 3001), np.linspace(-0.3, 8.0, 301),
                   np.linspace(-8.0, 0.3, 301)):
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
        f0, f1 = synthesize_incident(spec, xs, [0.0, 2.0])
        assert f0.peak_position == pytest.approx(0.0, abs=2 * (xs[1] - xs[0]))
        assert f1.peak_position - f0.peak_position == pytest.approx(
            4.0, abs=2 * (xs[1] - xs[0]))

    def test_centroid_moves_at_group_velocity(self):
        # Ehrenfest: the centroid velocity is exactly k0/m even while spreading
        spec = spectrum(k0=1.0)
        xs = np.linspace(-30, 40, 7001)
        c = [np.trapezoid(xs * f.density, xs) / np.trapezoid(f.density, xs)
             for f in synthesize_incident(spec, xs, [0.0, 4.0])]
        assert (c[1] - c[0]) / 4.0 == pytest.approx(1.0, rel=1e-3)

    def test_width_grows(self):
        spec = spectrum(k0=1.0)
        xs = np.linspace(-40, 50, 4501)

        def width(t):
            # 4 panels alias on this 90-wide grid: size the rule by the gate
            [f], _, _ = ensure_converged(
                lambda q: synthesize_incident(spec, xs, [t], quad=q), QuadratureSpec())
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
        [f] = synthesize_transmitted(spec, b, xs, [0.0])
        # |T| = 1, Theta = 0: same integral as the window-truncated free packet
        [g] = synthesize_incident(spec, xs, [0.0], k_interval=(1e-9 * b.w, b.w))
        np.testing.assert_allclose(np.abs(f.psi), np.abs(g.psi), atol=1e-12)
        assert f.peak_position == pytest.approx(0.0, abs=0.05)

    def test_norm_bounded_by_incident(self):
        spec, b = spectrum(), barrier(4.0, 0.5)
        xs = np.linspace(b.half_width, b.half_width + 40.0, 4001)
        xs_free = np.linspace(-40.0, 40.0, 8001)
        t = 6.0
        [trans] = synthesize_transmitted(spec, b, xs, [t])
        [free] = synthesize_incident(spec, xs_free, [t], k_interval=(1e-9 * b.w, b.w))
        assert np.trapezoid(trans.density, xs) < np.trapezoid(free.density, xs_free)

    def test_rejects_grid_inside_barrier(self):
        with pytest.raises(ValueError):
            synthesize_transmitted(spectrum(), barrier(4.0, 0.5),
                                   np.linspace(0.0, 5.0, 100), [0.1])

    def test_rejects_an_all_zero_column(self):
        # 1e-9 w = 10 lies above the spectrum of k0 = 1: every node of the
        # rule on (1e-9 w, w] once gave g = 0, and the fields were all zero
        with pytest.raises(ValueError, match="identically zero"):
            synthesize_transmitted(spectrum(), BarrierConfig(w=1e10, width=1e-12),
                                   np.linspace(0.0, 12.0, 101), [1.0])


class TestCollision:
    def test_mirror_symmetry(self):
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=0.4)
        xs = np.linspace(-12.0, 12.0, 1201)
        for f in synthesize_collision(spec, b, xs,
                                      [collision_sync_time(spec, b), 0.4, 1.5]):
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
            [f] = synthesize_collision(spec, b, np.linspace(-16.0, 16.0, 401), [0.0])
        assert np.isfinite(f.psi).all()
        assert 0.0 < np.abs(f.psi).max() < 1e-10

    def test_rejects_times_before_sync(self):
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=0.4)
        with pytest.raises(ValueError):
            synthesize_collision(spec, b, np.linspace(-5, 5, 101),
                                 [collision_sync_time(spec, b) - 0.01])

    def test_outgoing_spectral_modulus_is_incident_gaussian(self):
        spec = spectrum(k0=2.0)
        b = BarrierConfig(w=4.0, width=0.4)
        ks = np.linspace(0.05, 10.0, 800)
        g = spec.amplitude(ks)
        refl, trans = _collision_amplitudes(ks, b)
        s_abs = np.abs(refl + trans)
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

    @pytest.mark.parametrize("L", [0.2, 1.0])
    def test_exit_face_signal_is_the_field_at_the_exit_face(self, L):
        # the report's exit-face time signal, _phase_matvec over t of the
        # column g |T| e^{i Theta} wts / 2pi, is row 0 of the transmitted
        # field on a grid that starts at L/2
        spec, b, quad = spectrum(), barrier(4.0, L), QuadratureSpec()
        ks, wts = quad.nodes(1e-9 * b.w, b.w)
        column = (spec.amplitude(ks) * transmission_modulus(ks, b)
                  * np.exp(1j * transmission_phase(ks, b)) * wts / (2.0 * math.pi))
        ts = np.arange(-6.0, 7.0, 0.02)
        [signal] = _phase_matvec(ts, -ks * ks / 2.0, [(0, len(ts), column[:, None])])
        xs = np.linspace(b.half_width, b.half_width + 1.0, 5)
        row = np.array([f.psi[0] for f in synthesize_transmitted(spec, b, xs, ts, quad)])
        assert np.abs(signal[:, 0] - row).max() <= 1e-13 * np.abs(row).max()

    def test_one_amplitude_kernel_call_per_rule(self, monkeypatch):
        # the exit-face signals and the snapshots share one transmitted
        # column per rule; the gate passes on 4 -> 8 panels of 48 nodes
        calls = []

        def counted(ks, b):
            calls.append(len(ks))
            return _collision_amplitudes(ks, b)

        monkeypatch.setattr("tunneltimes.packets._collision_amplitudes", counted)
        transmission_timing_report(spectrum(), barrier(4.0, 0.2))
        assert calls == [192, 384]

    def test_rejects_bad_time_step_before_any_work(self, monkeypatch):
        # dt = 0 made np.arange divide by zero, a negative or infinite dt
        # failed later with a message about x, and so did dt = 100 (fewer
        # than 3 points); dt = 1e-9 would ask for about 1.3e10 points
        def no_kmax(*args, **kwargs):
            raise AssertionError("find_kmax reached")

        monkeypatch.setattr("tunneltimes.packets.find_kmax", no_kmax)
        for dt in (0.0, -0.002, math.inf, -math.inf, math.nan, 100.0, 1e-9):
            with pytest.raises(ValueError, match="dt"):
                transmission_timing_report(spectrum(), barrier(), dt=dt)
        with pytest.raises(AssertionError, match="find_kmax"):
            transmission_timing_report(spectrum(), barrier(), dt=0.002)


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


@pytest.mark.parametrize("report", [transmission_timing_report, collision_timing_report])
def test_reports_name_a_tiny_numpy_k0(report):
    # a numpy k0 was kept as given, so 1/k0 overflowed in numpy with a
    # RuntimeWarning before the report's own check named k0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k0"):
            report(GaussianSpectrum(k0=np.float64(1e-320)), barrier())


class TestCollisionReportGate:
    """The collision report's gate starts from the doubled rule with one
    doubling fewer, so it ends at the finest rule of the default gate."""

    @staticmethod
    def record(monkeypatch):
        """(len(x), len(t), panels) of every synthesize_collision call the report makes."""
        made = []

        def recorded(spec, b, x, t, quad):
            made.append((len(x), len(t), quad.panels))
            return synthesize_collision(spec, b, x, t, quad=quad)

        monkeypatch.setattr("tunneltimes.packets.synthesize_collision", recorded)
        return made

    def test_default_report_makes_four_full_grid_calls(self, monkeypatch):
        # the CLI's collide default: the 2001-row fit grid and the 2401-row
        # symmetry grid at 8 panels, then at 16, where the gate passes
        made = self.record(monkeypatch)
        collision_timing_report(GaussianSpectrum(k0=8.0), BarrierConfig(w=16.0, width=0.1))
        assert made == [(2001, 12, 8), (2401, 3, 8), (2001, 12, 16), (2401, 3, 16)]

    def test_failing_gate_names_the_finest_rule(self, monkeypatch):
        # an unreachable tolerance from 1 panel: the gate runs from 2 panels
        # and gives up at 64, the rule a gate from 1 panel would name
        spec, b = GaussianSpectrum(k0=8.0), BarrierConfig(w=16.0, width=0.1)
        quad = QuadratureSpec(panels=1, tol=1e-16)
        with pytest.raises(ConvergenceError) as want:
            report_on_plain_gate(spec, b, quad)
        made = self.record(monkeypatch)
        with pytest.raises(ConvergenceError) as got:
            collision_timing_report(spec, b, quad)
        assert str(got.value) == str(want.value)
        assert "at 64 panels" in str(want.value)
        assert {panels for *_, panels in made} == {2, 4, 8, 16, 32, 64}


class TestCollisionReportProbe:
    """Rows that probe which plain gate the collision report equals: the
    gate from the doubled rule always, and the gate from the starting rule
    exactly where the starting rule fails its first comparison (`skips`),
    so that skipping it changes nothing."""

    @pytest.mark.parametrize("k0, w, L, tol, skips", [
        (8.0, 16.0, 0.1, 1e-8, True),
        (8.5, 15.0, 0.12, 1e-8, True),
        (8.0, 16.0, 0.1, 1e-12, True),
        (8.0, 16.0, 0.1, 1e-3, False),  # 4 panels pass; the 8-panel evaluation is returned
    ])
    def test_equals_the_plain_gate(self, monkeypatch, k0, w, L, tol, skips):
        spec, b = GaussianSpectrum(k0=k0), BarrierConfig(w=w, width=L)
        quad = QuadratureSpec(tol=tol)
        want = report_on_plain_gate(spec, b, quad)
        with mock.patch("tunneltimes.packets.ensure_converged",
                        lambda synth, start, doublings: ensure_converged(synth, quad)):
            from_start = collision_timing_report(spec, b, quad)
        made = TestCollisionReportGate.record(monkeypatch)
        got = collision_timing_report(spec, b, quad)
        assert got == want
        assert (got == from_start) == skips
        assert min(panels for *_, panels in made) == 2 * quad.panels
