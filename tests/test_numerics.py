import math

import mpmath as mp
import numpy as np
import pytest

from tunneltimes.numerics import (_INVPHI, _INVPHI2, _golden_lanes, _legendre,
                                  _series, gauss_legendre_panels,
                                  golden_section_max, parabolic_refine,
                                  ridders_derivative, sinhc_cosh)

mp.mp.dps = 40


@pytest.mark.parametrize("z", [-400.0, -9.0, -1e-3, -1e-8, 0.0, 1e-8, 1e-3, 4.0, 900.0])
def test_sinhc_coshc_match_mpmath(z):
    r = mp.sqrt(mp.mpf(z)) if z >= 0 else 1j * mp.sqrt(-mp.mpf(z))
    want_s = float(mp.re(mp.sinh(r) / r)) if z != 0 else 1.0
    want_c = float(mp.re(mp.cosh(r))) if z != 0 else 1.0
    got_s, got_c, got_r = sinhc_cosh(z)
    assert got_r == 0.0
    assert got_s == pytest.approx(want_s, rel=1e-14)
    assert got_c == pytest.approx(want_c, rel=1e-14)


@pytest.mark.parametrize("z", [90001.0, 2.5e5, 1e6, 4e8])
def test_sinhc_cosh_scaled_matches_mpmath(z):
    # above z = 9e4 the pair comes as mantissas times e^r, r = sqrt(z);
    # sinh overflows a float from z ~ 5e5 on
    s, c, r = sinhc_cosh(z)
    assert r == math.sqrt(z)
    q = mp.sqrt(mp.mpf(z))
    scale = mp.exp(mp.mpf(r))
    assert float(mp.mpf(s) * scale / (mp.sinh(q) / q)) == pytest.approx(1.0, rel=1e-13)
    assert float(mp.mpf(c) * scale / mp.cosh(q)) == pytest.approx(1.0, rel=1e-13)


def test_sinhc_vectorized_matches_scalar():
    zs = np.array([-25.0, -1e-7, 0.0, 1e-7, 2.5, 1e4, 2.5e5])
    vec = sinhc_cosh(zs)
    for i, z in enumerate(zs):
        assert tuple(v[i] for v in vec) == sinhc_cosh(float(z))
    # no scaled element: r is the float 0.0 on every path
    for zs in (np.array([1.0, 4.0]), np.array([0.0, 1e-8]), np.array([-1.0, 0.0, 4.0])):
        r = sinhc_cosh(zs)[2]
        assert type(r) is float and r == 0.0
    # all of z in the series window, +-0 and subnormals included: the
    # masked path gives _series's bits, as 0-d, 1-D and 2-D inputs
    tiny = np.concatenate([np.linspace(-1e-6, 1e-6, 100001),
                           [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]])
    for zs in (tiny, tiny.reshape(97, 1031)):
        s, c, r = sinhc_cosh(zs)
        assert type(s) is type(c) is np.ndarray and s.shape == c.shape == zs.shape
        assert type(r) is float and r == 0.0
        for got, want in zip((s, c), _series(zs)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for z in tiny[::499].tolist() + [-0.0, 5e-324]:
        for zd in (z, np.array(z)):
            got = sinhc_cosh(zd)
            assert all(type(v) is float for v in got)
            assert got == (*map(float, _series(np.array(z))), 0.0)


def test_sinhc_cosh_rejects_non_finite():
    for z in (math.inf, -math.inf, math.nan, [1.0, -math.inf]):
        with pytest.raises(ValueError):
            sinhc_cosh(z)


def test_golden_section_max_quadratic():
    xm = golden_section_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, tol=1e-13)
    assert abs(xm - 0.37) < 1e-10


def test_golden_section_max_needs_interval():
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        _golden_lanes(lambda x: x, [0.0, 1.0], [1.0, 1.0], 1e-10)


def _golden_scalar(f, lo, hi, tol):
    """Scalar golden-section loop: the reference for the lock-step lanes."""
    h = hi - lo
    if h <= tol:
        return 0.5 * (lo + hi)
    n = int(math.ceil(math.log(tol / h) / math.log(_INVPHI)))
    c = lo + _INVPHI2 * h
    d = lo + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n):
        if yc > yd:
            hi, d, yd = d, c, yc
            h *= _INVPHI
            c = lo + _INVPHI2 * h
            yc = f(c)
        else:
            lo, c, yc = c, d, yd
            h *= _INVPHI
            d = lo + _INVPHI * h
            yd = f(d)
    return 0.5 * (lo + hi)


def test_golden_lanes_match_scalar_search_bit_for_bit():
    # brackets of different widths take different step counts; s = 0 is
    # flat (every comparison ties); the last bracket is already within tol
    m = [0.37, 0.5, 2.0, 1.0, 0.25, 3.0]
    s = [1.0, 0.0, 3.0, 1e-9, 2.0, 0.5]
    lo = [0.0, 0.0, 1.0, 0.9, 0.25 - 1e-7, 2.5]
    hi = [1.0, 1.0, 5.0, 1.1, 0.25 + 1e-7, 2.5 + 8e-11]
    tol = 1e-10
    ma, sa = np.array(m), np.array(s)
    lanes = _golden_lanes(lambda x: -(x - ma) * (x - ma) * sa, lo, hi, tol)
    for i in range(len(m)):
        def f(x):
            return -(x - m[i]) * (x - m[i]) * s[i]

        want = _golden_scalar(f, lo[i], hi[i], tol)
        assert lanes[i] == want
        assert golden_section_max(f, lo[i], hi[i], tol) == want


def test_ridders_derivative_trig():
    d, err = ridders_derivative(math.sin, 0.7, 0.1)
    assert abs(d - math.cos(0.7)) < 1e-11
    assert err < 1e-9


def test_ridders_rejects_zero_step():
    with pytest.raises(ValueError):
        ridders_derivative(math.sin, 0.0, 0.0)


def test_gauss_panels_integrate_polynomial_exactly():
    ks, wts = gauss_legendre_panels(-1.0, 3.0, panels=3, order=6)
    # order-6 Gauss is exact through degree 11
    val = float(np.sum(wts * ks**9))
    exact = (3.0**10 - (-1.0) ** 10) / 10.0
    assert val == pytest.approx(exact, rel=1e-13)
    assert np.all(np.diff(ks) > 0)


def _gauss_panels_by_loop(lo, hi, panels, order):
    """The composite rule built one panel at a time from a fresh leggauss."""
    x, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
        weights.append(0.5 * (b - a) * wts)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("lo, hi, panels, order", [
    (1e-9, 4.0, 24, 48), (8e-9, 16.0, 4, 48), (1e-12, 10.0, 256, 48),
    (-1.0, 3.0, 3, 6), (0.3, 0.30001, 7, 31), (0.0, 24.0, 48, 48)])
def test_gauss_panels_bit_identical_to_panel_loop(lo, hi, panels, order):
    ks, wts = gauss_legendre_panels(lo, hi, panels, order)
    want_ks, want_wts = _gauss_panels_by_loop(lo, hi, panels, order)
    np.testing.assert_array_equal(ks, want_ks)
    np.testing.assert_array_equal(wts, want_wts)


def test_gauss_base_nodes_cached_read_only():
    gauss_legendre_panels(0.0, 1.0, 2, 17)
    hits = _legendre.cache_info().hits
    ks, _ = gauss_legendre_panels(0.0, 1.0, 4, 17)
    assert _legendre.cache_info().hits == hits + 1
    x, wts = _legendre(17)
    assert not (x.flags.writeable or wts.flags.writeable)
    ks[0] = -1.0  # the panel nodes are the caller's own
    assert gauss_legendre_panels(0.0, 1.0, 4, 17)[0][0] > 0.0


def test_gauss_panels_validation():
    with pytest.raises(ValueError):
        gauss_legendre_panels(1.0, 0.0, 2, 4)
    with pytest.raises(ValueError):
        gauss_legendre_panels(0.0, 1.0, 0, 4)


def test_parabolic_refine_recovers_vertex():
    x = np.linspace(0.0, 1.0, 101)
    y = -(x - 0.5037) ** 2
    i = int(np.argmax(y))
    assert abs(parabolic_refine(x, y, i) - 0.5037) < 1e-12
