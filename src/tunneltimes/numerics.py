"""Shared numerical kernels.

Dimension-agnostic plumbing used throughout the package: the one
overflow-safe kernel for sinh(sqrt z)/sqrt z and cosh(sqrt z) of the
signed square z, which every amplitude and phase time takes, a
golden-section maximizer that advances many independent brackets in lock
step (one objective call per step for all of them; `golden_section_max`
is its one-bracket case), Ridders' polynomial-extrapolated derivative (a
reference implementation: the phase times are closed forms, and the
tests check them against it), and composite Gauss-Legendre quadrature.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SERIES_CUT = 1e-6  # |z| below it takes _series (relative error < 1e-28)
_Z_SCALED = 9.0e4  # sqrt z = 300: above it sinh and cosh near overflow

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _float_if_scalar(out):
    """The package's return rule: a float for a 0-d result, else the array."""
    return out if np.ndim(out) else float(out)


def _series(z):
    """(sinhc, cosh) of the signed square z by their Taylor series through z^3."""
    return (1.0 + z / 6.0 + z * z / 120.0 + z**3 / 5040.0,
            1.0 + z / 2.0 + z * z / 24.0 + z**3 / 720.0)


def sinhc_cosh(z):
    """(s, c, r) with sinh(sqrt z)/sqrt z = s e^r and cosh(sqrt z) = c e^r.

    Both are entire in z: negative z continues them to sin and cos of
    sqrt(-z), and a series covers |z| < _SERIES_CUT.  Above _Z_SCALED
    r = sqrt(z) and (s, c) = ((1 - e^{-2r})/(2r), (1 + e^{-2r})/2), and
    the switch is made here and nowhere else; below it r is 0 (the float
    0.0 when no element is scaled).  All z in (_SERIES_CUT, _Z_SCALED], or
    all in the series window, take no masks.  z must be finite
    (ValueError).  Scalars in, floats out; arrays in, arrays out.
    """
    z = np.asarray(z, dtype=float)
    lo, hi = z.min(initial=np.inf), z.max(initial=-np.inf)
    if _SERIES_CUT < lo and hi <= _Z_SCALED:
        q = np.sqrt(z)
        s, c = np.sinh(q) / q, np.cosh(q)
        return (s, c, 0.0) if z.ndim else (float(s), float(c), 0.0)
    if not (-np.inf < lo and hi < np.inf):  # false for nan too
        raise ValueError("sinhc_cosh needs a finite signed square z")
    if -_SERIES_CUT <= lo and hi <= _SERIES_CUT:  # k = w or L = 0
        s, c = _series(z)
        return (s, c, 0.0) if z.ndim else (float(s), float(c), 0.0)
    s, c = np.empty_like(z), np.empty_like(z)
    pos = z > _SERIES_CUT
    neg = z < -_SERIES_CUT
    mid = ~(pos | neg)
    r = 0.0
    if hi > _Z_SCALED:
        big = z > _Z_SCALED
        pos &= ~big
        r = np.zeros_like(z)
        r[big] = q = np.sqrt(z[big])
        e = np.exp(-2.0 * q)
        s[big] = 0.5 * (1.0 - e) / q
        c[big] = 0.5 * (1.0 + e)
    if pos.any():
        q = np.sqrt(z[pos])
        s[pos] = np.sinh(q) / q
        c[pos] = np.cosh(q)
    if neg.any():
        q = np.sqrt(-z[neg])
        s[neg] = np.sin(q) / q
        c[neg] = np.cos(q)
    if mid.any():
        s[mid], c[mid] = _series(z[mid])
    return (s, c, r) if z.ndim else (float(s), float(c), float(r))


def _golden_lanes(f, lo, hi, tol: float) -> np.ndarray:
    """Golden-section maxima of many unimodal functions, one per lane.

    lo and hi are 1-D arrays of bracket ends; f maps an array of points,
    one per lane, to the array of their values.  Every lane takes exactly
    the steps of a lone search on its own bracket: the same points, the
    same comparisons and its own step count, so its result does not
    depend on the other lanes.  A lane that has used its steps keeps the
    midpoint of its final bracket (width <= tol) while the others go on.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    h = hi - lo
    if not np.all(h > 0.0):
        raise ValueError("need hi > lo")
    steps = [max(math.ceil(math.log(tol / x) / math.log(_INVPHI)), 0)
             for x in h.tolist()]
    out = 0.5 * (lo + hi)
    if max(steps) == 0:
        return out
    n = np.array(steps)
    c = lo + _INVPHI2 * h
    d = lo + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for step in range(1, max(steps) + 1):
        left = yc > yd  # the maximum lies in [lo, d]
        lo = np.where(left, lo, c)
        hi = np.where(left, d, hi)
        h = h * _INVPHI
        x = lo + np.where(left, _INVPHI2, _INVPHI) * h
        y = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        yc, yd = np.where(left, y, yd), np.where(left, yc, y)
        if step in steps:
            out = np.where(n == step, 0.5 * (lo + hi), out)
    return out


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Locate the maximum of a unimodal scalar function on [lo, hi].

    Returns the midpoint of the final bracket, which has width <= tol.
    The one-lane case of `_golden_lanes`.
    """
    return float(_golden_lanes(lambda x: np.array([f(float(x[0]))]),
                               [lo], [hi], tol)[0])


def ridders_derivative(f, x: float, h: float) -> tuple[float, float]:
    """First derivative of f at x by Ridders' extrapolated central differences.

    h is the initial step (should span a region where f varies noticeably);
    each further step is h shrunk by 1.4, for at most 10 steps.  Returns
    (derivative, error_estimate).  The tableau stops early once the
    extrapolation error grows again.
    """
    if h == 0.0:
        raise ValueError("initial step h must be nonzero")
    shrink = 1.4
    con2 = shrink * shrink
    a = {}
    hh = h
    a[0, 0] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
    err = math.inf
    best = a[0, 0]
    for i in range(1, 10):
        hh /= shrink
        a[0, i] = (f(x + hh) - f(x - hh)) / (2.0 * hh)
        fac = con2
        for j in range(1, i + 1):
            a[j, i] = (a[j - 1, i] * fac - a[j - 1, i - 1]) / (fac - 1.0)
            fac *= con2
            errt = max(abs(a[j, i] - a[j - 1, i]), abs(a[j, i] - a[j - 1, i - 1]))
            if errt <= err:
                err = errt
                best = a[j, i]
        if abs(a[i, i] - a[i - 1, i - 1]) >= 2.0 * err:
            break
    return best, err


@functools.lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only, since every caller shares them."""
    x, wts = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = wts.flags.writeable = False
    return x, wts


def check_count(value, least: int, name: str) -> None:
    """ValueError unless value is an int or numpy integer of at least `least`."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}")


def gauss_legendre_panels(lo: float, hi: float, panels: int,
                          order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: `panels` equal panels of the given order.

    Returns (nodes, weights) concatenated over panels, nodes increasing.
    lo and hi must be finite, with hi > lo.
    """
    if not -math.inf < lo < hi < math.inf:  # false for nan too
        raise ValueError("need finite ends with hi > lo")
    check_count(panels, 1, "panels")
    check_count(order, 2, "order")
    x, wts = _legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
    return (half * x + mid).ravel(), (half * wts).ravel()


def parabolic_refine(grid: np.ndarray, values: np.ndarray, i: int) -> float:
    """Sub-grid maximum near index i by parabola fit; grid must be equally spaced."""
    if 0 < i < len(grid) - 1:
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            shift = 0.5 * (y0 - y2) / denom
            if abs(shift) <= 1.0:
                return float(grid[i] + shift * (grid[1] - grid[0]))
    return float(grid[i])
