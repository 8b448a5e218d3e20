"""Shared numerical kernels.

Dimension-agnostic plumbing used throughout the package: one pass that
evaluates the pair sinh(sqrt z)/sqrt z and cosh(sqrt z) of the signed
square z through the removable singularity at z = 0 (the unscaled half of
the barrier amplitude kernel), a golden-section maximizer that advances
many independent brackets in lock step (one objective call per step for
all of them; `golden_section_max` is its one-bracket case), Ridders'
polynomial-extrapolated derivative (a reference implementation: the phase
times are closed forms, and the tests check them against it), and
composite Gauss-Legendre quadrature nodes.
"""

from __future__ import annotations

import math

import numpy as np

# Series window for the removable singularity of sinhc/coshc at z = 0.
# |z| below this uses a 4-term Taylor series (relative error < 1e-28 there).
_SERIES_CUT = 1e-6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def sinhc_coshc_sq(z):
    """(sinh(sqrt(z))/sqrt(z), cosh(sqrt(z))) as functions of the signed square z.

    Both are entire in z, so negative arguments continue analytically to
    sin(sqrt(-z))/sqrt(-z) and cos(sqrt(-z)).  One pass shares the branch
    masks and the square root between the pair; when every z lies above the
    series window there are no masks at all.  Scalars in, a pair of
    floats out; arrays in, a pair of arrays out.  Overflows for z > ~5e5;
    callers switch to scaled forms before that.
    """
    z = np.asarray(z, dtype=float)
    pos = z > _SERIES_CUT
    if pos.all():
        r = np.sqrt(z)
        s, c = np.sinh(r) / r, np.cosh(r)
        return (s, c) if z.ndim else (float(s), float(c))
    s = np.empty_like(z)
    c = np.empty_like(z)
    neg = z < -_SERIES_CUT
    mid = ~(pos | neg)
    if pos.any():
        r = np.sqrt(z[pos])
        s[pos] = np.sinh(r) / r
        c[pos] = np.cosh(r)
    if neg.any():
        q = np.sqrt(-z[neg])
        s[neg] = np.sin(q) / q
        c[neg] = np.cos(q)
    if mid.any():
        zm = z[mid]
        s[mid] = 1.0 + zm / 6.0 + zm * zm / 120.0 + zm**3 / 5040.0
        c[mid] = 1.0 + zm / 2.0 + zm * zm / 24.0 + zm**3 / 720.0
    if z.ndim:
        return s, c
    return float(s), float(c)


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


def gauss_legendre_panels(lo: float, hi: float, panels: int,
                          order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: `panels` equal panels of the given order.

    Returns (nodes, weights) concatenated over panels, nodes increasing.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if panels < 1 or order < 2:
        raise ValueError("need panels >= 1 and order >= 2")
    x, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    nodes = []
    weights = []
    for i in range(panels):
        a, b = edges[i], edges[i + 1]
        nodes.append(0.5 * (b - a) * x + 0.5 * (b + a))
        weights.append(0.5 * (b - a) * wts)
    return np.concatenate(nodes), np.concatenate(weights)


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
