"""Transit and scattering phase times, and their dimensionless rates.

Time quantities follow from derivatives of the two scattering phases in
`barrier`: the transmission phase Theta(k, L) gives the standard transit
time t = (1/k) dTheta/dk evaluated at the spectral maximum, and the
combined-amplitude phase phi(k, L) gives the symmetric-collision
scattering time t = (1/k0) dphi/dk.  Both are returned in closed form as
plain floats.

The branch of phi that keeps exp(-i [kL + phi]) exact decreases in k, so
scattering_delay returns the positive delay -(1/k0) dphi/dk (time from the
peaks reaching the barrier faces to the scattered peaks re-emerging).  A
variant closed form with a squared-cosh denominator circulates for it; it
does not reproduce the phase derivative and is kept only as a diagnostic.

Each time is tau = L / k times one ratio of z = (w^2 - k^2) L^2 = m (w L)^2,
n = k^2/w^2 and m = 1 - n, from one `sinhc_cosh` call as in `barrier`, so
it continues through the top k = w.  With (s, c) = (sinh(sqrt z)/sqrt z,
cosh(sqrt z)) and (S, C) the same at z/4, R_T = 2 (c s - n(2n - 1)) /
(4nm + z s^2) and R_phi = (n + S C) / (n + (z/4) S^2).  The rates take
z = alpha^2, alpha = rho L, and 0 < n <= 1.  Only R_T cancels, at the top,
so it takes a series below |z| = _Z_SERIES; above, its kernel form is within
2.7e-14 of mpmath for alpha in [0.1, 2e3] plus {300.1, 1e4, 1e154},
n in [1e-12, 1] (the expm1 form it replaced: 2.7e-14).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .barrier import BarrierConfig
from .numerics import sinhc_cosh

# Below this |z| (alpha = 0.1) R_T takes its series through z^4, which misses
# mpmath by 1.4e-12 at n = 1e-12, alpha = 0.0999, where the denominator is ~z.
_Z_SERIES = 0.01


def _time_params(k: float, barrier: BarrierConfig) -> tuple[float, float, float, float]:
    """(z, n, m, tau) of a phase time at a finite k > 0, with z finite;
    m = (w - k)(w + k)/w^2 and z = m (w L)^2 keep their digits at the top."""
    w, L = barrier.w, barrier.width
    m = (w - k) / w * ((w + k) / w)
    z = m * (w * L) ** 2
    if not (0.0 < k < math.inf and math.isfinite(z)):
        raise ValueError("k_eval must be positive and finite, with (w^2 - k^2) L^2 finite")
    return z, (k / w) * (k / w), m, L / k


def _transit_ratio(z: np.ndarray, n: float, m: float, mm: float, zz):
    """R_T at the signed squares z, with m = 1 - n.

    Series constants carry m and the other terms z, so (mm, zz) (zz scalar
    or like z) is any positive multiple of (m, z); (1, (w L)^2) has no 0/0.
    """
    out = np.empty_like(z)
    big = np.abs(z) >= _Z_SERIES
    s, c, r = sinhc_cosh(z[big])
    e = np.exp(-2.0 * r)  # the e^r scale of (s, c) moves onto the n terms
    out[big] = 2.0 * (c * s - n * (2.0 * n - 1.0) * e) / (4.0 * n * m * e + z[big] * s * s)
    zs, zz = z[~big], np.broadcast_to(zz, z.shape)[~big]
    num = mm * (1.0 + 2.0 * n) \
        + zz * (2.0 / 3.0 + zs * (2.0 / 15.0 + zs * (4.0 / 315.0 + zs * (2.0 / 2835.0))))
    den = 4.0 * n * mm + zz * (1.0 + zs * (1.0 / 3.0 + zs * (2.0 / 45.0 + zs / 315.0)))
    out[~big] = 2.0 * num / den
    return out


def _scattering_ratio(z, n: float):
    """R_phi at the signed square z: (n + S C) / (n + zeta S^2) at zeta = z/4."""
    zeta = 0.25 * z
    s, c, r = sinhc_cosh(zeta)
    n_scaled = n * np.exp(-2.0 * r)
    return (n_scaled + s * c) / (n_scaled + zeta * s * s)


def _alpha_squared(alpha, n: float) -> np.ndarray:
    """z = alpha^2 of the rates, once alpha and n are checked."""
    arr = np.asarray(alpha, dtype=float)
    # alpha <= sqrt(max float) is exactly alpha * alpha < inf
    if not np.all((arr >= 0.0) & (arr <= math.sqrt(sys.float_info.max))):
        raise ValueError("alpha must be nonnegative, with alpha^2 finite")
    if not 0.0 < n <= 1.0:
        raise ValueError("n must lie in (0, 1]")
    return arr * arr


def rate_standard(alpha, n: float):
    """Transit time over classical time, R_T(alpha; n).

    R_T = (2/alpha) [cosh(a) sinh(a) - a n (2n-1)] / [4n(1-n) + sinh^2(a)].
    The alpha -> 0 limit is 1 + 1/(2n) for n < 1 but 4/3 at n = 1: the
    two limits do not commute, and no smoothing is applied.  Scalar or
    array alpha.
    """
    z = _alpha_squared(alpha, n)
    m = 1.0 - n
    # at n = 1 the pair (0, 1) is the alpha -> 0 limit, also where alpha^2 underflows
    out = _transit_ratio(z, n, m, *((m, z) if m else (0.0, 1.0)))
    return out if out.ndim else float(out)


def rate_scattering(alpha, n: float):
    """Scattering delay over classical time, R_phi(alpha; n).

    R_phi = (2/alpha) [n alpha + sinh(alpha)] / [2n - 1 + cosh(alpha)],
    evaluated as (n + S C) / (n + (a S)^2) at a = alpha/2, S = sinh(a)/a,
    C = cosh(a), where no term cancels for any alpha.  Limits 1 + 1/n as
    alpha -> 0 and 0 as alpha -> infinity.  Scalar or array alpha.
    """
    out = _scattering_ratio(_alpha_squared(alpha, n), n)
    return out if np.ndim(out) else float(out)


def standard_transit_time(k_eval: float, barrier: BarrierConfig) -> float:
    """Stationary-phase transit time t = (1/k) dTheta/dk at any k_eval > 0.

    Exact closed form tau R_T, on both sides of the top.  At k = w it is
    (2L/w)(3 + 2v/3)/(4 + v) with v = (w L)^2, the limit of both sides.
    """
    z, n, m, tau = _time_params(k_eval, barrier)
    return tau * float(_transit_ratio(np.asarray(z), n, m, 1.0, (barrier.w * barrier.width) ** 2))


def opaque_limit_time(k_eval: float, barrier: BarrierConfig) -> float:
    """Width-independent opaque-limit time 2 / (k rho(k)).

    Diverges as k -> w, which is why substituting the top wavenumber for
    the spectral maximum destroys any finite-speed interpretation;
    k = w itself is rejected.
    """
    w = barrier.w
    if not 0.0 < k_eval < w:
        raise ValueError("opaque-limit time needs 0 < k_eval < w (infinite at k = w)")
    r = math.sqrt(w * w - k_eval * k_eval)
    return 2.0 / (k_eval * r)


def scattering_time_coshsq_variant(k0: float, barrier: BarrierConfig) -> float:
    """Variant closed form with squared-cosh denominator and opposite-sign
    alpha k0^2 term.  It does not reproduce the phase derivative and is
    exposed purely for diagnostic comparison; needs 0 < k0 < w, is 0 at
    L = 0, and finite (tending to 0) for large alpha."""
    w2 = barrier.w**2
    if not 0.0 < k0 < barrier.w:
        raise ValueError("the variant needs the tunneling window 0 < k0 < w")
    a = math.sqrt(barrier.w * barrier.w - k0 * k0) * barrier.width
    s, c, r = sinhc_cosh(a**2)
    # cosh = c / sig and sinh/alpha = s / sig: numerator and denominator
    # are multiplied by sig^2, and sig = 1.0 below alpha = 300 changes no bit.
    sig = math.exp(-r)
    lead = w2 * s * sig
    if r and min(sig, lead) < sys.float_info.min:
        # A subnormal sig or lead has lost digits; the sig^2 terms are far
        # below round-off, so the value is 4 L e^-alpha / (k0 alpha), formed
        # in logs so that it never underflows before the end.
        return math.exp(math.log(4.0 * barrier.width / a) - math.log(k0) - a)
    return (2.0 * barrier.width / k0) * (lead - k0 * k0 * sig * sig) \
        / ((2.0 * k0 * k0 - w2) * sig * sig + w2 * c * c)


def scattering_delay(k0: float, barrier: BarrierConfig) -> float:
    """Symmetric-collision scattering delay -(1/k0) dphi/dk at any k0 > 0.

    On the shipped branch of phi the phase derivative is negative; the
    delay is its negative, the exact closed form tau R_phi on both sides
    of the top, which is 2 tau at k0 = w and 0 at L = 0.
    """
    z, n, _, tau = _time_params(k0, barrier)
    return tau * float(_scattering_ratio(z, n))


def rate_table(n_values, alphas) -> list[tuple[float, float, float, float]]:
    """Rows (alpha, n, rate_standard, rate_scattering), n-major then alpha."""
    rows = []
    for n in n_values:
        rs = rate_standard(np.asarray(alphas, dtype=float), n)
        rp = rate_scattering(np.asarray(alphas, dtype=float), n)
        for a, x, y in zip(np.asarray(alphas, dtype=float), np.atleast_1d(rs), np.atleast_1d(rp)):
            rows.append((float(a), float(n), float(x), float(y)))
    return rows
