"""Transit and scattering phase times, and their dimensionless rates.

Time quantities follow from derivatives of the two scattering phases in
`barrier`: the transmission phase Theta(k, L) gives the standard transit
time t = (1/k) dTheta/dk evaluated at the spectral maximum, and the
combined-amplitude phase phi(k, L) gives the symmetric-collision
scattering time t = (1/k0) dphi/dk.  Both are returned in closed form as
plain floats.

For phi the branch that keeps the combined amplitude identity
exp(-i [kL + phi]) exact is monotonically decreasing in k, so the signed
derivative is negative; the positive scattering delay (time from the
peaks reaching the barrier faces to the scattered peaks re-emerging) is
its negative, tau * rate_scattering(alpha, n), and is what
scattering_delay returns.  A variant closed form with a squared-cosh
denominator circulates for this quantity; it does not reproduce the phase
derivative and is kept only as a diagnostic.

Dimensionless parameters: alpha = rho(k) L, n = k^2/w^2, and the
classical traversal time tau = L / k; alpha^2 must be finite.

rate_scattering (at half angles) and the variant take the sinh/cosh
kernel of `numerics`.  rate_standard keeps a series: at n = 1 its
numerator cancels to O(alpha^3).  Above alpha = 0.1 its expm1 form is as
accurate as the kernel form (worst relative error against mpmath,
alpha in [0.1, 2e3], n in [1e-12, 1]: 2.7e-14 against 3.6e-14).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .barrier import BarrierConfig
from .numerics import sinhc_cosh

# Below this alpha rate_standard switches to series numerator/denominator
# pairs (through alpha^8); chosen so both branches agree to ~1e-13 at the
# seam even at n = 1, where the direct numerator cancels to O(alpha^3).
_ALPHA_SERIES = 0.1


def _time_params(k: float, barrier: BarrierConfig) -> tuple[float, float, float]:
    """Dimensionless groups (alpha, n, tau) of a phase time at k in (0, w)."""
    w = barrier.w
    if not 0.0 < k < w:
        raise ValueError("k_eval must lie in the tunneling window (0, w)")
    alpha = math.sqrt(w * w - k * k) * barrier.width
    return alpha, (k / w) ** 2, barrier.width / k


def _validate_rate_args(alpha, n: float) -> np.ndarray:
    arr = np.asarray(alpha, dtype=float)
    # alpha <= sqrt(max float) is exactly alpha * alpha < inf
    if not np.all((arr >= 0.0) & (arr <= math.sqrt(sys.float_info.max))):
        raise ValueError("alpha must be nonnegative, with alpha^2 finite")
    if not 0.0 < n <= 1.0:
        raise ValueError("n must lie in (0, 1]")
    return arr


def rate_standard(alpha, n: float):
    """Transit time over classical time, R_T(alpha; n).

    R_T = (2/alpha) [cosh(a) sinh(a) - a n (2n-1)] / [4n(1-n) + sinh^2(a)].
    The alpha -> 0 limit is 1 + 1/(2n) for n < 1 but 4/3 at n = 1: the
    two limits do not commute, and no smoothing is applied.  Scalar or
    array alpha.
    """
    arr = _validate_rate_args(alpha, n)
    out = np.empty_like(arr)
    small = arr < _ALPHA_SERIES
    if small.any():
        a2 = arr[small] ** 2
        if n == 1.0:
            # both constant terms vanish; a2 is divided out so that an
            # underflowing a2 cannot give 0/0
            num = 2.0 / 3.0 + (2.0 / 15.0) * a2 + (4.0 / 315.0) * a2 * a2 \
                + (2.0 / 2835.0) * a2**3
            den = 1.0 + a2 / 3.0 + (2.0 / 45.0) * a2 * a2 + a2**3 / 315.0
        else:
            # (sc - a n(2n-1))/a and (4n(1-n) + sinh^2)/1, each through a^8;
            # the constant 1 + n - 2n^2 is factored so that it keeps its
            # digits just below n = 1
            num = (1.0 - n) * (1.0 + 2.0 * n) + (2.0 / 3.0) * a2 \
                + (2.0 / 15.0) * a2 * a2 + (4.0 / 315.0) * a2**3 \
                + (2.0 / 2835.0) * a2**4
            den = 4.0 * n * (1.0 - n) + a2 + a2 * a2 / 3.0 \
                + (2.0 / 45.0) * a2**3 + a2**4 / 315.0
        # alpha = 0 exactly: the finite directional limit
        lim = 4.0 / 3.0 if n == 1.0 else 1.0 + 0.5 / n
        out[small] = np.where(arr[small] == 0.0, lim, 2.0 * num / den)
    big = ~small
    if big.any():
        a = arr[big]
        e = np.exp(-2.0 * a)
        one_minus = -np.expm1(-2.0 * a)
        num = -np.expm1(-4.0 * a) - 4.0 * a * n * (2.0 * n - 1.0) * e
        den = one_minus * one_minus + 16.0 * n * (1.0 - n) * e
        out[big] = (2.0 / a) * num / den
    return out if out.ndim else float(out)


def rate_scattering(alpha, n: float):
    """Scattering delay over classical time, R_phi(alpha; n).

    R_phi = (2/alpha) [n alpha + sinh(alpha)] / [2n - 1 + cosh(alpha)],
    evaluated as (n + S C) / (n + (a S)^2) at a = alpha/2, S = sinh(a)/a,
    C = cosh(a), where no term cancels for any alpha.  Limits 1 + 1/n as
    alpha -> 0 and 0 as alpha -> infinity.  Scalar or array alpha.
    """
    arr = _validate_rate_args(alpha, n)
    half = 0.5 * arr
    s, c, r = sinhc_cosh(half * half)
    n_scaled = n * np.exp(-2.0 * r)  # the e^r scale of (S, C) moves onto n
    hs = half * s
    out = (n_scaled + s * c) / (n_scaled + hs * hs)
    return out if np.ndim(out) else float(out)


def standard_transit_time(k_eval: float, barrier: BarrierConfig) -> float:
    """Stationary-phase transit time t = (1/k) dTheta/dk at k_eval.

    Exact closed form tau * rate_standard(alpha, n).
    """
    alpha, n, tau = _time_params(k_eval, barrier)
    return tau * rate_standard(alpha, n)


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
    exposed purely for diagnostic comparison; 0 at L = 0, and finite (tending
    to 0) for large alpha."""
    a = _time_params(k0, barrier)[0]
    w2 = barrier.w**2
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
    """Symmetric-collision scattering delay -(1/k0) dphi/dk at k0.

    On the shipped branch of phi the phase derivative is negative; the
    delay is its negative, the exact closed form
    tau * rate_scattering(alpha, n), which is 0 at L = 0.
    """
    alpha, n, tau = _time_params(k0, barrier)
    return tau * rate_scattering(alpha, n)


def rate_table(n_values, alphas) -> list[tuple[float, float, float, float]]:
    """Rows (alpha, n, rate_standard, rate_scattering), n-major then alpha."""
    rows = []
    for n in n_values:
        rs = rate_standard(np.asarray(alphas, dtype=float), n)
        rp = rate_scattering(np.asarray(alphas, dtype=float), n)
        for a, x, y in zip(np.asarray(alphas, dtype=float), np.atleast_1d(rs), np.atleast_1d(rp)):
            rows.append((float(a), float(n), float(x), float(y)))
    return rows
