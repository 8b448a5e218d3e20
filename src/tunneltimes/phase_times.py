"""Transit and scattering phase times, and their dimensionless rates.

Time quantities follow from derivatives of the two scattering phases in
`barrier`: the transmission phase Theta(k, L) gives the standard transit
time t = (1/k) dTheta/dk evaluated at the spectral maximum, and the
combined-amplitude phase phi(k, L) gives the symmetric-collision
scattering time t = (1/k0) dphi/dk.

For phi the branch that keeps the combined amplitude identity
exp(-i [kL + phi]) exact is monotonically decreasing in k, so the signed
derivative is negative; the positive scattering delay (time from the
peaks reaching the barrier faces to the scattered peaks re-emerging) is
its negative, tau * rate_scattering(alpha, n).  Both the signed value and
the delay are reported.  A variant closed form with a squared-cosh
denominator circulates for this quantity; it does not reproduce the phase
derivative and is kept only as a diagnostic.

Dimensionless parameters: alpha = rho(k) L, n = k^2/w^2, and the
classical traversal time tau = L / k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import BarrierConfig, collision_phase, transmission_phase
from .numerics import ridders_derivative

# Below this alpha the rate formulas switch to series numerator/denominator
# pairs (through alpha^8); chosen so both branches agree to ~1e-13 at the
# seam even at n = 1, where the direct numerator cancels to O(alpha^3).
_ALPHA_SERIES = 0.1


@dataclass(frozen=True)
class TimeParams:
    """Dimensionless diagnostics attached to a phase-time evaluation."""

    k_eval: float
    alpha: float
    n: float
    tau: float

    @classmethod
    def from_k(cls, k: float, barrier: BarrierConfig) -> "TimeParams":
        w = barrier.w
        if not 0.0 < k < w:
            raise ValueError("k_eval must lie in the tunneling window (0, w)")
        alpha = math.sqrt(w * w - k * k) * barrier.width
        return cls(k_eval=k, alpha=alpha, n=(k / w) ** 2, tau=barrier.width / k)


@dataclass(frozen=True)
class PhaseTimeResult:
    """A time value with its method tag and side-by-side cross-checks."""

    time: float
    method: str
    params: TimeParams
    closed_form: float | None = None
    derivative: float | None = None
    extras: dict = field(default_factory=dict)


def _validate_rate_args(alpha, n: float) -> np.ndarray:
    arr = np.asarray(alpha, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError("alpha must be nonnegative and finite")
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
        # (sc - a n(2n-1))/a and (4n(1-n) + sinh^2)/1, each through a^8
        num = (1.0 + n - 2.0 * n * n) + (2.0 / 3.0) * a2 + (2.0 / 15.0) * a2 * a2 \
            + (4.0 / 315.0) * a2**3 + (2.0 / 2835.0) * a2**4
        den = 4.0 * n * (1.0 - n) + a2 + a2 * a2 / 3.0 + (2.0 / 45.0) * a2**3 \
            + a2**4 / 315.0
        with np.errstate(invalid="ignore", divide="ignore"):
            val = 2.0 * num / den
        # alpha = 0 exactly: the finite directional limit
        lim = 4.0 / 3.0 if n == 1.0 else 1.0 + 0.5 / n
        out[small] = np.where(arr[small] == 0.0, lim, val)
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

    R_phi = (2/alpha) [n a + sinh(a)] / [2n - 1 + cosh(a)], with limits
    1 + 1/n as alpha -> 0 and 0 as alpha -> infinity.  Scalar or array
    alpha.
    """
    arr = _validate_rate_args(alpha, n)
    out = np.empty_like(arr)
    small = arr < _ALPHA_SERIES
    if small.any():
        a2 = arr[small] ** 2
        num = (n + 1.0) + a2 / 6.0 + a2 * a2 / 120.0 + a2**3 / 5040.0
        den = 2.0 * n + a2 / 2.0 + a2 * a2 / 24.0 + a2**3 / 720.0 \
            + a2**4 / 40320.0
        out[small] = 2.0 * num / den
    big = ~small
    if big.any():
        a = arr[big]
        e = np.exp(-2.0 * a)
        em = np.exp(-a)
        num = 2.0 * n * a * em + (1.0 - e)
        den = 2.0 * (2.0 * n - 1.0) * em + (1.0 + e)
        out[big] = (2.0 / a) * num / den
    return out if out.ndim else float(out)


def standard_transit_time(k_eval: float, barrier: BarrierConfig,
                          derivative: bool = True) -> PhaseTimeResult:
    """Stationary-phase transit time t = (1/k) dTheta/dk at k_eval.

    The closed form tau * rate_standard(alpha, n) is exact and is the
    returned `time`; a Ridders finite-difference derivative of the
    transmission phase is attached as an independent cross-check when
    `derivative` is true, with its error estimate (in time units) as
    extras["derivative_error_estimate"].
    """
    params = TimeParams.from_k(k_eval, barrier)
    closed = params.tau * rate_standard(params.alpha, params.n)
    deriv = None
    extras = {}
    if derivative:
        w = barrier.w
        h0 = 0.125 * min(k_eval, w - k_eval)
        d, err = ridders_derivative(lambda q: transmission_phase(q, barrier), k_eval, h0)
        deriv = d / k_eval
        extras["derivative_error_estimate"] = err / k_eval
    return PhaseTimeResult(time=closed, method="standard", params=params,
                           closed_form=closed, derivative=deriv, extras=extras)


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
    exposed purely for diagnostic comparison."""
    params = TimeParams.from_k(k0, barrier)
    a = params.alpha
    w = barrier.w
    num = w * w * math.sinh(a) - a * k0 * k0
    den = 2.0 * k0 * k0 - w * w + w * w * math.cosh(a) ** 2
    return (2.0 * barrier.width / (k0 * a)) * num / den


def scattering_phase_time(k0: float, barrier: BarrierConfig) -> PhaseTimeResult:
    """Symmetric-collision scattering time (1/k0) dphi/dk at k0.

    The binding value is the Ridders numerical derivative of
    `collision_phase`; on the shipped branch of phi it is negative, and
    its negative equals the positive scattering delay
    tau * rate_scattering(alpha, n) exactly (the attached closed form is
    -tau * rate_scattering).  extras carries the delay, the Ridders error
    estimate, and the diagnostic squared-cosh variant.
    """
    params = TimeParams.from_k(k0, barrier)
    if barrier.width == 0.0:
        return PhaseTimeResult(time=0.0, method="scattering", params=params,
                               closed_form=0.0, derivative=0.0,
                               extras={"delay": 0.0})
    w = barrier.w
    h0 = 0.125 * min(k0, w - k0)
    d, err = ridders_derivative(lambda q: collision_phase(q, barrier), k0, h0)
    numeric = d / k0
    closed = -params.tau * rate_scattering(params.alpha, params.n)
    return PhaseTimeResult(
        time=numeric, method="scattering", params=params,
        closed_form=closed, derivative=numeric,
        extras={
            "delay": -numeric,
            "derivative_error_estimate": err / k0,
            "variant_coshsq": scattering_time_coshsq_variant(k0, barrier),
        },
    )


def rate_table(n_values, alphas) -> list[tuple[float, float, float, float]]:
    """Rows (alpha, n, rate_standard, rate_scattering), n-major then alpha."""
    rows = []
    for n in n_values:
        rs = rate_standard(np.asarray(alphas, dtype=float), n)
        rp = rate_scattering(np.asarray(alphas, dtype=float), n)
        for a, x, y in zip(np.asarray(alphas, dtype=float), np.atleast_1d(rs), np.atleast_1d(rp)):
            rows.append((float(a), float(n), float(x), float(y)))
    return rows
