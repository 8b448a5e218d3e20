"""Exact single-wavenumber scattering quantities for a rectangular barrier.

The barrier occupies [-L/2, L/2] and w is the wavenumber matching its
top.  Below the top the interior solutions decay with
rho(k) = sqrt(w^2 - k^2); above it they oscillate with q = sqrt(k^2 - w^2).
All formulas are written in terms of the signed square z = (w^2 - k^2) L^2,
which makes the continuation through k = w automatic and removes the
0/0 singularities at k = w and L = 0 structurally.

Two families of amplitudes appear:

 * the single-packet transmission amplitude T(k) = |T| e^{i(Theta - kL)},
   where Theta is the phase shift relative to free propagation;
 * the symmetric-collision pair (R_B, T_B): reflection and transmission
   amplitudes of a left-incident unit wave in the convention of the
   two-packet collision.  Their sum is exactly unimodular,
   R_B + T_B = exp(-i [kL + phi]), with phi given by `collision_phase`.

Every closed form derives from one private kernel, `_scaled_solution`,
which evaluates the interior solution once as (c, sh, r) with
cosh(rho L) = c e^r and sinh(rho L)/(rho L) = sh e^r.  r is 0 up to
(rho L)^2 = 9e4 and rho L above it, where cosh and sinh would overflow;
that switch is made in `numerics.sinhc_cosh` and nowhere else, and
`interior_field` takes the same kernel.  w and L may be per-lane arrays,
so that `spectrum.find_kmax` refines many barriers with one call per step.

An independent transfer-matrix solver and a four-unknown continuity
matcher provide cross-checks that never share code with the closed forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import sinhc_cosh


@dataclass(frozen=True, kw_only=True)
class BarrierConfig:
    """Rectangular barrier on [-width/2, width/2] with top wavenumber w.

    w must be positive and width (the length L) nonnegative, both finite;
    w^2 and (w width)^2 must be finite too (each below about 1.8e308),
    since every amplitude kernel forms them.
    """

    w: float
    width: float

    def __post_init__(self):
        if not (0.0 < self.w and self.w * self.w < math.inf):
            raise ValueError("w must be positive, with w^2 finite")
        if not 0.0 <= self.width < math.inf:
            raise ValueError("width must be nonnegative and finite")
        wl = self.w * self.width
        if not wl * wl < math.inf:
            raise ValueError("(w * width)^2 must be finite")

    @property
    def half_width(self) -> float:
        return 0.5 * self.width


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Single-k amplitude bundle at wavenumber k.

    modulus/theta describe the single-packet transmission amplitude;
    reflection/transmission are the collision amplitudes R_B, T_B whose
    sum `combined` is unimodular with phase split as
    combined = exp(-i [k L + phi]).
    """

    k: float
    modulus: float
    theta: float
    reflection: complex
    transmission: complex
    combined: complex
    phi: float


@dataclass(frozen=True)
class InteriorCoefficients:
    """Interior expansion coefficients from the continuity matching.

    For incident == "left" the interior solution is
    alpha e^{-rho x} + beta e^{+rho x}; the mirrored convention
    (x -> -x) applies for incident == "right".  The matching also yields
    the exterior reflection/transmission amplitudes, kept for cross-checks.
    """

    k: float
    incident: str
    alpha: complex
    beta: complex
    reflection: complex
    transmission: complex


def _scaled_solution(k, w, L):
    """(k, w, L, c, sh, r): cosh(rho L) = c e^r, sinh(rho L)/(rho L) = sh e^r.

    One `sinhc_cosh` call at z = (w^2 - k^2) L^2.  k must be positive and
    finite, and z finite (ValueError).  Scalar or array k; w and L are the
    barrier's, or arrays that broadcast against k (one barrier per lane),
    and each element takes the same arithmetic as a lone scalar call.
    """
    karr = np.asarray(k, dtype=float)
    if not ((karr > 0.0) & (karr < np.inf)).all():
        raise ValueError("wavenumber k must be positive and finite")
    with np.errstate(over="ignore"):  # an infinite z raises in the kernel
        z = (w * w - karr * karr) * L * L
    sh, c, r = sinhc_cosh(z)
    return karr, w, L, c, sh, r


def _float_if_scalar(out):
    return out if out.ndim else float(out)


# Derivations from one kernel evaluation, sol = _scaled_solution(k, w, L).
def _modulus(sol):
    k, w, L, _, sh, r = sol
    scale = np.exp(-r)
    b = w * w * L * sh / (2.0 * k)
    return scale / np.sqrt(scale * scale + b * b)


def _theta(sol):
    k, w, L, c, sh, _ = sol
    return np.arctan2((2.0 * k * k - w * w) * L * sh, 2.0 * k * c)


def _phi(sol):
    k, w, L, c, sh, r = sol
    # Divide both arguments by 2^e ~ w^2 (w >= 1 only: scaling up could
    # overflow at k >> w) so that 2k(w^2 - k^2) stays finite for every
    # accepted w; a power of two changes no rounding, hence no phase.
    e = max(math.frexp(w * w)[1], 0)
    num = 2.0 * k * np.ldexp(w * w - k * k, -e) * L * sh
    den = (math.ldexp(w * w, -e) * np.exp(-r)
           + np.ldexp(2.0 * k * k - w * w, -e) * c)
    return np.arctan2(num, den)


def _denominator(sol):
    """e^{-ikL} / T_B times e^-r, finite and nonzero for any rho L."""
    k, w, L, c, sh, _ = sol
    return c + 1j * (w * w - 2.0 * k * k) * (L * sh) / (2.0 * k)


def _pair(sol):
    k, w, L, _, sh, r = sol
    q = np.exp(-1j * k * L) / _denominator(sol)
    return -1j * (w * w) * (L * sh) / (2.0 * k) * q, np.exp(-r) * q


def transmission_modulus(k, barrier: BarrierConfig):
    """|T(k, L)| = [1 + w^4 sinh^2(rho L) / (4 k^2 rho^2)]^{-1/2}.

    Continuous through k = w (where sinh(rho L)/rho -> L) and above the
    top (sin(q L)/q).  Exponentially small moduli are evaluated in a
    rescaled form, so any rho*L is safe.  Scalar or array k.
    """
    return _float_if_scalar(_modulus(_scaled_solution(k, barrier.w, barrier.width)))


def transmission_phase(k, barrier: BarrierConfig):
    """Phase shift Theta(k, L) of the transmitted amplitude.

    Theta = arctan[(2 k^2 - w^2) tanh(rho L) / (2 k rho)], i.e. the
    argument of T(k) e^{i k L}; Theta(w/sqrt(2)) = 0 and Theta -> 0 as
    L -> 0.  Continued through and above k = w.  Scalar or array k.
    """
    return _float_if_scalar(_theta(_scaled_solution(k, barrier.w, barrier.width)))


def collision_phase(k, barrier: BarrierConfig):
    """Phase phi(k, L) of the unimodular combined amplitude.

    R_B + T_B = exp(-i [k L + phi]) with
    phi = arctan{2 k rho sinh(rho L) / [w^2 + (k^2 - rho^2) cosh(rho L)]},
    taken on the branch continuous in k and L with phi(L=0) = 0, which is
    the atan2 branch: phi in (0, pi) for 0 < k < w, L > 0.  Scalar or
    array k.
    """
    return _float_if_scalar(_phi(_scaled_solution(k, barrier.w, barrier.width)))


def _collision_amplitudes(k, barrier: BarrierConfig):
    """(R_B, T_B) vectorized over k; overflow-safe; valid on both sides of the top."""
    return _pair(_scaled_solution(k, barrier.w, barrier.width))


def symmetric_amplitudes(k: float, barrier: BarrierConfig) -> ScatteringAmplitudes:
    """All single-k amplitudes for the symmetric-collision analysis.

    Valid for any k > 0 (tunneling branch and the trigonometric
    continuation above the top).  At L = 0 the reflection vanishes
    identically and the combined amplitude is exactly 1.  The kernel is
    evaluated once and every field derived from it.
    """
    kf = float(k)
    sol = _scaled_solution(kf, barrier.w, barrier.width)
    refl, trans = (complex(v) for v in _pair(sol))
    return ScatteringAmplitudes(
        k=kf,
        modulus=float(_modulus(sol)),
        theta=float(_theta(sol)),
        reflection=refl,
        transmission=trans,
        combined=refl + trans,
        phi=float(_phi(sol)),
    )


def transfer_matrix_amplitudes(k: float, barrier: BarrierConfig) -> tuple[complex, complex]:
    """(T, R) from an independent 2x2 transfer-matrix product.

    Interface-referenced formulation: well-conditioned O(1) interface
    matrices with one explicit diagonal propagator carrying the interior
    growth, so the product stays accurate deep into the opaque regime.
    No code shared with the closed forms; used as an oracle.  Flux
    conservation |T|^2 + |R|^2 = 1 holds to machine precision.  k = w
    (the interface matrix into the interior degenerates) and an overflow
    of e^{rho L} in the product are rejected.
    """
    if not (k > 0.0 and k * k < math.inf):  # false for nan too
        raise ValueError("wavenumber k must be positive, with k^2 finite")
    w = barrier.w
    if abs(k - w) < 1e-9 * w:
        raise ValueError("transfer-matrix basis is singular at k = w; "
                         "use the closed forms there")
    kap = cmath.sqrt(complex(k * k - w * w))  # interior wavenumber, i*rho below the top
    L = barrier.width

    def interface(qa: complex, qb: complex) -> np.ndarray:
        # amplitudes referenced to the interface position on both sides
        r = qb / qa
        return 0.5 * np.array([[1.0 + r, 1.0 - r], [1.0 - r, 1.0 + r]],
                              dtype=complex)

    try:
        prop = np.array([[cmath.exp(-1j * kap * L), 0.0],
                         [0.0, cmath.exp(1j * kap * L)]], dtype=complex)
        with np.errstate(over="raise"):
            m = interface(k, kap) @ prop @ interface(kap, k)
    except (OverflowError, FloatingPointError):
        raise ValueError("e^{rho L} overflows the transfer matrix") from None
    # incident (1, R) referenced at -L/2 maps to (T', 0) referenced at +L/2;
    # converting both references back to the e^{+-ikx} convention gives the
    # overall plane-wave factor e^{-ikL}
    plane = cmath.exp(-1j * k * L)
    trans = plane / m[0, 0]
    refl = plane * m[1, 0] / m[0, 0]
    return complex(trans), complex(refl)


def interior_matching(k: float, barrier: BarrierConfig,
                      incident: str = "left") -> InteriorCoefficients:
    """Interior coefficients from the 4x4 continuity system at x = +-L/2.

    Solves for (R, alpha, beta, T) such that the exterior and interior
    pieces of the incident-from-`incident` solution are C^1 at both
    interfaces.  Only the tunneling branch 0 < k < w is accepted (the
    decaying/growing basis degenerates at k = w); L = 0 is rejected
    because there is no interior region, and so is a barrier whose
    e^{rho L/2} overflows or leaves the system numerically singular.
    """
    if incident not in ("left", "right"):
        raise ValueError("incident must be 'left' or 'right'")
    w = barrier.w
    if not 0.0 < k < w:
        raise ValueError("interior matching needs the tunneling branch 0 < k < w")
    if barrier.width == 0.0:
        raise ValueError("barrier of zero width has no interior region")
    r = math.sqrt(w * w - k * k)
    h = barrier.half_width
    ekh = cmath.exp(1j * k * h)
    try:
        erh = math.exp(r * h)
    except OverflowError:
        raise ValueError("e^{rho L/2} overflows the 4x4 matching") from None
    # unknowns x = (R, alpha, beta, T)
    if incident == "left":
        mat = np.array([
            [ekh, -erh, -1.0 / erh, 0.0],
            [-1j * k * ekh, r * erh, -r / erh, 0.0],
            [0.0, 1.0 / erh, erh, -ekh],
            [0.0, -r / erh, r * erh, -1j * k * ekh],
        ], dtype=complex)
        rhs = np.array([-1.0 / ekh, -1j * k / ekh, 0.0, 0.0], dtype=complex)
    else:
        # mirror image: incident e^{-ikx} from the right,
        # interior alpha e^{+rho x} + beta e^{-rho x}, transmitted T e^{-ikx}
        mat = np.array([
            [ekh, -erh, -1.0 / erh, 0.0],
            [1j * k * ekh, -r * erh, r / erh, 0.0],
            [0.0, 1.0 / erh, erh, -ekh],
            [0.0, r / erh, -r * erh, 1j * k * ekh],
        ], dtype=complex)
        rhs = np.array([-1.0 / ekh, 1j * k / ekh, 0.0, 0.0], dtype=complex)
    if not (np.isfinite(mat).all() and np.isfinite(np.linalg.cond(mat))):
        raise ValueError("singular matching matrix")
    sol = np.linalg.solve(mat, rhs)
    return InteriorCoefficients(
        k=k, incident=incident,
        reflection=complex(sol[0]), alpha=complex(sol[1]),
        beta=complex(sol[2]), transmission=complex(sol[3]),
    )


def interior_field(k, barrier: BarrierConfig, x):
    """Interior solution of the left-incident problem, regular at k = w.

    Combines alpha e^{-rho x} + beta e^{rho x} into
    T_B e^{i k L/2} [cosh(rho d) - i k d sinhc(rho d)] with d = L/2 - x,
    finite through the top of the barrier and, with the kernel's scales
    taken as one factor e^{r_d - r_L} <= 1, for any rho L.  Vectorized
    over x (and broadcastable k).
    """
    sol = _scaled_solution(k, barrier.w, barrier.width)
    karr, w, _, _, _, r = sol
    h = barrier.half_width
    d = h - np.asarray(x, dtype=float)
    sh, c, r_d = sinhc_cosh((w * w - karr * karr) * d * d)
    # T_B e^{ikh} = e^{-ikh} e^-r / denominator
    return (np.exp(r_d - r - 1j * karr * h) / _denominator(sol)
            * (c - 1j * (karr * d * sh)))
