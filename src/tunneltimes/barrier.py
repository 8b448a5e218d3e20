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
which evaluates the interior solution once as (c, sh, scale) with
cosh(rho L) = c / scale and sinh(rho L)/(rho L) = sh / scale.  Up to
(rho L)^2 = 9e4 the scale is 1 and (sh, c) come from the shared
sinhc/coshc pass of `numerics`; above it, where cosh and sinh would
overflow, the scale is e^{-rho L}.  That switch is made there and nowhere
else.

An independent transfer-matrix solver and a four-unknown continuity
matcher provide cross-checks that never share code with the closed forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import sinhc_coshc_sq

# Above (rho L)^2 = _Z_SCALED the direct sinh/cosh forms are at overflow
# risk; the kernel switches to exponentially rescaled variants.
_Z_SCALED = 9.0e4  # rho L = 300


@dataclass(frozen=True, kw_only=True)
class BarrierConfig:
    """Rectangular barrier on [-width/2, width/2] with top wavenumber w.

    w must be positive and width (the length L) nonnegative, both finite;
    w^2 must be finite too (w below about 1.34e154), since every amplitude
    kernel forms it.
    """

    w: float
    width: float

    def __post_init__(self):
        if not (0.0 < self.w and self.w * self.w < math.inf):
            raise ValueError("w must be positive, with w^2 finite")
        if not 0.0 <= self.width < math.inf:
            raise ValueError("width must be nonnegative and finite")

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


def _scaled_solution(k, barrier: BarrierConfig):
    """(k, c, sh, scale) with cosh(rho L) = c/scale, sinh(rho L)/(rho L) = sh/scale.

    scale is 1 up to (rho L)^2 = _Z_SCALED and e^{-rho L} above it, so c
    and sh stay finite for any rho L.  k must be positive and finite;
    scalar or array.
    """
    karr = np.asarray(k, dtype=float)
    if not np.all((karr > 0.0) & (karr < np.inf)):
        raise ValueError("wavenumber k must be positive and finite")
    w, L = barrier.w, barrier.width
    z = (w * w - karr * karr) * L * L
    c = np.empty_like(karr)
    sh = np.empty_like(karr)
    scale = np.ones_like(karr)
    small = z <= _Z_SCALED
    if small.any():
        sh[small], c[small] = sinhc_coshc_sq(z[small])
    big = ~small
    if big.any():
        kb = karr[big]
        rl = np.sqrt(w * w - kb * kb) * L
        e = np.exp(-2.0 * rl)
        c[big] = 0.5 * (1.0 + e)
        sh[big] = 0.5 * (1.0 - e) / rl
        scale[big] = np.exp(-rl)
    return karr, c, sh, scale


def _float_if_scalar(out):
    return out if out.ndim else float(out)


# Derivations from one kernel evaluation, sol = _scaled_solution(k, barrier).
def _modulus(sol, barrier: BarrierConfig):
    k, _, sh, scale = sol
    w, L = barrier.w, barrier.width
    b = w * w * L * sh / (2.0 * k)
    return scale / np.sqrt(scale * scale + b * b)


def _theta(sol, barrier: BarrierConfig):
    k, c, sh, _ = sol
    w, L = barrier.w, barrier.width
    return np.arctan2((2.0 * k * k - w * w) * L * sh, 2.0 * k * c)


def _phi(sol, barrier: BarrierConfig):
    k, c, sh, scale = sol
    w, L = barrier.w, barrier.width
    num = 2.0 * k * (w * w - k * k) * L * sh
    den = w * w * scale + (2.0 * k * k - w * w) * c
    return np.arctan2(num, den)


def _pair(sol, barrier: BarrierConfig):
    k, c, sh, scale = sol
    w, L = barrier.w, barrier.width
    s = L * sh  # sinh(rho L)/rho, continued, times scale
    q = np.exp(-1j * k * L) / (c + 1j * (w * w - 2.0 * k * k) * s / (2.0 * k))
    return -1j * (w * w) * s / (2.0 * k) * q, scale * q


def transmission_modulus(k, barrier: BarrierConfig):
    """|T(k, L)| = [1 + w^4 sinh^2(rho L) / (4 k^2 rho^2)]^{-1/2}.

    Continuous through k = w (where sinh(rho L)/rho -> L) and above the
    top (sin(q L)/q).  Exponentially small moduli are evaluated in a
    rescaled form, so any rho*L is safe.  Scalar or array k.
    """
    return _float_if_scalar(_modulus(_scaled_solution(k, barrier), barrier))


def transmission_phase(k, barrier: BarrierConfig):
    """Phase shift Theta(k, L) of the transmitted amplitude.

    Theta = arctan[(2 k^2 - w^2) tanh(rho L) / (2 k rho)], i.e. the
    argument of T(k) e^{i k L}; Theta(w/sqrt(2)) = 0 and Theta -> 0 as
    L -> 0.  Continued through and above k = w.  Scalar or array k.
    """
    return _float_if_scalar(_theta(_scaled_solution(k, barrier), barrier))


def collision_phase(k, barrier: BarrierConfig):
    """Phase phi(k, L) of the unimodular combined amplitude.

    R_B + T_B = exp(-i [k L + phi]) with
    phi = arctan{2 k rho sinh(rho L) / [w^2 + (k^2 - rho^2) cosh(rho L)]},
    taken on the branch continuous in k and L with phi(L=0) = 0, which is
    the atan2 branch: phi in (0, pi) for 0 < k < w, L > 0.  Scalar or
    array k.
    """
    return _float_if_scalar(_phi(_scaled_solution(k, barrier), barrier))


def _collision_amplitudes(k, barrier: BarrierConfig):
    """(R_B, T_B) vectorized over k; overflow-safe; valid on both sides of the top."""
    return _pair(_scaled_solution(k, barrier), barrier)


def symmetric_amplitudes(k: float, barrier: BarrierConfig) -> ScatteringAmplitudes:
    """All single-k amplitudes for the symmetric-collision analysis.

    Valid for any k > 0 (tunneling branch and the trigonometric
    continuation above the top).  At L = 0 the reflection vanishes
    identically and the combined amplitude is exactly 1.  The kernel is
    evaluated once and every field derived from it.
    """
    kf = float(k)
    sol = _scaled_solution(kf, barrier)
    refl, trans = (complex(v) for v in _pair(sol, barrier))
    return ScatteringAmplitudes(
        k=kf,
        modulus=float(_modulus(sol, barrier)),
        theta=float(_theta(sol, barrier)),
        reflection=refl,
        transmission=trans,
        combined=refl + trans,
        phi=float(_phi(sol, barrier)),
    )


def transfer_matrix_amplitudes(k: float, barrier: BarrierConfig) -> tuple[complex, complex]:
    """(T, R) from an independent 2x2 transfer-matrix product.

    Interface-referenced formulation: well-conditioned O(1) interface
    matrices with one explicit diagonal propagator carrying the interior
    growth, so the product stays accurate deep into the opaque regime.
    No code shared with the closed forms; used as an oracle.  Flux
    conservation |T|^2 + |R|^2 = 1 holds to machine precision.  k = w is
    rejected: the interface matrix into the interior degenerates there.
    """
    if not k > 0.0:
        raise ValueError("wavenumber k must be positive")
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

    prop = np.array([[cmath.exp(-1j * kap * L), 0.0],
                     [0.0, cmath.exp(1j * kap * L)]], dtype=complex)
    m = interface(k, kap) @ prop @ interface(kap, k)
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
    because there is no interior region.
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
    erh = math.exp(r * h)
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
    cond = np.linalg.cond(mat)
    assert np.isfinite(cond), "singular matching matrix"
    sol = np.linalg.solve(mat, rhs)
    return InteriorCoefficients(
        k=k, incident=incident,
        reflection=complex(sol[0]), alpha=complex(sol[1]),
        beta=complex(sol[2]), transmission=complex(sol[3]),
    )


def interior_field(k, barrier: BarrierConfig, x, transmission):
    """Interior solution of the left-incident problem, regular at k = w.

    Combines alpha e^{-rho x} + beta e^{rho x} into
    T e^{i k L/2} [cosh(rho d) - i k d sinhc(rho d)] with d = L/2 - x,
    which stays finite through the top of the barrier.  Vectorized over
    x (and broadcastable k).
    """
    w = barrier.w
    h = barrier.half_width
    karr = np.asarray(k, dtype=float)
    d = h - np.asarray(x, dtype=float)
    sh, c = sinhc_coshc_sq((w * w - karr * karr) * d * d)
    return transmission * np.exp(1j * karr * h) * (c - 1j * karr * d * sh)
