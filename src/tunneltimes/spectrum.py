"""The modulated momentum distribution g(k - k0) |T(k, L)| and its maximum.

A gaussian spectrum transmitted through the barrier is reshaped by the
monotonically rising |T|: the product's maximum k_max sits in (k0, w) and
creeps toward the top as the barrier widens.  Once the product develops
its global maximum at the boundary k = w the distribution is dominated by
components at the top of the barrier (the filter effect) and a single
interior maximum no longer exists; such cells are flagged
boundary-dominated, which reproduces the starred cells of the reference
table.  The onset of a *local* maximum at k = w is where
d/dk [g |T|] at k = w turns positive; this module locates it numerically
and reports the two analytic candidate widths alongside (one linear and
one square-root in 1 - k0/w; they disagree with each other, and the
numerical onset is the authoritative value).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .barrier import BarrierConfig, transmission_modulus
from .numerics import golden_section_max

# spectra whose intensity leaks more than this fraction outside [0, w]
# are formally outside the validity window; a warning (not an error)
_CONTAINMENT_LIMIT = 1e-3


class ContainmentWarning(UserWarning):
    """Spectrum intensity leaks non-negligibly outside the tunneling window."""


@dataclass(frozen=True)
class GaussianSpectrum:
    """Gaussian momentum distribution g(k - k0) of a packet of unit width.

    g(k - k0) = (2 pi)^{-1/4} exp[-(k - k0)^2 / 4]; the intensity g^2 has
    unit standard deviation.
    """

    k0: float

    def __post_init__(self):
        if not 0.0 < self.k0 < math.inf:
            raise ValueError("k0 must be positive and finite")

    def amplitude(self, k):
        """g(k - k0); scalar or array."""
        return (1.0 / (2.0 * math.pi)) ** 0.25 * np.exp(-(np.asarray(k, float) - self.k0) ** 2 / 4.0)


def containment_outside(spectrum: GaussianSpectrum, barrier: BarrierConfig) -> float:
    """Fraction of the intensity g^2 lying outside [0, w] (closed form)."""
    below = 0.5 * math.erfc(spectrum.k0 / math.sqrt(2.0))
    above = 0.5 * math.erfc((barrier.w - spectrum.k0) / math.sqrt(2.0))
    return below + above


def _warn_if_leaky(spectrum: GaussianSpectrum, barrier: BarrierConfig) -> float:
    outside = containment_outside(spectrum, barrier)
    if outside > _CONTAINMENT_LIMIT:
        warnings.warn(
            f"spectrum intensity outside [0, w] is {outside:.3g} "
            f"(> {_CONTAINMENT_LIMIT:g}); the modulated-maximum analysis is "
            "formally outside its validity window",
            ContainmentWarning, stacklevel=3)
    return outside


def modulated_spectrum(k, spectrum: GaussianSpectrum, barrier: BarrierConfig):
    """g(k - k0) |T(k, L)|, the transmitted amplitude density; scalar or array."""
    return spectrum.amplitude(k) * transmission_modulus(k, barrier)


@dataclass(frozen=True)
class KmaxResult:
    """Location of the modulated-spectrum maximum on (0, w]."""

    k_max: float
    boundary_dominated: bool
    value_at_max: float
    value_at_top: float
    containment_outside: float


def find_kmax(spectrum: GaussianSpectrum, barrier: BarrierConfig,
              scan_points: int = 4096) -> KmaxResult:
    """Global maximizer of the modulated spectrum on (0, w].

    Dense scan of `scan_points` (at least 3) followed by golden-section
    refinement, to a bracket of 1e-10, of the bracketed interior maximum
    (the product can be bimodal near the distortion onset, so a local
    method alone would be unsafe).  When no interior maximum beats the
    value at k = w the result is flagged boundary-dominated and k_max = w
    is returned.  Needs k0 < w; containment violations only warn.
    """
    if scan_points < 3:
        raise ValueError("scan_points must be at least 3")
    w, L = barrier.w, barrier.width
    k0 = spectrum.k0
    if not k0 < w:
        raise ValueError("find_kmax needs the tunneling regime k0 < w")
    outside = _warn_if_leaky(spectrum, barrier)

    if L == 0.0:
        # |T| = 1: the maximum is the gaussian's own peak
        val = float(modulated_spectrum(k0, spectrum, barrier))
        top = float(modulated_spectrum(w, spectrum, barrier))
        return KmaxResult(k0, False, val, top, outside)

    def objective(k):
        b = transmission_modulus(k, barrier)
        with np.errstate(divide="ignore"):
            return -(np.asarray(k, float) - k0) ** 2 / 4.0 + np.log(b)

    ks = np.linspace(w * 1e-9, w, scan_points)
    vals = objective(ks)
    i = int(np.argmax(vals))
    boundary = False
    if i >= scan_points - 1:
        km = w
        boundary = True
    else:
        lo = ks[max(i - 1, 0)]
        hi = ks[min(i + 1, scan_points - 1)]
        km = golden_section_max(lambda q: float(objective(q)), lo, hi, tol=1e-10)
        if objective(km) <= vals[-1]:
            km = w
            boundary = True
    val = float(modulated_spectrum(km, spectrum, barrier))
    top = float(modulated_spectrum(w, spectrum, barrier))
    return KmaxResult(float(km), boundary, val, top, outside)


@dataclass(frozen=True)
class TableCell:
    """One cell of the k_max table: barrier top w, length L, result."""

    w_a: float
    l_a: float
    kmax_a: float
    boundary_dominated: bool


def kmax_table(k0_a: float, wa_values, la_values,
               scan_points: int = 4096) -> list[TableCell]:
    """k_max(w, L) grid at fixed incident momentum k0.

    Containment warnings are suppressed here; columns with small w are
    known to leak and still reproduce the reference digits.
    """
    cells = []
    spec = GaussianSpectrum(k0=k0_a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ContainmentWarning)
        for wa in wa_values:
            for la in la_values:
                b = BarrierConfig(w=wa, width=la)
                res = find_kmax(spec, b, scan_points=scan_points)
                cells.append(TableCell(wa, la, res.k_max, res.boundary_dominated))
    return cells


@dataclass(frozen=True)
class DistortionReport:
    """Onset widths for a local maximum of g |T| appearing at k = w.

    onset_numeric comes from bisecting the sign of d/dk [g |T|] at k = w
    (one-sided differences, step-extrapolated).  The two analytic
    candidates solve (w - k0)/2 = w L^2 / 3 with the (1 - k0/w)
    factor entering linearly (as quoted) or under a square root (as the
    inequality actually inverts); onset_quadratic_limit solves the full
    quadratic log-derivative limit and should match onset_numeric.  The
    t_logderiv_* fields report lim_{k->w} |T|'/|T| at the numeric onset:
    numerically, from the quadratic closed form
    (w L^2/4)(1 + w^2 L^2/3)/(1 + w^2 L^2/4), and from the variant with
    w L^2 inside the parentheses (dimensionally odd; kept for comparison).
    """

    w: float
    k0: float
    onset_numeric: float
    onset_linear_candidate: float
    onset_sqrt_candidate: float
    onset_quadratic_limit: float
    gaussian_logderiv: float
    t_logderiv_numeric: float
    t_logderiv_quadratic: float
    t_logderiv_linear_variant: float


def _slope_at_top(f, w: float) -> float:
    """d f/dk at k = w from below, by one-sided differences with two
    Richardson levels for their O(eps) error."""
    fw = f(w)
    eps = 1e-4 * w
    d1 = (fw - f(w - eps)) / eps
    d2 = (fw - f(w - eps / 2.0)) / (eps / 2.0)
    d3 = (fw - f(w - eps / 4.0)) / (eps / 4.0)
    r1 = 2.0 * d2 - d1
    r2 = 2.0 * d3 - d2
    return 2.0 * r2 - r1


def distortion_onset(spectrum: GaussianSpectrum, w: float) -> DistortionReport:
    """Smallest width L at which the modulated spectrum grows into k = w.

    Bisection (relative 1e-6) on the sign of the slope of g |T| at the
    boundary, bracketed from [1e-3, 10] / w-scales; requires k0 < w.
    """
    if not spectrum.k0 < w:
        raise ValueError("distortion onset needs k0 < w")
    k0 = spectrum.k0

    def slope(length: float) -> float:
        b = BarrierConfig(w=w, width=length)
        return _slope_at_top(lambda k: float(modulated_spectrum(k, spectrum, b)), w)

    lo, hi = 1e-3 / w, 30.0 / w
    if slope(lo) > 0.0:
        lo = 1e-6 / w
    if not slope(hi) > 0.0:
        raise ValueError("no slope sign change found; onset outside bracket")
    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    onset = 0.5 * (lo + hi)

    frac = 1.0 - k0 / w
    lin = math.sqrt(1.5) * frac
    sqr = math.sqrt(1.5) * math.sqrt(frac)
    # quadratic log-derivative limit: (w-k0)/2 = (w u/4)(1 + w^2 u/3)/(1 + w^2 u/4), u = L^2
    c = (w - k0) / 2.0
    qa = w**3 / 12.0
    qb = (w / 4.0) * (1.0 - c * w)
    qc = -c
    u = (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
    onset_quad = math.sqrt(u)

    bl = BarrierConfig(w=w, width=onset)
    l2 = onset * onset
    quad = (w * l2 / 4.0) * (1.0 + w * w * l2 / 3.0) / (1.0 + w * w * l2 / 4.0)
    linvar = (w * l2 / 4.0) * (1.0 + w * l2 / 3.0) / (1.0 + w * l2 / 4.0)
    return DistortionReport(
        w=w, k0=k0,
        onset_numeric=onset,
        onset_linear_candidate=lin,
        onset_sqrt_candidate=sqr,
        onset_quadratic_limit=onset_quad,
        gaussian_logderiv=c,
        t_logderiv_numeric=_slope_at_top(
            lambda k: math.log(transmission_modulus(float(k), bl)), w),
        t_logderiv_quadratic=quad,
        t_logderiv_linear_variant=linvar,
    )


def cutoff_time_estimate(delta: float, w: float) -> float:
    """Opaque-limit time 2 / (w delta) for a spectrum cut off at (1 - delta) w.

    Finite for any delta in (0, 1]; delta = 0 is rejected (the estimate
    diverges as the cut approaches the top of the barrier).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]; the estimate diverges at delta = 0")
    return 2.0 / (w * delta)


def cutoff_packet_profile(spectrum: GaussianSpectrum, x_grid, k_cut: float):
    """psi(x) at t = 0 of the spectrum truncated to [0, k_cut], as a PacketField.

    A cut at (1 - delta) w models the filter of a barrier with top w; a
    cut at k0 + 8, beyond which the intensity is below 1e-13 of the peak,
    leaves the gaussian whole.  ValueError when the window or the profile
    is empty.
    """
    from .packets import synthesize_incident  # local import to avoid a cycle

    if not 1e-9 * spectrum.k0 < k_cut < math.inf:
        raise ValueError("k_cut must be finite and above 1e-9 k0 "
                         "(a lower cut removes the whole support)")
    fld = synthesize_incident(spectrum, x_grid, t=0.0, k_interval=(1e-12, k_cut))
    if not np.any(fld.psi):
        raise ValueError("the spectrum has no weight below the cutoff; "
                         "the profile is identically zero")
    return fld
