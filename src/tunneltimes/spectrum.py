"""The modulated momentum distribution g(k - k0) |T(k, L)| and its maximum.

A gaussian spectrum transmitted through the barrier is reshaped by the
monotonically rising |T|: the product's maximum k_max sits in (k0, w) and
creeps toward the top as the barrier widens.  Once the product develops
its global maximum at the boundary k = w the distribution is dominated by
components at the top of the barrier (the filter effect) and a single
interior maximum no longer exists; such cells are flagged
boundary-dominated, which reproduces the starred cells of the reference
table.  The onset of a *local* maximum at k = w is where
d/dk [g |T|] at k = w turns positive; that slope has an exact closed
form, whose one root this module reports as the onset, alongside the two
analytic candidate widths (one linear and one square-root in 1 - k0/w;
they disagree with each other and with the exact onset).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .barrier import (BarrierConfig, _modulus, _scaled_solution,
                      transmission_modulus)
from .numerics import _golden_lanes

# spectra whose intensity leaks more than this fraction outside [0, w]
# are formally outside the validity window; reported, not rejected
_CONTAINMENT_LIMIT = 1e-3


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


def modulated_spectrum(k, spectrum: GaussianSpectrum, barrier: BarrierConfig):
    """g(k - k0) |T(k, L)|, the transmitted amplitude density; scalar or array."""
    return spectrum.amplitude(k) * transmission_modulus(k, barrier)


@dataclass(frozen=True)
class KmaxResult:
    """Location of the modulated-spectrum maximum on (0, w].

    containment_outside is the fraction of the intensity g^2 outside
    [0, w] (`containment_outside`); above `_CONTAINMENT_LIMIT` the cell
    lies formally outside the validity window of the analysis.
    """

    k_max: float
    boundary_dominated: bool
    containment_outside: float


def _log_modulated(sq, modulus):
    """log(g |T|) up to a constant, -(k - k0)^2/4 + log|T|, from sq = (k - k0)^2.

    log|T| = -inf where |T| underflows to 0; callers silence that divide.
    """
    return -sq / 4.0 + np.log(modulus)


def _interior_maxima(k0: float, barriers: list[BarrierConfig], lo, hi, top):
    """Golden-section maxima of log(g |T|), one lane per barrier in lock
    step, each on its bracket [lo, hi] to a width of 1e-10; None for a
    lane whose maximum does not beat its value `top` at k = w."""
    w = np.array([b.w for b in barriers])
    L = np.array([b.width for b in barriers])

    def objective(k):
        # Each lane squares by float pow, as a scalar evaluation does.
        # numpy's exact array square differs from it in the last bit of
        # about 1 value in 1300, and on the flat top of the objective that
        # is enough to steer the search to another k_max digit.
        sq = np.array([x ** 2 for x in (k - k0).tolist()])
        return _log_modulated(sq, _modulus(_scaled_solution(k, w, L)))

    peak = _golden_lanes(objective, lo, hi, tol=1e-10)
    beats_top = ~(objective(peak) <= np.array(top))
    return [p if ok else None for p, ok in zip(peak.tolist(), beats_top.tolist())]


def find_kmax(spectrum: GaussianSpectrum, barriers: Sequence[BarrierConfig],
              scan_points: int = 4096) -> list[KmaxResult]:
    """Global maximizer of the modulated spectrum on (0, w], one result per
    barrier, each equal to a call with that barrier alone.

    Dense scan of `scan_points` (at least 3) followed by golden-section
    refinement, to a bracket of 1e-10, of the bracketed interior maximum
    (the product can be bimodal near the distortion onset, so a local
    method alone would be unsafe).  When no interior maximum beats the
    value at k = w the result is flagged boundary-dominated and k_max = w
    is returned.  Needs k0 < w; leakage outside [0, w] is reported in
    each result's containment_outside, not rejected.

    The scan is one `transmission_modulus` call per barrier; the
    refinements of all barriers then run in lock step, one
    amplitude-kernel call per golden-section step for every bracket.
    """
    if scan_points < 3:
        raise ValueError("scan_points must be at least 3")
    barriers = list(barriers)  # TypeError for a bare BarrierConfig
    k0 = spectrum.k0
    if not all(k0 < b.w for b in barriers):
        raise ValueError("find_kmax needs the tunneling regime k0 < w")

    # L = 0: |T| = 1, the maximum is the gaussian's own peak; otherwise
    # k = w until an interior maximum beats it
    km = [k0 if b.width == 0.0 else b.w for b in barriers]
    boundary = [b.width > 0.0 for b in barriers]
    lanes = {}  # barrier index -> (bracket lo, bracket hi, scan value at k = w)
    with np.errstate(divide="ignore"):  # log|T| = -inf where |T| underflows
        for j, b in enumerate(barriers):
            if b.width > 0.0:
                ks = np.linspace(b.w * 1e-9, b.w, scan_points)
                vals = _log_modulated((ks - k0) ** 2, transmission_modulus(ks, b))
                i = int(np.argmax(vals))
                if i < scan_points - 1:
                    lanes[j] = (ks[max(i - 1, 0)], ks[i + 1], vals[-1])
        if lanes:
            peaks = _interior_maxima(k0, [barriers[j] for j in lanes],
                                     *zip(*lanes.values()))
            for j, peak in zip(lanes, peaks):
                if peak is not None:
                    km[j], boundary[j] = peak, False

    return [KmaxResult(float(k), flag, containment_outside(spectrum, b))
            for k, flag, b in zip(km, boundary, barriers)]


@dataclass(frozen=True)
class DistortionReport:
    """Onset widths for a local maximum of g |T| appearing at k = w.

    With v = (w L)^2, the log-derivative of g |T| at k = w is exactly
    -(w - k0)/2 + (w L^2/4)(1 + v/3)/(1 + v/4); the second term, the limit
    of |T|'/|T| at the top, rises monotonically in L, so the onset is the
    one positive root of v^2 + 3(1 - C) v - 12 C = 0 with
    C = w (w - k0)/2.  onset_numeric and onset_quadratic_limit both hold
    that root, and t_logderiv_numeric and t_logderiv_quadratic both hold
    the |T| log-derivative there (equal to gaussian_logderiv); the paired
    names remain because the CSV columns and the manifest carry them.  The
    two analytic candidates solve (w - k0)/2 = w L^2 / 3 with the
    (1 - k0/w) factor entering linearly (as quoted) or under a square root
    (as the inequality actually inverts).  t_logderiv_linear_variant puts
    w L^2 in place of v (dimensionally odd; kept for comparison).
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


def distortion_onset(spectrum: GaussianSpectrum, w: float) -> DistortionReport:
    """Smallest width L at which the modulated spectrum grows into k = w.

    The closed-form root of the onset quadratic (see DistortionReport).
    Requires k0 < w, and w and the onset barrier valid as BarrierConfig
    (ValueError otherwise).
    """
    if not spectrum.k0 < w:
        raise ValueError("distortion onset needs k0 < w")
    k0 = spectrum.k0
    c = w * (w - k0) / 2.0
    # v^2 + 2 b v - 12 C = 0, its root in the form that cancels for
    # neither sign of b; halved, so a partial sum overflows only where v
    # does, and L^2 not formed as v/w^2 where v may underflow (tiny w)
    b = 1.5 * (1.0 - c)
    r = math.hypot(b, 2.0 * math.sqrt(3.0 * c))
    if b > 0.0:
        v = 12.0 * c / (b + r)
        l2 = 6.0 * (w - k0) / w / (b + r)
    else:
        v = r - b
        l2 = v / w / w
    onset = math.sqrt(l2)
    BarrierConfig(w=w, width=onset)  # rejects w, or the onset, whose square overflows

    frac = (w - k0) / w  # w - k0 is exact near the top; 1 - k0/w cancels
    # the ratio first: w l2 (1 + v/3) overflows for w near 1e150
    quad = (w * l2 / 4.0) * ((1.0 + v / 3.0) / (1.0 + v / 4.0))
    linvar = (w * l2 / 4.0) * (1.0 + w * l2 / 3.0) / (1.0 + w * l2 / 4.0)
    return DistortionReport(
        w=w, k0=k0,
        onset_numeric=onset,
        onset_linear_candidate=math.sqrt(1.5) * frac,
        onset_sqrt_candidate=math.sqrt(1.5) * math.sqrt(frac),
        onset_quadratic_limit=onset,
        gaussian_logderiv=(w - k0) / 2.0,
        t_logderiv_numeric=quad,
        t_logderiv_quadratic=quad,
        t_logderiv_linear_variant=linvar,
    )


def cutoff_time_estimate(delta: float, w: float) -> float:
    """Opaque-limit time 2 / (w delta) for a spectrum cut off at (1 - delta) w.

    ValueError unless delta lies in (0, 1] (the estimate diverges as the
    cut approaches the top of the barrier), w is positive and finite, and
    the estimate itself is finite.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]; the estimate diverges at delta = 0")
    if not 0.0 < w < math.inf:
        raise ValueError("w must be positive and finite")
    wd = w * delta
    t = 2.0 / wd if wd > 0.0 else math.inf
    if t == math.inf:
        raise ValueError(f"the estimate 2 / (w delta) overflows at w = {w:g}, delta = {delta:g}")
    return t
