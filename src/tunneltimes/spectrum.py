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
from .numerics import _golden_lanes, check_count

# spectra whose intensity leaks more than this fraction outside [0, w]
# are formally outside the validity window; reported, not rejected
_CONTAINMENT_LIMIT = 1e-3
# k points per amplitude-kernel call in find_kmax's scan: the fixed cost
# of a call is small beside 4096 points' work, and the memory it holds
# stays below that of the dense scan's one 4096-point call per barrier
_SCAN_CALL = 4096


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
        # a Python float, so that every 1/k0 downstream is a float division
        object.__setattr__(self, "k0", float(self.k0))

    def amplitude(self, k):
        """g(k - k0); scalar or array, the same bits for a float k as in an array."""
        d = np.asarray(k, float) - self.k0
        return (1.0 / (2.0 * math.pi)) ** 0.25 * np.exp(-(d * d) / 4.0)


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


def _log_modulus(k, w, L):
    """log|T| at k, one barrier (w, L) per lane; -inf where |T| underflows
    to 0, a divide that callers silence."""
    return np.log(_modulus(_scaled_solution(k, w, L)))


def _log_modulated(sq, log_t):
    """log(g |T|) up to a constant, -(k - k0)^2/4 + log|T|, from
    sq = (k - k0)^2 and log_t = log|T|."""
    return -sq / 4.0 + log_t


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
        return _log_modulated(sq, _log_modulus(k, w, L))

    peak = _golden_lanes(objective, lo, hi, tol=1e-10)
    beats_top = ~(objective(peak) <= np.array(top))
    return [p if ok else None for p, ok in zip(peak.tolist(), beats_top.tolist())]


def _coarse_pass(k0: float, k, w, L, top_log, top, coarse, n: int):
    """For barriers in rows (w and L columns, k their coarse points): the
    best value on the coarse points and k = w, the first index holding
    it, and the (row, interval) pairs whose bound reaches it less the
    margin.  Interval j runs from coarse point j to the next, or to w."""
    log_c = _log_modulus(k, w, L)
    # numpy's exact array square, as the dense scan took it (the golden-
    # section objective squares by float pow instead)
    vals = _log_modulated((k - k0) ** 2, log_c)
    most = vals.max(axis=1)
    first = np.where(top > most, n - 1, coarse[vals.argmax(axis=1)])
    best = np.maximum(most, top)
    # each interval [a, b] bounds log(g |T|) by the gaussian term at
    # clip(k0, a, b) plus log|T(b)|
    right = np.concatenate([k[:, 1:], w], axis=1)
    log_right = np.concatenate([log_c[:, 1:], top_log[:, None]], axis=1)
    bound = _log_modulated((np.minimum(np.maximum(k, k0), right) - k0) ** 2, log_right)
    return best, first, np.nonzero(bound >= (best - 1e-9 * (1.0 + np.abs(best)))[:, None])


def _scan_maxima(k0: float, w, L, n: int):
    """(first, top, bracket) for the barriers of the 1-D arrays w and L:
    the index that np.argmax gives for log(g |T|) on linspace(1e-9 w, w, n),
    the value at k = w, and the grid points at first - 1 and first + 1
    (meaningful where 0 < first < n - 1).  See `find_kmax` for the bound
    that lets the refine pass skip points."""
    # linspace's own arithmetic: point i < n - 1 is i * step + start and
    # the last is w.  (linspace divides i by n - 1 first where the step
    # underflows to 0, but for n below 2e9 that happens only where start
    # does too, and k = 0 fails in the kernel as in the dense scan.)
    start = w * 1e-9
    step = (w - start) / (n - 1)
    # k = w, where z = 0, outside the kernel calls: in one it would send
    # every point down sinhc_cosh's masked path.  There (c, sh, r) is
    # sinhc_cosh(0) = (1, 1, 0) exactly.
    top_log = np.log(_modulus((w, w, L, 1.0, 1.0, 0.0)))
    top = _log_modulated((w - k0) ** 2, top_log)
    m = max(math.isqrt(n) // 4, 1)
    coarse = np.arange(0, n - 1, m)  # every m-th index; n - 1 is k = w
    offsets = np.arange(1, m)

    per_call = max(_SCAN_CALL // m, 1)  # refined intervals per kernel call

    def block(w, L, start, step, top_log, top):
        best, first, (rows, cells) = _coarse_pass(
            k0, coarse * step[:, None] + start[:, None], w[:, None], L[:, None],
            top_log, top, coarse, n)
        for at in range(0, rows.size if m > 1 else 0, per_call):  # m = 1: all coarse
            row = rows[at:at + per_call]
            # the inner points of each interval, one interval per row; the
            # last interval, which may be shorter, repeats its last point
            idx = np.minimum(coarse[cells[at:at + per_call], None] + offsets, n - 2)
            k = idx * step[row, None] + start[row, None]
            v = _log_modulated((k - k0) ** 2, _log_modulus(k, w[row, None], L[row, None]))
            # fold each row's first maximum into its barrier's (best, first)
            row_best, row_first = v.max(axis=1), idx[np.arange(len(v)), v.argmax(axis=1)]
            most = best.copy()
            np.maximum.at(most, row, row_best)
            first[most > best] = n
            hit = row_best == most[row]
            np.minimum.at(first, row[hit], row_first[hit])
            best = most
        return first

    per_block = max(_SCAN_CALL // coarse.size, 1)  # barriers per coarse call
    first = np.concatenate([block(*(a[at:at + per_block] for a in (w, L, start, step, top_log, top)))
                            for at in range(0, w.size, per_block)])
    bracket = (first[:, None] + [-1, 1]) * step[:, None] + start[:, None]
    last = first + 1 == n - 1
    bracket[last, 1] = w[last]
    return first, top, bracket


def find_kmax(spectrum: GaussianSpectrum, barriers: Sequence[BarrierConfig],
              scan_points: int = 4096) -> list[KmaxResult]:
    """Global maximizer of the modulated spectrum on (0, w], one result per
    barrier, each equal to a call with that barrier alone.

    A scan of log(g |T|) on linspace(1e-9 w, w, scan_points) (an integer,
    at least 3) brackets the grid maximum, which golden section refines to
    1e-10 (the product can be bimodal near the distortion onset, so a
    local method alone would be unsafe).  When no interior maximum beats
    the value at k = w the result is flagged boundary-dominated and
    k_max = w is returned.  Needs k0 < w; leakage outside [0, w] is
    reported in each result's containment_outside, not rejected.  A grid
    maximum on the first point, 1e-9 w, puts the maximum somewhere below
    the second point (below the whole scan once 1e-9 w passes the
    spectrum, at w of about 1e9 k0), so k_max cannot be resolved:
    ValueError.

    The scan reaches the grid maximum of the dense scan of every point,
    the first in index order, from a fraction of the points.  A coarse
    pass takes every m-th point, m = isqrt(scan_points) // 4 (16 at the
    default), and the last.  |T|^-2 = 1 + w^4 sinh^2(rho L)/(4 k^2 rho^2)
    falls strictly in k on (0, w], and the gaussian factor peaks at k0, so
    on a coarse interval [a, b] log(g |T|) is at most
    -(clip(k0, a, b) - k0)^2/4 + log|T(b)|.  A refine pass evaluates the
    inner points of only those intervals whose bound reaches the best
    coarse value less 1e-9 (1 + |best|).  That margin covers rounding:
    each step that forms k, z = (w^2 - k^2) L^2 and k - k0 rounds
    monotonically, so the computed values keep the bound to within a few
    ulps of the two terms (-(k - k0)^2/4 and log|T|, both at most 0), and
    for any point that could compete each term is at most |best| plus the
    margin in size, which is some 10^6 such ulps.  The points of all
    barriers go through the amplitude kernel in calls of at most 4096
    points (save the coarse pass of a scan of more than 4096^2 / 16
    points), with k = w outside them; the golden-section refinements of
    all barriers then run in lock step, one kernel call per step for every
    bracket.
    """
    check_count(scan_points, 3, "scan_points")
    barriers = list(barriers)  # TypeError for a bare BarrierConfig
    k0 = spectrum.k0
    if not all(k0 < b.w for b in barriers):
        raise ValueError("find_kmax needs the tunneling regime k0 < w")

    # L = 0: |T| = 1, the maximum is the gaussian's own peak; otherwise
    # k = w until an interior maximum beats it
    km = [k0 if b.width == 0.0 else b.w for b in barriers]
    boundary = [b.width > 0.0 for b in barriers]
    scanned = [j for j, b in enumerate(barriers) if b.width > 0.0]
    if scanned:
        w = np.array([barriers[j].w for j in scanned])
        L = np.array([barriers[j].width for j in scanned])
        with np.errstate(divide="ignore"):  # log|T| = -inf where |T| underflows
            first, top, bracket = _scan_maxima(k0, w, L, scan_points)
            if (first == 0).any():
                j = int(np.argmax(first == 0))
                raise ValueError(f"k_max cannot be resolved: g |T| at w = {w[j]:g}, "
                                 f"L = {L[j]:g} is largest at the scan's first point, "
                                 f"1e-9 w, so its maximum lies below the second, "
                                 f"{bracket[j, 1]:.6g}")
            inner = first < scan_points - 1
            lanes = [j for j, ok in zip(scanned, inner.tolist()) if ok]
            if lanes:
                peaks = _interior_maxima(k0, [barriers[j] for j in lanes],
                                         *bracket[inner].T, top[inner])
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
