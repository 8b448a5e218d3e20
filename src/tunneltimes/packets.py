"""Direct spectral synthesis of time-dependent packets.

Fields are built by composite Gauss-Legendre quadrature over the momentum
spectrum; there is no PDE time stepping anywhere.  Three configurations:

 * free (incident) packets, among them the t = 0 profile of a spectrum
   cut off at k_cut (cutoff_packet_profile),
 * the transmitted packet behind the barrier, synthesized from the
   modulated amplitude g |T| and the transmission phase,
 * the symmetric two-packet collision, assembled region by region from
   the explicit left- and right-incident solutions.

The transmitted and collision syntheses take one time or a batch of
times; a batch shares each chunk's phase block across all its times.
Every x grid must be uniform (_grid_steps is the one check; anything else
raises ValueError), so that block is one offset block per call
(_offset_block), built by repeated doubling, and each chunk of x only
rescales the amplitudes by an n_k-vector exp.  Over one chunk of
half-width hw, e^{ikx} is a polynomial in k of low degree: to about
2^-60, r = _degree(hw (k_max - k_min) / 2) Chebyshev nodes in k carry it,
a few dozen on the CLI grids against the 192-384 quadrature nodes.  So
the block's columns are those r nodes, one real (r x n_k) barycentric
matrix maps each chunk's amplitudes onto them, and a chunk costs about
rows x r + r x n_k products per column instead of rows x n_k
(_phase_matvec).  When r is no smaller than n_k the columns are the k
nodes themselves and the sum is direct.

A QuadratureSpec is only the rule; each synthesis lays it over its own k
window.  A direct synthesize_* call is a raw evaluation of the rule it is
given, with no error estimate.  Every number that reaches a CLI artifact
or a report field is sized by ensure_converged instead: it starts from the
default rule (4 panels x order 48), doubles the panel count until one
doubling changes |psi| by less than the tolerance, and returns the
evaluation whose doubling passed, that change and the rule.

Arrival analysis works on |psi|^2: per-snapshot peak positions with
parabolic sub-grid refinement, and two report objects that compare
measured delays against the stationary-phase closed forms.  Peaks of
broadband packets are genuinely ambiguous (that ambiguity is the point of
the exercise), so the reports carry explicit multimodality and
filter-effect flags instead of averaging anything away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .barrier import (BarrierConfig, _collision_amplitudes, interior_field,
                      transmission_modulus, transmission_phase)
from .numerics import gauss_legendre_panels, parabolic_refine
from .phase_times import scattering_delay, standard_transit_time
from .spectrum import _CONTAINMENT_LIMIT, GaussianSpectrum, find_kmax

_X_CHUNK = 512  # rows of the (x, k) phase matrix evaluated at a time
_MODE_THRESHOLD = 0.25  # local maxima below this fraction of the peak are ignored


class ConvergenceError(RuntimeError):
    """Quadrature refinement failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite fixed-order Gauss-Legendre rule, without a k window.

    Each synthesis lays the rule over its own window.  The default is the
    starting rule of ensure_converged, which doubles the panel count from
    it; a synthesis called directly on it is a raw evaluation, which
    aliases on wide x grids.  `tol` is the gate's acceptance threshold:
    the peak-relative change of |psi| when the panel count is doubled must
    stay below it.
    """

    panels: int = 4
    order: int = 48
    tol: float = 1e-8

    def __post_init__(self):
        if self.panels < 1 or self.order < 2:
            raise ValueError("need panels >= 1 and order >= 2")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def nodes(self, k_lo: float, k_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the rule on [k_lo, k_hi]."""
        return gauss_legendre_panels(k_lo, k_hi, self.panels, self.order)


def _grid_steps(x: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Offsets j dx from x_0 of the uniform grid x; ValueError for any other x.

    Uniform: 1-D, increasing (one point is a grid), each x_j within 4 ulps
    of `scale` of x_0 + j dx.  scale defaults to max |x|; a slice of a
    linspace carries the whole grid's rounding and passes that grid's.
    """
    n = len(x) if x.ndim == 1 else 0
    dx = (x[-1] - x[0]) / max(n - 1, 1) if n else math.nan
    steps = np.arange(n) * dx
    if not ((dx > 0.0 or n == 1) and np.abs(x - (x[0] + steps)).max()
            <= 4.0 * np.finfo(float).eps * (scale or np.abs(x).max())):
        raise ValueError("x must be a finite, increasing uniform grid")
    return steps


@dataclass(frozen=True)
class PacketField:
    """Complex field samples at one instant on a uniform x grid (else ValueError)."""

    x: np.ndarray
    t: float
    psi: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or len(x) < 3:
            raise ValueError("x must be a 1-D grid with at least 3 points")
        _grid_steps(x)
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != x.shape:
            raise ValueError("psi must be 1-D, with the length of x")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "psi", psi)

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    @property
    def norm(self) -> float:
        """Integral of |psi|^2 over the grid (trapezoid)."""
        val = float(np.trapezoid(self.density, self.x))
        if not math.isfinite(val):
            raise ValueError("field norm is not finite")
        return val

    @property
    def centroid(self) -> float:
        """Mean position under |psi|^2; ValueError for a field of zero norm."""
        mass = self.norm
        if not mass > 0.0:
            raise ValueError("field norm is zero; the centroid is undefined")
        return float(np.trapezoid(self.x * self.density, self.x) / mass)

    @property
    def peak_position(self) -> float:
        dens = self.density
        return parabolic_refine(self.x, dens, int(np.argmax(dens)))

    def is_multimodal(self) -> bool:
        """More than one interior local maximum above 0.25 * global max."""
        dens = self.density
        dm = dens[1:-1]
        mask = (dm >= dens[:-2]) & (dm > dens[2:]) & (dm > _MODE_THRESHOLD * dens.max())
        return np.count_nonzero(mask) > 1


def _degree(kappa: float) -> int:
    """Number of first-kind Chebyshev points that interpolate e^{i kappa s}
    on [-1, 1] to about 2^-60.

    The Chebyshev coefficients of e^{i kappa s} are 2 i^n J_n(kappa), with
    |J_n(kappa)| <= (kappa/2)^n / n!, and the interpolant on r points
    misses by at most twice the sum of those from n = r on.  That sum is
    below 2^-60 from the smallest r with (kappa/2)^r / r! < 2^-60 / (2r + 2);
    two points more are kept.  Always above kappa.
    """
    r = 1
    while kappa > 0.0 and (r * math.log(kappa / 2.0) - math.lgamma(r + 1.0)
                           >= -60.0 * math.log(2.0) - math.log(2.0 * r + 2.0)):
        r += 1
    return r + 2


def _offset_block(x: np.ndarray, ks: np.ndarray, scale: float | None = None
                  ) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Centred offset block of uniform x on interpolation nodes in k, the
    map onto those nodes, and the block's half-width: (offs, interp, hw).

    x is checked by _grid_steps at `scale`.  The block's rows j <
    min(len(x), _X_CHUNK) span j dx - hw in [-hw, hw], over which
    e^{i k (j dx - hw)}, k in [min ks, max ks], is interpolated to about
    2^-60 by r = _degree(kappa) Chebyshev points, kappa = hw (max ks -
    min ks) / 2.  So the columns are the r first-kind Chebyshev nodes kn
    of [min ks, max ks], offs[j] = e^{i kn (j dx - hw)}, and interp is the
    real (r, len(ks)) barycentric matrix with e^{i k (j dx - hw)} =
    (offs @ interp)[j, k] to about 2^-60 plus round-off.  When r >= len(ks)
    the columns are the ks themselves and interp is None.

    Built by repeated doubling: row 0 is e^{-i kn hw} and rows [n, 2n) are
    rows [0, n) times e^{i kn n dx}, so 512 rows cost 10 r-vector exps,
    each phase rounded once.
    """
    steps = _grid_steps(x, scale)[:_X_CHUNK]
    hw = steps[-1] / 2.0
    lo, hi = ks.min(), ks.max()
    kappa = hw * (hi - lo) / 2.0
    r = _degree(kappa) if kappa < len(ks) else len(ks)
    interp = None
    if r < len(ks):
        theta = (np.arange(r) + 0.5) * (math.pi / r)
        nodes = (hi + lo) / 2.0 + (hi - lo) / 2.0 * np.cos(theta)
        weights = np.sin(theta)
        weights[1::2] *= -1.0  # barycentric weights (-1)^j sin(theta_j)
        # in place throughout: fresh pages cost more than the arithmetic
        interp = ks - nodes[:, None]
        hit = interp == 0.0
        interp[hit] = 1.0
        np.divide(weights[:, None], interp, out=interp)
        on_node = hit.any(axis=0)  # a k on a node takes that node's value
        interp[:, on_node] = hit[:, on_node]
        interp *= 1.0 / interp.sum(axis=0)
        ks = nodes
    phase = 1j * ks
    offs = np.empty((len(steps), len(ks)), dtype=complex)
    offs[0] = np.exp(-hw * phase)
    n = 1
    while n < len(steps):  # rows [n, 2n) = rows [0, n) times e^{i k n dx}
        m = min(n, len(steps) - n)
        np.multiply(offs[:m], np.exp(steps[n] * phase), out=offs[n:n + m])
        n *= 2
    return offs, interp, hw


def _phase_matvec(x: np.ndarray, ks: np.ndarray, amp: np.ndarray,
                  scale: float | None = None) -> np.ndarray:
    """sum_i amp_i e^{i k_i x_j}, chunked over x to bound memory.

    amp is (n_k,) or (n_k, n_t): one column per snapshot time, so a batch
    of times costs one gemm per chunk.  x must be a uniform grid, so for a
    chunk starting at x_c, e^{i k (x_c + j dx)} = e^{i k (j dx - hw)}
    e^{i k x_c} e^{i k hw}: one _offset_block per call.  Per chunk, amp is
    scaled by e^{i k x_c} e^{i k hw} (both from exact values), mapped onto
    the block's r nodes by interp (a real product on the re/im pairs), and
    multiplied by the (rows x r) block: about n_x r + r n_k products per
    column instead of n_x n_k.  Before round-off, the result is then
    within about 2^-60 sum_i |amp_i| of the direct sum; when r >= n_k
    there is no interp and the sum is direct.  Memory is bounded by the
    one block; nothing is cached.  Also the time signal at a fixed plane,
    with x -> t and k -> -k^2/2.
    """
    phase = 1j * ks
    a2 = np.reshape(amp, (len(ks), -1))
    # the result is allocated before the offset block, so that freeing the
    # block leaves no heap hole below a live array (a block of up to about
    # 1 MB on the CLI grids, which glibc serves from the heap once its mmap
    # threshold has risen)
    out = np.empty((len(x), a2.shape[1]), dtype=complex)
    offs, interp, hw = _offset_block(x, ks, scale)
    shift = np.exp(hw * phase)
    for lo in range(0, len(x), _X_CHUNK):
        rows = out[lo:lo + _X_CHUNK]
        a = a2 * (np.exp(x[lo] * phase) * shift)[:, None]
        if interp is not None:  # (r, n_k) @ (n_k, 2 n_t) in real arithmetic
            a = (interp @ a.view(float)).view(complex)
        np.matmul(offs[:len(rows)], a, out=rows)
    return out.reshape((len(x),) + np.shape(amp)[1:])


def _times(t) -> np.ndarray:
    """Snapshot times as a finite, nonempty 1-D array (a scalar t is one time)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1 or not ts.size or not np.all(np.isfinite(ts)):
        raise ValueError("t must be a finite time or a nonempty 1-D array of finite times")
    return ts


def _fields(x: np.ndarray, t, ts: np.ndarray,
            psi: np.ndarray) -> PacketField | list[PacketField]:
    """One PacketField per column of psi; a bare field when t is a scalar."""
    fields = [PacketField(x=x, t=float(tj), psi=psi[:, j]) for j, tj in enumerate(ts)]
    return fields[0] if np.ndim(t) == 0 else fields


def synthesize_incident(spectrum: GaussianSpectrum, x_grid, t: float,
                        quad: QuadratureSpec = QuadratureSpec(),
                        k_interval: tuple[float, float] | None = None
                        ) -> PacketField:
    """Free packet (1/2pi) int dk g(k - k0) e^{i (k x - k^2 t / 2)}.

    t is one finite time, x_grid a uniform grid, and both ends of the k
    window must have finite squares (ValueError otherwise).  A raw
    evaluation of `quad`; ensure_converged sizes the rule.

    By default the integral covers k0 +- 8, so the full gaussian is
    retained and the centroid moves at exactly k0; pass
    k_interval=(0, w) to reproduce the truncated-window convention of the
    transmitted-packet integral.
    """
    x = np.asarray(x_grid, dtype=float)
    t = _times(t).item()  # .item() rejects a batch
    if k_interval is None:
        k_interval = (spectrum.k0 - 8.0, spectrum.k0 + 8.0)
    lo, hi = map(float, k_interval)
    if not (lo * lo < math.inf and hi * hi < math.inf):  # false for nan too
        raise ValueError("the k window's ends must have finite squares")
    ks, wts = quad.nodes(lo, hi)
    amp = spectrum.amplitude(ks) * wts / (2.0 * math.pi) \
        * np.exp(-1j * ks * ks * t / 2.0)
    return PacketField(x=x, t=t, psi=_phase_matvec(x, ks, amp))


def _transmitted_nodes(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                       quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of `quad` on (0, w] and the weighted amplitudes g |T| wts / 2pi."""
    ks, wts = quad.nodes(1e-9 * barrier.w, barrier.w)
    return ks, (spectrum.amplitude(ks) * transmission_modulus(ks, barrier)
                * wts / (2.0 * math.pi))


def synthesize_transmitted(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                           x_grid, t, quad: QuadratureSpec = QuadratureSpec()
                           ) -> PacketField | list[PacketField]:
    """Transmitted packet behind the barrier (defined for x >= L/2 only).

    (1/2pi) int_0^w dk g(k - k0) |T| e^{i [k (x - L/2) - k^2 t / 2 + Theta]}.

    x_grid must be uniform (ValueError otherwise).  Batched over times: a
    scalar t returns one PacketField, a 1-D array of times a list of
    fields, and either way each chunk of x costs one gemm shared by all
    times and one offset block per call (see _phase_matvec).  A raw
    evaluation of `quad`; ensure_converged sizes the rule.
    """
    x = np.asarray(x_grid, dtype=float)
    _grid_steps(x)
    ts = _times(t)
    h = barrier.half_width
    if x[0] < h - 1e-12:
        raise ValueError("transmitted field is defined for x >= L/2 only")
    ks, base = _transmitted_nodes(spectrum, barrier, quad)
    phase = ((transmission_phase(ks, barrier) - ks * h)[:, None]
             - np.outer(ks * ks, ts) / 2.0)
    amp = base[:, None] * np.exp(1j * phase)
    return _fields(x, t, ts, _phase_matvec(x, ks, amp))


def collision_sync_time(spectrum: GaussianSpectrum, barrier: BarrierConfig) -> float:
    """Instant -L / (2 k0) at which both incident peaks reach the barrier faces."""
    return -barrier.width / (2.0 * spectrum.k0)


def _collision_nodes(spectrum: GaussianSpectrum,
                     quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `quad` on (0, k0 + 8]."""
    return quad.nodes(1e-9 * spectrum.k0, spectrum.k0 + 8.0)


def synthesize_collision(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                         x_grid, t, quad: QuadratureSpec = QuadratureSpec()
                         ) -> PacketField | list[PacketField]:
    """Symmetric two-packet collision field at time t.

    Superposes the explicit left- and right-incident stationary solutions
    weighted by g(k - k0) e^{-i E t} over k in (0, k0 + 8] (the
    gaussian weight beyond that point is below 1e-13 of its peak; the
    wavenumbers above the barrier top are included through the
    trigonometric continuation).  No 1/2pi prefactor, matching the
    collision-integral convention; only shapes and ratios of this field
    are meaningful.

    Batched over times like synthesize_transmitted: a scalar t returns
    one PacketField, a 1-D array of times a list of fields.  With
    S = R_B + T_B and e^{-ikx} = conj(e^{ikx}), the left exterior field is
    E w + conj(E conj(S w)) and the right one E S w + conj(E conj(w)),
    so each exterior region, a slice of the uniform x_grid (ValueError
    otherwise), is one _phase_matvec call with one offset block.  The
    interior is summed _X_CHUNK rows at a time, so that its (x, k) basis
    stays bounded at large L.  No basis is cached.  A raw
    evaluation of `quad`; ensure_converged sizes the rule.

    No time may precede the synchronization instant -L / (2 k0).
    """
    x = np.asarray(x_grid, dtype=float)
    _grid_steps(x)
    scale = np.abs(x).max()
    ts = _times(t)
    t_sync = collision_sync_time(spectrum, barrier)
    if np.any(ts < t_sync - 1e-12):
        raise ValueError(f"collision field is defined for t >= {t_sync} "
                         "(simultaneous arrival of the incident peaks)")
    ks, wts = _collision_nodes(spectrum, quad)
    refl, trans = _collision_amplitudes(ks, barrier)
    weight = ((spectrum.amplitude(ks) * wts)[:, None]
              * np.exp(-1j * np.outer(ks * ks, ts) / 2.0))
    s_weight = (refl + trans)[:, None] * weight
    h = barrier.half_width
    n_t = len(ts)

    left = x < -h
    right = x > h
    psi = np.empty((len(x), n_t), dtype=complex)
    for region, direct, mirrored in ((left, weight, s_weight),
                                     (right, s_weight, weight)):
        if region.any():
            both = _phase_matvec(x[region], ks, np.concatenate(
                [direct, mirrored.conj()], axis=1), scale)
            psi[region] = both[:, :n_t] + both[:, n_t:].conj()
    # x increases, so the interior is the rows [start, stop)
    start, stop = np.count_nonzero(left), len(x) - np.count_nonzero(right)
    for lo in range(start, stop, _X_CHUNK):
        xc = x[lo:min(lo + _X_CHUNK, stop)]
        # psi(x) + psi(-x), psi the left-incident solution: one kernel call
        basis = interior_field(ks, barrier, np.stack([xc, -xc])[:, :, None])
        np.matmul(basis.sum(axis=0), weight, out=psi[lo:lo + len(xc)])
    return _fields(x, t, ts, psi)


def _change(coarse: PacketField, fine: PacketField) -> float:
    """Largest change of |psi|, relative to the finer field's maximum."""
    scale = float(np.abs(fine.psi).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(np.abs(fine.psi) - np.abs(coarse.psi)).max() / scale)


def ensure_converged(synth, quad: QuadratureSpec, max_doublings: int = 6
                     ) -> tuple[PacketField | list[PacketField], float,
                                QuadratureSpec]:
    """Evaluate `synth` on `quad`, doubling the panel count until one
    doubling changes no |psi| by more than quad.tol (relative to the
    maximum of the finer field).

    `synth` maps a QuadratureSpec to a PacketField or to a list of them
    (one per snapshot time); the change is the largest over the list.
    Returns the evaluation whose doubling passed (the coarser of the last
    pair), that change and the rule it was evaluated on, so the change
    bounds the returned fields' distance from the doubled rule.  From the
    default 4 panels, 6 doublings reach 256.  Raises ConvergenceError with
    diagnostics if the tolerance is still unmet after max_doublings.
    """
    def as_list(result):
        return [result] if isinstance(result, PacketField) else result

    coarse = synth(quad)
    change = math.inf
    for _ in range(max_doublings):
        finer = replace(quad, panels=2 * quad.panels)
        fine = synth(finer)
        change = max(map(_change, as_list(coarse), as_list(fine)))
        if change < quad.tol:
            return coarse, change, quad
        coarse, quad = fine, finer
    raise ConvergenceError(
        f"quadrature not converged: change {change:.3e} > tol {quad.tol:.3e} "
        f"at {quad.panels} panels x order {quad.order}")


def cutoff_packet_profile(spectrum: GaussianSpectrum, x_grid, k_cut: float):
    """psi(x) at t = 0 of the spectrum truncated to [0, k_cut], as a
    PacketField, and the gate's quadrature change: (field, change).

    A cut at (1 - delta) w models the filter of a barrier with top w; a
    cut at k0 + 8, beyond which the intensity is below 1e-13 of the peak,
    leaves the gaussian whole.  ValueError when the window or the profile
    is empty.  The rule is sized by ensure_converged from the default
    QuadratureSpec (ConvergenceError if it fails); change is the largest
    peak-relative change of |psi| when that rule is doubled.
    """
    if not 1e-9 * spectrum.k0 < k_cut < math.inf:
        raise ValueError("k_cut must be finite and above 1e-9 k0 "
                         "(a lower cut removes the whole support)")
    fld, change, _ = ensure_converged(lambda q: synthesize_incident(
        spectrum, x_grid, t=0.0, quad=q, k_interval=(1e-12, k_cut)), QuadratureSpec())
    if not np.any(fld.psi):
        raise ValueError("the spectrum has no weight below the cutoff; "
                         "the profile is identically zero")
    return fld, change


@dataclass(frozen=True)
class TransmissionTimingReport:
    """Measured transmitted-packet delay versus the stationary-phase time.

    delay_measured is a differential measurement: the temporal peak of
    |psi|^2 at the barrier exit face for the transmitted packet minus the
    same for a reference packet with identical modulated amplitude but no
    phase shift, which isolates the phase-induced delay from envelope
    reshaping.  t_spm is the transit-time closed form evaluated at the
    modulated-spectrum maximum; band is the fixed 5 % of tau.  The flags
    record the two breakdown symptoms: a multimodal emergence profile
    (a second local maximum of |psi|^2 above 0.25 of the peak in any of 24
    snapshots) and a filter-effect shift of the spectral maximum by more
    than one standard deviation of the intensity.  quadrature_change is
    the gate's error estimate: the largest peak-relative change of the
    exit-face signals and the snapshots when the rule that gave them is
    doubled.

    Agreement with t_spm is a narrow-spectrum limit: at fixed w/k0 and
    L k0 the discrepancy falls as k0^-2.  containment_outside above
    1e-3 puts the point outside the analysis's validity window, where no
    agreement is implied and spm_reliable is False.
    """

    k_max: float
    boundary_dominated: bool
    containment_outside: float
    t_spm: float
    tau: float
    band: float
    delay_measured: float
    arrival_exit_face: float
    reference_exit_face: float
    discrepancy: float
    within_band: bool
    multimodal: bool
    filter_shift_sigmas: float
    filter_effect: bool
    spm_reliable: bool
    quadrature_change: float


def transmission_timing_report(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                               quad: QuadratureSpec = QuadratureSpec(),
                               dt: float = 0.002) -> TransmissionTimingReport:
    """Compare the synthesized transmitted-packet arrival with the
    stationary-phase prediction at the modulated-spectrum maximum.

    The two agree in the narrow-spectrum limit, approached as k0^-2
    at fixed w/k0 and L k0.  Needs k0 < w.  A containment_outside above
    1e-3 in the result (from find_kmax) marks a point outside the
    validity window and clears spm_reliable.
    The exit-face signals and the snapshots share one ensure_converged
    call that starts from `quad` (ConvergenceError if it fails).
    """
    [kr] = find_kmax(spectrum, [barrier])
    k0 = spectrum.k0
    h = barrier.half_width

    if kr.boundary_dominated:
        t_spm = tau = band = math.nan
    else:
        t_spm = standard_transit_time(kr.k_max, barrier)
        tau = barrier.width / kr.k_max
        band = 0.05 * tau

    # generous scan window: the reference peaks at t = 0, the transmitted
    # delay is bounded by the transit time at k0
    t_k0 = standard_transit_time(k0, barrier)
    upper = 6.0 / k0 + 2.0 * abs(t_k0)
    ts = np.arange(-6.0 / k0, upper, dt)
    # multimodality scan over the emergence window
    t0_scale = (t_spm if math.isfinite(t_spm) else 0.0) + 1.0 / k0
    xs = np.linspace(h, h + 12.0, 2401)
    t_snap = np.linspace(0.05 * t0_scale, 3.0 * t0_scale, 24)

    def synth(q):
        # the exit-face signals of the packet and of its phase-free
        # reference, as fields whose grid is the time axis, then the snapshots
        ks, base = _transmitted_nodes(spectrum, barrier, q)
        shifted = base * np.exp(1j * transmission_phase(ks, barrier))
        signals = _phase_matvec(ts, -ks * ks / 2.0, np.stack([shifted, base], axis=1))
        return ([PacketField(x=ts, t=0.0, psi=sig) for sig in signals.T]
                + synthesize_transmitted(spectrum, barrier, xs, t_snap, quad=q))

    (signal, ref_signal, *snapshots), change, _ = ensure_converged(synth, quad)
    arrival = signal.peak_position
    reference = ref_signal.peak_position
    delay = arrival - reference
    multimodal = any(f.is_multimodal() for f in snapshots)

    shift_sigmas = kr.k_max - k0
    filter_effect = shift_sigmas > 1.0
    discrepancy = delay - t_spm
    within = bool(math.isfinite(discrepancy) and abs(discrepancy) <= band)
    return TransmissionTimingReport(
        k_max=kr.k_max, boundary_dominated=kr.boundary_dominated,
        containment_outside=kr.containment_outside,
        t_spm=t_spm, tau=tau, band=band,
        delay_measured=delay, arrival_exit_face=arrival,
        reference_exit_face=reference, discrepancy=discrepancy,
        within_band=within, multimodal=multimodal,
        filter_shift_sigmas=shift_sigmas, filter_effect=filter_effect,
        spm_reliable=bool(within and not multimodal and not filter_effect
                          and not kr.boundary_dominated
                          and kr.containment_outside <= _CONTAINMENT_LIMIT),
        quadrature_change=change,
    )


@dataclass(frozen=True)
class CollisionTimingReport:
    """Measured outgoing-peak delay of the symmetric collision.

    delay_predicted is scattering_delay(k0, barrier); delay_measured comes
    from a ballistic fit of the outgoing peak trajectory extrapolated back
    to the barrier face, counted from the synchronization instant.
    quadrature_change is the gate's error estimate: the largest
    peak-relative change of the fit and symmetry snapshots when the rule
    that gave them is doubled.
    """

    t_sync: float
    delay_predicted: float
    delay_measured: float
    velocity_fit: float
    symmetry_residual: float
    spectral_residual_max: float
    spectral_residual_integrated: float
    quadrature_change: float


def collision_timing_report(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                            quad: QuadratureSpec = QuadratureSpec()
                            ) -> CollisionTimingReport:
    """Measure the collision delay and the two exactness properties
    (mirror symmetry, unimodular outgoing spectrum).

    The fit and symmetry snapshots share one ensure_converged call that
    starts from `quad` (ConvergenceError if it fails), and the spectral
    residuals are taken on the rule that passed.
    """
    k0 = spectrum.k0
    h = barrier.half_width
    if not k0 < barrier.w:
        raise ValueError("collision timing needs the tunneling regime k0 < w")
    t_sync = collision_sync_time(spectrum, barrier)
    pred = scattering_delay(k0, barrier)

    # ballistic fit of the outgoing peak at 12 times, 4..14 past the exit face
    t_fit = t_sync + pred + (np.linspace(4.0, 14.0, 12) + h) / k0
    x_hi = h + k0 * (t_fit[-1] - t_sync) + 8.0
    n_x = min(8001, max(2001, int((x_hi - h) * 40)))
    xs = np.linspace(h, x_hi, n_x)
    xs_sym = np.linspace(-x_hi, x_hi, 2401)
    t_sym = np.array([t_sync, t_sync + 0.5 * (t_fit[0] - t_sync), t_fit[-1]])
    fields, change, rule = ensure_converged(
        lambda q: (synthesize_collision(spectrum, barrier, xs, t_fit, quad=q)
                   + synthesize_collision(spectrum, barrier, xs_sym, t_sym, quad=q)),
        quad)

    v, b = np.polyfit(t_fit, [f.peak_position for f in fields[:len(t_fit)]], 1)
    delay = (h - b) / v - t_sync

    sym = 0.0
    for f in fields[len(t_fit):]:
        mag = np.abs(f.psi)
        sym = max(sym, float(np.abs(mag - mag[::-1]).max() / mag.max()))

    ks, wts = _collision_nodes(spectrum, rule)
    g = spectrum.amplitude(ks)
    refl, trans = _collision_amplitudes(ks, barrier)
    s_abs = np.abs(refl + trans)
    res_max = float(np.abs(s_abs - 1.0).max())
    res_int = float(abs(np.sum(wts * g * g * (s_abs**2 - 1.0))
                        / np.sum(wts * g * g)))

    return CollisionTimingReport(
        t_sync=t_sync, delay_predicted=pred, delay_measured=float(delay),
        velocity_fit=float(v), symmetry_residual=sym,
        spectral_residual_max=res_max, spectral_residual_integrated=res_int,
        quadrature_change=change,
    )
