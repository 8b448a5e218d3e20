"""Direct spectral synthesis of time-dependent packets.

Fields are built by composite Gauss-Legendre quadrature over the momentum
spectrum; there is no PDE time stepping anywhere.  Three configurations:

 * free (incident) packets, among them the t = 0 profile of a spectrum
   cut off at k_cut (cutoff_packet_profile),
 * the transmitted packet behind the barrier, the channel T_B e^{ikL},
 * the symmetric two-packet collision, assembled region by region from
   the explicit left- and right-incident solutions; its outgoing
   amplitude is S = R_B + T_B.
Each channel, _transmitted_channel or _collision_channel, lays a rule
over its k window and combines (R_B, T_B) from one amplitude-kernel call.

Every synthesis takes a 1-D sequence of times t (a scalar raises
ValueError) and returns a list of PacketField, one per time; the times
share each chunk's phase block.  Each checks its x grid once, before any
phase sum: it must be uniform (_uniform_grid), and the fields it returns
are not checked again.  Its plane-wave sums are one _phase_matvec call,
the collision's two exterior regions included, so one offset block
(_offset_block), built by repeated doubling, serves every chunk of x,
and each chunk only rescales the amplitudes by an n_k-vector.  Over one
chunk of half-width hw, e^{ikx} is a polynomial in k of low degree: to
about 2^-60, r = _degree(hw (k_max - k_min) / 2) Chebyshev nodes in k
carry it, a few dozen on the CLI grids against the 192-768 quadrature
nodes.  So the block's columns are those r nodes, one real (r x n_k)
barycentric matrix maps each chunk's amplitudes onto them, and a chunk
costs about rows x r + r x n_k products per column instead of rows x n_k.
The rows per chunk, 64 to 512, are picked per call from the grid step,
the k band and n_k (_chunk_rows): wide bands take short chunks, where r
is small.  When r is no smaller than n_k the columns are the k nodes
themselves and the sum is direct.

A QuadratureSpec is only the rule; each synthesis lays it over its own k
window.  A direct synthesize_* call is a raw evaluation of the rule it is
given, with no error estimate.  Every number that reaches a CLI artifact
or a report field is sized by ensure_converged instead: it starts from the
default rule (4 panels x order 48), doubles the panel count until one
doubling changes |psi| by less than the tolerance, and returns the
evaluation whose doubling passed, that change and the rule.  The
collision report's gate starts one doubling up and ends at the same
finest rule, because the default rule aliases on the report's fit grid:
it failed the first comparison in 31 of 31 drawn benchmark operations.

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

from .barrier import BarrierConfig, _collision_amplitudes, interior_field
from .numerics import check_count, gauss_legendre_panels, parabolic_refine
from .phase_times import scattering_delay, standard_transit_time
from .spectrum import _CONTAINMENT_LIMIT, GaussianSpectrum, find_kmax

_SPAN_ROWS = 512  # rows per exp of e^{i k x} at a grid point in a phase sum
_CHUNK_ROWS = (64, 128, 256, _SPAN_ROWS)  # rows per phase-sum chunk; each divides the span
_CHUNK_COST = 4000.0  # fixed cost of one phase-sum chunk, in products per column
_INTERIOR_ROWS = 512  # rows of the collision's interior basis built at a time
_MODE_THRESHOLD = 0.25  # local maxima below this fraction of the peak are ignored
_MAX_TIME_POINTS = 2 ** 20  # longest exit-face time axis of a transmission report
_MAX_DOUBLINGS = 6  # ensure_converged's default: from 4 panels to 256


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
        check_count(self.panels, 1, "panels")
        check_count(self.order, 2, "order")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def nodes(self, k_lo: float, k_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the rule on [k_lo, k_hi]."""
        return gauss_legendre_panels(k_lo, k_hi, self.panels, self.order)


def _uniform_grid(x_grid) -> np.ndarray:
    """x_grid as a float array if it is a uniform grid; ValueError otherwise.

    Uniform: 1-D, at least 3 points, finite ends with x_0 < x_-1 (checked
    first, so that no step is formed from an infinite end), and each x_j
    within 4 ulps of max(|x_0|, |x_-1|) of x_0 + j dx.
    """
    x = np.asarray(x_grid, dtype=float)
    n = len(x) if x.ndim == 1 else 0
    if not (n >= 3 and -math.inf < x[0] < x[-1] < math.inf and np.abs(
            x - (x[0] + np.arange(n) * ((x[-1] - x[0]) / (n - 1)))).max()
            <= 4.0 * np.finfo(float).eps * max(-x[0], x[-1])):
        raise ValueError("x must be a finite, increasing uniform grid of at least 3 points")
    return x


@dataclass(frozen=True)
class PacketField:
    """Complex field samples at one instant on a uniform x grid (else ValueError)."""

    x: np.ndarray
    t: float
    psi: np.ndarray

    def __post_init__(self):
        x = _uniform_grid(self.x)
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
    below 2^-60 from the smallest r >= 1 with (kappa/2)^r / r! < 2^-60 /
    (2r + 2); two points more are kept.  Always above kappa.

    The log of the left side over the right is concave in r and rises up
    to r > kappa/2, so unless r = 1 passes, the smallest passing r lies on
    the falling side: above max(1, floor(kappa/2)), which fails, and at
    most max(e kappa, 70) + 1, which passes since r! >= (r/e)^r.  It is
    found there by bisection.
    """
    def fails(r):
        return kappa > 0.0 and (r * math.log(kappa / 2.0) - math.lgamma(r + 1.0)
                                >= -60.0 * math.log(2.0) - math.log(2.0 * r + 2.0))

    if not fails(1):
        return 3
    lo, hi = max(1, int(kappa / 2.0)), int(max(math.e * kappa, 70.0)) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fails(mid) else (lo, mid)
    return hi + 2


def _chunk_rows(dx: float, band: float, n_k: int, n_x: int) -> int:
    """Rows per phase-sum chunk for n_x rows of step dx against n_k nodes
    spanning `band` in k: of _CHUNK_ROWS, capped at n_x, the count m with
    the least modelled cost per row and column.

    A block of m rows interpolates on r = _degree((m - 1) dx band / 4)
    nodes (_offset_block).  Its gemm costs 2 r products per row, and each
    chunk adds r n_k for the map onto the nodes and a fixed _CHUNK_COST,
    about the time of the chunk's own numpy calls on the CLI grids.  When
    r >= n_k the sum is direct: 2 n_k per row and no map.  Wide bands thus
    take short chunks, where r is small, and narrow ones long chunks,
    which spread the per-chunk terms.
    """
    def cost(rows):
        m = min(rows, n_x)
        r = _degree((m - 1) * dx * band / 4.0)
        per_chunk = _CHUNK_COST + (r * n_k if r < n_k else 0)
        return 2 * min(r, n_k) + per_chunk / m

    return min(min(_CHUNK_ROWS, key=cost), n_x)


def _offset_block(dx: float, rows: int, ks: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Centred offset block of `rows` steps dx on interpolation nodes in k,
    the map onto those nodes, and the block's half-width: (offs, interp, hw).

    The block's rows j < rows span j dx - hw in [-hw, hw], over which
    e^{i k (j dx - hw)}, k in [min ks, max ks], is interpolated to about
    2^-60 by r = _degree(kappa) Chebyshev points, kappa = hw (max ks -
    min ks) / 2.  So the columns are the r first-kind Chebyshev nodes kn
    of [min ks, max ks], offs[j] = e^{i kn (j dx - hw)}, and interp is the
    real (r, len(ks)) barycentric matrix with e^{i k (j dx - hw)} =
    (offs @ interp)[j, k] to about 2^-60 plus round-off.  When r >=
    len(ks) the columns are the ks themselves and interp is None.

    Built by repeated doubling: row 0 is e^{-i kn hw} and rows [n, 2n) are
    rows [0, n) times e^{i kn n dx}, so 2^p rows cost p + 1 r-vector exps,
    each phase rounded once.
    """
    steps = np.arange(rows) * dx
    hw = steps[-1] / 2.0
    lo, hi = ks.min(), ks.max()
    r = _degree(hw * (hi - lo) / 2.0)
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
    offs = np.empty((rows, len(ks)), dtype=complex)
    offs[0] = np.exp(-hw * phase)
    n = 1
    while n < rows:  # rows [n, 2n) = rows [0, n) times e^{i k n dx}
        m = min(n, rows - n)
        np.multiply(offs[:m], np.exp(steps[n] * phase), out=offs[n:n + m])
        n *= 2
    return offs, interp, hw


def _phase_matvec(x: np.ndarray, ks: np.ndarray,
                  parts: list[tuple[int, int, np.ndarray]]) -> list[np.ndarray]:
    """For each (lo, hi, amp) of parts, sum_i amp_i e^{i k_i x_j} over the
    rows lo <= j < hi of the uniform grid x: a list of (hi - lo, n_c)
    arrays.  amp is (n_k, n_c), one column per snapshot time, so a batch
    of times costs one gemm per chunk.

    The parts share one setup: the rows per chunk (_chunk_rows) and one
    _offset_block with its interpolation matrix, dx taken from the ends of
    x.  Each part is cut into chunks from its own first row.  For a chunk
    at x_c = x_s + s dx, s rows after the start x_s of its span of
    _SPAN_ROWS rows, e^{i k (x_c + j dx)} = e^{i k (j dx - hw)} e^{i k x_s}
    e^{i k (s dx + hw)}.  So per span there is one n_k-vector exp at the
    grid point x_s, and per chunk amp is scaled by that times e^{i k (s dx
    + hw)}, formed once per call; the phase k x_s, the largest one, is
    rounded at the same grid points whatever the rows per chunk.  The
    scaled amp is mapped onto the block's r nodes by interp (a real
    product on the re/im pairs) and multiplied by the (rows x r) block:
    about rows r + r n_k products per column instead of rows n_k.  Before
    round-off, each sum is then within about 2^-60 sum_i |amp_i| of the
    direct one; when r >= n_k there is no interp and the sum is direct.
    Memory is bounded by the one block; nothing is cached.  Also the time
    signal at a fixed plane, with x -> t and k -> -k^2/2.
    """
    phase = 1j * ks
    # the results are allocated before the offset block, so that freeing
    # the block leaves no heap hole below a live array (a block of up to
    # about 1 MB on the CLI grids, which glibc serves from the heap once
    # its mmap threshold has risen)
    outs = [np.empty((hi - lo, amp.shape[1]), dtype=complex) for lo, hi, amp in parts]
    n_x = max((hi - lo for lo, hi, _ in parts), default=0)
    if n_x == 0:
        return outs
    dx = (x[-1] - x[0]) / max(len(x) - 1, 1)
    rows = _chunk_rows(dx, ks.max() - ks.min(), len(ks), n_x)
    offs, interp, hw = _offset_block(dx, rows, ks)
    # e^{i k (s dx + hw)} for each chunk offset s in a span (for rows =
    # _SPAN_ROWS, just e^{i k hw})
    shifts = np.exp(np.outer(np.arange(0, _SPAN_ROWS, rows) * dx + hw, phase))
    for (lo, hi, amp), out in zip(parts, outs):
        for span in range(lo, hi, _SPAN_ROWS):
            at = np.exp(x[span] * phase)
            for c, shift in zip(range(span, min(span + _SPAN_ROWS, hi), rows), shifts):
                a = amp * (at * shift)[:, None]
                if interp is not None:  # (r, n_k) @ (n_k, 2 n_c) in real arithmetic
                    a = (interp @ a.view(float)).view(complex)
                np.matmul(offs[:min(rows, hi - c)], a, out=out[c - lo:c - lo + rows])
    return outs


def _times(t) -> np.ndarray:
    """t as a nonempty 1-D array of finite times; ValueError otherwise."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1 or not ts.size or not np.all(np.isfinite(ts)):
        raise ValueError("t must be a nonempty 1-D sequence of finite times")
    return ts


def _fields(x: np.ndarray, ts: np.ndarray, psi: np.ndarray) -> list[PacketField]:
    """One PacketField per time of ts, the column of psi at that time.

    x is a grid that _uniform_grid passed, ts finite times and psi a
    complex (len(x), len(ts)) array, so the fields are filled in directly,
    without re-running PacketField's checks once per time."""
    fields = []
    for j, tj in enumerate(ts):
        fld = object.__new__(PacketField)
        fld.__dict__.update(x=x, t=float(tj), psi=psi[:, j])
        fields.append(fld)
    return fields


def _plane_wave_fields(x: np.ndarray, t, ks: np.ndarray, amp: np.ndarray) -> list[PacketField]:
    """sum_i amp_i e^{i (k_i x - k_i^2 t / 2)} on the checked grid x, one
    PacketField per time of t, each time one column of a phase sum."""
    ts = _times(t)
    cols = amp[:, None] * np.exp(-0.5j * np.outer(ks * ks, ts))
    [psi] = _phase_matvec(x, ks, [(0, len(x), cols)])
    return _fields(x, ts, psi)


def synthesize_incident(spectrum: GaussianSpectrum, x_grid, t,
                        quad: QuadratureSpec = QuadratureSpec(),
                        k_interval: tuple[float, float] | None = None
                        ) -> list[PacketField]:
    """Free packet (1/2pi) int dk g(k - k0) e^{i (k x - k^2 t / 2)}: a list
    of PacketField, one per time of t.

    x_grid must be uniform, t a 1-D sequence of finite times, and both ends
    of the k window must have finite squares (ValueError otherwise).  A raw
    evaluation of `quad`; ensure_converged sizes the rule.

    By default the integral covers k0 +- 8, so the full gaussian is
    retained and the centroid moves at exactly k0; pass
    k_interval=(0, w) to reproduce the truncated-window convention of the
    transmitted-packet integral.
    """
    x = _uniform_grid(x_grid)
    if k_interval is None:
        k_interval = (spectrum.k0 - 8.0, spectrum.k0 + 8.0)
    lo, hi = map(float, k_interval)
    if not (lo * lo < math.inf and hi * hi < math.inf):  # false for nan too
        raise ValueError("the k window's ends must have finite squares")
    ks, wts = quad.nodes(lo, hi)
    return _plane_wave_fields(x, t, ks, spectrum.amplitude(ks) * wts / (2.0 * math.pi))


def _transmitted_channel(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                         quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes ks of `quad` on (1e-9 w, w], the column g T_B e^{ikL} wts
    / 2pi of the exit-face signal there (T_B e^{ikL} = |T| e^{i Theta}) and
    that column times e^{-ikL/2}, of the sum over x: (ks, column, shifted).
    ValueError if the column is identically zero."""
    ks, wts = quad.nodes(1e-9 * barrier.w, barrier.w)
    _, trans = _collision_amplitudes(ks, barrier)
    column = (spectrum.amplitude(ks) * wts * trans * np.exp(1j * ks * barrier.width)
              / (2.0 * math.pi))
    if not np.any(column):
        raise ValueError("the spectrum has no weight at the rule's nodes on the transmitted "
                         "window (1e-9 w, w]; the transmitted packet is identically zero")
    return ks, column, column * np.exp(-1j * ks * barrier.half_width)


def synthesize_transmitted(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                           x_grid, t, quad: QuadratureSpec = QuadratureSpec()
                           ) -> list[PacketField]:
    """Transmitted packet behind the barrier (defined for x >= L/2 only): a
    list of PacketField, one per time of t.

    (1/2pi) int_0^w dk g(k - k0) T_B e^{ikL} e^{i [k (x - L/2) - k^2 t / 2]},
    with T_B e^{ikL} = |T| e^{i Theta}.

    x_grid must be uniform, t a 1-D sequence of finite times, and g |T|
    nonzero at some node of `quad` on (1e-9 w, w] (ValueError otherwise).
    A raw evaluation of `quad`; ensure_converged sizes the rule.
    """
    x = _uniform_grid(x_grid)
    if x[0] < barrier.half_width - 1e-12:
        raise ValueError("transmitted field is defined for x >= L/2 only")
    ks, _, shifted = _transmitted_channel(spectrum, barrier, quad)
    return _plane_wave_fields(x, t, ks, shifted)


def collision_sync_time(spectrum: GaussianSpectrum, barrier: BarrierConfig) -> float:
    """Instant -L / (2 k0) at which both incident peaks reach the barrier faces."""
    return -barrier.width / (2.0 * spectrum.k0)


def _collision_channel(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                       quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes ks of `quad` on (1e-9 k0, k0 + 8], g wts there and the
    outgoing amplitude S = R_B + T_B of the symmetric collision: (ks, g wts, S)."""
    ks, wts = quad.nodes(1e-9 * spectrum.k0, spectrum.k0 + 8.0)
    refl, trans = _collision_amplitudes(ks, barrier)
    return ks, spectrum.amplitude(ks) * wts, refl + trans


def synthesize_collision(spectrum: GaussianSpectrum, barrier: BarrierConfig,
                         x_grid, t, quad: QuadratureSpec = QuadratureSpec()
                         ) -> list[PacketField]:
    """Symmetric two-packet collision field: a list of PacketField, one per time of t.

    Superposes the explicit left- and right-incident stationary solutions
    weighted by g(k - k0) e^{-i E t} over k in (0, k0 + 8] (the
    gaussian weight beyond that point is below 1e-13 of its peak; the
    wavenumbers above the barrier top are included through the
    trigonometric continuation).  No 1/2pi prefactor, matching the
    collision-integral convention; only shapes and ratios of this field
    are meaningful.

    x_grid and t as for synthesize_transmitted.  With S = R_B + T_B and
    e^{-ikx} = conj(e^{ikx}), the left exterior field is
    E w + conj(E conj(S w)) and the right one E S w + conj(E conj(w)).
    The two exterior regions are row ranges of the checked x_grid, summed
    by one _phase_matvec call on one setup.  The interior is summed
    _INTERIOR_ROWS rows at a time, so that its (x, k) basis stays bounded
    at large L.  No basis is cached.  A raw evaluation of `quad`;
    ensure_converged sizes the rule.

    No time may precede the synchronization instant -L / (2 k0).
    """
    x = _uniform_grid(x_grid)
    ts = _times(t)
    t_sync = collision_sync_time(spectrum, barrier)
    if np.any(ts < t_sync - 1e-12):
        raise ValueError(f"collision field is defined for t >= {t_sync} "
                         "(simultaneous arrival of the incident peaks)")
    ks, gw, s = _collision_channel(spectrum, barrier, quad)
    weight = gw[:, None] * np.exp(-1j * np.outer(ks * ks, ts) / 2.0)
    s_weight = s[:, None] * weight
    h = barrier.half_width
    n_t = len(ts)

    psi = np.empty((len(x), n_t), dtype=complex)
    # x increases, so the left exterior, the interior and the right
    # exterior are the rows [0, start), [start, stop) and [stop, len(x));
    # an empty region gets no amplitude columns
    start, stop = np.searchsorted(x, -h), np.searchsorted(x, h, side="right")
    exterior = [(lo, hi, np.concatenate([direct, mirrored.conj()], axis=1))
                for lo, hi, direct, mirrored in ((0, start, weight, s_weight),
                                                 (stop, len(x), s_weight, weight))
                if lo < hi]
    for (lo, hi, _), both in zip(exterior, _phase_matvec(x, ks, exterior)):
        # added into psi in place: a temporary of psi's size raised the
        # peak resident memory of collide by about 0.4 MB
        np.add(both[:, :n_t], both[:, n_t:].conj(), out=psi[lo:hi])
    for lo in range(start, stop, _INTERIOR_ROWS):
        xc = x[lo:min(lo + _INTERIOR_ROWS, stop)]
        # psi(x) + psi(-x), psi the left-incident solution: one kernel call
        basis = interior_field(ks, barrier, np.stack([xc, -xc])[:, :, None])
        np.matmul(basis.sum(axis=0), weight, out=psi[lo:lo + len(xc)])
    return _fields(x, ts, psi)


def _change(coarse: PacketField, fine: PacketField) -> float:
    """Largest change of |psi|, relative to the finer field's maximum."""
    scale = float(np.abs(fine.psi).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(np.abs(fine.psi) - np.abs(coarse.psi)).max() / scale)


def ensure_converged(synth, quad: QuadratureSpec, max_doublings: int = _MAX_DOUBLINGS
                     ) -> tuple[list[PacketField], float, QuadratureSpec]:
    """Evaluate `synth` on `quad`, doubling the panel count until one
    doubling changes no |psi| by more than quad.tol (relative to the
    maximum of the finer field).

    `synth` maps a QuadratureSpec to a list of PacketField, as every
    synthesis returns; the change is the largest over the list.
    Returns the evaluation whose doubling passed (the coarser of the last
    pair), that change and the rule it was evaluated on, so the change
    bounds the returned fields' distance from the doubled rule.  From the
    default 4 panels, 6 doublings reach 256.  Raises ConvergenceError with
    diagnostics if the tolerance is still unmet after max_doublings, an
    integer of at least 1 (ValueError otherwise).
    """
    check_count(max_doublings, 1, "max_doublings")
    coarse = synth(quad)
    for _ in range(max_doublings):
        finer = replace(quad, panels=2 * quad.panels)
        fine = synth(finer)
        change = max(map(_change, coarse, fine))
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
    k_lo = 1e-12  # the window's lower end
    if not max(1e-9 * spectrum.k0, k_lo) < k_cut < math.inf:
        raise ValueError(f"k_cut must be finite and above 1e-9 k0 and {k_lo}, the "
                         "window's lower end (a lower cut removes the whole support)")
    [fld], change, _ = ensure_converged(lambda q: synthesize_incident(
        spectrum, x_grid, t=[0.0], quad=q, k_interval=(k_lo, k_cut)), QuadratureSpec())
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
    modulated-spectrum maximum (k = w when boundary_dominated); band is
    the fixed 5 % of tau.  The flags record the two breakdown symptoms: a
    multimodal emergence profile (a second local maximum of |psi|^2 above
    0.25 of the peak in any of 24 snapshots) and a filter-effect shift of
    the spectral maximum by more than one standard deviation of the
    intensity.  quadrature_change is
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
    call that starts from `quad` (ConvergenceError if it fails).  Their
    time axis, -6/k0 to 6/k0 + 2 |t_T(k0)| in steps of dt, must hold 3 to
    2^20 points (else ValueError naming k0 and dt).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    k0 = spectrum.k0
    h = barrier.half_width
    # generous scan window: the reference peaks at t = 0, the transmitted
    # delay is bounded by the transit time at k0
    t_lo, t_hi = -6.0 / k0, 6.0 / k0 + 2.0 * abs(standard_transit_time(k0, barrier))
    steps = (t_hi - t_lo) / dt  # np.arange takes ceil(steps) points
    if not 2.0 < steps <= _MAX_TIME_POINTS:
        raise ValueError(f"the time window [-6/k0, 6/k0 + 2 |t_T(k0)|) = [{t_lo:.6g}, "
                         f"{t_hi:.6g}) at k0 = {k0} holds {steps:.4g} steps of dt = {dt}; "
                         f"it needs 3 to {_MAX_TIME_POINTS} points")
    ts = _uniform_grid(np.arange(t_lo, t_hi, dt))
    [kr] = find_kmax(spectrum, [barrier])
    t_spm = standard_transit_time(kr.k_max, barrier)
    tau = barrier.width / kr.k_max
    band = 0.05 * tau

    # multimodality scan over the emergence window
    t0_scale = t_spm + 1.0 / k0
    xs = _uniform_grid(np.linspace(h, h + 12.0, 2401))
    t_snap = np.linspace(0.05 * t0_scale, 3.0 * t0_scale, 24)

    def synth(q):
        # one transmitted column per rule: the exit-face signals of the
        # packet and of its phase-free reference |column|, as fields whose
        # grid is the time axis, then the snapshots
        ks, column, shifted = _transmitted_channel(spectrum, barrier, q)
        [signals] = _phase_matvec(ts, -ks * ks / 2.0,
                                  [(0, len(ts), np.stack([column, np.abs(column)], axis=1))])
        return _fields(ts, np.zeros(2), signals) + _plane_wave_fields(xs, t_snap, ks, shifted)

    (signal, ref_signal, *snapshots), change, _ = ensure_converged(synth, quad)
    arrival = signal.peak_position
    reference = ref_signal.peak_position
    delay = arrival - reference
    multimodal = any(f.is_multimodal() for f in snapshots)

    shift_sigmas = kr.k_max - k0
    filter_effect = shift_sigmas > 1.0
    discrepancy = delay - t_spm
    within = bool(abs(discrepancy) <= band)
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

    The fit and symmetry snapshots share one ensure_converged call
    (ConvergenceError if it fails), and the spectral residuals are taken
    on the rule that passed.  The gate starts from `quad` with its panels
    doubled and one doubling fewer, so it ends at the same finest rule:
    at the default, `quad` alone aliases at the far end of the fit grid
    and failed the first comparison in 31 of 31 drawn benchmark
    operations.  ValueError naming k0 if the phases k^2 t / 2 of its
    times, of order 1/k0, overflow.
    """
    k0 = spectrum.k0
    h = barrier.half_width
    if not k0 < barrier.w:
        raise ValueError("collision timing needs the tunneling regime k0 < w")
    t_sync = collision_sync_time(spectrum, barrier)
    pred = scattering_delay(k0, barrier)
    # every time below lies in [-span, span]: t_sync <= 0 <= the last fit time
    span = pred + (14.0 + h) / k0
    if not math.isfinite((k0 + 8.0) * (k0 + 8.0) * span):
        raise ValueError(f"k0 = {k0} is too small: the report's times reach |t| = delay + "
                         f"(14 + L/2)/k0 = {span:.6g}, where the phases k^2 t / 2 overflow")

    # ballistic fit of the outgoing peak at 12 times, 4..14 past the exit face
    t_fit = t_sync + pred + (np.linspace(4.0, 14.0, 12) + h) / k0
    x_hi = h + k0 * (t_fit[-1] - t_sync) + 8.0
    n_x = min(8001, max(2001, int((x_hi - h) * 40)))
    xs = np.linspace(h, x_hi, n_x)
    xs_sym = np.linspace(-x_hi, x_hi, 2401)
    t_sym = np.array([t_sync, t_sync + 0.5 * (t_fit[0] - t_sync), t_fit[-1]])

    def synth(q):
        return (synthesize_collision(spectrum, barrier, xs, t_fit, quad=q)
                + synthesize_collision(spectrum, barrier, xs_sym, t_sym, quad=q))

    fields, change, rule = ensure_converged(synth, replace(quad, panels=2 * quad.panels),
                                            _MAX_DOUBLINGS - 1)

    v, b = np.polyfit(t_fit, [f.peak_position for f in fields[:len(t_fit)]], 1)
    delay = (h - b) / v - t_sync

    sym = 0.0
    for f in fields[len(t_fit):]:
        mag = np.abs(f.psi)
        sym = max(sym, float(np.abs(mag - mag[::-1]).max() / mag.max()))

    ks, gw, s = _collision_channel(spectrum, barrier, rule)
    g = spectrum.amplitude(ks)
    s_abs = np.abs(s)
    res_max = float(np.abs(s_abs - 1.0).max())
    res_int = float(abs(np.sum(gw * g * (s_abs**2 - 1.0)) / np.sum(gw * g)))

    return CollisionTimingReport(
        t_sync=t_sync, delay_predicted=pred, delay_measured=float(delay),
        velocity_fit=float(v), symmetry_residual=sym,
        spectral_residual_max=res_max, spectral_residual_integrated=res_int,
        quadrature_change=change,
    )
