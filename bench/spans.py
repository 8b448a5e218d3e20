"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: for the duration of one traced
operation, every binding of a listed function in the package's module
namespaces is replaced by a wrapper that records a span (name, start,
end, parent) and a few work counters computed from the call's arguments.
Replacing the binding where it is imported catches the cross-module call
(`packets.transmission_modulus` as well as `barrier.transmission_modulus`),
and replacing it in its own module catches calls inside the module, such
as the snapshots synthesised by a timing report.  Untraced operations run
the unmodified program.

Self time of a span is its duration minus the durations of its direct
children; a module's self time is the sum over its spans.  Byte counts
are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "packets", "spectrum", "barrier", "phase_times", "numerics")

# defining module -> functions whose calls become spans
TRACED = {
    "barrier": ("transmission_modulus", "transmission_phase", "collision_phase",
                "_collision_amplitudes", "interior_field"),
    "spectrum": ("find_kmax", "kmax_table", "distortion_onset",
                 "cutoff_packet_profile", "cutoff_time_estimate"),
    "phase_times": ("rate_table", "rate_standard", "rate_scattering"),
    "numerics": ("gauss_legendre_panels", "golden_section_max",
                 "parabolic_refine"),
    "packets": ("synthesize_incident", "synthesize_transmitted",
                "synthesize_collision", "ensure_converged",
                "transmission_timing_report", "collision_timing_report",
                "collision_sync_time", "track_peak"),
}
# methods called across modules: (module, class, method)
TRACED_METHODS = (("spectrum", "GaussianSpectrum", "amplitude"),)

SYNTHESIS = ("packets.synthesize_incident", "packets.synthesize_transmitted",
             "packets.synthesize_collision")
_COMPLEX_BYTES = 16

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class SpanRecorder:
    """In-memory spans of one operation: [name, start, end, parent, ok]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
            span[4] = True
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _nodes(quad, default_nodes: int) -> int:
    return default_nodes if quad is None else quad.panels * quad.order


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _counters(package):
    """Work counters per span name, computed from the call arguments."""
    quad = package.packets.QuadratureSpec
    default_nodes = _default(quad, "panels") * _default(quad, "order")
    default_scan = _default(package.spectrum.find_kmax, "scan_points")
    default_tol = _default(package.numerics.golden_section_max, "tol")

    def barrier(counts, args, kwargs):
        k = args[0] if args else kwargs["k"]
        counts["barrier.calls"] += 1
        counts["barrier.k_points"] += int(np.size(k))
        counts["barrier.scalar_calls"] += int(np.ndim(k) == 0)

    def synthesis(x_pos):
        def count(counts, args, kwargs):
            x = _arg(args, kwargs, x_pos, "x_grid")
            quad = _arg(args, kwargs, x_pos + 2, "quad")
            counts["packets.phase_elems"] += (int(np.size(x))
                                              * _nodes(quad, default_nodes))
        return count

    def find_kmax(counts, args, kwargs):
        points = _arg(args, kwargs, 2, "scan_points")
        counts["spectrum.find_kmax.scan_points"] += \
            default_scan if points is None else points

    def golden(counts, args, kwargs):
        h = _arg(args, kwargs, 2, "hi") - _arg(args, kwargs, 1, "lo")
        tol = _arg(args, kwargs, 3, "tol") or default_tol
        if h > tol:
            counts["numerics.golden_section_max.evals"] += \
                2 + math.ceil(math.log(tol / h) / math.log(_INVPHI))

    found = {f"barrier.{name}": barrier for name in TRACED["barrier"]}
    found.update({
        "packets.synthesize_incident": synthesis(1),
        "packets.synthesize_transmitted": synthesis(2),
        "packets.synthesize_collision": synthesis(2),
        "spectrum.find_kmax": find_kmax,
        "numerics.golden_section_max": golden,
    })
    return found


def _wrap(recorder: SpanRecorder, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.counts[name + ".calls"] += 1
        if counter is not None:
            try:
                counter(recorder.counts, args, kwargs)
            except (TypeError, AttributeError, KeyError, IndexError):
                # a changed signature must not fail the program's call
                recorder.counts["trace.counter_errors"] += 1
        with recorder.span(name):
            return fn(*args, **kwargs)
    return traced


@contextmanager
def instrumented(package, recorder: SpanRecorder):
    """Install span wrappers in every module of `package`; restore on exit.

    A listed function that no longer exists is skipped, so the traced run
    keeps working when the program is refactored.
    """
    modules = [getattr(package, layer) for layer in LAYERS]
    counters = _counters(package)
    wrappers = {}
    for layer, names in TRACED.items():
        source = getattr(package, layer)
        for name in names:
            fn = getattr(source, name, None)
            if fn is not None:
                span = f"{layer}.{name}"
                wrappers[id(fn)] = _wrap(recorder, span, fn, counters.get(span))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    for layer, cls_name, method in TRACED_METHODS:
        cls = getattr(getattr(package, layer), cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if fn is not None:
            patched.append((cls, method, fn))
            setattr(cls, method, _wrap(recorder, f"{layer}.{cls_name}.{method}",
                                       fn, None))
    try:
        yield
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer numbers of one traced operation."""
    spans = recorder.spans
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    synth = 0.0
    glp = 0.0
    doublings = 0
    converged = 0
    children = Counter()
    for (name, _, _, parent, _), self_s in zip(spans, own):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        if name in SYNTHESIS:
            synth += self_s
            if parent >= 0 and spans[parent][0] == "packets.ensure_converged":
                children[parent] += 1
    for i, (name, start, end, _, ok) in enumerate(spans):
        if name == "numerics.gauss_legendre_panels":
            glp += end - start
        elif name == "packets.ensure_converged":
            doublings += max(children[i] - 1, 0)
            converged += int(ok)
    counts = recorder.counts
    elems = counts["packets.phase_elems"]
    out.update({
        "packets.synthesis.self_s": synth,
        "packets.phase_elems": elems,
        "packets.phase_elems_per_s": elems / synth if synth > 0.0 else 0.0,
        "packets.phase_bytes_computed": _COMPLEX_BYTES * elems,
        "packets.ensure_converged.doublings": doublings,
        "packets.ensure_converged.converged": converged,
        "numerics.gauss_legendre_panels.s": glp,
    })
    for key in ("packets.synthesize_incident.calls",
                "packets.synthesize_transmitted.calls",
                "packets.synthesize_collision.calls",
                "packets.transmission_timing_report.calls",
                "packets.collision_timing_report.calls",
                "barrier.calls", "barrier.scalar_calls", "barrier.k_points",
                "spectrum.find_kmax.calls", "spectrum.find_kmax.scan_points",
                "numerics.gauss_legendre_panels.calls",
                "numerics.golden_section_max.evals",
                "cli.bytes_written", "cli.rows_written"):
        out[key] = counts[key]
    out["phase_times.calls"] = sum(counts[f"phase_times.{name}.calls"]
                                   for name in TRACED["phase_times"])
    return out


def function_table(recorders: list[SpanRecorder]) -> dict[str, tuple[int, float, float]]:
    """Span name -> (calls, inclusive s, self s), summed over operations.

    Inclusive time counts only the outermost span of a name, so recursion
    through a module's own functions is not counted twice.
    """
    table: dict[str, list] = {}
    for rec in recorders:
        own = self_times(rec.spans)
        for i, (name, start, end, parent, _) in enumerate(rec.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += own[i]
            p = parent
            while p >= 0 and rec.spans[p][0] != name:
                p = rec.spans[p][3]
            if p < 0:
                row[1] += end - start
    return {name: tuple(row) for name, row in sorted(table.items())}
