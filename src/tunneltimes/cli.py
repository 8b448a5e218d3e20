"""Command-line interface: every analysis as a reproducible CSV-emitting run.

Subcommands: table1 | rates | distortion | cutoff | packet | collide.
All quantities are dimensionless (lengths in units of the packet width a,
mass m = 1, hbar = 1), so parameters enter as the groups w*a, k0*a, L/a.
Each run writes its CSV artifacts plus a manifest.json echoing every
resolved parameter; outputs contain no timestamps, so identical
invocations are byte-identical.  A subcommand validates and computes;
`main` writes the directory only after it has returned, so only on exit
0.  Exit codes: 0 success, 2 parameter validation error, 3
numerical-convergence failure; exits 2 and 3 leave nothing behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Iterable
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .barrier import BarrierConfig
from .packets import (ConvergenceError, QuadratureSpec, collision_sync_time,
                      collision_timing_report, cutoff_packet_profile,
                      ensure_converged, synthesize_collision,
                      synthesize_transmitted, transmission_timing_report)
from .phase_times import rate_table
from .spectrum import (_CONTAINMENT_LIMIT, GaussianSpectrum,
                       cutoff_time_estimate, distortion_onset, find_kmax)

_NONCOMMUTING_NOTE = ("limit of the standard rate at n=1 as alpha->0 is 4/3; "
                      "the n->1 limit of 1+1/(2n) is 3/2: the two limits do "
                      "not commute")

_TABLE1_WA = [1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0]
_TABLE1_LA = [round(0.1 * i, 1) for i in range(11)]
# the flags of packet and collide in order, each with its (packet, collide) defaults
_PACKET_FLAGS = {
    "w_a": (4.0, 16.0),
    "k0_a": (1.0, 8.0),
    "l_a": (0.2, 0.1),
    "x_min": (0.0, -16.0),
    "x_max": (12.0, 16.0),
    "x_points": (1201, 1601),
    "t_min": (0.0, -1.0),
    "t_max": (2.0, 1.5),
    "t_steps": (5, 5),
    "tolerance": (1e-8, 1e-8),
}
# rows per write in _write_csv: one write call per row (fh.writelines) was
# measured slower, and the whole file in one write holds every row's text
_CSV_BLOCK = 1024


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: Path, header: tuple, columns: list[str],
               rows: Iterable[tuple]) -> None:
    """Write the commented header, the column names and one line per row.

    `header` is (title, parameters, notes): a `# tunneltimes <title>` line,
    one `# key = value` line per parameter in key order, then one
    `# note: ...` line per note.
    A row is formatted by one %-format built from the first row's cell
    types: '%s' for a str cell, '%.12g' (the text of `_fmt`) for any other.
    So every row must have the same cell types as the first; a str where
    the first row held a number raises TypeError.  `rows` may be lazy: it
    is read once, and formatted and written `_CSV_BLOCK` rows at a time,
    so the writer itself holds at most one block of text, whatever the
    file length (rows that the caller built up front stay the caller's).
    A column that repeats across rows or files is cheapest passed as text
    already formatted by `_fmt`, and a numeric one as Python floats.
    """
    title, parameters, notes = header
    rows = iter(rows)
    first = next(rows, None)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# tunneltimes {title}\n")
        for key, val in sorted(parameters.items()):
            fh.write(f"# {key} = {val}\n")
        for note in notes:
            fh.write(f"# note: {note}\n")
        fh.write(",".join(columns) + "\n")
        if first is None:
            return
        fmt = ",".join("%s" if isinstance(cell, str) else "%.12g"
                       for cell in first) + "\n"
        rows = chain([first], rows)
        while block := [fmt % row for row in islice(rows, _CSV_BLOCK)]:
            fh.write("".join(block))


def _write_run(subcommand: str, out: str, run: tuple) -> None:
    """Make `out`, write every CSV of a finished run, then manifest.json.

    `run` is (parameters, files, diagnostics, notes) and each file is
    (name, header, columns, rows); a header of None means the run's own,
    (subcommand, parameters, notes).  Only the manifest records `out`.
    """
    parameters, files, diagnostics, notes = run
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, header, columns, rows in files:
        _write_csv(outdir / name, header or (subcommand, parameters, notes),
                   columns, rows)
    manifest = {"tool": "tunneltimes", "version": __version__, "subcommand": subcommand,
                "parameters": {**parameters, "out": str(out)},
                "notes": notes, "diagnostics": diagnostics,
                "outputs": [name for name, *_ in files]}
    with (outdir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _x_grid(args, lo: float, lower: str = "x-min") -> np.ndarray:
    """x-points points on [lo, x-max]: the one x check of cutoff, packet and
    collide.  ValueError naming the flag at fault: fewer than 3 x-points (a
    field needs 3), or an empty window, named by both ends.  `main` has
    already checked that x-min and x-max are finite."""
    if args.x_points < 3:
        raise ValueError(f"x-points = {args.x_points} must be at least 3")
    if not lo < args.x_max:
        raise ValueError(f"x-max = {_fmt(args.x_max)} must exceed {lower} = {_fmt(lo)}")
    return np.linspace(lo, args.x_max, args.x_points)


def cmd_table1(args) -> tuple:
    wa = args.w_a or _TABLE1_WA
    la = args.l_a or _TABLE1_LA
    if min(wa) <= 0 or min(la) < 0:
        raise ValueError("w-a must be positive and l-a nonnegative")
    if not args.k0_a > 0:
        raise ValueError("k0-a must be positive")
    if args.k0_a >= min(wa):
        raise ValueError("k0-a must lie below every barrier top w-a")
    if args.scan_points < 3:
        raise ValueError(f"scan-points = {args.scan_points} must be at least 3")
    cells = [(wv, lv) for wv in wa for lv in la]  # w-major
    results = find_kmax(GaussianSpectrum(k0=args.k0_a),
                        [BarrierConfig(w=wv, width=lv) for wv, lv in cells],
                        scan_points=args.scan_points)
    params = {"k0_a": args.k0_a, "w_a": list(wa), "l_a": list(la),
              "scan_points": args.scan_points}
    rows = [(wv, lv, r.k_max, "*" if r.boundary_dominated else "")
            for (wv, lv), r in zip(cells, results)]
    # wide, human-readable grid with the boundary-dominated star markers
    mark = {(wv, lv): flag or f"{km:.4f}" for wv, lv, km, flag in rows}
    grid = [(f"{lv:.2f}", *(mark[wv, lv] for wv in wa)) for lv in la]
    # the leak depends on w and k0 alone: one value per column, so it is
    # a manifest entry rather than a CSV column repeated down each column
    leaks = {"containment_outside_by_w_a": {_fmt(wv): r.containment_outside
                                            for (wv, _), r in zip(cells, results)},
             "leaky_cells": sum(r.containment_outside > _CONTAINMENT_LIMIT
                                for r in results)}
    return params, [
        ("table1.csv", None, ["w_a", "L_a", "kmax_a", "flag"], rows),
        ("table1_grid.csv", ("table1 (grid layout; * = boundary-dominated)", {}, []),
         ["L_a\\w_a"] + [_fmt(w) for w in wa], grid),
    ], leaks, []


def cmd_rates(args) -> tuple:
    ns = args.n or [0.2, 0.4, 0.6, 0.8, 1.0]
    if any(not 0.0 < n <= 1.0 for n in ns):
        raise ValueError("every n must lie in (0, 1]")
    if not 0 < args.alpha_min < args.alpha_max:
        raise ValueError("need 0 < alpha-min < alpha-max")
    if not args.alpha_max <= math.sqrt(sys.float_info.max):  # alpha^2 finite
        raise ValueError(f"alpha-max = {_fmt(args.alpha_max)} must not exceed "
                         f"sqrt(max float) = {_fmt(math.sqrt(sys.float_info.max))}")
    if args.alpha_steps < 2:
        raise ValueError("alpha-steps must be at least 2")
    alphas = np.geomspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    rows = rate_table(ns, alphas)
    notes = [_NONCOMMUTING_NOTE] if any(n == 1.0 for n in ns) else []
    params = {"n": list(ns), "alpha_min": args.alpha_min,
              "alpha_max": args.alpha_max, "alpha_steps": args.alpha_steps}
    return params, [("rates.csv", None, ["alpha", "n", "R_T", "R_phi"], rows)], {}, notes


def cmd_distortion(args) -> tuple:
    if not (args.k0_a > 0 and args.w_a > args.k0_a):
        raise ValueError("need 0 < k0-a < w-a")
    rep = dataclasses.asdict(distortion_onset(GaussianSpectrum(k0=args.k0_a), args.w_a))
    cols = [f"{name}_a" if name in ("w", "k0") else name for name in rep]
    return ({"w_a": args.w_a, "k0_a": args.k0_a},
            [("distortion.csv", None, cols, [tuple(rep.values())])], rep,
            ["onset candidates disagree; onset_numeric is authoritative"])


def cmd_cutoff(args) -> tuple:
    w_a = args.w_a
    k0_a = args.k0_a if args.k0_a is not None else 0.5 * w_a
    if not (k0_a > 0 and w_a > 0):
        raise ValueError("need positive w-a and k0-a")
    deltas = args.delta if args.delta is not None else [0.1, 0.3]
    if any(not 0.0 <= d < 1.0 for d in deltas):
        raise ValueError("every delta must lie in [0, 1)")
    xs = _x_grid(args, args.x_min)
    x_text = [_fmt(x) for x in xs.tolist()]
    spec = GaussianSpectrum(k0=k0_a)
    blocks = []
    tail_metrics = {}
    estimates = {}
    changes = {}
    # always include the untruncated reference profile
    for delta in [None] + list(deltas):
        k_cut = k0_a + 8.0 if delta is None else (1.0 - delta) * w_a
        fld, change = cutoff_packet_profile(spec, xs, k_cut)
        mag = np.abs(fld.psi)
        peak = mag.max()
        label = "none" if delta is None else _fmt(delta)
        changes[label] = change
        blocks.append(zip(repeat(label), repeat(_fmt(k_cut)), x_text,
                          mag.tolist(), (mag / peak).tolist()))
        tail = mag[(np.abs(xs) >= 5.0) & (np.abs(xs) <= 9.0)]
        tail_metrics[label] = float(tail.max() / peak) if len(tail) else None
        if delta is not None and delta > 0.0:
            estimates[label] = cutoff_time_estimate(delta, w_a)
    params = {"w_a": w_a, "k0_a": k0_a, "delta": list(deltas),
              "x_min": args.x_min, "x_max": args.x_max, "x_points": args.x_points}
    return params, [
        ("cutoff_profiles.csv", None,
         ["delta", "k_cut_a", "x_a", "abs_psi", "abs_psi_over_peak"],
         chain.from_iterable(blocks)),
    ], {"tail_metric_by_delta": tail_metrics,
        "opaque_time_estimate_by_delta": estimates,
        "quadrature_change_by_delta": changes}, []


def _snapshot_rows(x_text: list[str], fld) -> Iterable[tuple]:
    yield from zip(x_text, fld.psi.real.tolist(), fld.psi.imag.tolist(),
                   fld.density.tolist())


def _snapshot_files(prefix: str, label: str, fields) -> list[tuple]:
    """One CSV per snapshot, headed by its time.  The snapshots share one x
    grid, formatted once; each file's rows are made only as it is written."""
    x_text = [_fmt(x) for x in fields[0].x.tolist()]
    return [(f"{prefix}_{i:03d}.csv", (label, {"t": _fmt(fld.t)}, []),
             ["x", "re_psi", "im_psi", "abs2"], _snapshot_rows(x_text, fld))
            for i, fld in enumerate(fields)]


def _packet_snapshots(args, synthesize, floor: tuple) -> tuple:
    """Check the flags that packet and collide share and build both grids:
    (spectrum, barrier, rule, parameters, gate), where gate() synthesises
    the snapshots on the x grid at t-steps times under ensure_converged
    and returns (fields, change).  `floor` is (key, name,
    f): the grid end `key`, "x_min" or "t_min", is raised to f(spectrum,
    barrier), called `name` in messages, and the parameters echo it as
    raised."""
    if not (args.k0_a > 0 and args.w_a > args.k0_a):
        raise ValueError("need 0 < k0-a < w-a (tunneling regime)")
    if args.l_a < 0:
        raise ValueError("l-a must be nonnegative")
    if args.t_steps < 1:
        raise ValueError(f"t-steps = {args.t_steps} must be at least 1")
    if not args.tolerance > 0:
        raise ValueError(f"tolerance = {_fmt(args.tolerance)} must be positive")
    spec = GaussianSpectrum(k0=args.k0_a)
    barrier = BarrierConfig(w=args.w_a, width=args.l_a)
    params = {name: getattr(args, name) for name in _PACKET_FLAGS}
    key, name, f = floor
    params[key] = max(params[key], f(spec, barrier))
    lower = {"x_min": "x-min", "t_min": "t-min", key: name}
    xs = _x_grid(args, params["x_min"], lower["x_min"])
    if not params["t_min"] <= args.t_max:
        raise ValueError(f"t-max = {_fmt(args.t_max)} must not precede "
                         f"{lower['t_min']} = {_fmt(params['t_min'])}")
    ts = np.linspace(params["t_min"], args.t_max, args.t_steps)
    quad = QuadratureSpec(tol=args.tolerance)

    def gate():
        fields, change, _ = ensure_converged(
            lambda q: synthesize(spec, barrier, xs, ts, quad=q), quad)
        return fields, change

    return spec, barrier, quad, params, gate


def cmd_packet(args) -> tuple:
    spec, barrier, quad, params, gate = _packet_snapshots(
        args, synthesize_transmitted,
        ("x_min", "max(x-min, L/2)", lambda _, barrier: barrier.half_width))
    # the report first: where the spectrum lies below the transmitted
    # window, its find_kmax names k_max before the snapshots' synthesis
    # rejects the all-zero column
    rep = transmission_timing_report(spec, barrier, quad=quad)
    snapshots, achieved = gate()
    timing = {k: (str(v) if isinstance(v, bool) else v)
              for k, v in dataclasses.asdict(rep).items()}
    files = _snapshot_files("packet", "packet snapshot", snapshots)
    files.append(("packet_timing.csv", None, list(timing), [tuple(timing.values())]))
    return params, files, {"quadrature_change_on_doubling": achieved,
                           "timing": timing}, []


def cmd_collide(args) -> tuple:
    spec, barrier, quad, params, gate = _packet_snapshots(
        args, synthesize_collision, ("t_min", "max(t-min, t_sync)", collision_sync_time))
    snapshots, achieved = gate()
    rep = collision_timing_report(spec, barrier, quad=quad)
    return (params, _snapshot_files("collide", "collision snapshot", snapshots),
            {"quadrature_change_on_doubling": achieved, **dataclasses.asdict(rep)}, [])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunneltimes",
        description="Rectangular-barrier tunneling times: modulated-spectrum "
                    "maxima, phase-time rates, distortion onsets, and packet "
                    "synthesis, emitted as reproducible CSV artifacts.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="modulated-spectrum maxima k_max on a "
                                       "(w a, L/a) grid, starred when "
                                       "boundary-dominated")
    t1.add_argument("--k0-a", type=float, default=1.0)
    t1.add_argument("--w-a", type=float, action="append")
    t1.add_argument("--l-a", type=float, action="append")
    t1.add_argument("--scan-points", type=int, default=4096,
                    help="points of the grid on [1e-9 w, w] whose maximum of g |T| "
                         "brackets k_max (at least 3); a maximum on the first "
                         "point leaves k_max unresolved and exits 2")
    t1.set_defaults(func=cmd_table1)

    rt = sub.add_parser("rates", help="transit- and scattering-time rates vs alpha")
    rt.add_argument("--n", type=float, action="append")
    rt.add_argument("--alpha-min", type=float, default=1e-4)
    rt.add_argument("--alpha-max", type=float, default=1e3)
    rt.add_argument("--alpha-steps", type=int, default=241)
    rt.set_defaults(func=cmd_rates)

    ds = sub.add_parser("distortion", help="onset width for a boundary local "
                                           "maximum of the modulated spectrum")
    ds.add_argument("--w-a", type=float, default=1.5)
    ds.add_argument("--k0-a", type=float, default=1.0)
    ds.set_defaults(func=cmd_distortion)

    co = sub.add_parser("cutoff", help="packet shapes for cut-off spectra")
    co.add_argument("--w-a", type=float, default=4.0)
    co.add_argument("--k0-a", type=float, default=None,
                    help="defaults to 0.5 * w-a")
    co.add_argument("--delta", type=float, action="append",
                    help="cutoff fraction(s); the uncut reference is always included")
    co.add_argument("--x-min", type=float, default=-10.0)
    co.add_argument("--x-max", type=float, default=10.0)
    co.add_argument("--x-points", type=int, default=2001)
    co.set_defaults(func=cmd_cutoff)

    for i, (command, func, text) in enumerate((
            ("packet", cmd_packet, "transmitted-packet snapshots and "
                                   "arrival-vs-prediction report"),
            ("collide", cmd_collide, "symmetric two-packet collision snapshots"))):
        pc = sub.add_parser(command, help=text)
        for name, defaults in _PACKET_FLAGS.items():
            pc.add_argument("--" + name.replace("_", "-"), type=type(defaults[i]),
                            default=defaults[i])
        pc.set_defaults(func=func)

    for each in sub.choices.values():
        each.add_argument("--out", default="out")
    return parser


def _check_args(args) -> None:
    """The checks that every subcommand shares, made before it computes:
    every float flag, one value or an `append` list, is finite, and `out`
    lies under no file.  ValueError naming the flag."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name.replace('_', '-')} must be finite")
    out = Path(args.out)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise ValueError(f"out = {args.out}: {found} exists and is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        run = args.func(args)
    except ValueError as exc:
        print(f"tunneltimes: parameter error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"tunneltimes: convergence failure: {exc}", file=sys.stderr)
        return 3
    _write_run(args.command, args.out, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
