"""Command-line interface: every analysis as a reproducible CSV-emitting run.

Subcommands: table1 | rates | distortion | cutoff | packet | collide.
All quantities are dimensionless (lengths in units of the packet width a,
mass m = 1, hbar = 1), so parameters enter as the groups w*a, k0*a, L/a.
Each run writes its CSV artifacts plus a manifest.json echoing every
resolved parameter; outputs contain no timestamps, so identical
invocations are byte-identical.  Exit codes: 0 success, 2 parameter
validation error, 3 numerical-convergence failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .barrier import BarrierConfig
from .packets import (ConvergenceError, QuadratureSpec, collision_sync_time,
                      collision_timing_report, ensure_converged,
                      synthesize_collision, synthesize_transmitted,
                      transmission_timing_report)
from .phase_times import rate_table
from .spectrum import (GaussianSpectrum, cutoff_packet_profile,
                       cutoff_time_estimate, distortion_onset, kmax_table)

_NONCOMMUTING_NOTE = ("limit of the standard rate at n=1 as alpha->0 is 4/3; "
                      "the n->1 limit of 1+1/(2n) is 3/2: the two limits do "
                      "not commute")

_TABLE1_WA = [1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0]
_TABLE1_LA = [round(0.1 * i, 1) for i in range(11)]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: Path, manifest: dict, columns: list[str],
               rows: Iterable[tuple]) -> None:
    """Write the commented header, the column names and one line per row.

    A row is formatted by one %-format built from the first row's cell
    types: '%s' for a str cell, '%.12g' (the text of `_fmt`) for any other.
    So every row must have the same cell types as the first; a str where
    the first row held a number raises TypeError.
    """
    rows = list(rows)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# tunneltimes {manifest['subcommand']}\n")
        for key, val in sorted(manifest["parameters"].items()):
            if key == "out":
                continue  # keep data artifacts relocatable
            fh.write(f"# {key} = {val}\n")
        for note in manifest.get("notes", []):
            fh.write(f"# note: {note}\n")
        fh.write(",".join(columns) + "\n")
        if rows:
            fmt = ",".join("%s" if isinstance(cell, str) else "%.12g"
                           for cell in rows[0]) + "\n"
            fh.write("".join([fmt % row for row in rows]))


def _write_manifest(outdir: Path, manifest: dict) -> None:
    with (outdir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(subcommand: str, parameters: dict, notes: list[str] | None = None,
              diagnostics: dict | None = None) -> dict:
    return {
        "tool": "tunneltimes",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "notes": notes or [],
        "diagnostics": diagnostics or {},
        "outputs": [],
    }


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _x_grid(args, lo: float, lower: str = "x-min") -> np.ndarray:
    """x-points points on [lo, x-max]; ValueError naming both ends if empty."""
    if not lo < args.x_max:
        raise ValueError(f"x-max = {_fmt(args.x_max)} must exceed {lower} = {_fmt(lo)}")
    return np.linspace(lo, args.x_max, args.x_points)


def cmd_table1(args) -> int:
    wa = args.w_a or _TABLE1_WA
    la = args.l_a or _TABLE1_LA
    if min(wa) <= 0 or min(la) < 0:
        raise ValueError("w-a must be positive and l-a nonnegative")
    if not args.k0_a > 0:
        raise ValueError("k0-a must be positive")
    if args.k0_a >= min(wa):
        raise ValueError("k0-a must lie below every barrier top w-a")
    out = _outdir(args)
    cells = kmax_table(args.k0_a, wa, la, scan_points=args.scan_points)
    manifest = _manifest("table1", {
        "k0_a": args.k0_a, "w_a": list(wa), "l_a": list(la),
        "scan_points": args.scan_points, "out": str(args.out),
    })
    rows = [(c.w_a, c.l_a, c.kmax_a, "*" if c.boundary_dominated else "")
            for c in cells]
    _write_csv(out / "table1.csv", manifest, ["w_a", "L_a", "kmax_a", "flag"], rows)

    # wide, human-readable grid with the boundary-dominated star markers
    mark = {(c.w_a, c.l_a): "*" if c.boundary_dominated else f"{c.kmax_a:.4f}"
            for c in cells}
    _write_csv(out / "table1_grid.csv",
               {"subcommand": "table1 (grid layout; * = boundary-dominated)",
                "parameters": {}},
               ["L_a\\w_a"] + [_fmt(w) for w in wa],
               [(f"{lv:.2f}", *(mark[wv, lv] for wv in wa)) for lv in la])
    manifest["outputs"] = ["table1.csv", "table1_grid.csv"]
    _write_manifest(out, manifest)
    return 0


def cmd_rates(args) -> int:
    ns = args.n or [0.2, 0.4, 0.6, 0.8, 1.0]
    if any(not 0.0 < n <= 1.0 for n in ns):
        raise ValueError("every n must lie in (0, 1]")
    if not 0 < args.alpha_min < args.alpha_max < math.inf:
        raise ValueError("need 0 < alpha-min < alpha-max, both finite")
    if args.alpha_steps < 2:
        raise ValueError("alpha-steps must be at least 2")
    out = _outdir(args)
    alphas = np.geomspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    rows = rate_table(ns, alphas)
    notes = [_NONCOMMUTING_NOTE] if any(n == 1.0 for n in ns) else []
    manifest = _manifest("rates", {
        "n": list(ns), "alpha_min": args.alpha_min, "alpha_max": args.alpha_max,
        "alpha_steps": args.alpha_steps, "out": str(args.out),
    }, notes=notes)
    _write_csv(out / "rates.csv", manifest, ["alpha", "n", "R_T", "R_phi"], rows)
    manifest["outputs"] = ["rates.csv"]
    _write_manifest(out, manifest)
    return 0


def cmd_distortion(args) -> int:
    if not (args.k0_a > 0 and args.w_a > args.k0_a):
        raise ValueError("need 0 < k0-a < w-a")
    out = _outdir(args)
    rep = distortion_onset(GaussianSpectrum(k0=args.k0_a), args.w_a)
    manifest = _manifest("distortion", {
        "w_a": args.w_a, "k0_a": args.k0_a, "out": str(args.out),
    }, notes=["onset candidates disagree; onset_numeric is authoritative"])
    cols = ["w_a", "k0_a", "onset_numeric", "onset_linear_candidate",
            "onset_sqrt_candidate", "onset_quadratic_limit",
            "gaussian_logderiv", "t_logderiv_numeric",
            "t_logderiv_quadratic", "t_logderiv_linear_variant"]
    row = (rep.w, rep.k0, rep.onset_numeric, rep.onset_linear_candidate,
           rep.onset_sqrt_candidate, rep.onset_quadratic_limit,
           rep.gaussian_logderiv, rep.t_logderiv_numeric,
           rep.t_logderiv_quadratic, rep.t_logderiv_linear_variant)
    _write_csv(out / "distortion.csv", manifest, cols, [row])
    manifest["outputs"] = ["distortion.csv"]
    manifest["diagnostics"] = dataclasses.asdict(rep)
    _write_manifest(out, manifest)
    return 0


def cmd_cutoff(args) -> int:
    w_a = args.w_a
    k0_a = args.k0_a if args.k0_a is not None else 0.5 * w_a
    if not (k0_a > 0 and w_a > 0):
        raise ValueError("need positive w-a and k0-a")
    deltas = args.delta if args.delta is not None else [0.1, 0.3]
    if any(not 0.0 <= d < 1.0 for d in deltas):
        raise ValueError("every delta must lie in [0, 1)")
    xs = _x_grid(args, args.x_min)
    out = _outdir(args)
    spec = GaussianSpectrum(k0=k0_a)
    rows = []
    tail_metrics = {}
    estimates = {}
    # always include the untruncated reference profile
    for delta in [None] + list(deltas):
        k_cut = k0_a + 8.0 if delta is None else (1.0 - delta) * w_a
        mag = np.abs(cutoff_packet_profile(spec, xs, k_cut).psi)
        peak = mag.max()
        label = "none" if delta is None else _fmt(delta)
        for xv, mv in zip(xs, mag):
            rows.append((label, k_cut, xv, mv, mv / peak))
        tail = mag[(np.abs(xs) >= 5.0) & (np.abs(xs) <= 9.0)]
        tail_metrics[label] = float(tail.max() / peak) if len(tail) else None
        if delta is not None and delta > 0.0:
            estimates[label] = cutoff_time_estimate(delta, w_a)
    manifest = _manifest("cutoff", {
        "w_a": w_a, "k0_a": k0_a, "delta": list(deltas),
        "x_min": args.x_min, "x_max": args.x_max, "x_points": args.x_points,
        "out": str(args.out),
    }, diagnostics={"tail_metric_by_delta": tail_metrics,
                    "opaque_time_estimate_by_delta": estimates})
    _write_csv(out / "cutoff_profiles.csv", manifest,
               ["delta", "k_cut_a", "x_a", "abs_psi", "abs_psi_over_peak"], rows)
    manifest["outputs"] = ["cutoff_profiles.csv"]
    _write_manifest(out, manifest)
    return 0


def _parse_common_packet(args) -> tuple[GaussianSpectrum, BarrierConfig]:
    if not (args.k0_a > 0 and args.w_a > args.k0_a):
        raise ValueError("need 0 < k0-a < w-a (tunneling regime)")
    if args.l_a is None or args.l_a < 0:
        raise ValueError("l-a must be nonnegative")
    for name in ("t_min", "t_max", "x_min", "x_max"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"{name.replace('_', '-')} must be finite")
    return (GaussianSpectrum(k0=args.k0_a),
            BarrierConfig(w=args.w_a, width=args.l_a))


def _write_snapshots(out: Path, prefix: str, label: str, fields) -> list[str]:
    """One CSV per snapshot, headed by its time; returns the file names."""
    files = [f"{prefix}_{i:03d}.csv" for i in range(len(fields))]
    for name, fld in zip(files, fields):
        _write_csv(out / name,
                   {"subcommand": label, "parameters": {"t": _fmt(fld.t)}},
                   ["x", "re_psi", "im_psi", "abs2"],
                   zip(fld.x, fld.psi.real, fld.psi.imag, fld.density))
    return files


def cmd_packet(args) -> int:
    spec, barrier = _parse_common_packet(args)
    quad = QuadratureSpec(tol=args.tolerance)
    x_min = max(args.x_min, barrier.half_width)
    xs = _x_grid(args, x_min, "max(x-min, L/2)")
    out = _outdir(args)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    snapshots, achieved, _ = ensure_converged(
        lambda q: synthesize_transmitted(spec, barrier, xs, ts, quad=q), quad)
    files = _write_snapshots(out, "packet", "packet snapshot", snapshots)
    rep = transmission_timing_report(spec, barrier, quad=quad)
    timing = {k: (str(v) if isinstance(v, bool) else v)
              for k, v in dataclasses.asdict(rep).items()}
    manifest = _manifest("packet", {
        "w_a": args.w_a, "k0_a": args.k0_a, "l_a": args.l_a,
        "x_min": x_min, "x_max": args.x_max, "x_points": args.x_points,
        "t_min": args.t_min, "t_max": args.t_max, "t_steps": args.t_steps,
        "tolerance": args.tolerance, "out": str(args.out),
    }, diagnostics={"quadrature_change_on_doubling": achieved,
                    "timing": timing})
    _write_csv(out / "packet_timing.csv", manifest,
               list(timing), [tuple(timing.values())])
    manifest["outputs"] = files + ["packet_timing.csv"]
    _write_manifest(out, manifest)
    return 0


def cmd_collide(args) -> int:
    spec, barrier = _parse_common_packet(args)
    quad = QuadratureSpec(tol=args.tolerance)
    xs = _x_grid(args, args.x_min)
    out = _outdir(args)
    t_sync = collision_sync_time(spec, barrier)
    t_lo = max(args.t_min, t_sync)
    ts = np.linspace(t_lo, args.t_max, args.t_steps)
    snapshots, achieved, _ = ensure_converged(
        lambda q: synthesize_collision(spec, barrier, xs, ts, quad=q), quad)
    files = _write_snapshots(out, "collide", "collision snapshot", snapshots)
    rep = collision_timing_report(spec, barrier, quad=quad)
    manifest = _manifest("collide", {
        "w_a": args.w_a, "k0_a": args.k0_a, "l_a": args.l_a,
        "x_min": args.x_min, "x_max": args.x_max, "x_points": args.x_points,
        "t_min": t_lo, "t_max": args.t_max, "t_steps": args.t_steps,
        "tolerance": args.tolerance, "out": str(args.out),
    }, diagnostics={"quadrature_change_on_doubling": achieved,
                    **dataclasses.asdict(rep)})
    manifest["outputs"] = files
    _write_manifest(out, manifest)
    return 0


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
    t1.add_argument("--scan-points", type=int, default=4096)
    t1.add_argument("--out", default="out")
    t1.set_defaults(func=cmd_table1)

    rt = sub.add_parser("rates", help="transit- and scattering-time rates vs alpha")
    rt.add_argument("--n", type=float, action="append")
    rt.add_argument("--alpha-min", type=float, default=1e-4)
    rt.add_argument("--alpha-max", type=float, default=1e3)
    rt.add_argument("--alpha-steps", type=int, default=241)
    rt.add_argument("--out", default="out")
    rt.set_defaults(func=cmd_rates)

    ds = sub.add_parser("distortion", help="onset width for a boundary local "
                                           "maximum of the modulated spectrum")
    ds.add_argument("--w-a", type=float, default=1.5)
    ds.add_argument("--k0-a", type=float, default=1.0)
    ds.add_argument("--out", default="out")
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
    co.add_argument("--out", default="out")
    co.set_defaults(func=cmd_cutoff)

    pk = sub.add_parser("packet", help="transmitted-packet snapshots and "
                                       "arrival-vs-prediction report")
    pk.add_argument("--w-a", type=float, default=4.0)
    pk.add_argument("--k0-a", type=float, default=1.0)
    pk.add_argument("--l-a", type=float, default=0.2)
    pk.add_argument("--x-min", type=float, default=0.0)
    pk.add_argument("--x-max", type=float, default=12.0)
    pk.add_argument("--x-points", type=int, default=1201)
    pk.add_argument("--t-min", type=float, default=0.0)
    pk.add_argument("--t-max", type=float, default=2.0)
    pk.add_argument("--t-steps", type=int, default=5)
    pk.add_argument("--tolerance", type=float, default=1e-8)
    pk.add_argument("--out", default="out")
    pk.set_defaults(func=cmd_packet)

    cl = sub.add_parser("collide", help="symmetric two-packet collision snapshots")
    cl.add_argument("--w-a", type=float, default=16.0)
    cl.add_argument("--k0-a", type=float, default=8.0)
    cl.add_argument("--l-a", type=float, default=0.1)
    cl.add_argument("--x-min", type=float, default=-16.0)
    cl.add_argument("--x-max", type=float, default=16.0)
    cl.add_argument("--x-points", type=int, default=1601)
    cl.add_argument("--t-min", type=float, default=-1.0)
    cl.add_argument("--t-max", type=float, default=1.5)
    cl.add_argument("--t-steps", type=int, default=5)
    cl.add_argument("--tolerance", type=float, default=1e-8)
    cl.add_argument("--out", default="out")
    cl.set_defaults(func=cmd_collide)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"tunneltimes: parameter error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"tunneltimes: convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
