"""Output checks for every benchmark operation.

Every invocation is checked against invariants that need no stored
values: exit code 0, a parseable manifest naming files that exist, every
CSV cell finite, and per-subcommand physics bounds (k_max in [k0, w], the
criterion-10 collision residuals, a converged quadrature).  Default-
parameter invocations are also compared with `reference.json`, recorded
from the program by running this file:

    python3 bench/check.py

Tolerances are no tighter than the accuracy the program states for each
number: half a unit of the fourth decimal printed by table1, the 1e-8
quadrature tolerance on |psi| (relative to the peak, with a factor 10 of
headroom), the relative 1e-6 bisection on the distortion onset, and
round-off for closed forms.  The check runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# non-numeric CSV cells the program writes on purpose
_TOKENS = {"", "*", "none", "True", "False"}

# criterion-10 thresholds for the collision exactness properties
_SYMMETRY_MAX = 1e-10
_SPECTRAL_MAX = 1e-8

# (absolute, relative) tolerance per observed quantity; a missing entry
# means exact equality (flags and booleans)
TOLERANCES = {
    "table1": {"kmax_a": (5e-5, 0.0)},
    "rates": {"R_T": (0.0, 1e-9), "R_phi": (0.0, 1e-9)},
    "distortion": {
        "onset_numeric": (0.0, 1e-5), "t_logderiv_numeric": (0.0, 1e-5),
        "t_logderiv_quadratic": (0.0, 1e-5),
        "t_logderiv_linear_variant": (0.0, 1e-5),
        "onset_linear_candidate": (0.0, 1e-9),
        "onset_sqrt_candidate": (0.0, 1e-9),
        "onset_quadratic_limit": (0.0, 1e-9),
        "gaussian_logderiv": (0.0, 1e-9),
    },
    "cutoff": {"abs_psi_over_peak": (1e-7, 0.0)},
    "packet": {
        "abs_psi_over_peak": (1e-7, 0.0), "k_max": (1e-8, 0.0),
        "t_spm": (0.0, 1e-8), "tau": (0.0, 1e-12),
        "delay_measured": (1e-6, 0.0), "discrepancy": (1e-6, 0.0),
        "containment_outside": (0.0, 1e-9),
        "filter_shift_sigmas": (1e-8, 0.0),
    },
    "collide": {
        "abs_psi_over_peak": (1e-7, 0.0), "t_sync": (0.0, 1e-12),
        "delay_predicted": (0.0, 1e-9), "delay_measured": (1e-6, 0.0),
        "velocity_fit": (0.0, 1e-6),
    },
}

_ROW_STRIDE = 10  # keep every 10th row of long profiles in the reference


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    header: list[str] | None = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path.name}: no header line")
    return header, rows


def _column(header, rows, name) -> list[float]:
    j = header.index(name)
    return [float(r[j]) for r in rows]


def _nonfinite_cells(path: Path) -> list[str]:
    header, rows = read_csv(path)
    bad = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            bad.append(f"{path.name} row {i}: {len(row)} cells, header has {len(header)}")
            continue
        for cell in row:
            if cell in _TOKENS:
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"{path.name} row {i}: cell {cell!r} is not finite")
    return bad


def _snapshot_files(outdir: Path, prefix: str) -> list[Path]:
    return sorted(outdir.glob(f"{prefix}_[0-9][0-9][0-9].csv"))


def _snapshots(outdir: Path, prefix: str) -> list[list[float]]:
    """|psi| per snapshot file, normalised to the largest |psi| of the set."""
    mags = []
    for path in _snapshot_files(outdir, prefix):
        header, rows = read_csv(path)
        mags.append([math.sqrt(v) for v in _column(header, rows, "abs2")])
    peak = max(max(m) for m in mags)
    return [[v / peak for v in m] for m in mags]


def observe(cmd: str, outdir: Path) -> dict[str, list]:
    """Quantities of one invocation's artifacts that the reference pins."""
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    diag = manifest["diagnostics"]
    if cmd == "table1":
        header, rows = read_csv(outdir / "table1.csv")
        return {"kmax_a": _column(header, rows, "kmax_a"),
                "flag": [r[header.index("flag")] for r in rows]}
    if cmd == "rates":
        header, rows = read_csv(outdir / "rates.csv")
        rows = rows[::_ROW_STRIDE]
        return {"R_T": _column(header, rows, "R_T"),
                "R_phi": _column(header, rows, "R_phi")}
    if cmd == "distortion":
        return {key: [diag[key]] for key in TOLERANCES["distortion"]}
    if cmd == "cutoff":
        header, rows = read_csv(outdir / "cutoff_profiles.csv")
        return {"abs_psi_over_peak":
                _column(header, rows[::_ROW_STRIDE], "abs_psi_over_peak"),
                "delta": [r[0] for r in rows[::_ROW_STRIDE]]}
    if cmd == "packet":
        timing = diag["timing"]
        obs = {key: [timing[key]] for key in TOLERANCES["packet"]
               if key != "abs_psi_over_peak"}
        for flag in ("boundary_dominated", "multimodal", "filter_effect"):
            obs[flag] = [timing[flag]]
        obs["abs_psi_over_peak"] = [v for m in _snapshots(outdir, "packet")
                                    for v in m[::_ROW_STRIDE]]
        return obs
    if cmd == "collide":
        obs = {key: [diag[key]] for key in TOLERANCES["collide"]
               if key != "abs_psi_over_peak"}
        obs["abs_psi_over_peak"] = [v for m in _snapshots(outdir, "collide")
                                    for v in m[::_ROW_STRIDE]]
        return obs
    raise ValueError(f"no observation defined for subcommand {cmd!r}")


def compare(cmd: str, got: dict[str, list], want: dict[str, list]) -> list[str]:
    problems = []
    tols = TOLERANCES[cmd]
    for key, ref in want.items():
        val = got.get(key)
        if val is None or len(val) != len(ref):
            problems.append(f"{cmd}: {key} has {0 if val is None else len(val)} "
                            f"values, reference has {len(ref)}")
            continue
        if key not in tols:
            if val != ref:
                problems.append(f"{cmd}: {key} differs from the reference")
            continue
        atol, rtol = tols[key]
        worst = max(range(len(ref)), key=lambda i: abs(val[i] - ref[i])
                    - atol - rtol * abs(ref[i]))
        err = abs(val[worst] - ref[worst])
        if not err <= atol + rtol * abs(ref[worst]):
            problems.append(f"{cmd}: {key}[{worst}] = {val[worst]!r}, reference "
                            f"{ref[worst]!r} (|diff| {err:.3g} > {atol:g} + "
                            f"{rtol:g} * |ref|)")
    return problems


def _invariants(cmd: str, outdir: Path, manifest: dict) -> list[str]:
    params = manifest["parameters"]
    diag = manifest["diagnostics"]
    problems = []
    if cmd == "table1":
        _, rows = read_csv(outdir / "table1.csv")
        if len(rows) != len(params["w_a"]) * len(params["l_a"]):
            problems.append(f"table1: {len(rows)} rows for a "
                            f"{len(params['w_a'])}x{len(params['l_a'])} grid")
        k0 = params["k0_a"]
        for row in rows:
            w, kmax, flag = float(row[0]), float(row[2]), row[3]
            # k_max = k0 exactly at L = 0, where |T| = 1
            if not k0 <= kmax <= w:
                problems.append(f"table1: k_max {kmax} outside [k0, w] = [{k0}, {w}]")
            if flag == "*" and kmax != w:
                problems.append(f"table1: boundary-dominated cell has k_max {kmax} != w {w}")
    elif cmd == "rates":
        header, rows = read_csv(outdir / "rates.csv")
        if len(rows) != len(params["n"]) * params["alpha_steps"]:
            problems.append(f"rates: {len(rows)} rows")
        for name in ("R_T", "R_phi"):
            if min(_column(header, rows, name)) <= 0.0:
                problems.append(f"rates: non-positive {name}")
    elif cmd == "distortion":
        if not diag["onset_numeric"] > 0.0:
            problems.append("distortion: onset_numeric is not positive")
    elif cmd == "cutoff":
        _, rows = read_csv(outdir / "cutoff_profiles.csv")
        labels = {r[0] for r in rows}
        if len(labels) != 1 + len(params["delta"]):
            problems.append(f"cutoff: {len(labels)} profiles")
        for label in labels:
            rel = [float(r[4]) for r in rows if r[0] == label]
            if abs(max(rel) - 1.0) > 1e-12 or min(rel) < 0.0:
                problems.append(f"cutoff: profile {label} is not normalised to its peak")
    elif cmd in ("packet", "collide"):
        snaps = _snapshot_files(outdir, cmd)
        if len(snaps) != params["t_steps"]:
            problems.append(f"{cmd}: {len(snaps)} snapshots, expected {params['t_steps']}")
        for path in snaps:
            if len(read_csv(path)[1]) != params["x_points"]:
                problems.append(f"{cmd}: {path.name} has the wrong number of rows")
        change = diag["quadrature_change_on_doubling"]
        if not change < params["tolerance"]:
            problems.append(f"{cmd}: quadrature change {change} >= tolerance")
        if cmd == "collide":
            if not diag["symmetry_residual"] < _SYMMETRY_MAX:
                problems.append(f"collide: symmetry residual {diag['symmetry_residual']}")
            for key in ("spectral_residual_max", "spectral_residual_integrated"):
                if not diag[key] < _SPECTRAL_MAX:
                    problems.append(f"collide: {key} {diag[key]}")
    return problems


def check(cmd: str, outdir: Path, exit_code: int,
          reference: dict[str, list] | None = None) -> list[str]:
    """Problems found in one invocation's artifacts; empty when correct."""
    if exit_code != 0:
        return [f"{cmd}: exit code {exit_code}"]
    try:
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        problems = []
        csvs = [outdir / name for name in manifest["outputs"]]
        if cmd == "table1":
            csvs.append(outdir / "table1_grid.csv")
        for path in csvs:
            if not path.is_file():
                problems.append(f"{cmd}: listed output {path.name} is missing")
            else:
                problems += _nonfinite_cells(path)
        if problems:
            return problems
        problems += _invariants(cmd, outdir, manifest)
        if reference is not None:
            problems += compare(cmd, observe(cmd, outdir), reference)
        return problems
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{cmd}: unreadable artifacts ({type(exc).__name__}: {exc})"]


def load_reference() -> dict[str, dict[str, list]]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def record_reference(workdir: Path) -> dict[str, dict[str, list]]:
    """Run every subcommand at its defaults and observe the artifacts."""
    from tunneltimes.cli import main

    ref = {}
    for cmd in TOLERANCES:
        out = workdir / cmd
        shutil.rmtree(out, ignore_errors=True)
        code = main([cmd, "--out", str(out)])
        problems = check(cmd, out, code)
        if problems:
            raise RuntimeError("; ".join(problems))
        ref[cmd] = observe(cmd, out)
    return ref


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    work = HERE.parent / ".bench_work" / "reference"
    # one line per observed quantity
    ref = record_reference(work)
    REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(cmd)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(val)}" for key, val in obs.items())
        + "\n }" for cmd, obs in ref.items()) + "\n}\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {REFERENCE}")
