import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import tunneltimes
from tunneltimes import (BarrierConfig, ConvergenceError, GaussianSpectrum,
                         QuadratureSpec, cli, containment_outside,
                         cutoff_packet_profile, synthesize_collision)
from tunneltimes.cli import _CSV_BLOCK, _TABLE1_WA, _fmt, _write_csv, main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    header = None
    rows = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, comments


class TestTable1:
    def test_small_run_and_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["table1", "--w-a", 4.0, "--l-a", 0.0, "--l-a", 0.5, "--out"]
        assert run(args + [a]) == 0
        assert run(args + [b]) == 0
        # data artifacts are byte-identical regardless of the output dir
        for name in ("table1.csv", "table1_grid.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma["parameters"].pop("out")
        mb["parameters"].pop("out")
        assert ma == mb
        # and a literal rerun into the same dir leaves identical bytes
        before = (a / "manifest.json").read_bytes()
        assert run(args + [a]) == 0
        assert (a / "manifest.json").read_bytes() == before
        header, rows, _ = read_csv(a / "table1.csv")
        assert header == ["w_a", "L_a", "kmax_a", "flag"]
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows[1][2]) == pytest.approx(2.1155, abs=1e-3)

    def test_default_table_runs_under_benchmark_tracer(self, tmp_path):
        # bench/spans.py wraps every binding of the traced functions and
        # computes work counters from their arguments; a counter that cannot
        # read an argument, or raises on it, must not appear on the default
        # 77-cell table (bench/test_bench.py runs only a one-cell table)
        spec = importlib.util.spec_from_file_location("spans", BENCH / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        rec = spans.SpanRecorder()
        with spans.instrumented(tunneltimes, rec):
            code = main(["table1", "--out", str(tmp_path)])
        assert code == 0
        assert rec.counts["trace.counter_errors"] == 0
        assert rec.counts["spectrum.find_kmax.calls"] == 1

    def test_manifest_records_leakage(self, tmp_path):
        # every default cell leaks (k0 = 1 sits one sigma above k = 0);
        # k0 = 8 under w = 16 and 20 is contained
        assert run(["table1", "--out", tmp_path / "a"]) == 0
        diag = json.loads((tmp_path / "a" / "manifest.json").read_text())["diagnostics"]
        assert diag["leaky_cells"] == 77
        assert diag["containment_outside_by_w_a"] == {
            _fmt(w): containment_outside(GaussianSpectrum(k0=1.0),
                                         BarrierConfig(w=w, width=0.0))
            for w in _TABLE1_WA}
        assert run(["table1", "--k0-a", 8.0, "--w-a", 16.0, "--w-a", 20.0,
                    "--out", tmp_path / "b"]) == 0
        diag = json.loads((tmp_path / "b" / "manifest.json").read_text())["diagnostics"]
        assert diag["leaky_cells"] == 0

    def test_star_cells_marked(self, tmp_path):
        assert run(["table1", "--w-a", 1.5, "--l-a", 0.7, "--l-a", 0.8,
                    "--out", tmp_path]) == 0
        _, rows, _ = read_csv(tmp_path / "table1.csv")
        flags = {float(r[1]): r[3] for r in rows}
        assert flags[0.7] == ""
        assert flags[0.8] == "*"
        grid = (tmp_path / "table1_grid.csv").read_text()
        assert ",*" in grid

    def test_rerun_from_manifest_reproduces(self, tmp_path):
        a = tmp_path / "a"
        assert run(["table1", "--w-a", 2.0, "--l-a", 0.3, "--out", a]) == 0
        params = json.loads((a / "manifest.json").read_text())["parameters"]
        b = tmp_path / "b"
        argv = ["table1", "--k0-a", params["k0_a"],
                "--scan-points", params["scan_points"], "--out", b]
        for wv in params["w_a"]:
            argv += ["--w-a", wv]
        for lv in params["l_a"]:
            argv += ["--l-a", lv]
        assert run(argv) == 0
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()

    def test_invalid_parameters_exit_2(self, tmp_path):
        assert run(["table1", "--k0-a", -1.0, "--out", tmp_path]) == 2
        assert run(["table1", "--k0-a", 5.0, "--w-a", 4.0, "--out", tmp_path]) == 2
        assert run(["table1", "--scan-points", 2, "--out", tmp_path]) == 2

    def test_custom_k0_respects_bracket(self, tmp_path):
        assert run(["table1", "--k0-a", 0.5, "--w-a", 1.5, "--w-a", 4.0,
                    "--l-a", 0.0, "--l-a", 0.4, "--l-a", 0.8,
                    "--out", tmp_path]) == 0
        _, rows, _ = read_csv(tmp_path / "table1.csv")
        for r in rows:
            if r[3] != "*":
                assert 0.5 - 1e-9 <= float(r[2]) <= float(r[0]) + 1e-9


class TestRates:
    def test_header_and_limits(self, tmp_path):
        assert run(["rates", "--n", 0.5, "--n", 1.0, "--alpha-min", 1e-4,
                    "--alpha-max", 1e3, "--alpha-steps", 25,
                    "--out", tmp_path]) == 0
        header, rows, comments = read_csv(tmp_path / "rates.csv")
        assert header == ["alpha", "n", "R_T", "R_phi"]
        first = rows[0]
        assert float(first[2]) == pytest.approx(2.0, abs=1e-3)
        assert float(first[3]) == pytest.approx(3.0, abs=1e-3)
        last_n_half = [r for r in rows if float(r[1]) == 0.5][-1]
        assert float(last_n_half[2]) < 1e-2
        assert float(last_n_half[3]) < 1e-2

    def test_underflowing_alpha_gives_finite_cells(self, tmp_path):
        # alpha^2 underflows at the bottom of this range, where the n = 1
        # series is 0/0 unless alpha^2 is divided out
        assert run(["rates", "--alpha-min", 1e-320, "--out", tmp_path]) == 0
        _, rows, _ = read_csv(tmp_path / "rates.csv")
        assert all(np.isfinite(float(cell)) for row in rows for cell in row)

    def test_noncommuting_note_present_with_n1(self, tmp_path):
        assert run(["rates", "--n", 1.0, "--alpha-steps", 5, "--out", tmp_path]) == 0
        _, _, comments = read_csv(tmp_path / "rates.csv")
        assert any("do not commute" in c for c in comments)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert any("do not commute" in n for n in manifest["notes"])

    def test_validation(self, tmp_path):
        assert run(["rates", "--n", 1.5, "--out", tmp_path]) == 2
        assert run(["rates", "--alpha-min", 0.0, "--out", tmp_path]) == 2
        # alpha^2 overflows
        assert run(["rates", "--alpha-max", 1e200, "--out", tmp_path]) == 2
        # rejected before geomspace, which warns on a non-finite bound
        for bound in ("inf", "nan"):
            assert run(["rates", "--alpha-max", bound, "--out", tmp_path]) == 2


class TestDistortion:
    def test_default_run(self, tmp_path):
        assert run(["distortion", "--out", tmp_path]) == 0
        header, rows, _ = read_csv(tmp_path / "distortion.csv")
        # bench/check.py reads these columns by name
        assert header == ["w_a", "k0_a", "onset_numeric", "onset_linear_candidate",
                          "onset_sqrt_candidate", "onset_quadratic_limit",
                          "gaussian_logderiv", "t_logderiv_numeric",
                          "t_logderiv_quadratic", "t_logderiv_linear_variant"]
        row = dict(zip(header, rows[0]))
        assert float(row["onset_linear_candidate"]) == pytest.approx(0.4082, abs=1e-3)
        assert float(row["onset_sqrt_candidate"]) == pytest.approx(0.7071, abs=1e-3)
        assert float(row["onset_numeric"]) == pytest.approx(0.7837, abs=2e-3)

    def test_validation(self, tmp_path):
        assert run(["distortion", "--w-a", 1.0, "--k0-a", 1.0, "--out", tmp_path]) == 2
        # w^2 overflows: BarrierConfig rejects the barrier
        assert run(["distortion", "--w-a", 1e300, "--out", tmp_path]) == 2

    def test_large_and_infinite_w(self, tmp_path):
        # the onset tends to sqrt(1.5) as w grows: a closed form, no bracket
        assert run(["distortion", "--w-a", 40, "--out", tmp_path]) == 0
        header, rows, _ = read_csv(tmp_path / "distortion.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["onset_numeric"]) == pytest.approx(1.2095965996567382, rel=1e-11)
        assert run(["distortion", "--w-a", "inf", "--out", tmp_path]) == 2


class TestCutoff:
    def test_default_run_tail_growth(self, tmp_path):
        assert run(["cutoff", "--x-points", 801, "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        tails = manifest["diagnostics"]["tail_metric_by_delta"]
        assert tails["none"] < tails["0.1"] < tails["0.3"]
        est = manifest["diagnostics"]["opaque_time_estimate_by_delta"]
        assert est["0.1"] == pytest.approx(2.0 / (4.0 * 0.1), rel=1e-12)
        # window edges: k0 + 8 uncut, (1 - delta) w cut
        _, rows, _ = read_csv(tmp_path / "cutoff_profiles.csv")
        k_cut = {r[0]: float(r[1]) for r in rows}
        assert k_cut == pytest.approx({"none": 10.0, "0.1": 3.6, "0.3": 2.8})

    def test_records_quadrature_change(self, tmp_path):
        # at the defaults every profile, the uncut one included, passed the
        # gate's 1e-8
        assert run(["cutoff", "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        changes = manifest["diagnostics"]["quadrature_change_by_delta"]
        assert set(changes) == {"none", "0.1", "0.3"}
        assert all(0.0 <= c < 1e-8 for c in changes.values())

    def test_validation(self, tmp_path):
        assert run(["cutoff", "--delta", 1.0, "--out", tmp_path]) == 2
        assert run(["cutoff", "--w-a", "inf", "--out", tmp_path]) == 2
        # the cut spectra have no weight below (1 - delta) w: all-zero profiles
        assert run(["cutoff", "--k0-a", 100, "--out", tmp_path]) == 2
        # k^2 of the uncut window k0 + 8 overflows: nan cells before
        assert run(["cutoff", "--w-a", 1e160, "--out", tmp_path]) == 2


@pytest.mark.parametrize("args, message", [
    # the packet grid starts at max(x-min, L/2) = 15, past x-max = 12
    (["packet", "--l-a", 30], "x-max = 12 must exceed max(x-min, L/2) = 15"),
    (["collide", "--x-min", 3, "--x-max", 3], "x-max = 3 must exceed x-min = 3"),
    (["cutoff", "--x-min", 3, "--x-max", 3], "x-max = 3 must exceed x-min = 3"),
])
def test_empty_x_window_is_named(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # snapshots were written in descending time
    (["packet", "--t-min", 3, "--t-max", 1], "t-max = 1 must not precede t-min = 3"),
    # the collision starts at t_sync = -L/(2 k0) = -0.00625 at the defaults
    (["collide", "--t-max", -3], "t-max = -3 must not precede max(t-min, t_sync) = -0.00625"),
    (["collide", "--t-min", 1, "--t-max", 0.5],
     "t-max = 0.5 must not precede max(t-min, t_sync) = 1"),
])
def test_reversed_t_window_is_named(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # checked before np.linspace, which warns on an infinite end
    (["cutoff", "--x-max", "inf"], "x-max must be finite"),
    (["cutoff", "--x-points", 0], "x-points = 0 must be at least 3"),
    (["packet", "--x-points", 2], "x-points = 2 must be at least 3"),
    (["collide", "--x-min=-inf"], "x-min must be finite"),
    (["packet", "--t-steps", -1], "t-steps = -1 must be at least 1"),
    (["collide", "--t-steps", 0], "t-steps = 0 must be at least 1"),
    (["collide", "--t-max=-5"], "t-max = -5 must not precede max(t-min, t_sync)"),
    (["cutoff", "--w-a", "1e160"], "the k window's ends must have finite squares"),
    # one finiteness check over every float flag, lists included
    (["table1", "--w-a", 2.0, "--w-a", "nan"], "w-a must be finite"),
    (["packet", "--l-a", "inf"], "l-a must be finite"),
    (["cutoff", "--k0-a", "inf"], "k0-a must be finite"),
    # named by the CLI before the library's "tol" and "scan_points" checks
    (["packet", "--tolerance", 0], "tolerance = 0 must be positive"),
    (["collide", "--tolerance", -1], "tolerance = -1 must be positive"),
    (["table1", "--scan-points", 2], "scan-points = 2 must be at least 3"),
    # each timing report's times are of order 1/k0: the collision report's
    # overflowed in numpy, and the transmission report's window of dt = 0.002
    # steps, which no flag sets, was blamed on dt
    (["collide", "--k0-a", "1e-320"], "k0 = 1e-320 is too small"),
    (["packet", "--k0-a", 0.005], "at k0 = 0.005 holds 1.351e+06 steps"),
    (["packet", "--k0-a", "1e-305"], "at k0 = 1e-305 holds inf steps"),
    # the rates once named only alpha, with alpha^2 finite
    (["rates", "--alpha-max", "1e200"],
     "alpha-max = 1e+200 must not exceed sqrt(max float) = 1.34078079299e+154"),
])
def test_bad_grid_flag_is_named(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert run(args + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_packet_and_collide_share_one_flag_set_and_out_comes_last():
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]

    def flags(command):
        return [(a.option_strings, a.type) for a in sub.choices[command]._actions]

    assert flags("packet") == flags("collide")
    assert [names for names, _ in flags("packet")] == [
        ["-h", "--help"], ["--w-a"], ["--k0-a"], ["--l-a"], ["--x-min"], ["--x-max"],
        ["--x-points"], ["--t-min"], ["--t-max"], ["--t-steps"], ["--tolerance"], ["--out"]]
    for command, parser in sub.choices.items():
        assert parser._actions[-1].option_strings == ["--out"], command
    # each command keeps its own defaults
    defaults = {command: {k: v for k, v in vars(sub.choices[command].parse_args([])).items()
                          if k != "func"}
                for command in ("packet", "collide")}
    assert defaults == {
        "packet": dict(w_a=4.0, k0_a=1.0, l_a=0.2, x_min=0.0, x_max=12.0, x_points=1201,
                       t_min=0.0, t_max=2.0, t_steps=5, tolerance=1e-8, out="out"),
        "collide": dict(w_a=16.0, k0_a=8.0, l_a=0.1, x_min=-16.0, x_max=16.0, x_points=1601,
                        t_min=-1.0, t_max=1.5, t_steps=5, tolerance=1e-8, out="out")}


@pytest.mark.parametrize("command", ["table1", "packet"])
def test_spectrum_below_the_scan_window_exits_2(tmp_path, capsys, command):
    # at w a = 1e10 the k_max scan starts at 1e-9 w = 10, above the whole
    # spectrum (k0 a = 1): table1 once wrote k_max = 10, and packet all-zero
    # snapshots with a delay of 0
    out = tmp_path / "out"
    assert run([command, "--w-a", "1e10", "--l-a", "1e-12", "--out", out]) == 2
    assert "k_max cannot be resolved" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, report", [
    ("packet", "transmission_timing_report"),
    ("collide", "collision_timing_report"),
])
def test_convergence_failure_leaves_no_output(tmp_path, monkeypatch, command, report):
    # collide runs its report after its snapshots, packet before them
    def fail(*args, **kwargs):
        raise ConvergenceError("forced")
    monkeypatch.setattr(cli, report, fail)
    out = tmp_path / "out"
    assert run([command, "--x-points", 101, "--t-steps", 2, "--out", out]) == 3
    assert not out.exists()


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_under_a_file_exits_2_before_computing(tmp_path, capsys, monkeypatch, under):
    def fail(*args, **kwargs):
        raise AssertionError("computed before out was checked")
    monkeypatch.setattr(cli, "rate_table", fail)
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"keep me\n")
    out = blocker / under if under else blocker
    assert run(["rates", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"out = {out}" in err and "is not a directory" in err
    assert blocker.read_bytes() == b"keep me\n"


class TestPacketCmd:
    def test_snapshots_and_timing(self, tmp_path):
        assert run(["packet", "--x-points", 401, "--x-max", 8.0,
                    "--t-steps", 3, "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["diagnostics"]["quadrature_change_on_doubling"] < 1e-8
        snap = (tmp_path / "packet_000.csv").read_text().splitlines()
        assert snap[1].startswith("# t = ")
        assert snap[2] == "x,re_psi,im_psi,abs2"
        cols = snap[3].split(",")
        assert len(cols) == 4
        re, im, d = float(cols[1]), float(cols[2]), float(cols[3])
        assert d == pytest.approx(re * re + im * im, rel=1e-9, abs=1e-30)
        timing = manifest["diagnostics"]["timing"]
        assert timing["k_max"] == pytest.approx(1.6571, abs=1e-3)
        # the report's own gate estimate, in the manifest and the CSV
        header, rows, _ = read_csv(tmp_path / "packet_timing.csv")
        change = float(rows[0][header.index("quadrature_change")])
        assert change == pytest.approx(timing["quadrature_change"], rel=1e-11)
        assert 0.0 <= change < 1e-8

    def test_validation(self, tmp_path, capsys):
        assert run(["packet", "--k0-a", 5.0, "--out", tmp_path]) == 2
        assert run(["packet", "--t-steps", 0, "--out", tmp_path]) == 2
        capsys.readouterr()
        assert run(["packet", "--x-points", 0, "--out", tmp_path]) == 2
        assert "x-points = 0 must be at least 3" in capsys.readouterr().err
        assert run(["packet", "--l-a", "nan", "--out", tmp_path]) == 2
        assert run(["packet", "--w-a", "inf", "--out", tmp_path]) == 2
        for opt, val in (("--t-max", "nan"), ("--t-min", "-inf"),
                         ("--x-min", "nan"), ("--x-max", "inf"),
                         ("--tolerance", "inf")):
            assert run(["packet", f"{opt}={val}", "--out", tmp_path]) == 2

    def test_boundary_dominated_run_writes_strict_json(self, tmp_path):
        # L = 1.5: no interior maximum beats k = w, and t_spm, tau, band and
        # discrepancy come from k_max = w instead of being written as NaN
        assert run(["packet", "--l-a", 1.5, "--out", tmp_path]) == 0

        def no_constant(name):
            raise ValueError(f"{name} in manifest.json")

        manifest = json.loads((tmp_path / "manifest.json").read_text(),
                              parse_constant=no_constant)
        timing = manifest["diagnostics"]["timing"]
        assert timing["boundary_dominated"] == "True"
        assert timing["k_max"] == 4.0
        assert timing["spm_reliable"] == "False"
        for path in tmp_path.glob("*.csv"):
            _, rows, _ = read_csv(path)
            assert not any(cell.lower() == "nan" for row in rows for cell in row)

    def test_unreachable_tolerance_exits_3(self, tmp_path):
        assert run(["packet", "--tolerance", 1e-30, "--x-points", 101,
                    "--x-max", 4.0, "--t-steps", 2, "--out", tmp_path]) == 3


class TestCollideCmd:
    def test_symmetric_snapshots(self, tmp_path):
        assert run(["collide", "--x-points", 801, "--t-steps", 3,
                    "--t-max", 0.5, "--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        diag = manifest["diagnostics"]
        assert diag["symmetry_residual"] < 1e-10
        assert diag["spectral_residual_max"] < 1e-12
        assert 0.0 <= diag["quadrature_change"] < 1e-8
        assert diag["delay_measured"] == pytest.approx(diag["delay_predicted"],
                                                       rel=0.02)
        # snapshots themselves are mirror symmetric
        snap = (tmp_path / "collide_000.csv").read_text().splitlines()[3:]
        dens = np.array([float(line.split(",")[3]) for line in snap])
        assert np.abs(dens - dens[::-1]).max() < 1e-10 * dens.max()

    def test_validation(self, tmp_path):
        assert run(["collide", "--k0-a", 20.0, "--w-a", 16.0, "--out", tmp_path]) == 2
        assert run(["collide", "--w-a", "inf", "--out", tmp_path]) == 2
        assert run(["collide", "--l-a", "nan", "--out", tmp_path]) == 2
        assert run(["collide", "--t-steps", 0, "--out", tmp_path]) == 2
        for opt, val in (("--t-max", "nan"), ("--t-min", "nan"),
                         ("--x-min", "-inf"), ("--x-max", "nan"),
                         ("--tolerance", "inf")):
            assert run(["collide", f"{opt}={val}", "--out", tmp_path]) == 2

    def test_written_snapshots_meet_tolerance(self, tmp_path):
        # on this wide grid the first doublings from the 4-panel start miss
        # the tolerance (the gate first passes at 32 -> 64 panels); the files
        # must hold an evaluation whose doubling passed, so they match a
        # fixed rule of more than twice the panels the gate returned
        assert run(["collide", "--x-min=-200", "--x-max=200", "--x-points", 401,
                    "--t-steps", 2, "--out", tmp_path]) == 0
        p = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
        xs = np.linspace(p["x_min"], p["x_max"], p["x_points"])
        ts = np.linspace(p["t_min"], p["t_max"], p["t_steps"])
        doubled = synthesize_collision(
            GaussianSpectrum(k0=p["k0_a"]),
            BarrierConfig(w=p["w_a"], width=p["l_a"]), xs, ts,
            quad=QuadratureSpec(panels=96))
        for i, fine in enumerate(doubled):
            _, rows, comments = read_csv(tmp_path / f"collide_{i:03d}.csv")
            assert comments[1] == f"# t = {fine.t:.12g}"
            cells = np.array(rows, dtype=float)
            np.testing.assert_array_equal(cells[:, 0], xs)
            mag = np.hypot(cells[:, 1], cells[:, 2])
            ref = np.abs(fine.psi)
            assert np.abs(mag - ref).max() / ref.max() < p["tolerance"]


def _per_cell_csv(header, columns, rows):
    """The writer's text by the per-cell rule it replaced: the oracle."""
    title, parameters, notes = header
    lines = [f"# tunneltimes {title}"]
    lines += [f"# {k} = {v}" for k, v in sorted(parameters.items())]
    lines += [f"# note: {note}" for note in notes]
    lines.append(",".join(columns))
    lines += [",".join(c if isinstance(c, str) else f"{c:.12g}" for c in row)
              for row in rows]
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    HEADER = ("demo", {"b": 2.0, "a": [1, 2]}, ["a note"])
    AWKWARD = [-0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf,
               np.nan, 0.1 + 0.2, 2**70, True, 1, 0, np.float64(-2.5e-17),
               np.float64(np.pi), np.int64(-7), np.int64(2**62), np.float32(0.1)]

    def check(self, path, columns, rows):
        _write_csv(path, self.HEADER, columns, iter(rows))
        assert path.read_bytes() == _per_cell_csv(
            self.HEADER, columns, rows).encode("utf-8")

    def test_header_only(self, tmp_path):
        self.check(tmp_path / "empty.csv", ["x", "y"], [])
        text = (tmp_path / "empty.csv").read_text()
        assert text.endswith("# note: a note\nx,y\n")

    def test_awkward_numbers(self, tmp_path):
        self.check(tmp_path / "one.csv", ["v"], [(v,) for v in self.AWKWARD])
        # every value in every column
        rows = [tuple(self.AWKWARD[i:] + self.AWKWARD[:i])
                for i in range(len(self.AWKWARD))]
        cols = [f"c{i}" for i in range(len(self.AWKWARD))]
        self.check(tmp_path / "wide.csv", cols, rows)

    def test_snapshot_rows_of_numpy_scalars(self, tmp_path):
        x = np.linspace(-16.0, 16.0, 201)
        psi = np.exp(1j * 3.0 * x - x * x) * 1e-3
        self.check(tmp_path / "snap.csv", ["x", "re_psi", "im_psi", "abs2"],
                   list(zip(x, psi.real, psi.imag, np.abs(psi) ** 2)))

    def test_text_columns(self, tmp_path):
        # cutoff: a text label first; table1: a text flag last, sometimes empty
        self.check(tmp_path / "cutoff.csv", ["delta", "k_cut_a", "x_a"],
                   [("none", 10.0, np.float64(-1.5)),
                    ("0.1", 3.6, np.float64(0.1 + 0.2))])
        self.check(tmp_path / "table1.csv", ["w_a", "L_a", "kmax_a", "flag"],
                   [(1.5, 0.7, 1.4999, ""), (1.5, 0.8, 1.5, "*")])
        # packet_timing.csv: booleans as text between numbers
        timing = {"k_max": np.float64(1.6571), "boundary_dominated": "False",
                  "tau": 0.0375, "within_band": "True", "n": 3,
                  "filter_shift_sigmas": -0.0}
        self.check(tmp_path / "timing.csv", list(timing), [tuple(timing.values())])

    def test_text_in_a_numeric_column_raises(self, tmp_path):
        with pytest.raises(TypeError):
            _write_csv(tmp_path / "bad.csv", self.HEADER, ["x", "flag"],
                       [(1.0, ""), ("1.0", "*")])


class TestWriteCsvBlocks:
    """The writer streams its rows in blocks of `_CSV_BLOCK`; the CLI hands
    it text and Python floats.  Both are checked against the oracle."""

    @pytest.mark.parametrize("n", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                                   2 * _CSV_BLOCK + 1])
    def test_block_boundaries(self, tmp_path, n):
        # the CLI's own inputs: x as text formatted once, the rest Python
        # floats; the oracle reads the numpy scalars they came from
        x = np.linspace(-3.0, 5.0, n)
        psi = np.exp(1j * 2.5 * x - x * x / 4.0)
        cols = (x, psi.real, psi.imag, np.abs(psi) ** 2)
        rows = zip([_fmt(v) for v in x.tolist()], *(c.tolist() for c in cols[1:]))
        path = tmp_path / "blocks.csv"
        names = ["x", "re_psi", "im_psi", "abs2"]
        _write_csv(path, TestWriteCsv.HEADER, names, rows)
        expected = _per_cell_csv(TestWriteCsv.HEADER, names, list(zip(*cols)))
        assert path.read_bytes() == expected.encode("utf-8")
        assert len(path.read_text().splitlines()) == 5 + n

    def test_cutoff_file_matches_old_rows(self, tmp_path):
        # rows as cmd_cutoff built them before its columns were formatted once:
        # numpy scalars, with a float k_cut
        assert run(["cutoff", "--x-points", 101, "--out", tmp_path]) == 0
        params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
        params.pop("out")
        xs = np.linspace(params["x_min"], params["x_max"], params["x_points"])
        spec = GaussianSpectrum(k0=params["k0_a"])
        rows = []
        for delta in [None] + params["delta"]:
            k_cut = (params["k0_a"] + 8.0 if delta is None
                     else (1.0 - delta) * params["w_a"])
            mag = np.abs(cutoff_packet_profile(spec, xs, k_cut)[0].psi)
            label = "none" if delta is None else _fmt(delta)
            rows += [(label, k_cut, xv, mv, mv / mag.max()) for xv, mv in zip(xs, mag)]
        expected = _per_cell_csv(
            ("cutoff", params, []),
            ["delta", "k_cut_a", "x_a", "abs_psi", "abs_psi_over_peak"], rows)
        assert (tmp_path / "cutoff_profiles.csv").read_bytes() == expected.encode("utf-8")
