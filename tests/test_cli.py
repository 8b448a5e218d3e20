import json

import numpy as np
import pytest

from tunneltimes import (BarrierConfig, GaussianSpectrum, QuadratureSpec,
                         synthesize_collision)
from tunneltimes.cli import main


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


class TestDistortion:
    def test_default_run(self, tmp_path):
        assert run(["distortion", "--out", tmp_path]) == 0
        header, rows, _ = read_csv(tmp_path / "distortion.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["onset_linear_candidate"]) == pytest.approx(0.4082, abs=1e-3)
        assert float(row["onset_sqrt_candidate"]) == pytest.approx(0.7071, abs=1e-3)
        assert float(row["onset_numeric"]) == pytest.approx(0.7837, abs=2e-3)

    def test_validation(self, tmp_path):
        assert run(["distortion", "--w-a", 1.0, "--k0-a", 1.0, "--out", tmp_path]) == 2
        # w^2 overflows: BarrierConfig rejects the barrier
        assert run(["distortion", "--w-a", 1e300, "--out", tmp_path]) == 2


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

    def test_validation(self, tmp_path):
        assert run(["cutoff", "--delta", 1.0, "--out", tmp_path]) == 2
        assert run(["cutoff", "--w-a", "inf", "--out", tmp_path]) == 2
        # the cut spectra have no weight below (1 - delta) w: all-zero profiles
        assert run(["cutoff", "--k0-a", 100, "--out", tmp_path]) == 2


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

    def test_validation(self, tmp_path, capsys):
        assert run(["packet", "--k0-a", 5.0, "--out", tmp_path]) == 2
        assert run(["packet", "--t-steps", 0, "--out", tmp_path]) == 2
        capsys.readouterr()
        assert run(["packet", "--x-points", 0, "--out", tmp_path]) == 2
        assert "uniform grid" in capsys.readouterr().err
        assert run(["packet", "--l-a", "nan", "--out", tmp_path]) == 2
        assert run(["packet", "--w-a", "inf", "--out", tmp_path]) == 2
        for opt, val in (("--t-max", "nan"), ("--t-min", "-inf"),
                         ("--x-min", "nan"), ("--x-max", "inf"),
                         ("--tolerance", "inf")):
            assert run(["packet", f"{opt}={val}", "--out", tmp_path]) == 2

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
        # on this wide grid the first doubling (24 -> 48 panels) misses the
        # tolerance; the files must hold an evaluation whose doubling passed
        assert run(["collide", "--x-min=-200", "--x-max=200", "--x-points", 401,
                    "--t-steps", 2, "--out", tmp_path]) == 0
        p = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
        xs = np.linspace(p["x_min"], p["x_max"], p["x_points"])
        ts = np.linspace(p["t_min"], p["t_max"], p["t_steps"])
        doubled = synthesize_collision(
            GaussianSpectrum(k0=p["k0_a"]),
            BarrierConfig(w=p["w_a"], width=p["l_a"]), xs, ts,
            quad=QuadratureSpec(panels=2 * QuadratureSpec().panels))
        for i, fine in enumerate(doubled):
            _, rows, comments = read_csv(tmp_path / f"collide_{i:03d}.csv")
            assert comments[1] == f"# t = {fine.t:.12g}"
            cells = np.array(rows, dtype=float)
            np.testing.assert_array_equal(cells[:, 0], xs)
            mag = np.hypot(cells[:, 1], cells[:, 2])
            ref = np.abs(fine.psi)
            assert np.abs(mag - ref).max() / ref.max() < p["tolerance"]
