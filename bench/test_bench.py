"""Tests of the benchmark itself: checks, span arithmetic, workloads.

Run from the repository root with `python3 -m pytest -q bench`.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

import calibrate
import check
import run
import spans
import workloads


@pytest.fixture(scope="module")
def program():
    return run.import_program()


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


def _replace_cell(path, row, col, value):
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].split(",")
    cells[col] = value
    lines[data[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_default_table1_matches_reference_and_perturbation_fails(program, reference, tmp_path):
    out = tmp_path / "table1"
    assert program.cli.main(["table1", "--out", str(out)]) == 0
    assert check.check("table1", out, 0, reference["table1"]) == []
    # k_max of (w a = 1.5, L/a = 0.1) is 1.0235; a shift in the fourth
    # decimal is outside the printed accuracy
    _replace_cell(out / "table1.csv", 1, 2, "1.0237")
    problems = check.check("table1", out, 0, reference["table1"])
    assert len(problems) == 1 and "kmax_a[1]" in problems[0]


def test_invariants_need_no_reference(program, tmp_path):
    out = tmp_path / "table1"
    assert program.cli.main(["table1", "--w-a", "4", "--l-a", "0.5",
                             "--out", str(out)]) == 0
    assert check.check("table1", out, 0) == []
    _replace_cell(out / "table1.csv", 0, 2, "4.5")   # above the barrier top
    assert any("outside [k0, w]" in p for p in check.check("table1", out, 0))
    _replace_cell(out / "table1.csv", 0, 2, "nan")
    assert any("not finite" in p for p in check.check("table1", out, 0))
    assert check.check("table1", out, 2) == ["table1: exit code 2"]


def test_perturbed_artifact_raises_failed_count(program):
    """A run whose program writes a corrupted CSV counts the operation failed."""

    def corrupting_main(argv):
        code = program.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "rates":
            _replace_cell(out / "rates.csv", 3, 2, "inf")
        return code

    fake = SimpleNamespace(cli=SimpleNamespace(main=corrupting_main))
    result = run.measure(fake, "tables", seed=0, seconds=0.0, trace=False)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    clean = run.measure(program, "tables", seed=0, seconds=0.0, trace=False)
    assert (clean["attempted"], clean["failed"]) == (1, 0)


def test_calibration_follows_each_operation(program):
    result = run.measure(program, "tables", seed=0, seconds=0.0, trace=False)
    (op_s,), cal = result["samples"]["op_s"], result["samples"]["cal_s"]
    assert sum(cal) >= run.CAL_SHARE * op_s > sum(cal[:-1])
    assert len(result["setup"]) == run.SETUP_SAMPLES


def test_calibrator_child_ends_on_close():
    calibrator = calibrate.Calibrator("collide")
    assert calibrator.sample() > 0.0
    calibrator.close()
    assert calibrator.proc.returncode == 0


def test_self_times_of_synthetic_tree():
    rec = spans.SpanRecorder()
    rec.spans = [
        ["cli.main", 0.0, 10.0, -1, True],
        ["packets.synthesize_incident", 1.0, 6.0, 0, True],
        ["barrier.transmission_modulus", 2.0, 3.0, 1, True],
        ["barrier.transmission_modulus", 4.0, 5.0, 1, True],
        ["numerics.golden_section_max", 7.0, 9.0, 0, True],
        ["barrier.transmission_modulus", 7.5, 8.0, 4, True],
    ]
    assert spans.self_times(rec.spans) == [3.0, 3.0, 1.0, 1.0, 1.5, 0.5]
    m = spans.layer_metrics(rec)
    assert m["cli.self_s"] == 3.0
    assert m["packets.self_s"] == m["packets.synthesis.self_s"] == 3.0
    assert m["barrier.self_s"] == 2.5
    assert m["numerics.self_s"] == 1.5
    assert m["spectrum.self_s"] == m["phase_times.self_s"] == 0.0
    table = spans.function_table([rec])
    assert table["barrier.transmission_modulus"] == (3, 2.5, 2.5)
    assert table["cli.main"] == (1, 10.0, 3.0)


def test_traced_run_covers_every_layer_and_restores_program(program, tmp_path):
    originals = {name: getattr(program.packets, name)
                 for name in ("synthesize_incident", "transmission_modulus")}
    rec = spans.SpanRecorder()
    op = workloads.Op(1, (("table1", "--w-a", "4", "--l-a", "0.5"),
                          ("rates", "--alpha-steps", "3"),
                          ("cutoff", "--x-points", "101")))
    times, problems = run.run_op(program, op, {}, tmp_path, rec)
    assert problems == []
    for name, fn in originals.items():
        assert getattr(program.packets, name) is fn
    m = spans.layer_metrics(rec)
    for layer in spans.LAYERS:
        assert m[f"{layer}.self_s"] > 0.0, layer
    roots = [s for s in rec.spans if s[3] == -1]
    assert len(roots) == 3
    assert math.isclose(sum(m[f"{layer}.self_s"] for layer in spans.LAYERS),
                        sum(end - start for _, start, end, _, _ in roots))
    # three cut-off profiles (uncut, 0.1, 0.3) on 101 points x 24*48 nodes
    assert m["packets.synthesize_incident.calls"] == 3
    assert m["packets.phase_elems"] == 3 * 101 * 24 * 48
    assert m["spectrum.find_kmax.calls"] == 1
    assert m["spectrum.find_kmax.scan_points"] == 4096
    assert m["barrier.scalar_calls"] > 0
    # table1.csv and the grid one row each, 5 n x 3 alphas, 3 x 101 profile rows
    assert rec.counts["cli.rows_written"] == 2 + 15 + 3 * 101


def test_workloads_are_seeded():
    def first(workload, seed, n=4):
        ops = workloads.operations(workload, seed)
        return [next(ops) for _ in range(n)]

    for workload in workloads.WORKLOADS:
        ops = first(workload, 7)
        assert ops[0].is_default
        assert ops[0].commands == workloads._DEFAULTS[workload]
        assert ops == first(workload, 7)
        assert ops[1:] != first(workload, 8)[1:]
