"""Benchmark of the `tunneltimes` CLI: three workloads, untraced or traced.

Usage, from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 36 --trace 0

Each run imports the package from `src/` and runs operations of the
workload in a closed loop (one client, the next operation starts when the
previous one ends) until `--seconds` have passed.  Every operation calls
`tunneltimes.cli.main` in-process and its artifacts are checked outside
the timed region.  Between operations the run times samples of a fixed
calibration kernel, so that operation time can be reported in units of
the machine's current speed (see bench/calibrate.py), and set-up in fresh
interpreters, spread evenly over the run.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs each
operation twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the
last line of standard output is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): with two OpenBLAS threads the cutoff
# invocation ranged 0.30-0.62 s, against a steady 0.33-0.36 s with one.
# Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate
import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# set-up samples, spread evenly over the run
SETUP_SAMPLES = 10
# calibration time after each operation, as a share of the operation's time
CAL_SHARE = 0.25
_SETUP_CODE = ("import time; t = time.perf_counter(); import tunneltimes.cli as c; "
               "c.build_parser(); print(repr(time.perf_counter() - t))")

# per-layer unit by name suffix, first match wins; anything else is a count
_UNITS = (("per_s", "1/s"), ("_s", "s"), (".s", "s"), ("bytes_computed", "B"),
          ("bytes_written", "B"))


def import_program():
    """Import `tunneltimes` from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import tunneltimes
    import tunneltimes.cli  # noqa: F401  (loads every layer)

    where = Path(tunneltimes.__file__).resolve().parent
    if where != SRC / "tunneltimes":
        raise ImportError(f"tunneltimes imported from {where}, not {SRC}")
    return tunneltimes


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy) -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_sample() -> float:
    """Import plus build_parser() in a fresh interpreter, seconds."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _artifact_counts(outdir: Path) -> tuple[int, int]:
    """(bytes, CSV data rows) written by one invocation."""
    size = rows = 0
    for path in outdir.iterdir():
        size += path.stat().st_size
        if path.suffix == ".csv":
            rows += sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                        if not line.startswith("#")) - 1
    return size, rows


def run_op(program, op: workloads.Op, reference: dict, work: Path,
           recorder: spans.SpanRecorder | None = None):
    """Run one operation; returns (seconds per subcommand, problems)."""
    times = {}
    problems = []
    for argv in op.commands:
        cmd = argv[0]
        out = work / cmd
        shutil.rmtree(out, ignore_errors=True)
        full = list(argv) + ["--out", str(out)]
        code = None
        start = time.perf_counter()
        try:
            if recorder is None:
                code = program.cli.main(full)
            else:
                with spans.instrumented(program, recorder), recorder.span("cli.main"):
                    start = time.perf_counter()
                    code = program.cli.main(full)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an operation that crashes counts as failed
            problems.append(f"{cmd}: raised\n{traceback.format_exc()}")
        finally:
            times[cmd] = time.perf_counter() - start
        if code is not None:
            problems += check.check(cmd, out, code,
                                    reference.get(cmd) if op.is_default else None)
        if recorder is not None and out.is_dir():
            size, rows = _artifact_counts(out)
            recorder.counts["cli.bytes_written"] += size
            recorder.counts["cli.rows_written"] += rows
    return times, problems


def _median_and_tail(values: list[float]) -> str:
    """Median, plus the highest listed percentile with >= 10 samples above it."""
    text = f"n={len(values)}, median {statistics.median(values):.6g}"
    for q in (99, 90, 75):
        if len(values) * (100 - q) >= 1000:
            cut = statistics.quantiles(values, n=100)[q - 1]
            return text + f", p{q} {cut:.6g}"
    return text


def _cal_block(calibrator: calibrate.Calibrator, budget: float) -> list[float]:
    """Calibration samples until `budget` seconds are spent, at least one."""
    block = [calibrator.sample()]
    while sum(block) < budget:
        block.append(calibrator.sample())
    return block


def measure(program, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = check.load_reference()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calibrator = None
    try:
        # warm the CLI's own code paths (argparse, CSV and manifest writing)
        program.cli.main(["rates", "--alpha-steps", "2", "--out", str(work / "warm")])
        calibrator = calibrate.Calibrator(workload)
        setup = []
        samples = defaultdict(list)
        layer = defaultdict(list)
        recorders = []
        attempted = failed = 0
        ops = workloads.operations(workload, seed)
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < seconds:
            op = next(ops)
            attempted += 1
            times, problems = run_op(program, op, reference, work)
            for cmd, t in times.items():
                samples[f"{cmd}_s"].append(t)
            op_s = sum(times.values())
            samples["op_s"].append(op_s)
            # calibrate after every operation, so that the kernel sees the
            # same phases of the machine's speed as the operations
            samples["cal_s"] += _cal_block(calibrator, CAL_SHARE * op_s)
            if len(setup) * seconds < SETUP_SAMPLES * (time.perf_counter() - start):
                setup.append(setup_sample())
            if trace:
                rec = spans.SpanRecorder()
                traced, more = run_op(program, op, reference, work, rec)
                problems += more
                recorders.append(rec)
                layer["trace.overhead_s"].append(sum(traced.values()) - sum(times.values()))
                for key, value in spans.layer_metrics(rec).items():
                    layer[key].append(value)
            if problems:
                failed += 1
                print(f"operation {op.index} failed: {op.commands}", file=sys.stderr)
                for line in problems:
                    print(f"  {line}", file=sys.stderr)
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    finally:
        if calibrator is not None:
            calibrator.close()
        shutil.rmtree(work, ignore_errors=True)
    return {"samples": dict(samples), "setup": setup, "layer": dict(layer),
            "recorders": recorders, "attempted": attempted, "failed": failed}


def _unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()
    env = environment()
    run = measure(program, args.workload, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run['attempted']} operations, {run['failed']} failed, "
          f"failed_frac {run['failed'] / run['attempted']:.6g}")
    setup = run["setup"]
    print(f"# setup_s: {_median_and_tail(setup)}, min {min(setup):.6g} s")
    for name, values in sorted(run["samples"].items()):
        print(f"# {name}: {_median_and_tail(values)} s")
    print(f"# peak_rss_mb: {peak_rss_mb:.6g} MB (n=1)")
    if args.trace:
        # times and rates: median per traced operation; counts: those of the
        # default-parameter operation, which every seed runs first
        metrics = {}
        for name, values in sorted(run["layer"].items()):
            unit = _unit(name)
            value = values[0] if unit in ("count", "B") else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        errors = sum(rec.counts["trace.counter_errors"] for rec in run["recorders"])
        if errors:
            print(f"# {errors} work counters could not read their call's arguments")
        table = spans.function_table(run["recorders"])
        ops = len(run["recorders"])
        total = sum(own for _, _, own in table.values())
        print("# per traced operation: calls, inclusive s, self s, self share")
        for name, (calls, incl, own) in table.items():
            print(f"#   {name:40s} {calls / ops:9.1f} {incl / ops:10.5f} "
                  f"{own / ops:10.5f} {own / total:7.3f}")
    else:
        metrics = {
            "setup_s": {"value": min(setup), "unit": "s"},
            "op_rel": {"value": statistics.median(run["samples"]["op_s"])
                       / statistics.median(run["samples"]["cal_s"]), "unit": "x"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not finite")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "setup_s": setup,
              "samples": run["samples"], "metrics": metrics,
              "spans": [{"op": i, "spans": rec.spans, "counts": dict(rec.counts)}
                        for i, rec in enumerate(run["recorders"])]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
