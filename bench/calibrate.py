"""Fixed calibration kernel that measures how fast the machine runs right now.

On a shared virtual machine the same operation can take 1.5 times as long
from one minute to the next, because other tenants load the host.  A run
therefore interleaves samples of this kernel with its operations and
reports operation time in units of the kernel's time (`op_rel`).  Machine
speed cancels out of that ratio; a change to the program does not, since
the kernel uses no code of the program.

The kernel mimics the program's mix of work: a complex phase-matrix
product, as in packet synthesis, and a loop of scalar `math` calls, as in
the scalar barrier kernels.  The phase matrix is built in row blocks of
the workload's own size: small blocks like the chunked synthesis of
`packet` and `cutoff`, one large block like the whole-region synthesis of
`collide`.  The kernel runs in a child process, so that its memory does
not count in the run's peak resident memory.  It must not change once the
benchmark is in use: a changed kernel changes every `op_rel`.

    python3 bench/calibrate.py <workload>

reads one line per sample from standard input and answers each with the
sample's seconds.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, as in the benchmark run; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# workload -> rows of the phase matrix per block
BLOCK_ROWS = {"tables": 512, "transmit": 512, "collide": 3072}
_SCALAR_STEPS = 20000

_X = np.linspace(0.0, 12.0, 3072)
_K = np.linspace(1e-3, 4.0, 1152)
_AMP = np.exp(-0.25 * (_K - 1.0) ** 2 + 0.3j * _K)


def _kernel(rows: int) -> float:
    total = 0.0
    for lo in range(0, len(_X), rows):
        psi = np.exp(1j * np.outer(_X[lo:lo + rows], _K)) @ _AMP
        total += float(np.abs(psi).max())
    for i in range(1, _SCALAR_STEPS):
        k = 4.0 * i / _SCALAR_STEPS
        kappa = math.sqrt(16.0 - k * k) + 1e-9
        total += 1.0 / math.sqrt(1.0 + (8.0 * math.sinh(0.2 * kappa)) ** 2
                                 / (k * k * kappa * kappa))
    return total


def sample(workload: str) -> float:
    """Seconds taken by one run of the workload's kernel, in this process."""
    start = time.perf_counter()
    _kernel(BLOCK_ROWS[workload])
    return time.perf_counter() - start


class Calibrator:
    """Child process that times one kernel sample per request.

    Samples are requested between operations, never during one.  close()
    ends the child and waits for it.
    """

    def __init__(self, workload: str):
        if workload not in BLOCK_ROWS:
            raise ValueError(f"no calibration kernel for {workload!r}")
        # the run and its kernel share one processor, so that both see
        # the same contention; the child inherits the affinity
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended early")
        return float(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # the child ends at end of input
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    workload = sys.argv[1]
    sample(workload)  # warm-up
    for _ in sys.stdin:
        print(repr(sample(workload)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
