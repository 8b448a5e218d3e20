"""Seeded operations for the three benchmark workloads.

An operation is one or more `tunneltimes` CLI invocations run back to
back.  The first operation of every run uses the CLI defaults exactly, so
its artifacts can be compared with the recorded reference values; later
operations draw physical parameters from the seed.  Grid, scan and
quadrature sizes are never drawn: the seed changes the physics, not the
amount of work.  The ranges keep every drawn operation valid (exit code
0, quadrature converged on the first doubling).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# table1's default barrier scales (w a); the drawn grids perturb each one
TABLE1_WA = (1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0)

WORKLOADS = ("tables", "transmit", "collide")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI argument lists without --out."""

    index: int
    commands: tuple[tuple[str, ...], ...]

    @property
    def is_default(self) -> bool:
        return self.index == 0


def _num(x: float) -> str:
    return f"{x:.6g}"


def _tables(rng: random.Random) -> tuple[tuple[str, ...], ...]:
    k0 = rng.uniform(0.8, 1.2)
    table1 = ["table1", "--k0-a", _num(k0)]
    for wa in TABLE1_WA:
        table1 += ["--w-a", _num(wa * rng.uniform(0.97, 1.03))]
    rates = ["rates"]
    for n in sorted(rng.uniform(0.1, 1.0) for _ in range(5)):
        rates += ["--n", _num(n)]
    dw = rng.uniform(1.3, 2.0)
    distortion = ["distortion", "--w-a", _num(dw),
                  "--k0-a", _num(rng.uniform(0.6, dw - 0.3))]
    cutoff = ["cutoff", "--w-a", _num(rng.uniform(3.5, 4.5))]
    for delta in sorted(rng.uniform(0.05, 0.45) for _ in range(2)):
        cutoff += ["--delta", _num(delta)]
    return tuple(tuple(c) for c in (table1, rates, distortion, cutoff))


def _packet(rng: random.Random, name: str, w: float, k0: float,
            l: float) -> tuple[tuple[str, ...], ...]:
    return ((name, "--w-a", _num(w * rng.uniform(0.9, 1.1)),
             "--k0-a", _num(k0 * rng.uniform(0.9, 1.1)),
             "--l-a", _num(l * rng.uniform(0.8, 1.2))),)


_DEFAULTS = {
    "tables": (("table1",), ("rates",), ("distortion",), ("cutoff",)),
    "transmit": (("packet",),),
    "collide": (("collide",),),
}

_DRAW = {
    "tables": _tables,
    "transmit": lambda rng: _packet(rng, "packet", 4.0, 1.0, 0.2),
    "collide": lambda rng: _packet(rng, "collide", 16.0, 8.0, 0.1),
}


def operations(workload: str, seed: int):
    """Endless stream of operations for `workload`, reproducible from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    yield Op(0, _DEFAULTS[workload])
    index = 1
    while True:
        yield Op(index, _DRAW[workload](rng))
        index += 1
