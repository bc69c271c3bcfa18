"""Seeded inputs and op lists for each benchmark workload.

An op is one ``freqborn`` invocation: its argument list and, when it writes
with ``--out``, the file it writes.  Paths in arguments are relative to the
run's work directory, so the documents (whose metadata echoes some paths) do
not depend on where the checkout lives.  The same seed gives the same ops and
the same input files byte for byte.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("dense-table", "concentration", "cold-calls")


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    out: str | None = None

    @property
    def command(self) -> str:
        return self.args[0]


def draw_a2(rng: random.Random) -> str:
    """A probability in [0.05, 0.95] with four decimals, as the CLI reads it."""
    return repr(rng.randint(500, 9500) / 10000)


def draw_three_level_amps(rng: random.Random) -> str:
    """Real amplitudes sqrt(p_i) of a 3-level state, each p_i >= 0.05 at four decimals.

    ``repr`` of each square root round-trips, so the squared amplitudes sum to 1
    within a few ulps, far inside the CLI's 1e-9 normalization gate.
    """
    first = rng.randint(500, 9000)
    second = rng.randint(500, 9500 - first)
    probs = (first / 10000, second / 10000, (10000 - first - second) / 10000)
    return ",".join(repr(math.sqrt(p)) for p in probs)


def draw_complex_amps(rng: random.Random) -> str:
    """Two complex amplitudes 'a+bi' with a seeded probability and phases."""
    a2 = rng.randint(500, 9500) / 10000
    parts = []
    for prob in (a2, 1.0 - a2):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        modulus = math.sqrt(prob)
        re, im = modulus * math.cos(phase), modulus * math.sin(phase)
        parts.append(f"{re!r}{im:+}i")
    return ",".join(parts)


def write_wavefunction(path: str, rng: random.Random, points: int, per_unit: int) -> str:
    """Write a normalized Gaussian wave packet on the grid x_k = (k - points//2) / per_unit.

    Every grid coordinate is an exact short decimal and every value is written
    with plain-float ``repr``, which the CLI's CSV reader parses back exactly.
    Returns a region 'lo:hi' whose edges sit halfway between grid points, so
    region membership has no boundary ties.
    """
    center = rng.uniform(-2.0, 2.0)
    width = rng.uniform(0.5, 1.5)
    momentum = rng.uniform(-3.0, 3.0)
    half = points // 2
    xs = [(k - half) / per_unit for k in range(points)]
    amplitudes = [math.exp(-((x - center) ** 2) / (4.0 * width * width)) for x in xs]
    norm = math.sqrt(math.fsum(a * a for a in amplitudes) / per_unit)
    with open(path, "w") as handle:
        handle.write("x,re,im\n")
        for x, a in zip(xs, amplitudes):
            a /= norm
            phase = momentum * x
            handle.write(f"{float(x)!r},{float(a * math.cos(phase))!r},{float(a * math.sin(phase))!r}\n")
    lo = center + width * rng.uniform(-2.0, -0.2)
    hi = center + width * rng.uniform(0.2, 2.0)

    def edge(value: float) -> str:
        return repr((2 * math.floor(value * per_unit) + 1) / (2 * per_unit))

    return f"{edge(lo)}:{edge(hi)}"


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's input files into ``workdir`` and return its op list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-table":
        return [
            Op(("decompose", "--a2", draw_a2(rng), "--n", "500000", "--out", "dense.csv"), "dense.csv"),
            Op(("decompose", "--a2", draw_a2(rng), "--n", "100000", "--format", "json")),
            Op(("decompose", "--amps", draw_three_level_amps(rng), "--n", "280", "--out", "multi.csv"), "multi.csv"),
            Op(("finite-run", "--a2", draw_a2(rng), "--n-inner", "250000")),
        ]
    if workload == "concentration":
        region = write_wavefunction(os.path.join(workdir, "psi.csv"), rng, 100_000, 5_000)
        a2 = draw_a2(rng)
        mode = round(float(a2) * 1000)
        return [
            Op(("scan", "--a2", draw_a2(rng), "--eps", "0.001", "--ns", "1000,100000,5000000")),
            Op(("cv", "--wavefunction", "psi.csv", "--region", region, "--n", "5000000", "--eps", "0.0005")),
            Op(("finite-run", "--a2", a2, "--n-inner", "1000", "--observed", str(mode + rng.randint(-5, 5)),
                "--outer", "5000000", "--eps", "0.001")),
            Op(("oracle-check", "--amps", draw_three_level_amps(rng), "--n", "11")),
        ]
    if workload == "cold-calls":
        region = write_wavefunction(os.path.join(workdir, "psi.csv"), rng, 401, 20)
        a2 = draw_a2(rng)
        mode = round(float(a2) * 100)
        return [
            Op(("decompose", "--a2", draw_a2(rng), "--n", "3")),
            Op(("decompose", "--amps", draw_complex_amps(rng), "--n", "100", "--format", "json")),
            Op(("decompose", "--amps", draw_three_level_amps(rng), "--n", "4")),
            Op(("scan", "--a2", draw_a2(rng), "--eps", "0.05", "--ns", "100,1000,10000")),
            Op(("bound", "--a2", draw_a2(rng), "--n", "100", "--eps", "0.1")),
            Op(("cv", "--wavefunction", "psi.csv", "--region", region, "--n", "10000", "--eps", "0.05")),
            Op(("finite-run", "--a2", a2, "--n-inner", "100", "--observed", str(mode + rng.randint(-3, 3)),
                "--outer", "10000", "--eps", "0.05")),
            Op(("oracle-check", "--a2", draw_a2(rng), "--n", "10")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
