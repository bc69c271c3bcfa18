"""Benchmark of the freqborn CLI: fresh CLI processes, checked documents, traced layers.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload dense-table --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

``--trace 0`` runs each op of the workload as a fresh ``python -m
freqborn.cli`` child, one at a time (one client, serial closed loop), and
reports the end-to-end metrics.  ``--trace 1`` runs the same ops in-process
through ``freqborn.cli.main``, alternating untraced and traced passes, and
reports per-layer self times and counts.  Every document is checked by
``checker.py``.  The last line of stdout is one JSON object; a readable table
goes to stderr.  Spans and document hashes are written as JSON lines to
``.bench_work/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import checker
import ops
import tracer

SETUP_PROBES = 7  # traced runs; timed runs take one probe at the start of each pass
REFERENCE_ITEMS = 400_000
# Wall seconds of reference_s() on the machine the benchmark was sized on
# (design.json); timed_run rescales its wall times to this speed.
REFERENCE_S = 0.2
IMPORTTIME_PROBES = 3
OP_TIMEOUT_S = 90.0
DEFAULT_SEED = 0
# Accuracy metrics are reported as decimal digits, -log10(worst residual);
# a residual of exactly 0 reads as this floor.
RESIDUAL_FLOOR = 1e-17
WORK_ROOT = ".bench_work"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "mass_digits": "digits", "mean_digits": "digits", "var_digits": "digits",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package to run, or a probe failed)."""


@dataclass
class OpRun:
    elapsed: float
    exit_code: int
    text: str
    stderr: str = ""
    maxrss_kb: int = 0


def spawn(argv: list[str], env: dict, cwd: str, out_file: str | None = None) -> OpRun:
    """Run one child, timed from spawn to reaped exit; ru_maxrss comes from wait4."""
    if out_file is not None and os.path.exists(out_file):
        os.unlink(out_file)
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks: dict[str, bytes] = {}
    readers = [threading.Thread(target=lambda n=n, s=s: chunks.__setitem__(n, s.read()))
               for n, s in (("out", child.stdout), ("err", child.stderr))]
    for reader in readers:
        reader.start()
    timer = threading.Timer(OP_TIMEOUT_S, child.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:  # interrupted: leave no child behind, then re-raise
        child.kill()
        os.waitpid(child.pid, 0)
        raise
    finally:
        timer.cancel()
        for reader in readers:
            reader.join()
        child.stdout.close()
        child.stderr.close()
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    text = chunks["out"].decode()
    if out_file is not None and child.returncode == 0:
        with open(out_file) as handle:
            text = handle.read()
    return OpRun(elapsed, child.returncode, text, chunks["err"].decode(errors="replace"), usage.ru_maxrss)


def run_in_process(main, op: ops.Op, workdir: str) -> OpRun:
    """Run one op through ``freqborn.cli.main`` in this process, stdout captured."""
    out_file = os.path.join(workdir, op.out) if op.out else None
    if out_file is not None and os.path.exists(out_file):
        os.unlink(out_file)
    captured = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            main.main(list(op.args), prog_name="freqborn", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        print(f"op {' '.join(op.args)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = getattr(exc, "exit_code", 1)
    finally:
        elapsed = time.perf_counter() - start
        os.chdir(previous)
    text = captured.getvalue()
    if out_file is not None and code == 0:
        with open(out_file) as handle:
            text = handle.read()
    return OpRun(elapsed, code, text)


class DocumentLog:
    """Checks each distinct document once; repeats must be byte-identical."""

    def __init__(self, workload_ops: list[ops.Op], workdir: str, seed: int):
        self.ops, self.workdir, self.seed = workload_ops, workdir, seed
        self.first: dict[int, str] = {}
        self.verdicts: dict[tuple[int, str], checker.Verdict] = {}

    def record(self, index: int, run: OpRun) -> list[str]:
        op = self.ops[index]
        if run.exit_code != 0:
            return [f"exit code {run.exit_code}: {run.stderr.strip()[-300:]}"]
        digest = hashlib.sha256(run.text.encode()).hexdigest()
        problems = []
        if self.first.setdefault(index, digest) != digest:
            problems.append("document differs from an earlier run of the same invocation")
        if (index, digest) not in self.verdicts:
            rng = random.Random(f"{self.seed}:{index}")
            self.verdicts[index, digest] = checker.check(op.args, 0, run.text, self.workdir, rng)
        return problems + self.verdicts[index, digest].problems

    def digits(self, name: str) -> float:
        values = [getattr(v, name) for v in self.verdicts.values() if getattr(v, name) is not None]
        if not values:
            return 0.0
        return -math.log10(max(max(values), RESIDUAL_FLOOR))


class Bench:
    """One workload at one seed: its work directory, inputs, ops and checks."""

    def __init__(self, workload: str, seed: int):
        self.root = os.getcwd()
        self.src = os.path.join(self.root, "src")
        if not os.path.isfile(os.path.join(self.src, "freqborn", "cli.py")):
            raise BenchError(f"no freqborn package under {self.src}; run from the root of a checkout")
        self.workload, self.seed = workload, seed
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.workdir = os.path.abspath(os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}"))
        os.makedirs(self.workdir)
        self.ops = ops.build(workload, seed, self.workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (self.src, os.environ.get("PYTHONPATH"))))
        self.log = DocumentLog(self.ops, self.workdir, seed)
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def count(self, index: int, run: OpRun) -> None:
        self.attempted += 1
        problems = self.log.record(index, run)
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(self.ops[index].args)}", file=sys.stderr)
            for problem in problems[:5]:
                print(f"  {problem}", file=sys.stderr)

    def python(self, *args: str) -> OpRun:
        run = spawn([sys.executable, *args], self.env, self.root)
        if run.exit_code != 0:
            raise BenchError(f"{' '.join(args)} exited {run.exit_code}: {run.stderr.strip()[-500:]}")
        return run

    def check_import_location(self) -> None:
        """The children must import freqborn from this checkout, not from elsewhere."""
        found = self.python("-c", "import freqborn.cli, sys; sys.stdout.write(freqborn.cli.__file__)").text
        expected = os.path.join(self.src, "freqborn", "cli.py")
        if os.path.realpath(found) != os.path.realpath(expected):
            raise BenchError(f"children import freqborn from {found}, not {expected}")

    def setup_probes(self, count: int) -> list[float]:
        return [self.python("-c", "import freqborn.cli").elapsed for _ in range(count)]


def measured_passes(seconds: float, run_pass) -> list[float]:
    """Run passes until the next one would take the measured time past ``seconds``."""
    times: list[float] = []
    while not times or sum(times) + statistics.median(times) <= seconds:
        times.append(run_pass())
    return times


def reference_s() -> float:
    """Wall time of a fixed mix of interpreter-bound and array-bound work, run in this process.

    The shared host this benchmark was sized on slows down and speeds up by
    15-40% in spells that last from seconds to minutes.  The median of these
    samples over a run measures the speed the run had, and timed results are
    rescaled by it (see timed_run).  The mix, pure-Python loops and string
    formatting beside NumPy passes over 32 MB arrays, follows the two kinds of
    work the workloads do.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITEMS):
        total += i * i
    ",".join(map(repr, (i * 0.1 for i in range(REFERENCE_ITEMS // 4))))
    x = np.arange(10 * REFERENCE_ITEMS) * 1e-6
    y = np.exp(-x) + np.log1p(x)
    float(np.dot(y, x) + np.cumsum(y)[-1])
    return time.perf_counter() - start


def timed_run(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics from fresh CLI children, at the reference speed.

    A reference sample is taken before each setup probe and each op, and the
    run's wall times are multiplied by REFERENCE_S over the median sample, so
    that a run made during a slow spell of the host reads like one made during
    a fast one.  The wall times themselves go to stderr.
    """
    bench.check_import_location()
    setup: list[float] = []
    passes: list[float] = []
    references: list[float] = []
    peak_kb = 0

    def run_pass() -> float:
        nonlocal peak_kb
        start = time.perf_counter()
        # one probe per pass spreads the probes over the run
        references.append(reference_s())
        setup.extend(bench.setup_probes(1))
        total = 0.0
        for index, op in enumerate(bench.ops):
            references.append(reference_s())
            out_file = os.path.join(bench.workdir, op.out) if op.out else None
            run = spawn([sys.executable, "-m", "freqborn.cli", *op.args], bench.env, bench.workdir, out_file)
            total += run.elapsed
            peak_kb = max(peak_kb, run.maxrss_kb)
            bench.count(index, run)
        passes.append(total)
        return time.perf_counter() - start

    measured_passes(seconds, run_pass)
    speed = REFERENCE_S / statistics.median(references)
    log = bench.log
    metrics = {
        "setup_s": statistics.median(setup) * speed,
        "pass_s": statistics.median(passes) * speed,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - bench.failed / bench.attempted,
        "mass_digits": log.digits("mass_residual"),
        "mean_digits": log.digits("mean_dev"),
        "var_digits": log.digits("var_rel_dev"),
    }
    print(f"{bench.workload}: {len(passes)} passes of {len(bench.ops)} ops, wall seconds "
          f"{', '.join(f'{t:.2f}' for t in passes)}; setup probes {', '.join(f'{t:.3f}' for t in setup)} s; "
          f"reference median {statistics.median(references):.4f} s of {len(references)}, speed factor {speed:.4f}",
          file=sys.stderr)
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def import_times(bench: Bench) -> tuple[float, float]:
    """Median cumulative import seconds of freqborn.cli and of scipy.special."""
    cli, scipy_special = [], []
    for _ in range(IMPORTTIME_PROBES):
        stderr = bench.python("-X", "importtime", "-c", "import freqborn.cli").stderr
        cumulative = {}
        for line in stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        cli.append(cumulative["freqborn.cli"])
        scipy_special.append(cumulative.get("scipy.special", 0.0))
    return statistics.median(cli), statistics.median(scipy_special)


def machine_info() -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": sys.version.split()[0],
        **{name: importlib.metadata.version(name) for name in ("numpy", "scipy", "click")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset")
                             for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_run(bench: Bench, seconds: float) -> dict:
    bench.check_import_location()
    setup = statistics.median(bench.setup_probes(SETUP_PROBES))
    import_s, scipy_special_s = import_times(bench)
    sys.path.insert(0, bench.src)
    import freqborn.cli

    main = freqborn.cli.main
    untraced: list[float] = []
    traced: list[tuple[float, tracer.Tracer]] = []
    documents: dict[int, str] = {}

    def run_pass(trace: tracer.Tracer | None) -> float:
        total = 0.0
        for index, op in enumerate(bench.ops):
            if trace is not None:
                trace.op = index
            run = run_in_process(main, op, bench.workdir)
            total += run.elapsed
            bench.count(index, run)
            documents[index] = hashlib.sha256(run.text.encode()).hexdigest()
        return total

    def run_pair() -> float:
        untraced.append(run_pass(None))
        trace = tracer.Tracer()
        trace.install()
        try:
            traced.append((run_pass(trace), trace))
        finally:
            trace.uninstall()
        return untraced[-1] + traced[-1][0]

    measured_passes(seconds, run_pair)

    with open(os.path.join(BENCH_DIR, "golden.json")) as handle:
        golden = json.load(handle)
    if bench.seed == golden["seed"]:
        digests = [documents[i] for i in range(len(bench.ops))]
    else:
        reference = Bench(bench.workload, golden["seed"])
        try:
            digests = [hashlib.sha256(run_in_process(main, op, reference.workdir).text.encode()).hexdigest()
                       for op in reference.ops]
        finally:
            reference.close()
    doc_changed = sum(a != b for a, b in zip(digests, golden["sha256"][bench.workload]))

    metrics: dict[str, tuple[float, str]] = {}
    selfs = [tracer.self_times(trace.spans) for _, trace in traced]
    calls = [Counter(span[0] for span in trace.spans) for _, trace in traced]

    def median_of(name: str, per_pass) -> float:
        return statistics.median(p[name] for p in per_pass)

    modules = {"cli": [f"cli.{c}" for c in tracer.COMMANDS]}
    for module, functions in tracer.LAYERS.items():
        modules[module] = [f"{module}.{f}" for f in functions]
    for module, names in modules.items():
        for name in names:
            metrics[f"{name}.calls"] = (median_of(name, calls), "count")
            metrics[f"{name}.self_s"] = (median_of(name, selfs), "s")
        metrics[f"{module}.self_s"] = (statistics.median(sum(p[n] for n in names) for p in selfs), "s")
    counts = traced[-1][1].counts
    kernel = "combinatorics.occupancy_log_weights"
    for name in (f"{kernel}.sectors", f"{kernel}.sectors_zero", "decomposition.brute_force_decompose.sequences",
                 "continuum.read_wavefunction_csv.rows", "output.rows"):
        metrics[name] = (counts[name], "count")
    for name in (f"{kernel}.bytes_computed", "output.bytes"):
        metrics[name] = (counts[name], "bytes")
    sectors = counts[f"{kernel}.sectors"]
    metrics[f"{kernel}.useful_frac"] = ((sectors - counts[f"{kernel}.sectors_zero"]) / sectors, "ratio")
    metrics["output.doc_changed"] = (doc_changed, "count")
    metrics["setup.import_s"] = (import_s, "s")
    metrics["setup.scipy_special_s"] = (scipy_special_s, "s")
    metrics["setup.self_s"] = (setup * len(bench.ops), "s")
    traced_pass = statistics.median(t for t, _ in traced)
    metrics["trace.overhead_frac"] = (traced_pass / statistics.median(untraced) - 1.0, "ratio")
    metrics["trace.uncovered_s"] = (statistics.median(t - tracer.covered(tr.spans) for t, tr in traced), "s")

    write_trace_log(bench, traced, digests)
    print(f"{bench.workload}: {len(traced)} traced and {len(untraced)} untraced in-process passes; "
          f"{doc_changed} of {len(digests)} documents differ from golden.json", file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_trace_log(bench: Bench, traced, digests: list[str]) -> None:
    path = os.path.join(WORK_ROOT, f"trace-{bench.workload}-{bench.seed}.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"kind": "machine", **machine_info()}) + "\n")
        for index, digest in enumerate(digests):
            handle.write(json.dumps({"kind": "document", "op": index, "sha256": digest}) + "\n")
        for number, (_, trace) in enumerate(traced):
            for name, start, end, parent, op in trace.spans:
                handle.write(json.dumps({"kind": "span", "pass": number, "op": op, "name": name,
                                         "start": start, "end": end, "parent": parent}) + "\n")
    print(f"spans written to {path}", file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed)
    try:
        metrics = traced_run(bench, seconds) if trace else timed_run(bench, seconds)
    finally:
        bench.close()
    for name, metric in metrics.items():
        print(f"  {workload:14s} {name:52s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*ops.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the running child is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
