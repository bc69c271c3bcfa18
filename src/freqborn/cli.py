"""Command-line surface: every analysis emitted as a reproducible CSV/JSON document.

Exit codes: 0 success, 2 usage error, 3 capacity error, 4 numerical-contract
violation.  Identical invocations produce byte-identical documents.  Across
CPUs, every sum is exactly rounded and prints the same bits on any SIMD path
or BLAS core; the kernel's ``log`` and the one ``exp`` that makes each sector
weight, in :class:`~freqborn.decomposition.FrequencyDecomposition`, follow
numpy's SIMD loops, so tail weights, and the documents that print or sum them,
are byte-identical only on the same CPU class.  As a process, the CLI flushes
stdout and stderr and then ends without interpreter teardown (see :func:`run`),
so no ``atexit`` handler runs; calling :func:`main` from Python exits as usual.

freqborn makes no BLAS call.  Importing this module loads numpy with one
OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set, and leaves that
variable as it found it, so a CLI process and the renderer child it forks
are single-threaded.  A process that loaded numpy before importing this
module keeps its thread pool.
"""

from __future__ import annotations

import functools
import os
import sys

import click

# OpenBLAS reads its thread count once, as numpy loads: unless the caller
# chose one, numpy loads with one thread and the variable goes again.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy as np
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .concentration import chebyshev_bound, convergence_scan
from .continuum import Region, read_wavefunction_csv, region_frequency_analysis
from .decomposition import SingleCopyState, brute_force_decompose, decompose_multilevel
from .errors import CapacityError, ContractError, NormalizationError, check_eps
from .finite_run import check_observed_count, finite_run_distribution, outer_frequency_check, surprise_index
from .output import Table, render_csv, render_json, write_text

ORACLE_TOLERANCE = 1e-12


def guarded(command):
    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except CapacityError as exc:
            click.echo(f"capacity error: {exc}", err=True)
            sys.exit(3)
        except (NormalizationError, ContractError) as exc:
            click.echo(f"numerical contract violation: {exc}", err=True)
            sys.exit(4)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def state_options(command):
    command = click.option(
        "--renormalize", is_flag=True, help="Renormalize inputs instead of rejecting them."
    )(command)
    command = click.option(
        "--amps",
        default=None,
        help="Comma-separated complex amplitudes, entries like '0.6' or '0.6+0.8i'.",
    )(command)
    command = click.option(
        "--a2",
        type=float,
        default=None,
        help="Two-level shorthand: probability |a|^2 of the designated outcome.",
    )(command)
    return command


def output_options(command):
    """The --format and --out options, with the exit-code mapping of :func:`guarded`."""
    command = guarded(command)
    command = click.option(
        "--out",
        "out_path",
        type=click.Path(dir_okay=False),
        default=None,
        help="Write the document to PATH atomically instead of stdout.",
    )(command)
    command = click.option(
        "--format",
        "output_format",
        type=click.Choice(["csv", "json"]),
        default="csv",
        show_default=True,
        help="Document format.",
    )(command)
    return command


def parse_amplitudes(text: str) -> list[complex]:
    entries = [piece.strip() for piece in text.split(",")]
    if len(entries) < 2:
        raise ValueError("need at least two comma-separated amplitudes")
    amplitudes = []
    for entry in entries:
        try:
            amplitudes.append(complex(entry.replace("i", "j")))
        except ValueError:
            raise ValueError(f"cannot parse amplitude {entry!r}") from None
    return amplitudes


def build_state(a2: float | None, amps: str | None, renormalize: bool) -> tuple[SingleCopyState, dict]:
    """The state from --a2 or --amps, and that one option as document metadata."""
    if (a2 is None) == (amps is None):
        raise click.UsageError("provide exactly one of --a2 or --amps")
    if a2 is not None:
        if renormalize:
            raise click.UsageError("--renormalize applies to --amps, not --a2")
        return SingleCopyState.from_alpha_probability(a2), {"a2": a2}
    return SingleCopyState(parse_amplitudes(amps), renormalize=renormalize), {"amps": amps}


def _joined_columns(values: list | range, counts: np.ndarray) -> list[str]:
    """Per-sector '|'-joins of ``str(values[n])`` at each level's count n."""
    labels = list(map(str, values))
    return list(map("|".join, zip(*[map(labels.__getitem__, column) for column in counts.T.tolist()])))


def emit(table: Table, output_format: str, out_path: str | None) -> None:
    write_text(render_csv(table) if output_format == "csv" else render_json(table), out_path)


@click.group()
@click.version_option(__version__, prog_name="freqborn")
def main():
    """Fixed-frequency expansion toolkit for N-copy states.

    Expands repeated identical quantum systems over occupation sectors,
    measures how the sector mass concentrates at the single-copy
    probabilities, and checks the variance tail bound at finite N.

    \b
    Exit codes:
      0  success
      2  usage error
      3  capacity error (a fixed size guard tripped)
      4  numerical-contract violation
    """


@main.command()
@click.option("--n", "num_copies", type=int, required=True, help="Copy count N.")
@state_options
@output_options
def decompose(num_copies, a2, amps, renormalize, output_format, out_path):
    """Expand an N-copy state over its occupation sectors.

    \b
    Two-level columns:   n, r, log_weight, weight        (r = n/N)
    Multi-level columns: counts, r, log_weight, weight   (per-level values
                         joined by '|')
    Zero weights render as -inf in CSV and null in JSON.
    """
    state, source = build_state(a2, amps, renormalize)
    meta = {
        "command": "decompose",
        **source,
        "n": num_copies,
        "renormalize": renormalize,
    }
    decomp = decompose_multilevel(state, num_copies)
    # per-count values n and r = n/N; two-level row n is count n of level 0
    ns = range(num_copies + 1)
    rs = np.arange(num_copies + 1) / float(num_copies)
    if state.num_levels == 2:
        key_column, keys, freqs = "n", ns, rs
    else:
        key_column = "counts"
        keys = _joined_columns(ns, decomp.counts)
        freqs = _joined_columns(rs.tolist(), decomp.counts)
    columns = {
        key_column: keys,
        "r": freqs,
        "log_weight": decomp.log_weights,
        "weight": decomp.weights,
    }
    emit(Table(columns, meta), output_format, out_path)


@main.command()
@click.option("--ns", required=True, help="Comma-separated, strictly increasing copy counts.")
@click.option("--eps", type=float, required=True, help="Window half-width.")
@state_options
@output_options
def scan(ns, eps, a2, amps, renormalize, output_format, out_path):
    """Measure outside-window mass against the tail bound for growing N.

    \b
    Columns: n, outside_mass, bound, inside_mass
    The window sits at r0 = |a|^2; bound = |a|^2 (1-|a|^2) / (eps^2 n).
    """
    state, source = build_state(a2, amps, renormalize)
    try:
        counts = [int(piece) for piece in ns.split(",")]
    except ValueError:
        raise ValueError(f"--ns must be a comma-separated integer list, got {ns!r}") from None
    windows = convergence_scan(state, eps, counts)
    columns = {
        "n": counts,
        "outside_mass": [window.mass_outside for window in windows],
        "bound": [window.chebyshev_bound for window in windows],
        "inside_mass": [window.mass_inside for window in windows],
    }
    meta = {"command": "scan", **source, "ns": ns, "eps": eps}
    emit(Table(columns, meta), output_format, out_path)


@main.command()
@click.option("--a2", type=float, required=True, help="Probability |a|^2 of the designated outcome.")
@click.option("--n", "num_copies", type=int, required=True, help="Copy count N.")
@click.option("--eps", type=float, required=True, help="Window half-width.")
@output_options
def bound(a2, num_copies, eps, output_format, out_path):
    """Evaluate the tail bound |a|^2 (1-|a|^2) / (eps^2 N).

    \b
    Columns: a2, n, eps, bound
    """
    value = chebyshev_bound(a2, num_copies, eps)
    meta = {"command": "bound", "a2": a2, "n": num_copies, "eps": eps}
    columns = {"a2": [a2], "n": [num_copies], "eps": [eps], "bound": [value]}
    emit(Table(columns, meta), output_format, out_path)


@main.command()
@click.option(
    "--wavefunction",
    "wavefunction_path",
    type=click.Path(exists=True, dir_okay=False),
    required=True,
    help="CSV file with header x,re,im on a uniform grid.",
)
@click.option("--region", "region_text", required=True, help="Half-open intervals 'lo:hi[,lo:hi...]'.")
@click.option("--n", "num_copies", type=int, required=True, help="Copy count N.")
@click.option("--eps", type=float, required=True, help="Window half-width.")
@click.option("--renormalize", is_flag=True, help="Renormalize the wavefunction instead of rejecting it.")
@output_options
def cv(wavefunction_path, region_text, num_copies, eps, renormalize, output_format, out_path):
    """Reduce a sampled wavefunction plus a region to two-level statistics.

    \b
    Columns: a_sq, n, eps, mean_r, variance_r, predicted_variance,
             mass_below, mass_inside, mass_above, chebyshev_bound
    a_sq is the region's probability mass; the window sits at r0 = a_sq.
    """
    psi = read_wavefunction_csv(wavefunction_path, renormalize=renormalize)
    region = Region.parse(region_text)
    report, window = region_frequency_analysis(psi, region, num_copies, eps)
    columns = {
        "a_sq": [window.r0],
        "n": [num_copies],
        "eps": [eps],
        "mean_r": [report.mean],
        "variance_r": [report.variance],
        "predicted_variance": [report.predicted_variance],
        "mass_below": [window.mass_below],
        "mass_inside": [window.mass_inside],
        "mass_above": [window.mass_above],
        "chebyshev_bound": [window.chebyshev_bound],
    }
    meta = {
        "command": "cv",
        "wavefunction": wavefunction_path,
        "region": region_text,
        "n": num_copies,
        "eps": eps,
        "renormalize": renormalize,
    }
    emit(Table(columns, meta), output_format, out_path)


@main.command("finite-run")
@click.option("--n-inner", "num_measurements", type=int, required=True, help="Measurements per run.")
@click.option("--observed", type=int, default=None, help="Observed success count; appends the surprise index.")
@click.option("--outer", "num_runs", type=int, default=None, help="Repetitions of the whole run; appends the outer window analysis (needs --observed and --eps).")
@click.option("--eps", type=float, default=None, help="Window half-width for the outer analysis (needs --outer).")
@state_options
@output_options
def finite_run(num_measurements, observed, num_runs, eps, a2, amps, renormalize, output_format, out_path):
    """Distribution over success counts of one finite run.

    \b
    Columns: n, mass
    With --observed, appends surprise_index (total mass of outcomes no more
    likely than the observed count).  With --outer N, appends the window
    analysis of the observed count's frequency across N runs at
    r0 = mass[observed].
    """
    if num_runs is None and eps is not None:
        raise click.UsageError("--eps applies to --outer")
    if num_runs is not None and observed is None:
        raise click.UsageError("--outer needs --observed")
    if num_runs is not None and eps is None:
        raise click.UsageError("--outer needs --eps")
    # flag values too, before any decomposition; it names a --n-inner below 1 itself
    if observed is not None and num_measurements >= 1:
        check_observed_count(observed, num_measurements)
    if num_runs is not None:
        check_eps(eps)
    state, source = build_state(a2, amps, renormalize)
    masses = finite_run_distribution(state, num_measurements)
    meta = {
        "command": "finite-run",
        **source,
        "n_inner": num_measurements,
    }
    annotations: dict = {}
    if observed is not None:
        annotations["observed"] = observed
        annotations["surprise_index"] = surprise_index(masses, observed)
    if num_runs is not None:
        window = outer_frequency_check(masses, num_runs, observed, eps)
        annotations["outer_runs"] = num_runs
        annotations["outer_eps"] = eps
        annotations["outer_r0"] = window.r0
        annotations["outer_mass_below"] = window.mass_below
        annotations["outer_mass_inside"] = window.mass_inside
        annotations["outer_mass_above"] = window.mass_above
        annotations["outer_chebyshev_bound"] = window.chebyshev_bound
    columns = {"n": range(masses.size), "mass": masses}
    emit(Table(columns, meta, annotations), output_format, out_path)


@main.command("oracle-check")
@click.option("--n", "num_copies", type=int, required=True, help="Copy count N.")
@state_options
@output_options
def oracle_check(num_copies, a2, amps, renormalize, output_format, out_path):
    """Compare the closed-form expansion against brute-force enumeration.

    \b
    Columns: levels, n, sectors, max_abs_deviation, threshold, status
    Exits 0 iff the largest per-sector weight deviation is at most 1e-12.
    """
    state, source = build_state(a2, amps, renormalize)
    oracle = brute_force_decompose(state, num_copies)
    closed = decompose_multilevel(state, num_copies)
    if not np.array_equal(closed.counts, oracle.counts):
        raise ContractError("sector enumerations disagree between routes")
    deviation = float(np.max(np.abs(closed.weights - oracle.weights)))
    passed = deviation <= ORACLE_TOLERANCE
    meta = {"command": "oracle-check", **source, "n": num_copies}
    columns = {
        "levels": [state.num_levels],
        "n": [num_copies],
        "sectors": [closed.num_sectors],
        "max_abs_deviation": [deviation],
        "threshold": [ORACLE_TOLERANCE],
        "status": ["PASS" if passed else "FAIL"],
    }
    emit(Table(columns, meta), output_format, out_path)
    if not passed:
        raise ContractError(f"max deviation {deviation!r} above {ORACLE_TOLERANCE!r}")


def _flushed() -> bool:
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a broken pipe, say: the normal exit reports it as it always has
        return False
    return True


def run() -> None:
    """The process entry: :func:`main` in standalone mode, then ``os._exit``.

    Once stdout and stderr are flushed, the process ends with click's exit
    code and skips module teardown and the final garbage collections, whose
    cost is a visible share of a short command.  Every document is complete
    by then: ``write_text`` has replaced its ``--out`` file or flushed stdout,
    and the renderer's forked child is reaped.  A non-integer exit code, an
    exception other than ``SystemExit`` (a bug's traceback) and a flush that
    raises take the normal exit instead.
    """
    try:
        main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        if not isinstance(code, int) or not _flushed():
            raise
        os._exit(code)


if __name__ == "__main__":
    run()
