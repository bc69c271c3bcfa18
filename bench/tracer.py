"""Spans at freqborn's layer boundaries, recorded from outside the package.

Each traced function is replaced, by identity, in every ``freqborn.*``
namespace that binds it, and each click command callback is wrapped, so the
package itself is unchanged.  Only layer-boundary functions are wrapped: a
per-cell helper such as ``output.format_value`` runs millions of times per
pass and its wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

# The layer-boundary functions, by module; every one gets `calls` and `self_s`.
LAYERS = {
    "combinatorics": ("occupancy_log_weights",),
    "decomposition": ("decompose_two_level", "decompose_multilevel", "compositions",
                      "brute_force_decompose", "frequency_moments"),
    "concentration": ("convergence_scan", "window_masses"),
    "continuum": ("read_wavefunction_csv", "region_probability", "region_frequency_analysis"),
    "finite_run": ("finite_run_distribution", "outer_frequency_check", "surprise_index"),
    "output": ("render_csv", "render_json", "write_text"),
}
# `bound` is one arithmetic expression and no benchmarked workload calls it.
COMMANDS = ("decompose", "scan", "cv", "finite-run", "oracle-check")


def _count_kernel(counts: Counter, args, kwargs, result) -> None:
    levels = len(args[1])
    counts["combinatorics.occupancy_log_weights.sectors"] += result.size
    counts["combinatorics.occupancy_log_weights.sectors_zero"] += int(np.count_nonzero(np.exp(result) == 0.0))
    # computed, not measured: the int64 count arrays read plus the float64 result written
    counts["combinatorics.occupancy_log_weights.bytes_computed"] += 8 * result.size * (levels + 1)


def _count_brute_force(counts: Counter, args, kwargs, result) -> None:
    state, copies = args
    counts["decomposition.brute_force_decompose.sequences"] += state.num_levels ** int(copies)


def _count_rows_read(counts: Counter, args, kwargs, result) -> None:
    counts["continuum.read_wavefunction_csv.rows"] += result.size


def _count_rows_rendered(counts: Counter, args, kwargs, result) -> None:
    counts["output.rows"] += len(args[0].rows)


def _count_bytes_written(counts: Counter, args, kwargs, result) -> None:
    counts["output.bytes"] += len(args[0].encode())


COUNTERS: dict[str, Callable] = {
    "combinatorics.occupancy_log_weights": _count_kernel,
    "decomposition.brute_force_decompose": _count_brute_force,
    "continuum.read_wavefunction_csv": _count_rows_read,
    "output.render_csv": _count_rows_rendered,
    "output.render_json": _count_rows_rendered,
    "output.write_text": _count_bytes_written,
}


class Tracer:
    """Records (name, start, end, parent, op) spans in memory while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent, self.op)
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items()) if n == "freqborn" or n.startswith("freqborn.")]
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"freqborn.{module_name}"]
            for function_name in functions:
                original = getattr(module, function_name)
                traced = self._wrap(f"{module_name}.{function_name}", original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            self._restore.append((namespace, attribute, original))
                            setattr(namespace, attribute, traced)
        group = sys.modules["freqborn.cli"].main
        for command in COMMANDS:
            callback = group.commands[command].callback
            self._restore.append((group.commands[command], "callback", callback))
            group.commands[command].callback = self._wrap(f"cli.{command}", callback)

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._restore):
            setattr(target, attribute, original)
        self._restore.clear()


def self_times(spans) -> Counter:
    """Seconds per span name not covered by that span's direct children."""
    out: Counter = Counter()
    for name, start, end, parent, _ in spans:
        out[name] += end - start
        if parent is not None:
            out[spans[parent][0]] -= end - start
    return out


def covered(spans) -> float:
    """Seconds covered by top-level spans."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)
