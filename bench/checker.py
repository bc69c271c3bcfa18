"""Independent checks of freqborn CLI documents.

Nothing here imports freqborn.  Each document is checked against the
invocation that produced it: schema line and header, exit code, total mass,
the moment identities, window bounds, oracle status, and a seeded sample of
rows recomputed from the multinomial formula in 60-digit decimal arithmetic.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from decimal import Context, Decimal

MASS_TOLERANCE = 1e-10
MEAN_TOLERANCE = 1e-10
VARIANCE_RTOL = 1e-10
BOUND_SLACK = 1e-12
# Row samples: the CLI's log weights carry ~1e-15 relative error where the
# mass lives (README); 1e-12 leaves room for the tails without hiding a
# formula error, which moves a log weight by O(1).
LOG_WEIGHT_RTOL = 1e-12
SAMPLED_ROWS = 6

COLUMNS = {
    "decompose": ("n", "r", "log_weight", "weight"),
    "decompose-multi": ("counts", "r", "log_weight", "weight"),
    "scan": ("n", "outside_mass", "bound", "inside_mass"),
    "bound": ("a2", "n", "eps", "bound"),
    "cv": ("a_sq", "n", "eps", "mean_r", "variance_r", "predicted_variance",
           "mass_below", "mass_inside", "mass_above", "chebyshev_bound"),
    "finite-run": ("n", "mass"),
    "oracle-check": ("levels", "n", "sectors", "max_abs_deviation", "threshold", "status"),
}


class DocumentError(Exception):
    """A document breaks a check; the message says which."""


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    mass_residual: float | None = None
    mean_dev: float | None = None
    var_rel_dev: float | None = None


@dataclass
class Document:
    command: str | None  # JSON documents name their command in meta; CSV ones do not
    columns: tuple[str, ...]
    data: list[list]  # one list per column: cells as text (CSV) or JSON values
    annotations: dict

    @property
    def num_rows(self) -> int:
        return len(self.data[0]) if self.data else 0

    def ints(self, column: int) -> list[int]:
        return list(map(int, self.data[column]))

    def floats(self, column: int) -> list[float]:
        try:
            return list(map(float, self.data[column]))
        except TypeError:  # JSON renders a -inf log weight as null
            return [-math.inf if v is None else float(v) for v in self.data[column]]

    def only_row(self) -> list:
        if self.num_rows != 1:
            raise DocumentError(f"{self.num_rows} rows, expected one")
        return [column[0] for column in self.data]


def parse_options(args) -> tuple[str, dict[str, str]]:
    """Command name and its '--name value' options (flags map to '')."""
    command, options = args[0], {}
    i = 1
    while i < len(args):
        name = args[i][2:]
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            options[name] = args[i + 1]
            i += 2
        else:
            options[name] = ""
            i += 1
    return command, options


def level_probs(options: dict[str, str]) -> list[float]:
    """Level probabilities exactly as the CLI derives them from --a2 or --amps."""
    if "a2" in options:
        a2 = float(options["a2"])
        return [a2, 1.0 - a2]
    probs = []
    for entry in options["amps"].split(","):
        amp = complex(entry.strip().replace("i", "j"))
        probs.append(amp.real * amp.real + amp.imag * amp.imag)
    return probs


def parse_document(text: str, output_format: str) -> Document:
    if output_format == "json":
        doc = json.loads(text)
        meta = doc.get("meta", {})
        if meta.get("schema") != "v1":
            raise DocumentError(f"schema is {meta.get('schema')!r}, expected 'v1'")
        rows = doc["rows"]
        columns = tuple(rows[0]) if rows else ()
        if any(tuple(row) != columns for row in rows):
            raise DocumentError("JSON rows do not share one key order")
        annotations = {k: (math.inf if v is None else v) for k, v in doc.get("annotations", {}).items()}
        return Document(meta.get("command"), columns, [[row[c] for row in rows] for c in columns], annotations)
    lines = text.split("\n")
    if lines[-1] != "":
        raise DocumentError("CSV document does not end with a newline")
    if lines[0] != "#schema=v1":
        raise DocumentError(f"first line is {lines[0]!r}, expected '#schema=v1'")
    body = lines[2:-1]
    first_note = next((i for i, line in enumerate(body) if line.startswith("#")), len(body))
    annotations = {}
    for line in body[first_note:]:
        key, _, value = line[1:].partition("=")
        annotations[key] = value
    columns = tuple(lines[1].split(","))
    rows = body[:first_note]
    # one split over the whole body is far cheaper than one per row
    cells = ",".join(rows).split(",") if rows else []
    if len(cells) != len(rows) * len(columns):
        raise DocumentError("rows do not all have one cell per column")
    data = [cells[i::len(columns)] for i in range(len(columns))]
    return Document(None, columns, data, annotations)


# --- exact sector weights -------------------------------------------------

_CTX = Context(prec=60)
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899")
_HALF_LN_2PI = _CTX.divide(_CTX.ln(_CTX.multiply(2, _PI)), 2)
# Stirling series ln n! = (n+1/2) ln n - n + ln(2 pi)/2 + sum B_2k / (2k (2k-1) n^(2k-1));
# from n = 1000 on, eight terms leave a remainder below 1e-50.
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156), (-3617, 122400))
_STIRLING_FROM = 1000


def _ln_factorial(n: int) -> Decimal:
    if n < _STIRLING_FROM:
        return _CTX.ln(Decimal(math.factorial(n)))
    d = Decimal(n)
    out = _CTX.subtract(_CTX.multiply(_CTX.add(d, Decimal("0.5")), _CTX.ln(d)), d)
    out = _CTX.add(out, _HALF_LN_2PI)
    for k, (num, den) in enumerate(_STIRLING):
        out = _CTX.add(out, _CTX.divide(Decimal(num), _CTX.multiply(Decimal(den), _CTX.power(d, 2 * k + 1))))
    return out


def exact_log_weight(counts, probs) -> float:
    """ln( N!/prod n_i! * prod p_i^n_i ) to 60 digits, rounded to a float.

    The p_i are the given floats scaled to sum to exactly 1.  The float sum
    (for instance a2 + fl(1 - a2)) can miss 1 by an ulp, which would shift
    every log weight by about N ulps; the state the CLI expands is normalized.
    """
    norm = _CTX.ln(sum(Decimal(p) for p in probs))
    total = _ln_factorial(sum(counts))
    for n, p in zip(counts, probs):
        total = _CTX.subtract(total, _ln_factorial(n))
        if n:
            total = _CTX.add(total, _CTX.multiply(n, _CTX.subtract(_CTX.ln(Decimal(p)), norm)))
    return float(total)


def _check_sector(where: str, log_weight: float | None, weight: float, exact: float) -> list[str]:
    problems = []
    if log_weight is not None and not abs(log_weight - exact) <= LOG_WEIGHT_RTOL * max(1.0, abs(exact)):
        problems.append(f"{where}: log weight {log_weight!r}, exact {exact!r}")
    if exact > -700.0:
        expected = math.exp(exact)
        if not abs(weight - expected) <= LOG_WEIGHT_RTOL * max(1.0, abs(exact)) * expected:
            problems.append(f"{where}: weight {weight!r}, exact {expected!r}")
    elif exact < -746.0 and weight != 0.0:
        problems.append(f"{where}: weight {weight!r} should underflow to 0")
    return problems


def _sample(rng: random.Random, weights: list[float]) -> list[int]:
    """Row indices to recompute: most where the mass lives, some anywhere."""
    live = [i for i, w in enumerate(weights) if w > 1e-300]
    picks = rng.sample(live, min(len(live), SAMPLED_ROWS - 2))
    picks += rng.sample(range(len(weights)), min(len(weights), 2))
    return sorted(set(picks))


# --- identities -----------------------------------------------------------

def _moments(verdict: Verdict, where: str, rs: list[float], weights: list[float], prob: float, copies: int,
             record: bool) -> None:
    mean = math.fsum(r * w for r, w in zip(rs, weights))
    variance = math.fsum((r - prob) * (r - prob) * w for r, w in zip(rs, weights))
    predicted = prob * (1.0 - prob) / copies
    mean_dev = abs(mean - prob)
    var_rel_dev = abs(variance / predicted - 1.0)
    if not mean_dev <= MEAN_TOLERANCE:
        verdict.problems.append(f"{where}: mean {mean!r} is off p={prob!r} by {mean_dev:.3e}")
    if not var_rel_dev <= VARIANCE_RTOL:
        verdict.problems.append(f"{where}: variance {variance!r} is off p(1-p)/N by {var_rel_dev:.3e} relative")
    if record:
        _worst(verdict, mean_dev=mean_dev, var_rel_dev=var_rel_dev)


def _mass(verdict: Verdict, where: str, masses) -> None:
    residual = abs(1.0 - math.fsum(masses))
    if not residual <= MASS_TOLERANCE:
        verdict.problems.append(f"{where}: total mass is off 1 by {residual:.3e}")
    _worst(verdict, mass_residual=residual)


def _worst(verdict: Verdict, **values: float) -> None:
    for name, value in values.items():
        current = getattr(verdict, name)
        setattr(verdict, name, value if current is None else max(current, value))


def _window(verdict: Verdict, where: str, prob: float, copies: int, eps: float,
            below: float, inside: float, above: float, bound: float) -> None:
    _mass(verdict, where, (below, inside, above))
    expected = prob * (1.0 - prob) / eps / eps / copies
    if not math.isclose(bound, expected, rel_tol=1e-15, abs_tol=0.0):
        verdict.problems.append(f"{where}: bound {bound!r}, p(1-p)/(eps^2 N) = {expected!r}")
    if not below + above <= bound + BOUND_SLACK:
        verdict.problems.append(f"{where}: outside mass {below + above!r} exceeds bound {bound!r}")


# --- per command ----------------------------------------------------------

def _check_decompose(verdict: Verdict, doc: Document, options: dict, rng: random.Random) -> None:
    probs = level_probs(options)
    copies = int(options["n"])
    log_weights = doc.floats(2)
    weights = doc.floats(3)
    _mass(verdict, "decompose", weights)
    if len(probs) == 2:
        if doc.ints(0) != list(range(copies + 1)):
            raise DocumentError("n column is not 0..N")
        rs = doc.floats(1)
        if rs != [n / copies for n in range(copies + 1)]:
            raise DocumentError("r column is not n/N")
        _moments(verdict, "decompose", rs, weights, probs[0], copies, record=True)
        counts = [(n, copies - n) for n in range(copies + 1)]
    else:
        counts = [tuple(map(int, cell.split("|"))) for cell in doc.data[0]]
        if len(counts) != math.comb(copies + len(probs) - 1, len(probs) - 1):
            raise DocumentError(f"{len(counts)} sectors, expected every composition of N")
        if any(len(c) != len(probs) or sum(c) != copies or min(c) < 0 for c in counts):
            raise DocumentError("a counts cell is not an occupation of N copies")
        if counts != sorted(set(counts)):
            raise DocumentError("sectors are not unique and in ascending lexicographic order")
        for cell, c in zip(doc.data[1], counts):
            if cell != "|".join(repr(k / copies) for k in c):
                raise DocumentError(f"r cell {cell!r} does not match counts {c}")
        for level, prob in enumerate(probs):
            rs = [c[level] / copies for c in counts]
            _moments(verdict, f"decompose level {level}", rs, weights, prob, copies, record=False)
    for i in _sample(rng, weights):
        verdict.problems += _check_sector(f"decompose row {i}", log_weights[i], weights[i],
                                          exact_log_weight(counts[i], probs))


def _check_finite_run(verdict: Verdict, doc: Document, options: dict, rng: random.Random) -> None:
    probs = level_probs(options)
    copies = int(options["n-inner"])
    if doc.ints(0) != list(range(copies + 1)):
        raise DocumentError("n column is not 0..n_inner")
    masses = doc.floats(1)
    _mass(verdict, "finite-run", masses)
    _moments(verdict, "finite-run", [n / copies for n in range(copies + 1)], masses, probs[0], copies, record=True)
    for i in _sample(rng, masses):
        verdict.problems += _check_sector(f"finite-run row {i}", None, masses[i],
                                          exact_log_weight((i, copies - i), probs))
    notes = doc.annotations
    if "observed" in options:
        observed = int(options["observed"])
        if int(notes["observed"]) != observed:
            raise DocumentError("observed annotation does not echo --observed")
        threshold = masses[observed]
        surprise = math.fsum(m for m in masses if m <= threshold)
        if not abs(float(notes["surprise_index"]) - surprise) <= 1e-12:
            verdict.problems.append(f"surprise_index {notes['surprise_index']!r}, recomputed {surprise!r}")
    if "outer" in options:
        r0 = float(notes["outer_r0"])
        if r0 != masses[int(options["observed"])]:
            verdict.problems.append(f"outer_r0 {r0!r} is not mass[observed]")
        _window(verdict, "finite-run outer", r0, int(options["outer"]), float(options["eps"]),
                float(notes["outer_mass_below"]), float(notes["outer_mass_inside"]),
                float(notes["outer_mass_above"]), float(notes["outer_chebyshev_bound"]))


def _check_scan(verdict: Verdict, doc: Document, options: dict) -> None:
    prob = level_probs(options)[0]
    eps = float(options["eps"])
    ns = [int(piece) for piece in options["ns"].split(",")]
    if doc.ints(0) != ns:
        raise DocumentError("n column does not echo --ns")
    for copies, outside, bound, inside in zip(ns, doc.floats(1), doc.floats(2), doc.floats(3)):
        # the CLI reports outside as one sum; split it as (outside, 0) for the window check
        _window(verdict, f"scan n={copies}", prob, copies, eps, outside, inside, 0.0, bound)


def _check_bound(verdict: Verdict, doc: Document, options: dict) -> None:
    a2, copies, eps, bound = map(float, doc.only_row())
    if (a2, copies, eps) != (float(options["a2"]), float(options["n"]), float(options["eps"])):
        raise DocumentError("a2, n, eps do not echo the arguments")
    expected = a2 * (1.0 - a2) / eps / eps / copies
    if not math.isclose(bound, expected, rel_tol=1e-15, abs_tol=0.0):
        verdict.problems.append(f"bound {bound!r}, p(1-p)/(eps^2 N) = {expected!r}")


def region_probability(path: str, region: str) -> float:
    """Left-point Riemann mass of |psi|^2 over the region, read from the file."""
    intervals = [tuple(float(v) for v in part.split(":")) for part in region.split(",")]
    with open(path, newline="") as handle:
        rows = [[float(c) for c in row] for row in list(csv.reader(handle))[1:]]
    spacing = (rows[-1][0] - rows[0][0]) / (len(rows) - 1)
    return math.fsum(re * re + im * im for x, re, im in rows
                     if any(lo <= x < hi for lo, hi in intervals)) * spacing


def _check_cv(verdict: Verdict, doc: Document, options: dict, workdir: str) -> None:
    a_sq, copies, eps, mean, variance, predicted, below, inside, above, bound = map(float, doc.only_row())
    if (copies, eps) != (float(options["n"]), float(options["eps"])):
        raise DocumentError("n, eps do not echo the arguments")
    expected_a_sq = region_probability(f"{workdir}/{options['wavefunction']}", options["region"])
    if not abs(a_sq - expected_a_sq) <= 1e-12:
        verdict.problems.append(f"a_sq {a_sq!r}, recomputed from the file {expected_a_sq!r}")
    if not math.isclose(predicted, a_sq * (1.0 - a_sq) / copies, rel_tol=1e-15):
        verdict.problems.append(f"predicted_variance {predicted!r} is not a_sq(1-a_sq)/N")
    mean_dev, var_rel_dev = abs(mean - a_sq), abs(variance / predicted - 1.0)
    if not mean_dev <= MEAN_TOLERANCE:
        verdict.problems.append(f"cv: mean_r is off a_sq by {mean_dev:.3e}")
    if not var_rel_dev <= VARIANCE_RTOL:
        verdict.problems.append(f"cv: variance_r is off the prediction by {var_rel_dev:.3e} relative")
    _worst(verdict, mean_dev=mean_dev, var_rel_dev=var_rel_dev)
    _window(verdict, "cv", a_sq, int(copies), eps, below, inside, above, bound)


def _check_oracle(verdict: Verdict, doc: Document, options: dict) -> None:
    levels, copies, sectors, deviation, threshold, status = doc.only_row()
    m, n = len(level_probs(options)), int(options["n"])
    if (int(levels), int(copies), int(sectors)) != (m, n, math.comb(n + m - 1, m - 1)):
        raise DocumentError("levels, n, sectors do not match the state and N")
    if float(threshold) != 1e-12 or not float(deviation) <= float(threshold) or status != "PASS":
        verdict.problems.append(f"oracle status {status!r}, deviation {deviation!r}")


def check(args, exit_code: int, text: str, workdir: str, rng: random.Random) -> Verdict:
    """Check one document against the invocation ``args`` that produced it."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
        return verdict
    command, options = parse_options(args)
    try:
        doc = parse_document(text, options.get("format", "csv"))
        if doc.command not in (None, command):
            raise DocumentError(f"meta names command {doc.command!r}, expected {command!r}")
        key = command
        if command == "decompose" and len(level_probs(options)) > 2:
            key = "decompose-multi"
        if doc.columns != COLUMNS[key]:
            raise DocumentError(f"header {','.join(doc.columns)!r}, expected {','.join(COLUMNS[key])!r}")
        if command == "decompose":
            _check_decompose(verdict, doc, options, rng)
        elif command == "finite-run":
            _check_finite_run(verdict, doc, options, rng)
        elif command == "scan":
            _check_scan(verdict, doc, options)
        elif command == "bound":
            _check_bound(verdict, doc, options)
        elif command == "cv":
            _check_cv(verdict, doc, options, workdir)
        else:
            _check_oracle(verdict, doc, options)
    except (DocumentError, ValueError, KeyError, IndexError, TypeError) as exc:
        verdict.problems.append(f"{command}: malformed document: {type(exc).__name__}: {exc}")
    return verdict
