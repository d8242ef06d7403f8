"""Experiment runners and CSV reporting for the summability harness.

Every runner returns a SummabilityReport whose rows flatten to the fixed CSV
schema  experiment,spec,B,seed,param,lambda_or_m,value  with floats printed
at 17 significant digits.  Runner internals stick to elementwise numpy,
cumulative sums and fixed-tree reductions, so reports are byte-identical
across runs and thread counts.
"""
from __future__ import annotations

import configparser
import contextlib
import csv
import functools
import sys
from typing import Iterator

import numpy as np

from .dyadic import walsh_matrix, walsh_row
from .errors import DataError, UsageError
from .generators import REQUIRED, FunctionSpec, generate_function, parse_number
from .maximal import (
    dyadic_maximal,
    hybrid_maximal_1,
    hybrid_maximal_2,
    hybrid_v_1,
    hybrid_v_2,
    schipp_v_max,
    superlevel_measure,
)
from .means import PhiFunction, bmo_of_diagonal_sums, entropy_functional, phi_mean_sequence
from .sums import dyadic_square_sums, quadratic_sums
from .transform import BLOCK_BYTES, DyadicGrid1D, _analysis, _pow2_scaled, _zero_padded

CSV_FIELDS = ("experiment", "spec", "B", "seed", "param", "lambda_or_m", "value")

# weak_type operator: (its function's name, looked up when an instance runs so that a
# tracer which rebinds it sees every call; its spec's dimension, None: either; its row
# param).  `empirical_constant` is the superlevel sweep, the one row with a lambda grid.
OPERATORS = {"M": ("dyadic_maximal", 2, "empirical_constant"), "M1": ("hybrid_maximal_1", None, "integral_ratio"),
             "M2": ("hybrid_maximal_2", 2, "integral_ratio"), "V": ("schipp_v_max", 1, "empirical_constant"),
             "V1": ("hybrid_v_1", None, "empirical_constant"), "V2": ("hybrid_v_2", None, "empirical_constant"),
             "Sch-ratio": ("sch_ratio_max", 1, "sch_ratio")}
MAX_COUNT = 4096  # instances in one weak_type section


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class SummabilityReport:
    """One experiment's outcome: identification plus (param, key, value) rows."""

    def __init__(self, experiment: str, spec: str, bits: int, seed: int,
                 rows: list[tuple[str, float, float]] | None = None):
        self.experiment, self.spec, self.bits, self.seed = experiment, spec, bits, seed
        self.rows = [] if rows is None else rows

    def add(self, param: str, key: float, value: float) -> None:
        self.rows.append((param, float(key), float(value)))

    def series(self, param: str) -> tuple[np.ndarray, np.ndarray]:
        keys = [k for (p, k, _) in self.rows if p == param]
        vals = [v for (p, _, v) in self.rows if p == param]
        return np.asarray(keys), np.asarray(vals)

    def value(self, param: str, key: float | None = None) -> float:
        for p, k, v in self.rows:
            if p == param and (key is None or k == key):
                return v
        raise KeyError(f"no row {param!r} (key {key!r}) in report {self.experiment!r}")

    def validate(self) -> None:
        """Structural invariants every report must satisfy."""
        if len({(p, k) for (p, k, _) in self.rows}) < len(self.rows):
            raise UsageError(f"report {self.experiment!r} repeats a (param, key) row")
        for param, key, value in self.rows:
            if not np.isfinite(value):
                raise DataError(f"{param} at {_fmt(key)} overflowed float64")
        for prefix in ("measure", "exceed"):
            for param in {p for (p, _, _) in self.rows if p.startswith(prefix)}:
                keys, vals = self.series(param)
                if np.any((vals < 0) | (vals > 1)):
                    raise UsageError(f"{param} rows leave [0, 1]")
                if np.any(np.diff(keys) <= 0):
                    raise UsageError(f"{param} sweep keys are not strictly increasing")
                if param.startswith("measure") and np.any(np.diff(vals) > 0):
                    raise UsageError(f"{param} superlevel sweep is not nonincreasing")

    def csv_rows(self) -> Iterator[list[str]]:
        head = [self.experiment, self.spec, str(self.bits), str(self.seed)]
        return (head + [param, _fmt(key), _fmt(value)] for param, key, value in self.rows)


def write_csv(rows, path=None, lines=()) -> None:
    """The header, `rows` and preformatted `lines`, each written as it comes, to `path` (stdout if None)."""
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with target as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(rows)
        handle.writelines(lines)


def write_reports_csv(reports: list[SummabilityReport], path=None) -> None:
    write_csv((row for report in reports for row in report.csv_rows()), path)


def _spec(spec: FunctionSpec | str, dims: int | None, what: str) -> FunctionSpec:
    """`spec` parsed, once its dimension is `dims` (None: either)."""
    spec = spec if isinstance(spec, FunctionSpec) else FunctionSpec.parse(spec)
    if dims not in (None, spec.dims):
        raise UsageError(f"{what} needs a {dims}D function spec")
    return spec


def _lambda_grid(lambdas) -> np.ndarray:
    grid = np.asarray(list(lambdas), dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise UsageError("lambda grid must be positive and strictly increasing")
    return grid


def _m_grid(ms, limit: int) -> list[int]:
    grid = [int(m) for m in ms]
    if not grid or any(m < 1 or m > limit for m in grid) or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise UsageError(f"m grid must be strictly increasing within [1, {limit}]")
    return grid


def _theorem1_args(spec, lambda_grid) -> tuple[FunctionSpec, np.ndarray]:
    """`run_theorem1`'s arguments, checked: (spec, lambda grid)."""
    return _spec(spec, 2, "theorem1 experiment"), _lambda_grid(lambda_grid)


def run_theorem1(spec: FunctionSpec | str, lambda_grid, seed: int = 0) -> SummabilityReport:
    """Superlevel sweep of the pointwise BMO norm of the diagonal sums,
    normalized by 1 + the alpha=2 entropy functional of the input."""
    spec, grid = _theorem1_args(spec, lambda_grid)
    f = generate_function(spec, seed)
    bmo = bmo_of_diagonal_sums(quadratic_sums(f))
    report = SummabilityReport("theorem1", spec.text, spec.bits, seed)
    for alpha in (0, 1, 2):
        report.add("entropy", alpha, entropy_functional(f, alpha))
    denom = 1.0 + report.value("entropy", 2)
    measures = [superlevel_measure(bmo, lam) for lam in grid]
    normalized = [lam * mu / denom for lam, mu in zip(grid, measures)]
    for param, values in (("measure", measures), ("normalized", normalized)):
        for lam, value in zip(grid, values):
            report.add(param, lam, value)
    report.add("empirical_constant", 0.0, max(normalized))
    report.validate()
    return report


def default_probes(spec: FunctionSpec) -> tuple[list[tuple[float, float]], float]:
    """Centers of level-2 cells interior to the spec's continuity regions.

    Returns (probes, excluded measure).  Cells cut by an indicator or spike
    boundary are excluded and their total measure reported; other generator
    kinds are resolved on their own cells, so nothing is excluded.
    """
    xs = ys = ()  # edge coordinates along x and along y
    if spec.kind == "indicator-rect" and len(spec.positional) == 4:
        xs, ys = spec.positional[:2], spec.positional[2:]
    elif spec.kind == "spike":
        xs = ys = (2.0 ** -spec["level"],)
    corners = [(i / 4, j / 4) for i in range(4) for j in range(4)]
    probes = [(x + 0.125, y + 0.125) for x, y in corners
              if not any(x < e < x + 0.25 for e in xs) and not any(y < e < y + 0.25 for e in ys)]
    return probes, (len(corners) - len(probes)) / len(corners)


def _theorem2_args(spec, a, m_grid, probes):
    """`run_theorem2`'s arguments, checked: (spec, Phi, m grid, probe of each
    row label, excluded measure)."""
    phi, spec = PhiFunction.exp_minus_one(a), _spec(spec, 2, "theorem2 experiment")
    ms, excluded = _m_grid(m_grid, 1 << spec.bits), 0.0
    if probes is None:
        probes, excluded = default_probes(spec)
    if not probes:
        raise UsageError("no probe points available for this spec")
    for x, y in probes:
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise UsageError(f"probe ({x}, {y}) outside the unit square")
    labels = {f"phi_mean:window=B:probe={x:g};{y:g}": (x, y) for x, y in probes}
    if len(labels) < len(probes):  # their rows would coincide
        raise UsageError("probes must differ in their labels x;y (printed with %g)")
    return spec, phi, ms, labels, excluded


def run_theorem2(spec: FunctionSpec | str, a: float, m_grid,
                 probes: list[tuple[float, float]] | None = None, seed: int = 0) -> SummabilityReport:
    """Trajectories m -> (1/m) sum_{n<=m} (exp(a |S_nn - f|) - 1) at probe points."""
    spec, phi, ms, probes, excluded = _theorem2_args(spec, a, m_grid, probes)
    f = generate_function(spec, seed)
    fld = quadratic_sums(f)
    shift = f.bits - (len(f.cells).bit_length() - 1)  # grid point i lies in cell i >> shift
    report = SummabilityReport("theorem2", spec.text, spec.bits, seed)
    report.add("exceptional_measure", 0.0, excluded)
    for label, (x, y) in probes.items():
        ix, iy = int(x * f.size), int(y * f.size)
        seq = fld.sequence_at(ix, iy)
        for m in ms:
            report.add(label, m, phi_mean_sequence(seq, f.cells[ix >> shift, iy >> shift], m, phi))
    report.validate()
    return report


def iter_rodin_means(f: DyadicGrid1D, phi: PhiFunction, ms) -> Iterator[tuple[int, DyadicGrid1D]]:
    """Yield (m, the grid of (1/m) sum_{k=1..m} Phi(|S_k f - f|)) for m in `ms`.

    The stream runs on f's own 2^l cells, l = max(1, L) for f on level-L
    cells: f, its band [0, K = 2^l) from `_analysis` and every S_k f and w_k,
    k <= K, live there, and each mean is a grid of those cells.  The band is
    walked in Paley blocks of 2^s orders, s = ceil(l / 2) within BLOCK_BYTES
    (1 <= s <= l): for a = j 2^s and i < 2^s, w_{a+i} = w_a w_i with w_i on
    the level-s cells, so a block's terms c_{a+i} w_{a+i} are one sign table
    and one sequential cumsum from S_a f gives its S_{a+r} f, the same bits
    at any width.  Past the band f_hat is 0 and S_k f = S_K f, so a larger m
    takes the closed form (A_K + (m - K) t) / m, A_K the sum of the first K
    terms and t = Phi(|S_K f - f|).  Phi runs once per block and once past
    the band: O(2^l (K + len(ms))) time and O(2^(s+l)) memory whatever B is.
    A mean that leaves float64 fails at its m.
    """
    def checked(m, means):
        if not np.isfinite(means).all():
            raise DataError(f"rodin Phi-mean overflowed float64 at m = {m}; lower the phi parameter")
        return m, type(f).from_cells(f.bits, means.reshape(-1))

    ms, level, i = _m_grid(ms, f.size), max(1, len(f.cells).bit_length() - 1), 0
    band, s = 1 << level, max(1, min((level + 1) // 2, (BLOCK_BYTES >> (level + 3)).bit_length() - 1))
    width, c = 1 << s, _zero_padded(_analysis(f.cells, f.bits, (0,)), band)
    target = np.resize(f.cells, band).reshape(width, -1)  # (level-s cell, offset); 2 cells for a constant
    sums, total = np.zeros((width + 1,) + target.shape), np.zeros_like(target)  # sums[r]: S_{a+r} f
    for a in range(0, min(ms[-1], band), width):
        signs = walsh_matrix(s)[:, :, None] * walsh_row(a, level).reshape(width, -1)  # w_{a+i}
        np.multiply(c[a:a + width, None, None], signs, out=sums[1:])
        np.cumsum(sums, axis=0, out=sums)
        terms, sums[0], done = phi(np.abs(sums[1:] - target)), sums[-1], []
        with np.errstate(over="ignore"):  # a sum past float64 is inf, and fails at its m
            for k, term in enumerate(terms, a + 1):  # row by row beats an axis-0 cumsum
                total += term
                if i < len(ms) and ms[i] == k:
                    done.append((k, total / k))
                    i += 1
        yield from (checked(k, means) for k, means in done)
    t = phi(np.abs(sums[0] - target)) if i < len(ms) else None
    for m in ms[i:]:
        with np.errstate(over="ignore"):
            means = (total + (m - band) * t) / m
        yield checked(m, means)


def _rodin_args(spec, phi, m_grid, eps) -> tuple[FunctionSpec, list[int]]:
    """`run_rodin_1d`'s arguments, checked: (spec, m grid); a PhiFunction
    checks its parameter when it is made."""
    if eps <= 0:
        raise UsageError(f"exceedance threshold must be positive, got {eps}")
    spec = _spec(spec, 1, "rodin experiment")
    return spec, _m_grid(m_grid, 1 << spec.bits)


def run_rodin_1d(spec: FunctionSpec | str, phi: PhiFunction, m_grid, eps: float = 0.01,
                 seed: int = 0) -> SummabilityReport:
    """1D Phi-mean trajectories of |S_k - f| and their exceedance measures.

    For each m in the grid (1 <= m <= 2^B) the mean is
    (1/m) sum_{k=1..m} Phi(|S_k f - f|)(x) on f's own 2^l cells, streamed by
    `iter_rodin_means` in Paley blocks of 2^s orders across the band K = 2^l;
    every m past the band is closed as (A_K + (m - K) t) / m, with A_K the
    sum of the first K terms and t = Phi(|S_K f - f|).  The report holds its
    maximum over x and `superlevel_measure` at eps.
    Rodin's theorem only says the mean tends to 0 a.e. as m -> oo: it gives
    no rate, so no finite m has a theoretical bound on the exceedance.
    """
    spec, ms = _rodin_args(spec, phi, m_grid, eps)
    f = generate_function(spec, seed)
    report = SummabilityReport("rodin", spec.text, spec.bits, seed)
    exceed_label = f"exceed:eps={eps:g}:phi={phi.describe()}"
    for m, means in iter_rodin_means(f, phi, ms):
        report.add(exceed_label, m, superlevel_measure(means, eps))
        report.add("mean_max", m, float(means.cells.max()))
    report.validate()
    return report


def sch_ratio_max(f: DyadicGrid1D) -> float:
    """max over x and m = 1..bits of sqrt(2^-m sum_{l<2^m} (S_l f)(x)^2) / V(x, f).

    The strong quadratic means come from the scan `dyadic_square_sums`, with
    no partial-sum table or Walsh matrix.  Every mean and V are constant on
    f's 2^L cells, so each is repeated onto them and the ratio runs there:
    O(2^L bits) time and memory.  Points where the mean is 0 count as ratio
    0.  The ratio is scale-invariant, so it runs on `_pow2_scaled` cells: the
    squared sums neither overflow nor underflow at extreme amplitudes, and
    in-range inputs keep every bit.
    """
    f = type(f).from_cells(f.bits, _pow2_scaled(f.cells)[1][0])
    n, squares, v = len(f.cells), dyadic_square_sums(f), schipp_v_max(f).cells
    v = np.repeat(v, n // len(v))
    best = 0.0
    for m in range(1, f.bits + 1):
        lhs = np.repeat(np.sqrt(squares[m] / (1 << m)), n // len(squares[m]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(lhs == 0.0, 0.0, lhs / v)
        best = max(best, float(ratio.max()))
    return best


def _weak_type_instance(operator: str, spec: FunctionSpec, seed: int,
                        grid) -> tuple[str, float, np.ndarray | None]:
    """One instance of `run_weak_type_suite` on the function f of `spec` at
    `seed`: (row param, value, normalized sweep or None).  The operators, their
    gauges, integrals and superlevel counts run on f's cells, so a level-L
    input costs O(4^L) (M, M1, M2) or O(B^2 2^L) per row of cells (the V
    family and Sch-ratio), not O(4^B) or O(2^B).  The gauge is taken before
    the operator, so its copy of |f| is gone before the operator's arrays
    exist, and every grid dies at return: no instance overlaps the next."""
    name, _, row = OPERATORS[operator]
    f = generate_function(spec, seed)
    if row == "sch_ratio":
        return row, globals()[name](f), None
    # the M family against 1 + E1, the V family against E0 (the L1 norm, 0 for f = 0)
    gauge = 1.0 + entropy_functional(f, 1) if operator[0] == "M" else entropy_functional(f, 0)
    denom = gauge or np.finfo(np.float64).tiny
    op = globals()[name](f)
    if row == "integral_ratio":
        exponent, (scaled,) = _pow2_scaled(op.cells, inplace=True)  # op is ours
        return row, float(np.ldexp(scaled.mean(), exponent)) / denom, None
    normalized = np.array([lam * superlevel_measure(op, lam) / denom for lam in grid])
    return row, float(normalized.max()), normalized


def _weak_type_args(operator, spec, count, lambda_grid) -> tuple[FunctionSpec, np.ndarray | None]:
    """`run_weak_type_suite`'s arguments, checked: (spec, lambda grid or None)."""
    if operator not in OPERATORS:
        raise UsageError(f"unknown operator {operator!r} (expected one of {tuple(OPERATORS)})")
    if not 1 <= count <= MAX_COUNT:
        raise UsageError(f"weak-type count must be within [1, {MAX_COUNT}], got {count}")
    _, dims, row = OPERATORS[operator]
    spec = _spec(spec, dims, f"operator {operator}")
    if (lambda_grid is None) == (row == "empirical_constant"):  # a sweep needs a grid, and no other row reads one
        raise UsageError(f"operator {operator} {'needs a' if lambda_grid is None else 'takes no'} lambda grid")
    return spec, None if lambda_grid is None else _lambda_grid(lambda_grid)


def run_weak_type_suite(operator: str, spec: FunctionSpec | str, count: int = 1, lambda_grid=None,
                        seed: int = 0) -> SummabilityReport:
    """Empirical-constant sweep for a maximal/Schipp operator over a family.

    Weak-type operators (M, V, V1, V2) record lambda mu{T f > lambda} against
    their gauges (1 + E1 for the M family, the L1 norm E0 for the V family);
    M1/M2 record the integral ratio; Sch-ratio records the pointwise
    strong-sum to V-operator ratio.  Instance i = 0..count-1 runs on its own
    (`_weak_type_instance`), on the function of `spec` at seed + i, and keeps
    only its row.
    """
    spec, grid = _weak_type_args(operator, spec, count, lambda_grid)
    report = SummabilityReport(
        "weak_type", spec.text if count == 1 else f"{spec.text}#x{count}", spec.bits, seed,
    )
    suite_best, sweep_max = 0.0, None if grid is None else np.zeros(len(grid))  # a sweep is >= +0.0
    for i in range(count):
        param, value, normalized = _weak_type_instance(operator, spec, seed + i, grid)
        report.add(param, i, value)
        suite_best = max(suite_best, value)
        if grid is not None:
            sweep_max = np.maximum(sweep_max, normalized)
    if grid is not None:
        for lam, val in zip(grid, sweep_max):
            report.add("normalized_max", lam, val)
    report.add("suite_max", 0.0, suite_best)
    report.validate()
    return report


# ---------------------------------------------------------------------------
# Config-file driven execution (plain INI: one section per experiment id).


def _numbers(text: str, what: str, kind: type = float) -> list:
    """The comma-separated numbers of `text`; empty items are skipped."""
    return [parse_number(tok, kind, what) for tok in text.split(",") if tok]


def _pairs(text: str, what: str) -> list[tuple[float, float]]:
    values = _numbers(text, what)
    if len(values) % 2:
        raise UsageError("probes must be x,y pairs")
    return list(zip(values[0::2], values[1::2]))


def _phi(text: str, what: str) -> PhiFunction:
    tag, _, param = text.partition(":")
    if tag not in ("exp_minus_one", "power"):
        raise UsageError(f"unknown phi spec {text!r} (expected exp_minus_one:<a> or power:<p>)")
    return getattr(PhiFunction, tag)(parse_number(param or "1", what=f"phi parameter of {text!r}"))


# one reader per value shape: (text, what=) -> value, `what` naming the key and section
READERS = {
    "int": functools.partial(parse_number, kind=int), "float": parse_number,
    "int list": functools.partial(_numbers, kind=int), "float list": _numbers,
    "x,y pairs": _pairs, "phi": _phi, "text": lambda text, what: text,
    "spec": lambda text, what: FunctionSpec.parse(text),
}

# kind: (its runner's name, read when a section is made so that a tracer which
# rebinds it sees every run; the runner's argument checks; its key rows).  A row
# is (key, the runner parameter it feeds, its reader, the text read when the key
# is absent: REQUIRED, or None for a None argument).  theorem1's `mode` has no
# reader: it selects nothing, and it goes with ROADMAP item 1.
SECTIONS = {
    "theorem1": ("run_theorem1", _theorem1_args, (
        ("spec", "spec", "spec", REQUIRED), ("lambda", "lambda_grid", "float list", REQUIRED),
        ("mode", None, None, None))),
    "theorem2": ("run_theorem2", _theorem2_args, (
        ("spec", "spec", "spec", REQUIRED), ("a", "a", "float", "1"),
        ("m", "m_grid", "int list", REQUIRED), ("probes", "probes", "x,y pairs", None))),
    "rodin": ("run_rodin_1d", _rodin_args, (
        ("spec", "spec", "spec", REQUIRED), ("phi", "phi", "phi", "exp_minus_one:1"),
        ("m", "m_grid", "int list", REQUIRED), ("eps", "eps", "float", "0.01"))),
    "weak_type": ("run_weak_type_suite", _weak_type_args, (
        ("spec", "spec", "spec", REQUIRED), ("operator", "operator", "text", REQUIRED),
        ("count", "count", "int", "1"), ("lambda", "lambda_grid", "float list", None))),
}


class ExperimentConfig:
    """One config section: experiment, seed and the keys its kind reads.

    Every value is read by its row of `SECTIONS` and checked by the runner's
    argument checks when the section is made, so a bad one stops a run before
    any section runs.  `call(seed=...)` runs the section; `seed` is None where
    the run's default seed applies."""

    def __init__(self, name: str, options: dict[str, str]):
        self.name, self.options = name, options
        kind = self.get("experiment")
        if kind not in SECTIONS:
            raise UsageError(f"unknown experiment kind {kind!r} in section {self.name!r}")
        runner, checked, rows = SECTIONS[kind]
        keys = ["experiment", "seed", *(row[0] for row in rows)]
        for key in self.options:  # a misspelled key would leave its default in force
            if key not in keys:
                raise UsageError(f"unknown key {key!r} in section {self.name!r}: "
                                 f"a {kind} section takes {', '.join(keys)}")
        self.seed = self.read("seed", "int", None)
        if self.seed is not None and self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed} in section {self.name!r}")
        args = {param: self.read(key, reader, default) for key, param, reader, default in rows if reader}
        checked(**args)  # every range the values fix, before any section runs
        self.call = functools.partial(globals()[runner], **args)

    def get(self, key: str, default=REQUIRED):
        value = self.options.get(key, default)
        if value is REQUIRED:
            raise UsageError(f"experiment {self.name!r} is missing required key {key!r}")
        return value

    def read(self, key: str, reader: str, default):
        """The value under `key` (or `default`) read as `reader`; None stays None."""
        text = self.get(key, default)
        return None if text is None else READERS[reader](text, what=f"{key!r} in section {self.name!r}")


def load_config(path) -> list[ExperimentConfig]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = "; ".join(line.strip() for line in str(exc).splitlines())
        raise UsageError(f"config file {path!r} is malformed: {detail}") from None
    if not read:
        raise UsageError(f"config file {path!r} not found or empty")
    return [ExperimentConfig(name, dict(parser.items(name))) for name in parser.sections()]


def run_configured(cfg: ExperimentConfig, default_seed: int = 0) -> SummabilityReport:
    """Run one config section, at `default_seed` where it sets no seed."""
    report = cfg.call(seed=default_seed if cfg.seed is None else cfg.seed)
    report.experiment = cfg.name
    return report
