"""Experiment runners and CSV reporting for the summability harness.

Every runner returns a SummabilityReport whose rows flatten to the fixed CSV
schema  experiment,spec,B,seed,param,lambda_or_m,value  with floats printed
at 17 significant digits.  Runner internals stick to elementwise numpy,
cumulative sums and fixed-tree reductions, so reports are byte-identical
across runs and thread counts.
"""
from __future__ import annotations

import configparser
import csv
import io
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dyadic import walsh_row
from .errors import DataError, UsageError
from .generators import FunctionSpec, generate_function, parse_number
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
from .sums import BLOCK_BYTES, _prefix_sums, dyadic_square_sums, quadratic_sums
from .transform import DyadicGrid1D, DyadicGrid2D, _pow2_scaled, wht_1d

CSV_FIELDS = ("experiment", "spec", "B", "seed", "param", "lambda_or_m", "value")

WEAK_TYPE_OPERATORS = ("M", "M1", "M2", "V", "V1", "V2", "Sch-ratio")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class SummabilityReport:
    """One experiment's outcome: identification plus (param, key, value) rows."""

    experiment: str
    spec: str
    bits: int
    seed: int
    rows: list[tuple[str, float, float]] = field(default_factory=list)

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

    def csv_rows(self) -> list[list[str]]:
        head = [self.experiment, self.spec, str(self.bits), str(self.seed)]
        return [head + [param, _fmt(key), _fmt(value)] for param, key, value in self.rows]


def write_reports_csv(reports: list[SummabilityReport], path) -> None:
    with open(path, "w", newline="") as handle:
        _write_reports(reports, handle)


def reports_csv_bytes(reports: list[SummabilityReport]) -> bytes:
    buf = io.StringIO(newline="")
    _write_reports(reports, buf)
    return buf.getvalue().encode()


def _write_reports(reports, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for report in reports:
        writer.writerows(report.csv_rows())


def _as_spec(spec: FunctionSpec | str) -> FunctionSpec:
    return spec if isinstance(spec, FunctionSpec) else FunctionSpec.parse(spec)


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


def run_theorem1(
    spec: FunctionSpec | str,
    lambda_grid,
    seed: int = 0,
) -> SummabilityReport:
    """Superlevel sweep of the pointwise BMO norm of the diagonal sums,
    normalized by 1 + the alpha=2 entropy functional of the input."""
    spec = _as_spec(spec)
    grid = _lambda_grid(lambda_grid)
    f = generate_function(spec, seed)
    if not isinstance(f, DyadicGrid2D):
        raise UsageError("theorem1 experiment needs a 2D function spec")
    bmo = bmo_of_diagonal_sums(quadratic_sums(f))
    report = SummabilityReport("theorem1", spec.text, spec.bits, seed)
    for alpha in (0, 1, 2):
        report.add("entropy", alpha, entropy_functional(f, alpha))
    denom = 1.0 + report.value("entropy", 2)
    best = 0.0
    for lam in grid:
        mu = superlevel_measure(bmo, lam)
        report.add("measure", lam, mu)
        best = max(best, lam * mu / denom)
    for lam, mu in zip(*report.series("measure")):
        report.add("normalized", lam, lam * mu / denom)
    report.add("empirical_constant", 0.0, best)
    report.validate()
    return report


def default_probes(spec: FunctionSpec) -> tuple[list[tuple[float, float]], float]:
    """Centers of level-2 cells interior to the spec's continuity regions.

    Returns (probes, excluded measure).  Cells cut by an indicator or spike
    boundary are excluded and their total measure reported; other generator
    kinds are resolved on their own cells, so nothing is excluded.
    """
    edges = [i / 4 for i in range(5)]
    cells = [(edges[i], edges[i + 1], edges[j], edges[j + 1]) for i in range(4) for j in range(4)]

    def cut_by(bounds: tuple[float, float, float, float]) -> bool:
        x0, x1, y0, y1 = bounds

        def crosses(edge: float, lo: float, hi: float) -> bool:
            return lo < edge < hi

        if spec.kind == "indicator-rect" and len(spec.positional) == 4:
            rx0, rx1, ry0, ry1 = spec.positional
            return any(crosses(e, x0, x1) for e in (rx0, rx1)) or any(
                crosses(e, y0, y1) for e in (ry0, ry1)
            )
        if spec.kind == "spike":
            level = spec.number("level", "0", int)
            edge = 2.0**-level
            return crosses(edge, x0, x1) or crosses(edge, y0, y1)
        return False

    probes = []
    excluded = 0
    for bounds in cells:
        if cut_by(bounds):
            excluded += 1
        else:
            probes.append((0.5 * (bounds[0] + bounds[1]), 0.5 * (bounds[2] + bounds[3])))
    return probes, excluded / len(cells)


def run_theorem2(
    spec: FunctionSpec | str,
    a: float,
    m_grid,
    probes: list[tuple[float, float]] | None = None,
    seed: int = 0,
) -> SummabilityReport:
    """Trajectories m -> (1/m) sum_{n<=m} (exp(a |S_nn - f|) - 1) at probe points."""
    spec = _as_spec(spec)
    if a <= 0:
        raise UsageError(f"exponential rate must be positive, got {a}")
    f = generate_function(spec, seed)
    if not isinstance(f, DyadicGrid2D):
        raise UsageError("theorem2 experiment needs a 2D function spec")
    ms = _m_grid(m_grid, f.size)
    excluded = 0.0
    if probes is None:
        probes, excluded = default_probes(spec)
    if not probes:
        raise UsageError("no probe points available for this spec")
    phi = PhiFunction.exp_minus_one(a)
    fld = quadratic_sums(f)
    report = SummabilityReport("theorem2", spec.text, spec.bits, seed)
    report.add("exceptional_measure", 0.0, excluded)
    for x, y in probes:
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise UsageError(f"probe ({x}, {y}) outside the unit square")
        ix, iy = int(x * f.size), int(y * f.size)
        seq = fld.sequence_at(ix, iy)
        label = f"phi_mean:window=B:probe={x:g};{y:g}"
        for m in ms:
            report.add(label, m, phi_mean_sequence(seq, f.samples[ix, iy], m, phi))
    report.validate()
    return report


def iter_rodin_means(f: DyadicGrid1D, phi: PhiFunction, ms) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m, (1/m) sum_{k=1..m} Phi(|S_k f - f|) on the grid) for m in `ms`.

    Paley blocks: for a = j 2^s and r = 1..2^s, S_{a+r} f = S_a f + w_a P_r,
    where P_r = sum_{i<r} c_{a+i} w_i lives on level-s cells, so
    |S_{a+r} f - f| = |P_r + w_a (S_a f - f)|.  A block holds 2^s N values
    within BLOCK_BYTES (1 <= s <= B) and the last one ends at max(ms):
    O(N max(ms)) time, O(2^s N) memory.  Overflow fails at its first block.
    """
    ms = _m_grid(ms, f.size)
    s = min(f.bits, max(1, (BLOCK_BYTES // (8 * f.size)).bit_length() - 1))
    width, c, i = 1 << s, wht_1d(f).samples, 0
    target = f.samples.reshape(width, -1)  # x = (level-s cell, offset in it)
    start, total = np.zeros_like(target), np.zeros_like(target)
    for a in range(0, ms[-1], width):
        prefix = _prefix_sums(c[a:a + width], s)[1:, :, None]  # P_r, r = 1..2^s
        sign = walsh_row(a, f.bits).reshape(width, -1)
        dev = prefix + sign * (start - target)  # w_a (S_{a+r} f - f)
        start = start + sign * prefix[-1]
        terms = phi(np.abs(dev, out=dev))
        terms[0] += total
        for r in range(1, width):  # the sum along k: row by row beats an axis-0 cumsum
            np.add(terms[r - 1], terms[r], out=terms[r])
        total = terms[-1]
        if not np.isfinite(total).all():
            raise DataError(f"rodin Phi-mean overflowed float64 by k = {a + width}; "
                            "lower the phi parameter")
        while i < len(ms) and ms[i] <= a + width:
            yield ms[i], terms[ms[i] - a - 1].reshape(-1) / ms[i]
            i += 1


def run_rodin_1d(
    spec: FunctionSpec | str,
    phi: PhiFunction,
    m_grid,
    eps: float = 0.01,
    seed: int = 0,
) -> SummabilityReport:
    """1D Phi-mean trajectories of |S_k - f| and their exceedance measures.

    For each m in the grid (1 <= m <= 2^B) the mean is
    (1/m) sum_{k=1..m} Phi(|S_k f - f|)(x) on the 2^B grid, streamed in Paley
    blocks by the identity S_{a+r} f = S_a f + w_a P_r (`iter_rodin_means`);
    the report holds its maximum over x and the measure of {x : mean > eps}.
    Rodin's theorem only says the mean tends to 0 a.e. as m -> oo: it gives
    no rate, so no finite m has a theoretical bound on the exceedance.
    """
    spec = _as_spec(spec)
    if eps <= 0:
        raise UsageError(f"exceedance threshold must be positive, got {eps}")
    f = generate_function(spec, seed)
    if not isinstance(f, DyadicGrid1D):
        raise UsageError("rodin experiment needs a 1D function spec")
    report = SummabilityReport("rodin", spec.text, spec.bits, seed)
    exceed_label = f"exceed:eps={eps:g}:phi={phi.describe()}"
    for m, means in iter_rodin_means(f, phi, m_grid):
        report.add(exceed_label, m, float((means > eps).mean()))
        report.add("mean_max", m, float(means.max()))
    report.validate()
    return report


def sch_ratio_max(f: DyadicGrid1D) -> float:
    """max over x and m = 1..bits of sqrt(2^-m sum_{l<2^m} (S_l f)(x)^2) / V(x, f).

    The strong quadratic means come from the scan `dyadic_square_sums` in
    O(N log N) time and O(N) memory, with no partial-sum table or Walsh
    matrix, so any depth the grid allows runs (the table route stopped at
    B = 13).  Points where the mean is 0 count as ratio 0.  The ratio is
    scale-invariant, so it runs on `_pow2_scaled` samples: the squared sums
    neither overflow nor underflow at extreme amplitudes, and in-range inputs
    keep every bit.
    """
    f = type(f)(f.bits, _pow2_scaled(f.samples)[1][0])
    squares = dyadic_square_sums(f)
    v = schipp_v_max(f).samples
    best = 0.0
    for m in range(1, f.bits + 1):
        lhs = np.repeat(np.sqrt(squares[m] / (1 << m)), 1 << (f.bits - m))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(lhs == 0.0, 0.0, lhs / v)
        best = max(best, float(ratio.max()))
    return best


def run_weak_type_suite(
    operator: str,
    specs: list[FunctionSpec | str],
    lambda_grid=None,
    seed: int = 0,
) -> SummabilityReport:
    """Empirical-constant sweep for a maximal/Schipp operator over a family.

    Weak-type operators (M, V, V1, V2) record lambda mu{T f > lambda} against
    their gauges (1 + entropy for M, the L1 norm for the V family); M1/M2
    record the integral ratio; Sch-ratio records the pointwise strong-sum to
    V-operator ratio.
    """
    if operator not in WEAK_TYPE_OPERATORS:
        raise UsageError(f"unknown operator {operator!r} (expected one of {WEAK_TYPE_OPERATORS})")
    parsed = [_as_spec(s) for s in specs]
    if not parsed:
        raise UsageError("weak-type suite needs at least one function spec")
    report = SummabilityReport(
        "weak_type", parsed[0].text if len(parsed) == 1 else f"{parsed[0].text}#x{len(parsed)}",
        parsed[0].bits, seed,
    )
    grid = _lambda_grid(lambda_grid) if lambda_grid is not None else None
    suite_best = 0.0
    sweep_max = None
    for i, spec in enumerate(parsed):
        f = generate_function(spec, seed + i)
        if operator == "Sch-ratio":
            if not isinstance(f, DyadicGrid1D):
                raise UsageError("Sch-ratio needs 1D specs")
            value = sch_ratio_max(f)
            report.add("sch_ratio", i, value)
            suite_best = max(suite_best, value)
            continue
        if operator in ("M1", "M2"):
            op = hybrid_maximal_1(f) if operator == "M1" else hybrid_maximal_2(f)
            exponent, (scaled,) = _pow2_scaled(op.samples)
            value = float(np.ldexp(scaled.mean(), exponent)) / (1.0 + entropy_functional(f, 1))
            report.add("integral_ratio", i, value)
            suite_best = max(suite_best, value)
            continue
        if grid is None:
            raise UsageError(f"operator {operator} needs a lambda grid")
        if operator == "M":
            op = dyadic_maximal(f)
            denom = 1.0 + entropy_functional(f, 1)
        elif operator == "V":
            if not isinstance(f, DyadicGrid1D):
                raise UsageError("operator V needs 1D specs")
            op = schipp_v_max(f)
            denom = entropy_functional(f, 0)
        else:
            op = hybrid_v_1(f) if operator == "V1" else hybrid_v_2(f)
            denom = entropy_functional(f, 0)
        if denom == 0.0:
            denom = np.finfo(np.float64).tiny
        normalized = np.array([lam * superlevel_measure(op, lam) / denom for lam in grid])
        if sweep_max is None:
            sweep_max = normalized
        else:
            sweep_max = np.maximum(sweep_max, normalized)
        best = float(normalized.max())
        report.add("empirical_constant", i, best)
        suite_best = max(suite_best, best)
    if sweep_max is not None:
        for lam, val in zip(grid, sweep_max):
            report.add("normalized_max", lam, val)
    report.add("suite_max", 0.0, suite_best)
    report.validate()
    return report


# ---------------------------------------------------------------------------
# Config-file driven execution (plain INI: one section per experiment id).


@dataclass
class ExperimentConfig:
    name: str
    options: dict[str, str]

    def get(self, key: str, default: str | None = None) -> str:
        value = self.options.get(key, default)
        if value is None:
            raise UsageError(f"experiment {self.name!r} is missing required key {key!r}")
        return value

    def numbers(self, key: str, default: str | None = None, kind: type = float) -> list:
        """The comma-separated numbers under `key`; empty items are skipped."""
        what = f"{key!r} in section {self.name!r}"
        return [parse_number(tok, kind, what) for tok in self.get(key, default).split(",") if tok]

    def number(self, key: str, default: str | None = None, kind: type = float):
        """The single number under `key`."""
        return parse_number(self.get(key, default), kind, f"{key!r} in section {self.name!r}")


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


def _parse_phi(text: str) -> PhiFunction:
    tag, _, param = text.partition(":")
    what = f"phi parameter of {text!r}"
    if tag == "exp_minus_one":
        return PhiFunction.exp_minus_one(parse_number(param or "1", what=what))
    if tag == "power":
        return PhiFunction.power(parse_number(param or "1", what=what))
    raise UsageError(f"unknown phi spec {text!r} (expected exp_minus_one:<a> or power:<p>)")


def run_configured(cfg: ExperimentConfig, default_seed: int = 0) -> SummabilityReport:
    """Dispatch one config section to its runner."""
    kind = cfg.get("experiment")
    seed = cfg.number("seed", str(default_seed), int)
    if kind == "theorem1":
        report = run_theorem1(cfg.get("spec"), cfg.numbers("lambda"), seed=seed)
    elif kind == "theorem2":
        probes = None
        if "probes" in cfg.options:
            vals = cfg.numbers("probes")
            if len(vals) % 2:
                raise UsageError("probes must be x,y pairs")
            probes = list(zip(vals[0::2], vals[1::2]))
        report = run_theorem2(
            cfg.get("spec"),
            cfg.number("a", "1"),
            cfg.numbers("m", kind=int),
            probes=probes,
            seed=seed,
        )
    elif kind == "rodin":
        report = run_rodin_1d(
            cfg.get("spec"),
            _parse_phi(cfg.options.get("phi", "exp_minus_one:1")),
            cfg.numbers("m", kind=int),
            eps=cfg.number("eps", "0.01"),
            seed=seed,
        )
    elif kind == "weak_type":
        count = cfg.number("count", "1", int)
        specs = [cfg.get("spec")] * count
        lambdas = cfg.numbers("lambda") if "lambda" in cfg.options else None
        report = run_weak_type_suite(cfg.get("operator"), specs, lambdas, seed=seed)
    else:
        raise UsageError(f"unknown experiment kind {kind!r} in section {cfg.name!r}")
    report.experiment = cfg.name
    return report
