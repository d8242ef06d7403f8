"""Correctness gates for benchmark reports.

Report comparisons (byte identity per section, reference drift) need only the
standard library.  The oracle spot checks import wss and recompute a few
values of each section on the benchmark's own generated inputs, by the
brute-force routes in ``wss.oracles`` or the defining sums, outside any timed
region.
"""
from __future__ import annotations

import csv
import io
import random
import re

REFERENCE_RTOL = 1e-12
ORACLE_RTOL = 1e-9
SAMPLED_POINTS = 3


def report_sections(report: bytes) -> dict[str, list[list[str]]]:
    """CSV rows of a report grouped by section (the `experiment` column)."""
    rows = list(csv.reader(io.StringIO(report.decode())))
    sections: dict[str, list[list[str]]] = {}
    for row in rows[1:]:
        sections.setdefault(row[0], []).append(row)
    return sections


def differing_sections(report: bytes, other: bytes, names) -> set[str]:
    """Sections whose rows are not byte-identical between two reports."""
    if report.split(b"\n", 1)[0] != other.split(b"\n", 1)[0]:
        return set(names)
    a, b = report_sections(report), report_sections(other)
    return {name for name in names if a.get(name) != b.get(name) or name not in a}


def relative_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def reference_drift(report: bytes, reference: bytes, names) -> tuple[set[str], float]:
    """Sections that leave the reference, and the largest relative value gap.

    Every non-value column must match exactly; values must agree within
    REFERENCE_RTOL.
    """
    got, ref = report_sections(report), report_sections(reference)
    failed: set[str] = set()
    drift = 0.0
    for name in names:
        rows, ref_rows = got.get(name, []), ref.get(name)
        if ref_rows is None or len(rows) != len(ref_rows):
            failed.add(name)
            continue
        for row, ref_row in zip(rows, ref_rows):
            if row[:6] != ref_row[:6]:
                failed.add(name)
                break
            gap = relative_gap(float(row[6]), float(ref_row[6]))
            drift = max(drift, gap)
            if gap > REFERENCE_RTOL:
                failed.add(name)
    return failed, drift


# ---------------------------------------------------------------------------
# Oracle spot checks (import wss lazily: the comparisons above must work
# without it).


def _close(fast, oracle) -> bool:
    import numpy as np

    fast, oracle = np.asarray(fast, dtype=float), np.asarray(oracle, dtype=float)
    scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
    return fast.shape == oracle.shape and bool(np.all(np.abs(fast - oracle) <= ORACLE_RTOL * scale))


def _resized(spec_text: str, bits: int):
    """The same generator at min(B, bits): a small instance with the same cells."""
    from wss.generators import FunctionSpec

    spec = FunctionSpec.parse(spec_text)
    return FunctionSpec.parse(re.sub(r"@B=\d+$", f"@B={min(spec.bits, bits)}", spec_text))


def _walsh_column(bits: int, idx: int):
    """w_k(x) for every k at the grid point x = idx 2^-bits, by definition."""
    import numpy as np
    from wss.dyadic import DyadicPoint, walsh

    point = DyadicPoint(idx, bits)
    return np.array([walsh(k, point) for k in range(1 << bits)], dtype=float)


def _diagonal_sequence(coeffs, bits: int, ix: int, iy: int):
    """n -> S_nn(x, y) = sum_{k, m < n} c[k, m] w_k(x) w_m(y), n = 0..2^bits."""
    import numpy as np

    terms = coeffs * np.multiply.outer(_walsh_column(bits, ix), _walsh_column(bits, iy))
    prefix = terms.cumsum(axis=0).cumsum(axis=1)
    return np.concatenate(([0.0], np.diagonal(prefix)))


def _check_theorem1(cfg, seed, rng, rows) -> list[str]:
    from wss.generators import generate_function
    from wss.means import bmo_of_diagonal_sums
    from wss.oracles import bmo_sequence_brute
    from wss.sums import quadratic_sums
    from wss.transform import wht_2d

    f = generate_function(cfg.get("spec"), seed)
    field = quadratic_sums(f, mode=cfg.options.get("mode", "auto"))
    bmo = bmo_of_diagonal_sums(field).samples
    coeffs = wht_2d(f).coeffs
    problems = []
    for _ in range(SAMPLED_POINTS):
        ix, iy = rng.randrange(f.size), rng.randrange(f.size)
        oracle = _diagonal_sequence(coeffs, f.bits, ix, iy)
        if not _close(field.sequence_at(ix, iy), oracle):
            problems.append(f"diagonal sums at ({ix}, {iy}) leave the defining sum")
        if relative_gap(bmo[ix, iy], bmo_sequence_brute(oracle[: f.size])) > ORACLE_RTOL:
            problems.append(f"BMO at ({ix}, {iy}) leaves bmo_sequence_brute")
    return problems


def _check_theorem2(cfg, seed, rng, rows) -> list[str]:
    import numpy as np
    from wss.experiments import default_probes
    from wss.generators import FunctionSpec, generate_function
    from wss.transform import wht_2d

    spec = FunctionSpec.parse(cfg.get("spec"))
    f = generate_function(spec, seed)
    a = float(cfg.options.get("a", "1"))
    if "probes" in cfg.options:
        vals = [float(v) for v in cfg.get("probes").split(",")]
        probes = list(zip(vals[0::2], vals[1::2]))
    else:
        probes = default_probes(spec)[0]
    coeffs = wht_2d(f).coeffs
    problems = []
    for x, y in rng.sample(probes, min(2, len(probes))):
        ix, iy = int(x * f.size), int(y * f.size)
        seq = _diagonal_sequence(coeffs, f.bits, ix, iy)
        label = f"phi_mean:window=B:probe={x:g};{y:g}"
        reported = [(float(r[5]), float(r[6])) for r in rows if r[4] == label]
        if not reported:
            problems.append(f"no {label} rows")
        for m, value in reported:
            m = int(m)
            oracle = float(np.mean(np.expm1(a * np.abs(seq[1 : m + 1] - f.samples[ix, iy]))))
            if relative_gap(value, oracle) > ORACLE_RTOL:
                problems.append(f"{label} at m={m} leaves the defining mean")
    return problems


def _check_rodin(cfg, seed, rng, rows) -> list[str]:
    import numpy as np
    from wss.generators import generate_function
    from wss.sums import all_partial_sums_1d
    from wss.transform import naive_wht_1d

    f = generate_function(_resized(cfg.get("spec"), 8), seed)
    coeffs = naive_wht_1d(f).coeffs
    oracle = np.zeros((f.size + 1, f.size))
    for ix in range(f.size):
        oracle[1:, ix] = np.cumsum(coeffs * _walsh_column(f.bits, ix))
    if not _close(all_partial_sums_1d(f), oracle):
        return ["partial-sum table leaves the defining sums (small instance)"]
    return []


def _check_weak_type(cfg, seed, rng, rows) -> list[str]:
    import numpy as np
    from wss import maximal, oracles
    from wss.experiments import sch_ratio_max
    from wss.generators import generate_function
    from wss.sums import partial_sum_1d
    from wss.transform import DyadicGrid1D, DyadicGrid2D

    def v_brute(samples):
        g = DyadicGrid1D.from_samples(samples)
        return np.max([oracles.schipp_v_brute(g, n) for n in range(1, g.bits + 1)], axis=0)

    operator = cfg.get("operator")
    small_bits = {"M": 6, "M1": 6, "M2": 6, "V": 8, "V1": 5, "V2": 5, "Sch-ratio": 7}[operator]
    f = generate_function(_resized(cfg.get("spec"), small_bits), seed)
    if operator == "M":
        ok = _close(maximal.dyadic_maximal(f).values, oracles.dyadic_maximal_brute(f))
    elif operator in ("M1", "M2"):
        fast = (maximal.hybrid_maximal_1 if operator == "M1" else maximal.hybrid_maximal_2)(f)
        a = DyadicGrid2D(f.bits, np.abs(f.samples))
        levels = [(n, f.bits) if operator == "M1" else (f.bits, n) for n in range(f.bits + 1)]
        brute = np.max([oracles.cell_averages_2d(a, *lv) for lv in levels], axis=0)
        ok = _close(fast.values, brute)
    elif operator == "V":
        ok = _close(maximal.schipp_v_max(f).values, v_brute(f.samples))
    elif operator in ("V1", "V2"):
        fast = (maximal.hybrid_v_1 if operator == "V1" else maximal.hybrid_v_2)(f).values
        ok = True
        for _ in range(SAMPLED_POINTS):
            i = rng.randrange(f.size)
            if operator == "V1":
                ok &= _close(fast[:, i], v_brute(f.samples[:, i]))
            else:
                ok &= _close(fast[i, :], v_brute(f.samples[i, :]))
    else:
        sums = np.array([partial_sum_1d(f, l).samples for l in range(f.size)])
        v = v_brute(f.samples)
        best = 0.0
        for m in range(1, f.bits + 1):
            lhs = np.sqrt((sums[: 1 << m] ** 2).mean(axis=0))
            best = max(best, float(np.where(lhs == 0.0, 0.0, lhs / v).max()))
        ok = relative_gap(sch_ratio_max(f), best) <= ORACLE_RTOL
    return [] if ok else [f"operator {operator} leaves its oracle (small instance)"]


CHECKS = {
    "theorem1": _check_theorem1,
    "theorem2": _check_theorem2,
    "rodin": _check_rodin,
    "weak_type": _check_weak_type,
}


def spot_checks(config_path, seed: int, report: bytes) -> dict[str, list[str]]:
    """Oracle problems per section of one run's report (empty lists when clean)."""
    from wss.experiments import load_config

    rng = random.Random(seed)
    sections = report_sections(report)
    problems = {}
    for cfg in load_config(str(config_path)):
        try:
            problems[cfg.name] = CHECKS[cfg.get("experiment")](
                cfg, seed, rng, sections.get(cfg.name, [])
            )
        except Exception as exc:  # a crashing fast path fails its section, not the benchmark
            problems[cfg.name] = [f"{type(exc).__name__}: {exc}"]
    return problems
