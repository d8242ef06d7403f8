#!/usr/bin/env python3
"""Benchmark of `wss run`, driven from outside the program.

    python3 perfbench/run.py --workload theorem1-bmo --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each workload is an INI file in perfbench/workloads run as
``python3 -m wss.cli run FILE --seed S --threads T --out DIR`` in a fresh
process, with the checkout's ``src`` on PYTHONPATH.

--trace 0 reports the end-to-end metrics: the median wall time of complete
runs repeated for --seconds, the median set-up time of fresh processes that
only import wss and load the config (one before each run), and the median
peak RSS of the runs.
--trace 1 alternates untraced runs with runs under perfbench/tracer.py for
--seconds, adds one tracemalloc pass, and reports the per-layer metrics.
``--workload all`` runs every workload in both modes.

Every mode gates correctness, outside the timed region: oracle spot checks
on the seed's own inputs, a run at the other thread count whose report every
timed (and traced) report must match byte for byte, and a run at the
reference seed that must match perfbench/reference/<workload>.csv within
rtol 1e-12.  A section fails when its run exits non-zero or any gate rejects
it; `failed`/`attempted` count section checks.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Environment and per-run figures go to
.perfbench/results/.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

# workload -> --threads of its timed runs; the gate re-runs at the other count
WORKLOADS = {"theorem1-bmo": 2, "weak-type-operators": 1, "spectral-large": 1}
REFERENCE_SEED = 1503
MIN_TIMED_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import tracer  # noqa: E402
from tracer import LAYERS  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"), ("peak_mb", "MB"))},
    "transform.points": "count",
    "transform.bytes_computed": "bytes",
    "sums.block_s": "s",
    "sums.field_values": "count",
    "means.bmo_pairs": "count",
    "maximal.operator_points": "count",
    "dyadic.walsh_matrix_builds": "count",
    "dyadic.walsh_cache_hit_ratio": "ratio",
    "experiments.report_drift": "ratio",
    "cli.cpu_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}



class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken set-up)."""


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    report: bytes | None


def spawn(argv: list[str], log: Path, out_dir: Path | None = None) -> Run:
    """Run one child to completion; wall time from spawn to exit, own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if out_dir is not None and proc.returncode == 0 and (out_dir / "report.csv").is_file():
        report = (out_dir / "report.csv").read_bytes()
    return Run(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
               proc.returncode, report)


class Workload:
    """One workload's config, its runs and the section-level correctness tally."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.name = name
        self.seed = seed
        self.threads = WORKLOADS[name]
        self.other_threads = 1 if self.threads > 1 else 2
        self.config = BENCH_DIR / "workloads" / f"{name}.ini"
        self.reference = BENCH_DIR / "reference" / f"{name}.csv"
        self.parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        if not self.parser.read(self.config):
            raise BenchError(f"missing workload config {self.config}")
        self.sections = self.parser.sections()
        self.tmp = tmp
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def wss(self, seed: int, threads: int, traced: str | None = None) -> tuple[Run, Path]:
        """One `wss run`; traced is None, "timing" or "memory"."""
        self.count += 1
        out = self.tmp / f"run{self.count}"
        spans = self.tmp / f"spans{self.count}.json"
        args = ["run", str(self.config), "--seed", str(seed), "--threads", str(threads),
                "--out", str(out)]
        if traced is None:
            argv = [sys.executable, "-m", "wss.cli", *args]
        else:
            memory = ["--memory"] if traced == "memory" else []
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans),
                    *memory, "--", *args]
        return spawn(argv, self.tmp / f"log{self.count}.txt", out), spans

    def tally(self, label: str, failing: set[str]) -> None:
        self.attempted += len(self.sections)
        self.failed += len(failing)
        if failing:
            self.problems.append(f"{label}: {', '.join(sorted(failing))}")

    def gate(self, label: str, run: Run, expected: bytes | None) -> None:
        """A run fails every section on a bad exit, else those that differ."""
        if run.report is None or expected is None:
            self.tally(f"{label} (exit {run.code})", set(self.sections))
        else:
            self.tally(label, checks.differing_sections(run.report, expected, self.sections))


def setup_once(work: Workload) -> float:
    """Wall seconds of a fresh process that only imports wss and loads the config."""
    code = "import sys, wss; from wss.experiments import load_config; load_config(sys.argv[1])"
    log = work.tmp / "setup.txt"
    run = spawn([sys.executable, "-c", code, str(work.config)], log)
    if run.code != 0:
        raise BenchError(f"set-up process failed: {log.read_text()}")
    return run.wall_s


def correctness_gates(work: Workload) -> tuple[bytes | None, float]:
    """Untimed gates; returns the report every timed run must reproduce and the
    largest relative drift from the stored reference."""
    check, _ = work.wss(work.seed, work.other_threads)
    if check.report is None:
        work.tally(f"--threads {work.other_threads} run (exit {check.code})", set(work.sections))
    else:
        problems = checks.spot_checks(work.config, work.seed, check.report)
        work.tally("oracle spot checks", {name for name, found in problems.items() if found})
        work.problems.extend(f"  {name}: {p}" for name, found in problems.items() for p in found)
    ref_run, _ = work.wss(REFERENCE_SEED, work.other_threads)
    drift = 0.0
    if ref_run.report is None or not work.reference.is_file():
        work.tally(f"reference seed run (exit {ref_run.code})", set(work.sections))
    else:
        failing, drift = checks.reference_drift(
            ref_run.report, work.reference.read_bytes(), work.sections)
        work.tally(f"reference {work.reference.name} at rtol {checks.REFERENCE_RTOL:g}", failing)
    return check.report, drift


def timed_runs(work: Workload, seconds: float,
               expected: bytes | None) -> tuple[list[Run], list[float]]:
    """Timed runs for `seconds`, each preceded by one set-up sample, so both
    medians cover the same stretch of machine time."""
    runs: list[Run] = []
    setups: list[float] = []
    start = time.perf_counter()
    while len(runs) < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        setups.append(setup_once(work))
        run, _ = work.wss(work.seed, work.threads)
        work.gate(f"timed run {len(runs) + 1} vs --threads {work.other_threads}", run, expected)
        runs.append(run)
    return runs, setups


def traced_runs(work: Workload, seconds: float, expected: bytes | None,
                drift: float) -> dict[str, float]:
    """Untraced and traced runs in turn for `seconds`, then one tracemalloc run."""
    plain: list[Run] = []
    setups: list[float] = []
    layers: list[dict[str, float]] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    while len(plain) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        setups.append(setup_once(work))
        run, _ = work.wss(work.seed, work.threads)
        work.gate("untraced run", run, expected)
        plain.append(run)
        run, spans = work.wss(work.seed, work.threads, traced="timing")
        work.gate("traced run vs untraced", run, expected)
        if run.code == 0:
            layers.append(tracer.layer_metrics(json.loads(spans.read_text())))
            traced_walls.append(run.wall_s)
    run, spans = work.wss(work.seed, work.threads, traced="memory")
    work.gate("tracemalloc run vs untraced", run, expected)
    peaks = tracer.layer_metrics(json.loads(spans.read_text())) if run.code == 0 else {}
    if not layers:
        return {}
    out = {name: statistics.median(found[name] for found in layers) for name in layers[0]}
    for layer in LAYERS:
        out[f"{layer}.peak_mb"] = peaks.get(f"{layer}.peak_mb", 0.0)
    traced = statistics.median(traced_walls)
    own = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["cli.cpu_s"] = statistics.median(r.cpu_s for r in plain)
    out["experiments.report_drift"] = drift
    out["trace.overhead"] = traced / statistics.median(r.wall_s for r in plain) - 1.0
    out["trace.coverage"] = (own + statistics.median(setups)) / traced
    return out


def _cache_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def environment(work: Workload) -> dict:
    """Machine, versions and the computed array sizes against the LLC."""
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = _cache_bytes((index / "size").read_text())
        except (OSError, ValueError, KeyError):
            continue
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = target.read_text().strip() if target and target.is_file() else ref
    llc = max((size for name, size in caches.items() if "Instruction" not in name), default=0)
    arrays = {}
    for name in work.sections:
        section = work.parser[name]
        bits = int(section["spec"].rsplit("@B=", 1)[1])
        if section["experiment"] == "rodin" or section.get("operator") == "Sch-ratio":
            arrays[name] = ((1 << bits) + 1) * (1 << bits) * 8  # the partial-sum table
        else:
            arrays[name] = (1 << (bits if "dim=1" in section["spec"] else 2 * bits)) * 8
    largest = max(arrays.values())
    return {
        "workload": work.name, "seed": work.seed, "threads": work.threads,
        "nproc": os.cpu_count(), "cpu_model": model, "cache_bytes": caches,
        "python": platform.python_version(), "numpy": numpy.__version__, "git_sha": sha,
        "largest_array_bytes_computed": arrays, "llc_bytes": llc,
        "largest_array_over_llc_computed": largest / llc if llc else None,
    }


def bench(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    work = Workload(name, seed, tmp)
    expected, drift = correctness_gates(work)
    if trace:
        metrics = traced_runs(work, seconds, expected, drift)
        units, runs = PER_LAYER, None
    else:
        runs, setups = timed_runs(work, seconds, expected)
        ok = [r for r in runs if r.code == 0] or runs
        metrics = {
            "run_s": statistics.median(r.wall_s for r in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        }
        units = END_TO_END
    missing = [m for m in units if m not in metrics]
    if missing:
        work.tally(f"no traced run produced {', '.join(missing)}", set(work.sections))
    return {
        "workload": name,
        "correct": work.failed == 0 and not missing,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {m: {"value": metrics.get(m, 0.0), "unit": u} for m, u in units.items()},
        "runs": None if runs is None else [r.wall_s for r in runs],
        "problems": work.problems,
        "environment": environment(work),
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then fail_rate."""
    lines = [f"[{result['workload']}]"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    if result["runs"] is not None:
        lines.append(f"  {'run_s samples':<30} {len(result['runs']):>16d} runs")
    rate = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_rate':<30} {rate:>16.6g} ratio "
                 f"({result['failed']} of {result['attempted']} section checks)")
    lines.extend(f"  FAIL {p}" for p in result["problems"])
    lines.append("  environment: " + json.dumps(result["environment"]))
    return lines


def write_reference(name: str, tmp: Path) -> None:
    work = Workload(name, REFERENCE_SEED, tmp)
    run, _ = work.wss(REFERENCE_SEED, work.threads)
    if run.report is None:
        raise BenchError(f"reference run of {name} exited {run.code}")
    work.reference.parent.mkdir(exist_ok=True)
    work.reference.write_bytes(run.report)
    print(f"wrote {work.reference}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the reference reports (seed {REFERENCE_SEED}) and exit")
    args = parser.parse_args(argv)
    if not (SRC / "wss" / "__init__.py").is_file():
        print(f"error: no wss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    WORK_ROOT.mkdir(exist_ok=True)
    results = []
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            if args.write_reference:
                for name in names:
                    write_reference(name, Path(tmp))
                return 0
            for trace in modes:
                for name in names:
                    result = bench(name, args.seed, args.seconds, trace, Path(tmp))
                    print("\n".join(describe(result)), flush=True)
                    results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    saved = WORK_ROOT / "results"
    saved.mkdir(exist_ok=True)
    stamp = f"{'all' if len(results) > 1 else results[0]['workload']}-seed{args.seed}"
    (saved / f"{stamp}-trace{args.trace}.json").write_text(json.dumps(results, indent=1))
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        metrics.update({prefix + m: v for m, v in result["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
