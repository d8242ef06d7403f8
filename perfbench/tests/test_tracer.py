"""Self-time arithmetic, the generator wrapper and the installed tracer."""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tracer

ROOT = Path(__file__).resolve().parents[2]


def span(sid, parent, name, start, end, peak=0):
    return (sid, parent, name, start, end, peak)


def test_self_time_is_duration_minus_children_on_one_thread():
    spans = [
        span(1, None, "cli.main", 0, 10),
        span(2, 1, "experiments.run_theorem1", 1, 4),
        span(3, 2, "transform._fwht", 2, 3),
        span(4, 1, "means.bmo_of_diagonal_sums", 5, 9),
    ]
    assert tracer.self_times(spans) == {1: 3, 2: 2, 3: 1, 4: 4}


def test_overlapping_worker_spans_split_the_wall_time():
    # two worker-thread roots under cli.main overlap on [2, 5): each gets half
    spans = [
        span(1, None, "cli.main", 0, 10),
        span(2, 1, "experiments.run_configured", 1, 7),
        span(3, 1, "experiments.run_configured", 2, 5),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 4, 2: 4.5, 3: 1.5}
    assert sum(own.values()) == 10


def test_child_ending_with_its_parent_leaves_no_gap():
    spans = [span(1, None, "cli.main", 0, 4), span(2, 1, "sums.quadratic_sums", 2, 4)]
    assert tracer.self_times(spans) == {1: 2, 2: 2}


def test_layer_metrics_books_self_time_calls_and_blocks():
    ns = tracer.NS_PER_S
    trace = {
        "spans": [
            span(1, None, "cli.main", 0, 10 * ns, 5 << 20),
            span(2, 1, "means.bmo_of_diagonal_sums", 1 * ns, 9 * ns, 3 << 20),
            span(3, 2, tracer.BLOCK_SPAN, 2 * ns, 4 * ns, 2 << 20),
            span(4, 2, tracer.BLOCK_SPAN, 5 * ns, 6 * ns, 1 << 20),
        ],
        "counters": {"means.bmo_pairs": 7},
        "caches": {"walsh_matrix": {"hits": 3, "misses": 1},
                   "walsh_matrix_f64": {"hits": 0, "misses": 0}},
    }
    out = tracer.layer_metrics(trace)
    assert out["cli.self_s"] == 2 and out["means.self_s"] == 5 and out["sums.self_s"] == 3
    assert out["sums.calls"] == 2 and out["cli.calls"] == 1 and out["dyadic.calls"] == 0
    assert out["sums.block_s"] == 3
    assert out["means.peak_mb"] == 3 and out["cli.peak_mb"] == 5
    assert out["means.bmo_pairs"] == 7 and out["transform.points"] == 0
    assert out["dyadic.walsh_matrix_builds"] == 1
    assert out["dyadic.walsh_cache_hit_ratio"] == 0.75


def test_generator_wrapper_spans_each_next_under_the_consumer():
    t = tracer.Tracer()
    closed = []

    def blocks(n):
        try:
            for i in range(n):
                yield i
        finally:
            closed.append(n)

    gen = t.wrap_generator("sums", "blocks", blocks)
    consume = t.wrap("means", "consume", lambda n: sum(gen(n)))
    assert consume(3) == 3
    names = [s[2] for s in t.spans]
    assert names.count("sums.blocks.next") == 4  # three items and the StopIteration
    root = next(s for s in t.spans if s[2] == "means.consume")
    assert all(s[1] == root[0] for s in t.spans if s[2] == "sums.blocks.next")
    assert closed == [3]

    for _ in gen(5):  # an abandoned generator still closes the wrapped one
        break
    assert closed == [3, 5]


def test_wrapper_records_the_span_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("cli", "boom", boom)()
    assert [s[2] for s in t.spans] == ["cli.boom"] and t._stack() == []


def test_counters_and_spans_survive_concurrent_workers():
    t = tracer.Tracer(memory=True)
    tracer.COUNTERS["transform.bump"] = lambda tr, *_: tr.count("transform.points", 1)
    bump = t.wrap("transform", "bump", lambda: None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [bump() for _ in range(2000)])
                   for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
        del tracer.COUNTERS["transform.bump"]
    assert t.counters["transform.points"] == 6 * 2000
    assert len(t.spans) == 6 * 2000 and len({s[0] for s in t.spans}) == 6 * 2000
    assert t._open_peaks == {}


TINY_CONFIG = """
[t1]
experiment = theorem1
spec = random-step:level=2,dim=2@B=4
lambda = 0.1,0.5
mode = streaming

[v]
experiment = weak_type
operator = V1
spec = random-step:level=2,dim=2@B=3
count = 2
lambda = 0.1,0.5
"""


def test_traced_run_matches_untraced_and_reaches_imported_names(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["run", str(config), "--seed", "4", "--threads", "2"]
    plain = subprocess.run([sys.executable, "-m", "wss.cli", *args, "--out", str(tmp_path / "a")],
                           env=env, capture_output=True)
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans",
         str(tmp_path / "spans.json"), "--memory", "--", *args, "--out", str(tmp_path / "b")],
        env=env, capture_output=True)
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
    report = (tmp_path / "a" / "report.csv").read_bytes()
    assert report == (tmp_path / "b" / "report.csv").read_bytes()
    trace = json.loads((tmp_path / "spans.json").read_text())
    names = {s[2] for s in trace["spans"]}
    # bound by `from .maximal import ...` in wss.experiments, and by
    # `from .transform import _fwht` in wss.sums
    assert {"maximal.hybrid_v_1", "maximal.schipp_v_max", "transform._fwht",
            "dyadic.walsh_matrix_f64", tracer.BLOCK_SPAN, "cli.main"} <= names
    by_id = {s[0]: s for s in trace["spans"]}
    root = [s for s in trace["spans"] if s[1] is None]
    assert [s[2] for s in root] == ["cli.main"]  # worker-thread spans hang under it
    assert all(s[1] in by_id for s in trace["spans"] if s[1] is not None)
    out = tracer.layer_metrics(trace)
    assert out["means.bmo_pairs"] == 16 * 16 * 31
    assert out["sums.field_values"] == 16 * 16 * 17
    assert out["maximal.operator_points"] == 2 * 64
    assert out["transform.points"] > 0 and out["experiments.peak_mb"] > 0
