"""Outside-in tracer for `wss run`: spans per wss layer, without touching wss.

Run as a drop-in for ``python3 -m wss.cli``::

    python3 perfbench/tracer.py --spans spans.json -- run CONFIG --seed 7 --out DIR

It imports wss, replaces every public function and public method of each
layer module (plus ``transform._fwht`` and the Walsh-matrix lru_caches) by a
wrapper that records a span, rebinds each wrapper in every wss namespace that
had imported the original, runs ``wss.cli.main`` and writes the spans, the
work counters and the cache statistics to the JSON file at exit.  Generator
methods (``DiagonalSumField.iter_sequence_blocks``) get one span per
``next()``, so sequence generation is booked to ``sums`` rather than to the
consumer in ``means``.

A span is (id, parent, name, start_ns, end_ns, peak_bytes), times from
``time.perf_counter_ns``.  With --memory,
peak_bytes is the tracemalloc peak while the span was open, above the traced
memory at entry; without it, peak_bytes is 0 and the run is several times
less perturbed.
Worker-thread spans with no open span in their own thread take the root span
(``cli.main``) as parent.  `layer_metrics` turns spans into per-layer self
time, call counts and peaks.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("generators", "dyadic", "transform", "sums", "means", "maximal", "experiments", "cli")
PRIVATE_ENTRY_POINTS = {"transform": ("_fwht",)}
WALSH_CACHES = ("walsh_matrix", "walsh_matrix_f64")
BLOCK_SPAN = "sums.DiagonalSumField.iter_sequence_blocks.next"
MIB = float(1 << 20)
NS_PER_S = 1e9


def _count_fwht(tracer, args, kwargs, result, outermost):
    values = args[0]
    axis = args[1] if len(args) > 1 else kwargs["axis"]
    n = values.shape[axis]
    tracer.count("transform.points", values.size)
    # one read and one write of every float64 sample per radix-2 stage
    tracer.count("transform.bytes_computed", values.size * 8 * 2 * (n.bit_length() - 1))


def _count_cube(tracer, args, kwargs, result, outermost):
    if result.values is not None:
        tracer.count("sums.field_values", result.values.size)


def _count_streamed(tracer, args, kwargs, result, outermost):
    if args[0].streaming:
        block = result[1] if isinstance(result, tuple) else result
        tracer.count("sums.field_values", block.size)


def _count_bmo_field(tracer, args, kwargs, result, outermost):
    n = args[0].size
    tracer.count("means.bmo_pairs", n * n * (2 * n - 1))


def _count_operator(tracer, args, kwargs, result, outermost):
    values = getattr(result, "values", None)
    if outermost and values is not None:
        tracer.count("maximal.operator_points", values.size)


COUNTERS = {
    "transform._fwht": _count_fwht,
    "sums.quadratic_sums": _count_cube,
    "sums.DiagonalSumField.iter_sequence_blocks": _count_streamed,
    "sums.DiagonalSumField.sequence_at": _count_streamed,
    "sums.DiagonalSumField.slice_at": _count_streamed,
    "means.bmo_of_diagonal_sums": _count_bmo_field,
}
LAYER_COUNTERS = {"maximal": _count_operator}


class Tracer:
    """Records spans and counters in memory; `install` wraps the wss layers.

    With memory=True every span boundary also samples tracemalloc, which
    slows numpy-heavy code several times over, so timings come from a pass
    with memory=False and the peaks from a separate pass.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.caches: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_peaks: dict[int, list[int]] = {}
        self._root: int | None = None

    def count(self, key: str, amount: int) -> None:
        with self._lock:  # sections on worker threads update the same counters
            self.counters[key] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sample_memory(self) -> int:
        """Fold the peak since the last sample into every open span; restart it."""
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._open_peaks.values():
            if peak > entry[1]:
                entry[1] = peak
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str, layer: str) -> tuple:
        stack = self._stack()
        outermost = all(open_layer != layer for _, open_layer in stack)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self._root
        if self._root is None:
            self._root = sid
        if self.memory:
            with self._lock:
                current = self._sample_memory()
                self._open_peaks[sid] = [current, current]
        stack.append((sid, layer))
        return sid, parent, name, outermost, time.perf_counter_ns()

    def exit(self, token: tuple) -> None:
        end = time.perf_counter_ns()
        sid, parent, name, _, start = token
        self._stack().pop()
        grown = 0
        if self.memory:
            with self._lock:
                self._sample_memory()
                base, peak = self._open_peaks.pop(sid)
            grown = peak - base
        self.spans.append((sid, parent, name, start, end, grown))

    def wrap(self, layer: str, qualname: str, fn):
        name = f"{layer}.{qualname}"
        counter = COUNTERS.get(name, LAYER_COUNTERS.get(layer))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(token)
            if counter is not None:
                counter(self, args, kwargs, result, token[3])
            return result

        return traced

    def wrap_generator(self, layer: str, qualname: str, fn):
        """One span per next(): the generator's own work, not its consumer's."""
        name = f"{layer}.{qualname}.next"
        counter = COUNTERS.get(f"{layer}.{qualname}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    token = self.enter(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit(token)
                    if counter is not None:
                        counter(self, args, kwargs, item, token[3])
                    yield item
            finally:
                gen.close()

        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(layer, qualname, raw.__func__)))
            elif inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self.wrap_generator(layer, qualname, raw))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(layer, qualname, raw))

    def install(self) -> None:
        """Wrap every layer's entry points and rebind them wherever imported."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wss.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not attr.startswith("_"):
                        self._wrap_class(layer, obj)
                elif callable(obj) and (
                    not attr.startswith("_") or attr in PRIVATE_ENTRY_POINTS.get(layer, ())
                ):
                    if attr in WALSH_CACHES:
                        self.caches[attr] = obj
                    replacements[id(obj)] = self.wrap(layer, attr, obj)
        for modname, module in list(sys.modules.items()):
            if modname == "wss" or modname.startswith("wss."):
                for attr, obj in list(vars(module).items()):
                    wrapper = replacements.get(id(obj))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        caches = {name: cache.cache_info()._asdict() for name, cache in self.caches.items()}
        text = json.dumps({"counters": dict(self.counters), "caches": caches, "spans": self.spans})
        with open(path, "w") as handle:
            handle.write(text)


def self_times(spans) -> dict[int, float]:
    """Each span's share of wall time while it was the innermost open span.

    Wall time between consecutive span boundaries is split equally between
    the open spans that have no open child, so with one thread this is the
    usual duration minus children, and with worker threads the self times of
    all spans still add up to the wall time the spans cover.
    """
    parent = {}
    events = []
    for sid, par, _name, start, end, *_ in spans:
        parent[sid] = par
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    active: set[int] = set()
    leaves: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    own: dict[int, float] = defaultdict(float)
    last = None
    for t, is_enter, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        par = parent[sid]
        if is_enter:
            active.add(sid)
            leaves.add(sid)
            if par in active:
                open_children[par] += 1
                leaves.discard(par)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if par in active:
                open_children[par] -= 1
                if open_children[par] == 0:
                    leaves.add(par)
    return {sid: own.get(sid, 0.0) for sid in parent}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer self_s, calls and peak_mb, plus the layer-specific counters."""
    spans = trace["spans"]
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.peak_mb"] = 0.0
    block_s = 0.0
    for sid, _par, name, start, end, peak in spans:
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own[sid] / NS_PER_S
        out[f"{layer}.calls"] += 1
        out[f"{layer}.peak_mb"] = max(out[f"{layer}.peak_mb"], peak / MIB)
        if name == BLOCK_SPAN:
            block_s += (end - start) / NS_PER_S
    out["sums.block_s"] = block_s
    for key in ("transform.points", "transform.bytes_computed", "sums.field_values",
                "means.bmo_pairs", "maximal.operator_points"):
        out[key] = trace["counters"].get(key, 0)
    caches = trace["caches"].values()
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    out["dyadic.walsh_matrix_builds"] = misses
    out["dyadic.walsh_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--memory", action="store_true",
                        help="also record tracemalloc peaks (slow; use a separate pass)")
    parser.add_argument("wss_args", nargs=argparse.REMAINDER, help="arguments after --, as for wss")
    args = parser.parse_args(argv)
    wss_args = args.wss_args[1:] if args.wss_args[:1] == ["--"] else args.wss_args
    import wss.cli

    tracer = Tracer(memory=args.memory)
    tracer.install()
    if args.memory:
        tracemalloc.start()
    try:
        return wss.cli.main(wss_args)
    finally:
        tracemalloc.stop()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
