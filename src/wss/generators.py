"""Deterministic test-function generators and their one-token spec grammar.

A spec reads  kind:params@B=<bits>  with comma-separated params that are
either positional numbers or key=value pairs, e.g.

    indicator-rect:0,0.5,0,0.5@B=4      1 on [0,1/2) x [0,1/2)
    walsh-tensor:3,6@B=4                w_3(x) w_6(y); "3+9" sums characters
    random-step:level=3,seed=7@B=6      iid uniform values on level-3 cells
    random-spectrum:support=8,dim=2@B=6 iid coefficients below index 8
    spike:level=2,target=10@B=6         tall indicator with prescribed entropy

Randomness comes from a pinned portable generator: the raw 64-bit PCG64
stream seeded directly, mapped to [0, 1) doubles by taking the top 53 bits.
Identical (spec, seed) always reproduce the same grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import validate_bits, walsh_row
from .errors import UsageError
from .transform import DyadicGrid, DyadicGrid1D, DyadicGrid2D, inverse_wht_1d, inverse_wht_2d

KINDS = ("indicator-rect", "walsh-tensor", "random-step", "random-spectrum", "spike")


class SpecParseError(UsageError):
    """Malformed function spec; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        super().__init__(f"bad function spec at position {pos}: {message} (in {text!r})")


def parse_number(text: str, kind: type = float, what: str = "value"):
    """`text` as a finite int or float; anything else is a UsageError naming `what`."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        noun = "an integer" if kind is int else "a finite number"
        raise UsageError(f"{what} must be {noun}, got {text!r}")
    return value


def portable_uniforms(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1): top 53 bits of the raw PCG64(seed) stream."""
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    raw = np.random.PCG64(int(seed)).random_raw(int(count))
    return (raw >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class FunctionSpec:
    """Parsed form of a generator token; `text` keeps the original spelling."""

    kind: str
    bits: int
    positional: tuple[float, ...]
    options: tuple[tuple[str, str], ...]
    text: str

    @classmethod
    def parse(cls, text: str) -> "FunctionSpec":
        if "@" not in text:
            raise SpecParseError(text, len(text), "missing @B=<bits> suffix")
        body, _, tail = text.partition("@")
        if not tail.startswith("B="):
            raise SpecParseError(text, len(body) + 1, "suffix must be B=<bits>")
        try:
            bits = int(tail[2:])
        except ValueError:
            raise SpecParseError(text, len(body) + 3, f"bad bit depth {tail[2:]!r}") from None
        kind, sep, params = body.partition(":")
        if kind not in KINDS:
            raise SpecParseError(text, 0, f"unknown kind {kind!r} (expected one of {KINDS})")
        if not sep or not params:
            raise SpecParseError(text, len(kind), "missing parameter list after kind")
        positional: list[float] = []
        options: list[tuple[str, str]] = []
        cursor = len(kind) + 1
        for item in params.split(","):
            if not item:
                raise SpecParseError(text, cursor, "empty parameter")
            if "=" in item:
                key, _, value = item.partition("=")
                if not key or not value:
                    raise SpecParseError(text, cursor, f"bad key=value item {item!r}")
                options.append((key, value))
            elif "+" in item:
                # walsh-tensor group boundary; groups are re-read from `text`
                options.append(("+group", item))
            else:
                try:
                    positional.append(parse_number(item))
                except UsageError:
                    raise SpecParseError(text, cursor, f"bad number {item!r}") from None
            cursor += len(item) + 1
        return cls(kind, bits, tuple(positional), tuple(options), text)

    def option(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.options:
            if k == key:
                return v
        return default

    def number(self, key: str, default: str, kind: type = float):
        """Option `key` as a finite int or float."""
        return parse_number(self.option(key, default), kind, f"option {key} of {self.text!r}")

    @property
    def dims(self) -> int:
        if self.kind == "indicator-rect":
            return 1 if len(self.positional) == 2 else 2
        if self.kind == "walsh-tensor":
            groups = self._index_groups()
            return len(groups[0])
        if self.kind == "spike":
            return 2
        return self.number("dim", "2", int)

    def _index_groups(self) -> list[tuple[int, ...]]:
        """walsh-tensor index groups; "3,6" is one 2D group, "3+9" two 1D groups."""
        raw = self.text.partition(":")[2].partition("@")[0]
        groups = []
        for chunk in raw.split("+"):
            try:
                groups.append(tuple(int(tok) for tok in chunk.split(",")))
            except ValueError:
                raise SpecParseError(self.text, self.text.find(chunk), f"bad walsh index in {chunk!r}") from None
        widths = {len(g) for g in groups}
        if widths not in ({1}, {2}):
            raise SpecParseError(self.text, len(self.kind), "walsh-tensor groups must be all 1D or all 2D")
        return groups


def _seed_for(spec: FunctionSpec, seed: int) -> int:
    return spec.number("seed", str(seed), int)


def _dims_option(spec: FunctionSpec) -> int:
    dims = spec.number("dim", "2", int)
    if dims not in (1, 2):
        raise UsageError(f"dim must be 1 or 2, got {dims}")
    return dims


def _indicator_rect(spec: FunctionSpec) -> DyadicGrid:
    size = 1 << spec.bits
    xs = np.arange(size) / size
    if len(spec.positional) == 2:
        a, b = spec.positional
        return DyadicGrid1D(spec.bits, ((xs >= a) & (xs < b)).astype(np.float64))
    if len(spec.positional) != 4:
        raise SpecParseError(spec.text, len(spec.kind), "indicator-rect takes 2 or 4 corners")
    x0, x1, y0, y1 = spec.positional
    fx = (xs >= x0) & (xs < x1)
    fy = (xs >= y0) & (xs < y1)
    return DyadicGrid2D(spec.bits, np.multiply.outer(fx, fy).astype(np.float64))


def _walsh_tensor(spec: FunctionSpec) -> DyadicGrid:
    groups = spec._index_groups()
    size = 1 << spec.bits
    for g in groups:
        for k in g:
            if not 0 <= k < size:
                raise UsageError(f"walsh index {k} outside [0, 2^{spec.bits})")
    if len(groups[0]) == 1:
        samples = np.zeros(size)
        for (k,) in groups:
            samples += walsh_row(k, spec.bits)
        return DyadicGrid1D(spec.bits, samples)
    samples = np.zeros((size, size))
    for k, m in groups:
        samples += np.multiply.outer(
            walsh_row(k, spec.bits).astype(np.float64), walsh_row(m, spec.bits).astype(np.float64)
        )
    return DyadicGrid2D(spec.bits, samples)


def _random_step(spec: FunctionSpec, seed: int) -> DyadicGrid:
    level = spec.number("level", "-1", int)
    if not 0 <= level <= spec.bits:
        raise UsageError(f"random-step level {level} outside [0, {spec.bits}]")
    amp = spec.number("amp", "1")
    dims = _dims_option(spec)
    cells = 1 << level
    width = 1 << (spec.bits - level)
    u = portable_uniforms(_seed_for(spec, seed), cells**dims)
    values = amp * (2.0 * u - 1.0)
    if dims == 1:
        return DyadicGrid1D(spec.bits, np.repeat(values, width))
    grid = np.repeat(np.repeat(values.reshape(cells, cells), width, axis=0), width, axis=1)
    return DyadicGrid2D(spec.bits, grid)


def _random_spectrum(spec: FunctionSpec, seed: int) -> DyadicGrid:
    size = 1 << spec.bits
    support = spec.number("support", "0", int)
    if not 1 <= support <= size:
        raise UsageError(f"random-spectrum support {support} outside [1, 2^{spec.bits}]")
    amp = spec.number("amp", "1")
    dims = _dims_option(spec)
    u = portable_uniforms(_seed_for(spec, seed), support**dims)
    coeffs = amp * (2.0 * u - 1.0)
    if dims == 1:
        full = np.zeros(size)
        full[:support] = coeffs
        return inverse_wht_1d(DyadicGrid1D(spec.bits, full))
    full = np.zeros((size, size))
    full[:support, :support] = coeffs.reshape(support, support)
    return inverse_wht_2d(DyadicGrid2D(spec.bits, full))


def spike_height(level: int, target: float, alpha: float = 2.0) -> float:
    """Solve h (log h)^alpha 4^-level = target for h > 1 by bisection.

    The left side vanishes at h = 1 and increases without bound, so the root
    exists and is unique; iteration stops when the equation residual is
    below 1e-9.
    """
    if target <= 0:
        raise UsageError(f"spike target must be positive, got {target}")
    cell = 4.0**-level

    def residual(h: float) -> float:
        return h * math.log(h) ** alpha * cell - target

    lo, hi = 1.0, 2.0
    while residual(hi) < 0:
        hi *= 2.0
        if hi > 1e300:
            raise UsageError("spike target unreachable in float64")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
        if abs(residual(mid)) < 1e-9:
            return mid
    return 0.5 * (lo + hi)


def _spike(spec: FunctionSpec) -> DyadicGrid2D:
    level = spec.number("level", "-1", int)
    if not 0 <= level <= spec.bits:
        raise UsageError(f"spike level {level} outside [0, {spec.bits}]")
    target = spec.number("target", "0")
    alpha = spec.number("alpha", "2")
    h = spike_height(level, target, alpha)
    size = 1 << spec.bits
    width = 1 << (spec.bits - level)
    grid = np.zeros((size, size))
    grid[:width, :width] = h
    return DyadicGrid2D(spec.bits, grid)


def generate_function(spec: FunctionSpec | str, seed: int = 0) -> DyadicGrid:
    """Build the deterministic grid a spec describes."""
    if isinstance(spec, str):
        spec = FunctionSpec.parse(spec)
    validate_bits(spec.bits, dims=spec.dims)
    if spec.kind == "indicator-rect":
        return _indicator_rect(spec)
    if spec.kind == "walsh-tensor":
        return _walsh_tensor(spec)
    if spec.kind == "random-step":
        return _random_step(spec, seed)
    if spec.kind == "random-spectrum":
        return _random_spectrum(spec, seed)
    if spec.kind == "spike":
        return _spike(spec)
    raise UsageError(f"unknown spec kind {spec.kind!r}")


def random_grid_1d(bits: int, seed: int, amp: float = 1.0) -> DyadicGrid1D:
    """Full-resolution random step function (library-level convenience)."""
    validate_bits(bits)
    u = portable_uniforms(seed, 1 << bits)
    return DyadicGrid1D(bits, amp * (2.0 * u - 1.0))


def random_grid_2d(bits: int, seed: int, amp: float = 1.0) -> DyadicGrid2D:
    """Full-resolution 2D random step function."""
    validate_bits(bits, dims=2)
    size = 1 << bits
    u = portable_uniforms(seed, size * size)
    return DyadicGrid2D(bits, amp * (2.0 * u - 1.0).reshape(size, size))
