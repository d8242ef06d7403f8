"""Deterministic test-function generators and their one-token spec grammar.

A spec reads  kind:params@B=<bits>  with comma-separated params that are
either positional numbers or key=value pairs with a key of the kind (`KINDS`;
any other key is a SpecParseError), e.g.

    indicator-rect:0,0.5,0,0.5@B=4      1 on [0,1/2) x [0,1/2)
    walsh-tensor:3,6@B=4                w_3(x) w_6(y); "3+9" sums characters
    random-step:level=3,seed=7@B=6      iid uniform values on level-3 cells
    random-spectrum:support=8,dim=2@B=6 iid coefficients below index 8
    spike:level=2,target=10@B=6         tall indicator with prescribed entropy

`FunctionSpec.parse` reads the text once, corner counts and walsh groups
included; `FunctionSpec.dims` is the one rule for a spec's dimension.
Every kind emits its cells (`DyadicGrid.from_cells`), so a level-L
function costs O(4^L), not O(4^B), to make (indicator-rect also reads its
edges at 2^B points); random-spectrum synthesizes at the level of its
support, (support - 1).bit_length().
Randomness comes from a pinned portable generator: the raw 64-bit PCG64
stream seeded directly, mapped to [0, 1) doubles by taking the top 53 bits.
Identical (spec, seed) always reproduce the same grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import validate_bits, walsh_row
from .errors import UsageError
from .transform import DyadicGrid, DyadicGrid1D, DyadicGrid2D, _synthesis

# each kind with the option keys it takes
KINDS = {
    "indicator-rect": (),
    "walsh-tensor": (),
    "random-step": ("level", "amp", "dim", "seed"),
    "random-spectrum": ("support", "amp", "dim", "seed"),
    "spike": ("level", "target"),
}


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
    """Parsed form of a generator token; `text` keeps the original spelling.
    `positional` holds indicator-rect's 2 or 4 corners as floats, or
    walsh-tensor's index groups as int tuples ("3,6" one 2D group, "3+9" two 1D)."""

    kind: str
    bits: int
    positional: tuple
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
            raise SpecParseError(text, 0, f"unknown kind {kind!r} (expected one of {tuple(KINDS)})")
        if not sep or not params:
            raise SpecParseError(text, len(kind), "missing parameter list after kind")
        positional: list = []
        options: list[tuple[str, str]] = []
        cursor = len(kind) + 1
        for item in params.split(","):
            if not item:
                raise SpecParseError(text, cursor, "empty parameter")
            if "=" in item:
                key, _, value = item.partition("=")
                if not key or not value:
                    raise SpecParseError(text, cursor, f"bad key=value item {item!r}")
                if key not in KINDS[kind]:
                    keys = ", ".join(KINDS[kind]) or "none"
                    raise SpecParseError(text, cursor, f"unknown key {key!r} for {kind} (keys: {keys})")
                options.append((key, value))
            elif KINDS[kind]:  # a kind with option keys reads no positional item
                raise SpecParseError(text, cursor, f"{kind} takes key=value items only, got {item!r}")
            elif kind == "walsh-tensor":  # "," extends the last index group, "+" starts one
                at = cursor
                for j, token in enumerate(item.split("+")):
                    try:
                        index = int(token)
                    except ValueError:
                        raise SpecParseError(text, at, f"bad walsh index {token!r}") from None
                    if j or not positional:
                        positional.append(())
                    positional[-1] += (index,)
                    at += len(token) + 1
            else:
                try:
                    positional.append(parse_number(item))
                except UsageError:
                    raise SpecParseError(text, cursor, f"bad number {item!r}") from None
            cursor += len(item) + 1
        if kind == "walsh-tensor" and {len(g) for g in positional} not in ({1}, {2}):
            raise SpecParseError(text, len(kind), "walsh-tensor groups must be all 1D or all 2D")
        if kind == "indicator-rect" and len(positional) not in (2, 4):
            raise SpecParseError(text, len(kind), "indicator-rect takes 2 or 4 corners")
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
        """1 or 2: half the corners, the walsh groups' width, or the dim option."""
        if self.kind == "indicator-rect":
            return len(self.positional) // 2
        if self.kind == "walsh-tensor":
            return len(self.positional[0])
        if self.kind == "spike":
            return 2
        dims = self.number("dim", "2", int)
        if dims not in (1, 2):
            raise UsageError(f"dim must be 1 or 2, got {dims}")
        return dims


def _seed_for(spec: FunctionSpec, seed: int) -> int:
    return spec.number("seed", str(seed), int)


_GRIDS = {1: DyadicGrid1D, 2: DyadicGrid2D}


def _indicator_rect(spec: FunctionSpec) -> DyadicGrid:
    size = 1 << spec.bits
    xs = np.arange(size) / size
    corners = spec.positional
    sides = [((xs >= a) & (xs < b)).astype(np.float64) for a, b in zip(corners[0::2], corners[1::2])]
    # a sampled edge lies on a dyadic point: the product's cells are the finer side's
    step = size // max(len(DyadicGrid1D.from_cells(spec.bits, v).cells) for v in sides)
    cells = functools.reduce(np.multiply.outer, [v[::step] for v in sides])
    return _GRIDS[spec.dims].from_cells(spec.bits, cells)


def _walsh_tensor(spec: FunctionSpec) -> DyadicGrid:
    size = 1 << spec.bits
    indices = [k for group in spec.positional for k in group]
    for k in indices:
        if not 0 <= k < size:
            raise UsageError(f"walsh index {k} outside [0, 2^{spec.bits})")
    # w_k, k < 2^level, is constant on the level-`level` cells
    level = max(1, max(indices).bit_length())
    cells = np.zeros((1 << level,) * spec.dims)
    for group in spec.positional:  # sums and products of +-1 are exact in any order
        cells += functools.reduce(np.multiply.outer, [walsh_row(k, level).astype(np.float64) for k in group])
    return _GRIDS[spec.dims].from_cells(spec.bits, cells)


def _uniform_table(seed: int, side: int, dims: int, amp: float) -> np.ndarray:
    """amp (2u - 1) for the first side^dims uniforms of `seed`, in C order."""
    return (amp * (2.0 * portable_uniforms(seed, side**dims) - 1.0)).reshape((side,) * dims)


def _random_step(spec: FunctionSpec, seed: int) -> DyadicGrid:
    level = spec.number("level", "-1", int)
    if not 0 <= level <= spec.bits:
        raise UsageError(f"random-step level {level} outside [0, {spec.bits}]")
    cells = _uniform_table(_seed_for(spec, seed), 1 << level, spec.dims, spec.number("amp", "1"))
    return _GRIDS[spec.dims].from_cells(spec.bits, cells)


def _random_spectrum(spec: FunctionSpec, seed: int) -> DyadicGrid:
    support = spec.number("support", "0", int)
    if not 1 <= support <= 1 << spec.bits:
        raise UsageError(f"random-spectrum support {support} outside [1, 2^{spec.bits}]")
    coeffs = _uniform_table(_seed_for(spec, seed), support, spec.dims, spec.number("amp", "1"))
    level = (support - 1).bit_length()  # f is constant on the cells of this level
    cells = _synthesis(coeffs, level, (1 << level,) * spec.dims)  # zero-padded
    return _GRIDS[spec.dims].from_cells(spec.bits, cells)


def spike_height(level: int, target: float) -> float:
    """Solve h (log h)^2 4^-level = target for h > 1 by bisection.

    The left side vanishes at h = 1 and increases without bound, so the root
    exists and is unique; iteration stops when the equation residual is
    below 1e-9.
    """
    if target <= 0:
        raise UsageError(f"spike target must be positive, got {target}")
    cell = 4.0**-level

    def residual(h: float) -> float:
        return h * math.log(h) ** 2 * cell - target

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
    h = spike_height(level, target)
    cells = np.zeros((1 << level, 1 << level))
    cells[0, 0] = h
    return DyadicGrid2D.from_cells(spec.bits, cells)


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
    """Full-resolution random step function: the random-step of level `bits`."""
    validate_bits(bits)
    return DyadicGrid1D.from_cells(bits, _uniform_table(seed, 1 << bits, 1, amp))


def random_grid_2d(bits: int, seed: int, amp: float = 1.0) -> DyadicGrid2D:
    """Full-resolution 2D random step function: the random-step of level `bits`."""
    validate_bits(bits, dims=2)
    return DyadicGrid2D.from_cells(bits, _uniform_table(seed, 1 << bits, 2, amp))
