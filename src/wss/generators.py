"""Deterministic test-function generators and their one-token spec grammar.

A spec reads  kind:params@B=<bits>  with comma-separated params that are
either positional numbers or key=value pairs with a key of the kind, e.g.

    indicator-rect:0,0.5,0,0.5@B=4      1 on [0,1/2) x [0,1/2)
    walsh-tensor:3,6@B=4                w_3(x) w_6(y); "3+9" sums characters
    random-step:level=3,seed=7@B=6      iid uniform values on level-3 cells
    random-spectrum:support=8,dim=2@B=6 iid coefficients below index 8
    spike:level=2,target=10@B=6         tall indicator with prescribed entropy

`KINDS` gives each kind's keys with their types, defaults and ranges;
`FunctionSpec.parse` reads the text once and checks every value against it
and the bit depth against the dimension's cap, so the builders only build.
Every kind emits its cells (`DyadicGrid.from_cells`), so a level-L
function costs O(4^L), not O(4^B), to make (indicator-rect also reads its
edges at 2^B points); random-spectrum synthesizes at the level of its
support, (support - 1).bit_length().
Randomness comes from a pinned portable generator: the raw 64-bit PCG64
stream (`pcg64_raw`, bit for bit numpy's `PCG64(seed).random_raw`, with no
import of numpy's random package), mapped to [0, 1) doubles by taking the top 53 bits.
Identical (spec, seed) always reproduce the same grid.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import validate_bits, walsh_row
from .errors import UsageError
from .transform import DyadicGrid, DyadicGrid1D, DyadicGrid2D, _synthesis

REQUIRED = object()  # the default of a key that must be given


class Key(NamedTuple):
    """A spec option: type, default (None: the run's seed), range test of v at bit depth B, message."""
    type: type
    default: object
    ok: Callable = lambda v, B: True
    message: str = ""


_LEVEL = Key(int, REQUIRED, lambda v, B: 0 <= v <= B, "{kind} level {v} outside [0, {B}]")
_AMP = Key(float, 1.0)
_DIM = Key(int, 2, lambda v, B: v in (1, 2), "dim must be 1 or 2, got {v}")
_SEED = Key(int, None, lambda v, B: v >= 0, "seed must be nonnegative, got {v}")

# each kind with its option keys: the one schema a spec is parsed and checked by
KINDS = {
    "indicator-rect": {},
    "walsh-tensor": {},
    "random-step": {"level": _LEVEL, "amp": _AMP, "dim": _DIM, "seed": _SEED},
    "random-spectrum": {  # (v - 1).bit_length() <= B is v - 1 < 2^B without forming 2^B
        "support": Key(int, REQUIRED, lambda v, B: 1 <= v and (v - 1).bit_length() <= B,
                       "{kind} support {v} outside [1, 2^{B}]"),
        "amp": _AMP, "dim": _DIM, "seed": _SEED},
    "spike": {"level": _LEVEL, "target": Key(float, REQUIRED, lambda v, B: v > 0,
                                             "{kind} target must be positive, got {v}")},
}


class SpecParseError(UsageError):
    """Malformed function spec; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        super().__init__(f"bad function spec at position {pos}: {message} (in {text!r})")


def parse_number(text: str, kind: type = float, what: str = "value"):
    """`text` as a finite int or float; anything else is a UsageError naming `what`.
    The one number reader: it refuses '_' and non-ASCII, which int() would read ("1_0" as 10)."""
    try:
        value = kind(text) if text.isascii() and "_" not in text else None
    except ValueError:
        value = None
    if value is None or kind is float and not math.isfinite(value):  # an int is finite
        noun = "an integer" if kind is int else "a finite number"
        raise UsageError(f"{what} must be {noun}, got {text!r}")
    return value


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _hashmix(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's 32-bit hash: each call xors in the running constant, steps it by `mult`,
    multiplies by the new one and folds the high half down."""
    def mix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return mix


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) as numpy seeds them: the four 64-bit words of
    `SeedSequence(seed).generate_state(4, uint64)`, then `pcg_setseq_128_srandom_r`."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]  # low first; [0] for 0
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (words + [0] * 3)[:4]]
    for src in range(4):  # every pool word into every other, so late words reach early ones
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # a seed past 128 bits
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    output_hash = _hashmix(0x8B51F9DD, 0x58F38DED)
    halves = [output_hash(pool[i % 4]) for i in range(8)]
    w0, w1, w2, w3 = (halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4))  # little-endian pairs
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128, inc


def pcg64_raw(seed: int, count: int) -> np.ndarray:
    """The first `count` uint64 outputs of numpy's `PCG64(seed)`: O'Neill's PCG XSL-RR 128/64
    (each output steps s <- s M + inc mod 2^128, then gives rotr64(hi ^ lo, hi >> 58)).

    L ~ sqrt(16 count) lanes run side by side: lane j gives outputs j, j + L, j + 2L, ...,
    so each vector step is the L-fold jump s <- s A + C of every lane and the (K, L)
    table of K steps is the stream in order.  The starts, A and C are Python ints; a
    step is uint64 arithmetic on the lanes' high and low words.  A draw costs several
    times numpy's, but numpy's random package, 10-12 ms and 6 MB to import, is not loaded."""
    state, inc = _pcg64_seed(seed)
    lanes = max(1, math.isqrt(16 * count))
    a, c, starts = 1, 0, []  # after the loop, (a, c) = (A, C): the jump of L steps
    for _ in range(lanes):
        state = (state * _PCG_MULT + inc) & _M128
        starts.append(state)
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + inc) & _M128
    hi = np.array([s >> 64 for s in starts], dtype=np.uint64)
    lo = np.array([s & _M64 for s in starts], dtype=np.uint64)
    a_hi, a_lo, c_hi, c_lo, b_hi, b_lo, mask, s32, s58, s63, one = (
        np.uint64(v) for v in (a >> 64, a & _M64, c >> 64, c & _M64, a >> 32 & _M32, a & _M32, _M32, 32, 58, 63, 1))
    out = np.empty((-(-count // lanes), lanes), dtype=np.uint64)
    for k in range(len(out)):
        if k:  # s <- s A + C mod 2^128 in 64-bit words; the high word of lo a_lo from four 32-bit products
            x_lo, x_hi = lo & mask, lo >> s32
            t = x_lo * b_lo
            u = x_hi * b_lo + (t >> s32)
            w = x_lo * b_hi + (u & mask)
            hi = hi * a_lo + lo * a_hi + x_hi * b_hi + (u >> s32) + (w >> s32) + c_hi
            lo = lo * a_lo + c_lo
            hi += lo < c_lo  # the low word's carry
        x, rot = hi ^ lo, hi >> s58
        out[k] = x >> rot | x << (s63 - rot) << one  # rotr by rot; a shift by 64 is not defined
    return out.ravel()[:count]


def portable_uniforms(seed: int, count: int) -> np.ndarray:
    """count doubles in [0, 1): top 53 bits of the raw PCG64(seed) stream."""
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return (pcg64_raw(int(seed), int(count)) >> np.uint64(11)) * 2.0**-53


class FunctionSpec(NamedTuple):
    """Parsed and checked form of a generator token; `text` keeps the original
    spelling.  `positional` holds indicator-rect's 2 or 4 corners as floats, or
    walsh-tensor's index groups as int tuples ("3,6" one 2D group, "3+9" two
    1D); `options` pairs every key of the kind with its value, read as `spec[key]`."""

    kind: str
    bits: int
    dims: int
    positional: tuple
    options: tuple[tuple[str, object], ...]
    text: str

    def __getitem__(self, key: str):
        return dict(self.options)[key]

    @classmethod
    def parse(cls, text: str) -> "FunctionSpec":
        """The spec `text` says, once every value is in range (`KINDS`)."""

        def at(pos: int, check: Callable, *args, **kwargs):  # check's UsageError placed at `pos`
            try:
                return check(*args, **kwargs)
            except UsageError as exc:
                raise SpecParseError(text, pos, str(exc)) from None

        stray = next((i for i, c in enumerate(text) if not "!" <= c <= "~" or c == "_"), -1)
        if stray >= 0:  # int() and float() would strip whitespace, read '_' and non-ASCII digits
            raise SpecParseError(text, stray, f"stray {text[stray]!r}: a spec is one printable ASCII token, no '_'")
        if "@" not in text:
            raise SpecParseError(text, len(text), "missing @B=<bits> suffix")
        body, _, tail = text.partition("@")
        if not tail.startswith("B="):
            raise SpecParseError(text, len(body) + 1, "suffix must be B=<bits>")
        bits = at(len(body) + 3, parse_number, tail[2:], int, "bit depth")
        kind, sep, params = body.partition(":")
        if kind not in KINDS:
            raise SpecParseError(text, 0, f"unknown kind {kind!r} (expected one of {tuple(KINDS)})")
        if not sep or not params:
            raise SpecParseError(text, len(kind), "missing parameter list after kind")
        keys, positional, given = KINDS[kind], [], {}  # given: key -> (value, position)
        cursor = len(kind) + 1
        for item in params.split(","):
            if not item:
                raise SpecParseError(text, cursor, "empty parameter")
            if "=" in item:
                key, _, value = item.partition("=")
                if not key or not value:
                    raise SpecParseError(text, cursor, f"bad key=value item {item!r}")
                if key not in keys:
                    names = ", ".join(keys) or "none"
                    raise SpecParseError(text, cursor, f"unknown key {key!r} for {kind} (keys: {names})")
                if key in given:
                    raise SpecParseError(text, cursor, f"repeated key {key!r}")
                given[key] = at(cursor, parse_number, value, keys[key].type, f"option {key}"), cursor
            elif keys:  # a kind with option keys reads no positional item
                raise SpecParseError(text, cursor, f"{kind} takes key=value items only, got {item!r}")
            elif kind == "walsh-tensor":  # "," extends the last index group, "+" starts one
                start = cursor
                for j, token in enumerate(item.split("+")):
                    index = at(start, parse_number, token, int, "walsh index")
                    if not (0 <= index and index.bit_length() <= bits):  # 2^B is never formed
                        raise SpecParseError(text, start, f"walsh index {index} outside [0, 2^{bits})")
                    if j or not positional:
                        positional.append(())
                    positional[-1] += (index,)
                    start += len(token) + 1
            else:
                positional.append(at(cursor, parse_number, item, float, "corner"))
                if len(positional) % 2:  # a pair's first corner
                    pair_at = cursor
                elif not 0 <= positional[-2] <= positional[-1] <= 1:
                    pair = text[pair_at:cursor + len(item)]
                    raise SpecParseError(text, pair_at, f"corner pair {pair!r} is not 0 <= a <= b <= 1")
            cursor += len(item) + 1
        if kind == "walsh-tensor" and {len(g) for g in positional} not in ({1}, {2}):
            raise SpecParseError(text, len(kind), "walsh-tensor groups must be all 1D or all 2D")
        if kind == "indicator-rect" and len(positional) not in (2, 4):
            raise SpecParseError(text, len(kind), "indicator-rect takes 2 or 4 corners")
        # the dimension: half the corners, the groups' width, else the dim option (a spike's is 2)
        dims = len(positional[0]) if kind == "walsh-tensor" else len(positional) // 2 or given.get("dim", (2,))[0]
        if dims in (1, 2):  # else the dim option's own range check names it
            at(len(body) + 3, validate_bits, bits, dims=dims)
        values = {}
        for key, option in keys.items():
            value, pos = given.get(key, (option.default, len(body)))
            if value is REQUIRED:
                raise SpecParseError(text, pos, f"missing required key {key!r} for {kind}")
            if value is not None and not option.ok(value, bits):
                raise SpecParseError(text, pos, option.message.format(kind=kind, v=value, B=bits))
            values[key] = value
        if kind == "spike":  # the one range two keys fix
            at(given["target"][1], spike_height, values["level"], values["target"])
        return cls(kind, bits, dims, tuple(positional), tuple(values.items()), text)


def _indicator_rect(spec: FunctionSpec, seed: int) -> np.ndarray:
    size = 1 << spec.bits
    xs = np.arange(size) / size
    corners = spec.positional
    sides = [((xs >= a) & (xs < b)).astype(np.float64) for a, b in zip(corners[0::2], corners[1::2])]
    # a sampled edge lies on a dyadic point: the product's cells are the finer side's
    step = size // max(len(DyadicGrid1D.from_cells(spec.bits, v).cells) for v in sides)
    return functools.reduce(np.multiply.outer, [v[::step] for v in sides])


def _walsh_tensor(spec: FunctionSpec, seed: int) -> np.ndarray:
    # w_k, k < 2^level, is constant on the level-`level` cells
    level = max(1, max(k for group in spec.positional for k in group).bit_length())
    cells = np.zeros((1 << level,) * spec.dims)
    for group in spec.positional:  # sums and products of +-1 are exact in any order
        cells += functools.reduce(np.multiply.outer, [walsh_row(k, level).astype(np.float64) for k in group])
    return cells


def _uniform_table(spec: FunctionSpec, seed: int, side: int) -> np.ndarray:
    """amp (2u - 1) for the first side^dims uniforms of the spec's seed, else `seed`."""
    seed = seed if spec["seed"] is None else spec["seed"]
    table = spec["amp"] * (2.0 * portable_uniforms(seed, side**spec.dims) - 1.0)
    return table.reshape((side,) * spec.dims)


def _random_spectrum(spec: FunctionSpec, seed: int) -> np.ndarray:
    coeffs = _uniform_table(spec, seed, spec["support"])
    level = (spec["support"] - 1).bit_length()  # f is constant on the cells of this level
    return _synthesis(coeffs, level, (1 << level,) * spec.dims)  # zero-padded


def spike_height(level: int, target: float) -> float:
    """Solve h (log h)^2 4^-level = target for h > 1 by bisection.

    The left side vanishes at h = 1 and increases without bound, so the root
    exists and is unique; iteration stops when the equation residual is
    below 1e-9 times min(1, target), so a target below 1 is met to 1e-9
    relative.  A target that no float64 h meets to 1e-6 relative (too large,
    or too small for the spacing of floats near 1) is a UsageError.
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
    tolerance = 1e-9 * min(1.0, target)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
        if abs(residual(mid)) < tolerance:
            return mid
    mid = 0.5 * (lo + hi)
    if abs(residual(mid)) > 1e-6 * target:
        raise UsageError("spike target unreachable in float64")
    return mid


def _spike(spec: FunctionSpec, seed: int) -> np.ndarray:
    cells = np.zeros((1 << spec["level"],) * 2)
    cells[0, 0] = spike_height(spec["level"], spec["target"])
    return cells


# each kind's builder: the cells of (spec, the run's seed); only the random kinds read the seed
_BUILDERS = {"indicator-rect": _indicator_rect, "walsh-tensor": _walsh_tensor,
             "random-step": lambda spec, seed: _uniform_table(spec, seed, 1 << spec["level"]),
             "random-spectrum": _random_spectrum, "spike": _spike}


def generate_function(spec: FunctionSpec | str, seed: int = 0) -> DyadicGrid:
    """Build the deterministic grid a spec describes; a parsed spec is in range."""
    if isinstance(spec, str):
        spec = FunctionSpec.parse(spec)
    grid = DyadicGrid1D if spec.dims == 1 else DyadicGrid2D
    return grid.from_cells(spec.bits, _BUILDERS[spec.kind](spec, seed))


def random_grid_1d(bits: int, seed: int, amp: float = 1.0) -> DyadicGrid1D:
    """Full-resolution random step function: the random-step of level `bits`."""
    return generate_function(f"random-step:level={bits},dim=1,amp={float(amp)!r}@B={bits}", seed)


def random_grid_2d(bits: int, seed: int, amp: float = 1.0) -> DyadicGrid2D:
    """Full-resolution 2D random step function: the random-step of level `bits`."""
    return generate_function(f"random-step:level={bits},dim=2,amp={float(amp)!r}@B={bits}", seed)
