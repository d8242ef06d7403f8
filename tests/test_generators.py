import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wss.dyadic import walsh_row
from wss.errors import DataError, UsageError
from wss.generators import (
    KINDS,
    FunctionSpec,
    SpecParseError,
    generate_function,
    parse_number,
    portable_uniforms,
    random_grid_1d,
    random_grid_2d,
    spike_height,
)
from wss.means import entropy_functional
from wss.transform import DyadicGrid1D, DyadicGrid2D, _synthesis, wht_1d, wht_2d


def test_parse_round_trip_fields():
    spec = FunctionSpec.parse("spike:level=2,target=10@B=6")
    assert spec.kind == "spike" and spec.bits == 6
    assert spec["level"] == 2 and type(spec["level"]) is int and spec["target"] == 10.0
    assert spec.dims == 2

    spec = FunctionSpec.parse("indicator-rect:0,0.5,0,0.5@B=4")
    assert spec.positional == (0.0, 0.5, 0.0, 0.5)
    assert spec.dims == 2

    assert FunctionSpec.parse("walsh-tensor:3@B=4").dims == 1
    assert FunctionSpec.parse("walsh-tensor:3,6@B=4").dims == 2


@pytest.mark.parametrize(
    "text, pos",
    [
        ("indicator-rect:0,0.5,0,0.5", 26),  # missing @B
        ("indicator-rect:0,0.5@bits=4", 21),  # bad suffix
        ("mystery:1@B=4", 0),  # unknown kind
        ("walsh-tensor@B=4", 12),  # missing params
        ("indicator-rect:0,,1@B=4", 17),  # empty param
        ("indicator-rect:zero,1@B=3", 15),  # bad number
        ("spike:level=@B=4", 6),  # bad key=value
        ("spike:level=2,target=1@B=x", 25),  # bad bit depth
        # a spec is one token: int() and float() would strip the whitespace
        # and read '_' and non-ASCII digits
        ("walsh-tensor: 3@B=3", 13),
        ("spike:level= 1,target=2@B= 3", 12),
        ("walsh-tensor:3\n@B=3", 14),
        ("spike:level=1_0,target=2@B=12", 13),  # would read as level 10
        ("walsh-tensor:\u0663@B=3", 13),  # ARABIC-INDIC DIGIT THREE
        ("random-step:level=2,amp=1_0.5,dim=1@B=4", 25),
        ("spike:level=1,target=2@B=3\t", 26),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(SpecParseError) as err:
        FunctionSpec.parse(text)
    assert err.value.pos == pos and f"position {pos}:" in str(err.value)


@pytest.mark.parametrize("text", ["1_0", "1e1_0", "\u0661\u0666", "\u0663.5", "1\u00a0"])
@pytest.mark.parametrize("kind", [int, float])
def test_parse_number_refuses_what_int_and_float_would_stretch_to_read(text, kind):
    # int() reads "1_0" as 10 and Arabic-Indic "16" as 16; the one reader refuses both
    noun = "an integer" if kind is int else "a finite number"
    with pytest.raises(UsageError, match=re.escape(f"'m' in section 's' must be {noun}, got {text!r}")):
        parse_number(text, kind, "'m' in section 's'")


def test_parse_number_keeps_what_it_read_before():
    # ASCII spaces around a config list item stay allowed
    assert parse_number(" 16 ", int) == 16 and type(parse_number("+3", int)) is int
    assert parse_number("1e3") == 1000.0 and parse_number("-0.25 ") == -0.25


@pytest.mark.parametrize(
    "text, key",
    [
        ("random-step:level=2,sead=7,dim=1@B=3", "sead"),
        ("random-spectrum:support=2,level=1@B=3", "level"),
        ("indicator-rect:0,0.5,color=3@B=3", "color"),
        ("walsh-tensor:3,seed=1@B=3", "seed"),
        ("spike:level=1,target=2,alpha=3@B=3", "alpha"),
        ("spike:level=1,dim=2,target=2@B=3", "dim"),
    ],
)
def test_unknown_option_keys_are_rejected_at_their_position(text, key):
    with pytest.raises(SpecParseError, match=f"unknown key {key!r}") as err:
        FunctionSpec.parse(text)
    assert err.value.pos == text.index(f",{key}=") + 1


@pytest.mark.parametrize(
    "text, item",
    [
        ("random-step:level=1,7,dim=1@B=2", "7"),
        ("random-step:level=1,1+2,dim=1@B=2", "1+2"),
        ("random-spectrum:support=2,5,dim=1@B=2", "5"),
        ("spike:level=1,target=2,3@B=2", "3"),
        ("spike:0.5,level=1,target=2@B=2", "0.5"),
        ("indicator-rect:0,0.5,1+2@B=2", "1+2"),
    ],
)
def test_stray_positional_items_are_rejected_at_their_position(text, item):
    # only indicator-rect reads numbers and only walsh-tensor reads "+" groups
    with pytest.raises(SpecParseError, match=re.escape(repr(item))) as err:
        FunctionSpec.parse(text)
    assert err.value.pos == text.index(item, text.index(":"))


@pytest.mark.parametrize(
    "text, pos, message",
    [
        ("walsh-tensor:nan@B=4", 13, "walsh index must be an integer, got 'nan'"),
        ("walsh-tensor:3,x@B=4", 15, "walsh index must be an integer, got 'x'"),
        ("walsh-tensor:3,3.5@B=4", 15, "walsh index must be an integer, got '3.5'"),
        ("walsh-tensor:1+2.5@B=4", 15, "walsh index must be an integer, got '2.5'"),
        ("walsh-tensor:1,2+3,x@B=4", 19, "walsh index must be an integer, got 'x'"),
        ("walsh-tensor:3+@B=4", 15, "walsh index must be an integer, got ''"),
        ("walsh-tensor:+3@B=4", 13, "walsh index must be an integer, got ''"),
        ("walsh-tensor:3+seed=1@B=4", 13, "unknown key '3+seed'"),
        ("indicator-rect:zero,1@B=3", 15, "corner must be a finite number, got 'zero'"),
        ("indicator-rect:0,inf@B=3", 17, "corner must be a finite number, got 'inf'"),
        ("spike:level=2,target=1@B=x", 25, "bit depth must be an integer, got 'x'"),
        ("spike:level=2,target=1@B=4.0", 25, "bit depth must be an integer, got '4.0'"),
        ("walsh-tensor:3,6+1@B=4", 12, "all 1D or all 2D"),
        ("walsh-tensor:1,2,3@B=4", 12, "all 1D or all 2D"),
        ("indicator-rect:0,0.5,0.2@B=4", 14, "2 or 4 corners"),
        ("indicator-rect:0@B=4", 14, "2 or 4 corners"),
        ("indicator-rect:0,0.1,0.2,0.3,0.4@B=13", 14, "2 or 4 corners"),
    ],
)
def test_walsh_groups_and_corner_counts_are_settled_at_parse(text, pos, message):
    # a bad number names its own token; nothing about the groups or corners is left for `dims` or generation
    with pytest.raises(SpecParseError, match=re.escape(message)) as err:
        FunctionSpec.parse(text)
    assert err.value.pos == pos


@pytest.mark.parametrize(
    "text, pair",
    [
        ("indicator-rect:0.5,0.25@B=2", "0.5,0.25"),  # reversed
        ("indicator-rect:1.5,2@B=2", "1.5,2"),  # above 1
        ("indicator-rect:-1,2@B=2", "-1,2"),  # negative
        ("indicator-rect:0,1.0000001@B=3", "0,1.0000001"),
        ("indicator-rect:0,1,0.5,0.25@B=2", "0.5,0.25"),  # one reversed side of a rectangle
        ("indicator-rect:0.25,0.75,-0.5,-0.25@B=4", "-0.5,-0.25"),
        ("indicator-rect:0.5,0.25,0,1@B=2", "0.5,0.25"),
    ],
)
def test_corner_pairs_not_in_the_unit_interval_in_order_are_rejected(text, pair):
    with pytest.raises(SpecParseError, match=re.escape(repr(pair))) as err:
        FunctionSpec.parse(text)
    assert err.value.pos == text.index(pair, text.index(":"))


@pytest.mark.parametrize("text, ones", [
    ("indicator-rect:0,0@B=5", 0), ("indicator-rect:1,1@B=2", 0), ("indicator-rect:-0,1@B=2", 4),
    ("indicator-rect:0,1,0,1@B=3", 64), ("indicator-rect:0.5,0.5,0,1@B=2", 0),
])
def test_empty_and_whole_corner_pairs_still_generate(text, ones):
    assert generate_function(text).samples.sum() == ones


def test_walsh_groups_are_held_as_int_tuples():
    spec = FunctionSpec.parse("walsh-tensor:3+9@B=5")
    assert spec.positional == ((3,), (9,)) and spec.options == () and spec.dims == 1
    spec = FunctionSpec.parse("walsh-tensor:1,0+2,3@B=5")
    assert spec.positional == ((1, 0), (2, 3)) and spec.options == () and spec.dims == 2


@pytest.mark.parametrize("dim", ["0", "3", "-1"])
@pytest.mark.parametrize("kind", ["random-step:level=1", "random-spectrum:support=1"])
def test_dims_names_the_dim_option(kind, dim):
    # before any bit-depth check: B=13 is beyond the 2D cap but not the 1D one
    text = f"{kind},dim={dim}@B=13"
    with pytest.raises(SpecParseError, match=f"dim must be 1 or 2, got {dim}") as err:
        FunctionSpec.parse(text)
    assert err.value.pos == text.index(",dim=") + 1


@pytest.mark.parametrize(
    "text, at, message",
    [
        ("random-step:level=99,dim=2@B=4", "level=", "random-step level 99 outside [0, 4]"),
        ("random-step:level=-1,dim=1@B=4", "level=", "random-step level -1 outside [0, 4]"),
        ("random-spectrum:support=0,dim=1@B=4", "support=", "random-spectrum support 0 outside [1, 2^4]"),
        ("random-spectrum:support=17,dim=1@B=4", "support=", "random-spectrum support 17 outside [1, 2^4]"),
        ("random-step:level=1,amp=abc@B=4", "amp=", "option amp must be a finite number, got 'abc'"),
        ("random-step:level=1,amp=inf@B=4", "amp=", "option amp must be a finite number, got 'inf'"),
        ("random-step:level=1.5@B=4", "level=", "option level must be an integer, got '1.5'"),
        ("random-step:level=" + "9" * 400 + "@B=4", "level=", "random-step level 999"),  # no float cast
        ("random-step:level=1,seed=-2@B=4", "seed=", "seed must be nonnegative, got -2"),
        ("spike:level=1,target=-1@B=4", "target=", "spike target must be positive, got -1.0"),
        ("spike:level=7,target=1@B=6", "level=", "spike level 7 outside [0, 6]"),
        ("spike:level=0,target=1e306@B=6", "target=", "spike target unreachable in float64"),
        # near h = 1 floats are 2.2e-16 apart: no height meets these to 1e-6 relative
        ("spike:level=0,target=1e-300@B=6", "target=", "spike target unreachable in float64"),
        ("spike:level=2,target=1e-30@B=6", "target=", "spike target unreachable in float64"),
        ("spike:target=10@B=6", "@", "missing required key 'level' for spike"),
        ("random-spectrum:dim=1@B=6", "@", "missing required key 'support' for random-spectrum"),
        ("random-step:level=1,dim=2@B=13", "13", "bit depth 13 outside [1, 12] for 2D grids"),
        ("spike:level=1,target=1@B=40", "40", "bit depth 40 outside [1, 12] for 2D grids"),
        ("random-step:level=1,dim=1@B=0", "0", "bit depth 0 outside [1, 24] for 1D grids"),
        ("walsh-tensor:16@B=4", "16", "walsh index 16 outside [0, 2^4)"),
        ("walsh-tensor:3,-1@B=4", "-1", "walsh index -1 outside [0, 2^4)"),
        ("walsh-tensor:3+9@B=99999999999", "99999999999", "bit depth 99999999999 outside [1, 24]"),
        ("random-spectrum:support=9@B=99999999999", "99999999999", "bit depth 99999999999 outside"),
    ],
)
def test_every_range_is_checked_at_parse(text, at, message):
    # a parsed spec is in range: nothing is left for the builders to reject
    with pytest.raises(SpecParseError, match=re.escape(message)) as err:
        FunctionSpec.parse(text)
    assert err.value.pos == text.rindex(at)  # the item, the bit depth, or "@" for a missing key


@pytest.mark.parametrize("text, key", [
    ("random-step:level=1,level=3,dim=1@B=4", "level"),
    ("random-spectrum:support=2,dim=1,amp=2,dim=1@B=4", "dim"),
    ("spike:level=1,target=2,target=2@B=4", "target"),
])
def test_a_repeated_key_is_an_error_at_its_second_item(text, key):
    with pytest.raises(SpecParseError, match=f"repeated key {key!r}") as err:
        FunctionSpec.parse(text)
    assert err.value.pos == text.rindex(f",{key}=") + 1


# mostly in-range values, then values at and past every range's edge and some
# that are no number; levels and supports stop at 10, and a bit depth past 10
# is 13 or 25, which only a 1D spec (13) takes, so a grid holds at most 4^10
# cells (2^13 for a 1D indicator)
_SMALL = st.integers(1, 4).map(str)
_VALUES = st.one_of(_SMALL, _SMALL, _SMALL, _SMALL, st.integers(-3, 10).map(str),
                    st.sampled_from(["0.5", "1e308", "1e-310", "1e306", "abc", "nan", "inf", "99999999999"]))
_COUNT = st.integers(0, 15).map(lambda n: 0 if n == 0 else 2 if n == 15 else 1)  # mostly once


@st.composite
def _spec_texts(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    if KINDS[kind]:  # each key of the kind 0, 1 or 2 times, in any order
        items = [f"{key}={draw(_VALUES)}" for key in KINDS[kind] for _ in range(draw(_COUNT))]
        items = draw(st.permutations(items))
    elif kind == "walsh-tensor":
        indices = draw(st.lists(st.integers(-2, 40).map(str), min_size=1, max_size=4))
        items = ["".join(k + draw(st.sampled_from(",+")) for k in indices)[:-1]]
    else:
        items = draw(st.lists(st.sampled_from(["0", "0.25", "0.3", "0.5", "1", "-1", "2", "x"]), max_size=5))
    bits = draw(st.one_of(st.integers(4, 8), st.integers(4, 8), st.integers(-1, 10), st.sampled_from([13, 25])))
    return f"{kind}:{','.join(items)}@B={bits}"


@settings(max_examples=400, deadline=None)
@given(_spec_texts(), st.integers(0, 2**70))
def test_every_spec_the_parse_accepts_generates(text, seed):
    # the parse checks every range, so generation raises no UsageError; only a
    # value beyond float64 (a random spectrum of amp 1e308) may still overflow
    try:
        spec = FunctionSpec.parse(text)
    except SpecParseError:
        return
    try:
        f = generate_function(spec, seed)
    except DataError:
        return
    assert f.bits == spec.bits and f.cells.ndim == spec.dims


def test_each_kind_takes_its_documented_keys():
    for text in ("random-step:level=1,amp=2,dim=1,seed=3@B=3",
                 "random-spectrum:support=2,amp=2,dim=1,seed=3@B=3",
                 "spike:level=1,target=2@B=3"):
        assert FunctionSpec.parse(text).options
        generate_function(text)


def test_indicator_quadrant():
    f = generate_function("indicator-rect:0,0.5,0,0.5@B=4")
    assert isinstance(f, DyadicGrid2D)
    assert np.array_equal(f.samples[:8, :8], np.ones((8, 8)))
    assert f.samples.sum() == 64.0
    g = generate_function("indicator-rect:0.25,0.75@B=3")
    np.testing.assert_array_equal(g.samples, [0, 0, 1, 1, 1, 1, 0, 0])


def test_walsh_tensor_and_sums():
    f = generate_function("walsh-tensor:3,6@B=4")
    expected = np.outer(walsh_row(3, 4), walsh_row(6, 4)).astype(float)
    np.testing.assert_array_equal(f.samples, expected)

    g = generate_function("walsh-tensor:3+9@B=5")
    assert isinstance(g, DyadicGrid1D)
    np.testing.assert_array_equal(
        g.samples, walsh_row(3, 5).astype(float) + walsh_row(9, 5).astype(float)
    )
    with pytest.raises(UsageError):
        generate_function("walsh-tensor:99@B=4")


def test_random_step_deterministic_and_leveled():
    a = generate_function("random-step:level=2,seed=5,dim=2@B=5")
    b = generate_function("random-step:level=2,seed=5,dim=2@B=5", seed=999)
    np.testing.assert_array_equal(a.samples, b.samples)  # embedded seed wins
    c = generate_function("random-step:level=2,dim=2@B=5", seed=5)
    np.testing.assert_array_equal(a.samples, c.samples)
    # constant on level-2 cells
    blocks = a.samples.reshape(4, 8, 4, 8)
    assert np.all(blocks == blocks[:, :1, :, :1])
    assert np.abs(a.samples).max() <= 1.0


def test_random_spectrum_support():
    f = generate_function("random-spectrum:support=4,dim=2@B=5", seed=3)
    c = wht_2d(f).coeffs
    assert np.abs(c[4:, :]).max() <= 1e-13
    assert np.abs(c[:, 4:]).max() <= 1e-13
    g = generate_function("random-spectrum:support=8,dim=1@B=6", seed=4)
    assert np.abs(wht_1d(g).coeffs[8:]).max() <= 1e-13


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("support", [1, 3, 32])
def test_random_spectrum_is_the_inverse_of_its_zero_padded_table(dims, support):
    # the support block is synthesized directly: bit for bit the full inverse
    f = generate_function(f"random-spectrum:support={support},dim={dims},amp=3@B=5", seed=8)
    coeffs = 3.0 * (2.0 * portable_uniforms(8, support**dims) - 1.0)
    table = np.zeros((32,) * dims)
    table[(slice(support),) * dims] = coeffs.reshape((support,) * dims)
    assert type(f) is (DyadicGrid1D, DyadicGrid2D)[dims - 1]
    assert np.array_equal(f.samples, _synthesis(table, 5, (32,) * dims))


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("amp", ["1", "1e200", "1e-300"])
def test_random_spectrum_cells_are_the_samples_of_its_synthesis_at_full_depth(dims, amp):
    # synthesized at the support's own level and emitted as cells: the same
    # bits as the 2^B synthesis of the support block, at every support
    for bits in range(1, 7):
        for support in range(1, (1 << bits) + 1):
            f = generate_function(f"random-spectrum:support={support},dim={dims},amp={amp}@B={bits}", support)
            coeffs = float(amp) * (2.0 * portable_uniforms(support, support**dims) - 1.0)
            full = _synthesis(coeffs.reshape((support,) * dims), bits, (1 << bits,) * dims)
            assert np.array_equal(f.samples.view(np.int64), full.view(np.int64)), (bits, support)
            assert len(f.cells) <= 1 << (support - 1).bit_length()


@pytest.mark.parametrize("bits", [1, 5, 10])
def test_random_grids_are_the_random_step_of_full_level(bits):
    for dims, grid in ((1, random_grid_1d(bits, 7, amp=3.5)), (2, random_grid_2d(bits, 7))):
        amp = "3.5" if dims == 1 else "1"
        step = generate_function(f"random-step:level={bits},dim={dims},amp={amp}@B={bits}", 7)
        assert type(grid) is type(step)
        assert np.array_equal(grid.cells.view(np.int64), step.cells.view(np.int64))


def test_spike_hits_entropy_target():
    for target in (1.0, 10.0, 100.0):
        h = spike_height(2, target)
        assert abs(h * np.log(h) ** 2 * 4.0**-2 - target) < 1e-9
        f = generate_function(f"spike:level=2,target={target}@B=6")
        assert entropy_functional(f, 2.0) == pytest.approx(target, abs=1e-9)
    # below 1 the stop is relative: an absolute 1e-9 left E2 at 9.3e-10 for
    # a target of 1e-20, and 930 times a target of 1e-12
    for target in (0.5, 1e-3, 1e-9, 1e-12):
        f = generate_function(f"spike:level=2,target={target!r}@B=6")
        assert entropy_functional(f, 2.0) == pytest.approx(target, rel=1e-9, abs=0)
    # and every target >= 1 keeps its absolute-stop height bit for bit
    for level, target, height in [(0, 1.0, 2.020747358677909), (2, 10.0, 18.67394786584191),
                                  (5, 3.0, 129.75832961290143), (12, 1e6, 28915534136.747253),
                                  (0, 1e300, 2.1770896766597165e294)]:
        assert spike_height(level, target) == height
    with pytest.raises(UsageError):
        spike_height(2, -1.0)


def test_portable_uniforms_pinned():
    # Regression-pin the documented generator: raw PCG64 stream, top 53 bits.
    u = portable_uniforms(12345, 3)
    raw = np.random.PCG64(12345).random_raw(3)
    np.testing.assert_array_equal(u, (raw >> np.uint64(11)) * 2.0**-53)
    assert u[0] == pytest.approx(0.22733602246716966, abs=0)
    v = portable_uniforms(12345, 3)
    np.testing.assert_array_equal(u, v)


def test_generate_function_validates_bits():
    with pytest.raises(UsageError):
        generate_function("random-step:level=1,dim=2@B=13")  # 2D cap is 12 bits
    with pytest.raises(UsageError):
        generate_function("random-step:level=9,dim=1@B=8")
    with pytest.raises(UsageError):
        generate_function("random-step:level=1,dim=3@B=4")
