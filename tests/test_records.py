"""The record types: value semantics of the immutable ones, and the
positional constructors of the mutable ones."""
import inspect

import numpy as np
import pytest

from wss.dyadic import DyadicPoint
from wss.errors import UsageError
from wss.experiments import ExperimentConfig, SummabilityReport
from wss.generators import FunctionSpec
from wss.means import PhiFunction
from wss.sums import DiagonalSumField, quadratic_sums
from wss.transform import DyadicGrid2D

SPEC = "spike:level=2,target=10@B=5"


@pytest.mark.parametrize("make", [
    lambda: FunctionSpec.parse(SPEC),
    lambda: PhiFunction.exp_minus_one(0.5),
    lambda: DyadicPoint(5, 4),
], ids=["FunctionSpec", "PhiFunction", "DyadicPoint"])
def test_immutable_records_are_values(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_immutable_records_keep_their_repr():
    assert repr(FunctionSpec.parse(SPEC)) == (
        "FunctionSpec(kind='spike', bits=5, dims=2, positional=(), "
        f"options=(('level', 2), ('target', 10.0)), text='{SPEC}')")
    assert repr(PhiFunction.power(2)) == "PhiFunction(tag='power', param=2.0)"
    assert repr(DyadicPoint(3, 4)) == "DyadicPoint(idx=3, bits=4)"


@pytest.mark.parametrize("idx, bits", [(4, 2), (-1, 3), (0, 0), (0, 25)])
def test_dyadic_point_checks_its_range_when_made(idx, bits):
    with pytest.raises(UsageError):
        DyadicPoint(idx, bits)
    with pytest.raises(UsageError):
        DyadicPoint(idx=idx, bits=bits)


def test_dyadic_point_fields_and_methods():
    p = DyadicPoint(5, 4)
    assert (p.idx, p.bits) == tuple(p) == (5, 4)


def test_mutable_records_keep_their_positional_constructors():
    assert list(inspect.signature(SummabilityReport).parameters) == [
        "experiment", "spec", "bits", "seed", "rows"]
    assert list(inspect.signature(ExperimentConfig).parameters) == ["name", "options"]
    assert list(inspect.signature(DiagonalSumField).parameters) == [
        "bits", "row_profiles", "col_profiles"]

    first, second = SummabilityReport("x", SPEC, 5, 7), SummabilityReport("y", SPEC, 5, 7)
    first.add("value", 1, 2)
    assert first.rows == [("value", 1.0, 2.0)] and second.rows == []  # no shared default
    rows = [("value", 3.0, 4.0)]
    assert SummabilityReport("x", SPEC, 5, 7, rows).rows is rows

    cfg = ExperimentConfig("s", {"experiment": "theorem1", "spec": SPEC, "lambda": "1", "seed": "3"})
    assert (cfg.name, cfg.seed, cfg.call.func.__name__) == ("s", 3, "run_theorem1")
    assert ExperimentConfig("s", {"experiment": "theorem1", "spec": SPEC, "lambda": "1"}).seed is None

    built = quadratic_sums(DyadicGrid2D.from_cells(3, np.arange(16.0).reshape(4, 4)))
    again = DiagonalSumField(built.bits, built.row_profiles, built.col_profiles)
    assert again.size == 8 and np.array_equal(again.sequence_at(5, 2), built.sequence_at(5, 2))
