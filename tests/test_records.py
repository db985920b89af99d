"""The value semantics of the package's twelve record types.

Each record is immutable and behaves as the tuple of its fields: equal
and hashed by them, shown by them, ordered by them (`Edge` and
`Measurement` only), and never equal to a record of another type.
Pickling and copying give back an equal record.
"""

import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from resfault.bounds import BoundReport
from resfault.closed_forms import KPartiteCase, KPartiteColumn
from resfault.families import KPartiteShape
from resfault.fileio import NetworkSpec
from resfault.network import Edge, FaultMode, Measurement, MeasurementPlan, Network
from resfault.solver import ExactSolution, Infeasible, MeasurementGraphReport, TimedOut


def plan(*pairs):
    return MeasurementPlan(tuple(Measurement(r, s) for r, s in pairs), ("file",) * len(pairs))


def path(*weights):
    return Network(len(weights) + 1, tuple(Edge(i, i + 1, w) for i, w in enumerate(weights)))


# Per record type: a builder of one record, a record that differs from it in one field,
# and that field.
RECORDS = {
    "Edge": (lambda: Edge(0, 1, 1), Edge(0, 1, 2), "conductance"),
    "Measurement": (lambda: Measurement(0, 1), Measurement(0, 2), "s"),
    "MeasurementPlan": (lambda: plan((0, 1), (1, 2)),
                        MeasurementPlan((Measurement(0, 1), Measurement(1, 2)), ("a", "b")),
                        "provenance"),
    "Network": (lambda: path(1, 2), path(1, 3), "edges"),
    "KPartiteShape": (lambda: KPartiteShape((2, 3)), KPartiteShape((2, 4)), "parts"),
    "NetworkSpec": (lambda: NetworkSpec(path(1, 2), "explicit(n=3)"),
                    NetworkSpec(path(1, 2), "explicit(n=4)"), "label"),
    "BoundReport": (lambda: BoundReport("complete(6)", 4, 4, "ceil(2n/3)", "ceil(2n/3)"),
                    BoundReport("complete(6)", 3, 4, "ceil(2n/3)", "ceil(2n/3)"), "lower"),
    "KPartiteCase": (lambda: KPartiteCase(KPartiteColumn.I, 0, 1),
                     KPartiteCase(KPartiteColumn.I, 1, 0), "a_partition"),
    "ExactSolution": (lambda: ExactSolution(plan((0, 1))), ExactSolution(plan((0, 2))), "plan"),
    "Infeasible": (lambda: Infeasible(((Edge(0, 1, 1), None),)),
                   Infeasible(((Edge(0, 1, 1), Edge(1, 2, 1)),)), "witness_pairs"),
    "TimedOut": (lambda: TimedOut(incumbent=plan((0, 1)), lower_bound=1),
                 TimedOut(incumbent=plan((0, 1)), lower_bound=0), "lower_bound"),
    "MeasurementGraphReport": (lambda: MeasurementGraphReport(((0, 1), (2,)), (2,), ((0, 1),), ()),
                               MeasurementGraphReport(((0, 1), (2,)), (2,), (), ()),
                               "size_two_components"),
}
NAMES = list(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_and_hashed_by_fields(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_never_equal_to_a_record_of_another_type():
    records = [make() for make, _, _ in RECORDS.values()]
    for a, b in combinations(records, 2):
        assert a != b and b != a
    assert Measurement(0, 1) != (0, 1) and Edge(0, 1, 1) != (0, 1, Fraction(1))
    # Equal field values do not make records of two types equal.
    assert ExactSolution(plan()) != Infeasible(plan()) and Edge(0, 1, 1) != KPartiteCase(0, 1, 1)


@pytest.mark.parametrize("low,high", [
    (Edge(0, 1, 5), Edge(0, 2, 1)),
    (Edge(0, 2, 1), Edge(1, 2, 1)),
    (Edge(0, 1, 1), Edge(0, 1, 2)),
    (Measurement(0, 2), Measurement(1, 2)),
    (Measurement(0, 1), Measurement(0, 2)),
])
def test_edges_and_measurements_order_by_fields(low, high):
    assert low < high and low <= high and high > low and high >= low
    assert not (high < low or high <= low or low > high or low >= high)
    assert low <= copy.copy(low) >= low and not low < low
    assert sorted([high, low]) == [low, high]


@pytest.mark.parametrize("name", [name for name in NAMES if name not in ("Edge", "Measurement")])
def test_other_records_have_no_order(name):
    make, other, _ = RECORDS[name]
    with pytest.raises(TypeError):
        make() < other


def test_records_of_different_types_do_not_order():
    with pytest.raises(TypeError):
        Edge(0, 1, 1) < Measurement(0, 1)


def test_repr_shows_each_field():
    assert repr(Edge(0, 1, 1)) == "Edge(u=0, v=1, conductance=Fraction(1, 1))"
    assert repr(Measurement(2, 1)) == "Measurement(r=1, s=2)"
    assert repr(plan((0, 1))) == ("MeasurementPlan(measurements=(Measurement(r=0, s=1),), "
                                  "provenance=('file',), mode=<FaultMode.REMOVED: 'removed'>)")
    assert repr(path(1)) == "Network(n=2, edges=(Edge(u=0, v=1, conductance=Fraction(1, 1)),))"
    assert repr(KPartiteShape([2, 3])) == "KPartiteShape(parts=(2, 3))"
    assert repr(TimedOut(plan(), 0)) == ("TimedOut(incumbent=MeasurementPlan(measurements=(), "
                                         "provenance=(), mode=<FaultMode.REMOVED: 'removed'>), "
                                         "lower_bound=0)")
    assert repr(MeasurementGraphReport(((0,),), (0,), (), ("x",))) == (
        "MeasurementGraphReport(components=((0,),), isolated=(0,), size_two_components=(), "
        "violations=('x',))")


def test_edges_and_measurements_normalize_their_ends():
    e = Edge(u=1, v=0, conductance=2)
    assert (e.u, e.v, e.pair) == (0, 1, (0, 1))
    assert type(e.conductance) is Fraction and e.conductance == 2
    assert e == Edge(0, 1, Fraction(2)) and hash(e) == hash(Edge(0, 1, Fraction(2)))
    assert Measurement(s=1, r=3).pair == (1, 3) == Measurement(3, 1).pair
    assert MeasurementPlan((), ()).mode is FaultMode.REMOVED
    assert BoundReport("x", 1, 2, "a", "b").exact is None


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    make, _, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before and record == make()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_give_an_equal_record(name, clone):
    record = RECORDS[name][0]()
    again = clone(record)
    assert type(again) is type(record) and again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)
