"""The value classes of the package behave as frozen records: equality is
field-wise and needs the same class, equal records hash alike, no field
can be assigned or deleted, and ``copy``, ``deepcopy`` and ``pickle`` give
an equal record.  Every record here is built through a public
constructor, afresh for each check."""

import copy
import pickle
from fractions import Fraction

import pytest

from nonarch import (ArtinSchreierData, BallPoint, BoundedSeries, CompletedSubdivision,
                     Current, Edge, EvalResult, FactoredFunction, GraphPoint,
                     LadderResult, OrderSetResult, PadicNumber, PoleFamily,
                     RamifiedGerm, Refinement, Segment, SkeletonGraph, SkeletonTower,
                     SubdivisionSet, TailBound, ThetaRequest, artin_schreier_certificate,
                     order_set, subdivision_union)
from nonarch.skeleton import CheckReport


def Q(r, p=3):
    return PadicNumber(p, Fraction(r))


def path(length=2):
    return SkeletonGraph.build(["a", "b"], [("e", "a", "b", length)])


def split_path():
    return SkeletonGraph.build(["a", "m", "b"], [("e1", "a", "m", 1), ("e2", "m", "b", 1)])


def halves():
    return Refinement(path(), split_path(), {"a": "a", "b": "b"},
                      {"e": [("e1", 1), ("e2", 1)]})


def theta(l=1, M=4, z=5, z0=2):
    return ThetaRequest(FactoredFunction(0, ((1, 1), (2, -1))), Q(3), l, Q(z), Q(z0), M)


# class -> (its fields in constructor order, a builder of the record, then
# builders of records that differ from it in one field each)
CASES = {
    TailBound: (("alpha", "beta"), lambda: TailBound(1, Fraction(1, 2)), [
        lambda: TailBound(2, Fraction(1, 2)), lambda: TailBound(1, 0)]),
    BoundedSeries: (("p", "coeffs", "tail"),
                    lambda: BoundedSeries.build(3, [1, 3, 9], TailBound(1, 2)), [
        lambda: BoundedSeries.build(5, [1, 3, 9], TailBound(1, 2)),
        lambda: BoundedSeries.build(3, [1, 3], TailBound(1, 2)),
        lambda: BoundedSeries.build(3, [1, 3, 9])]),
    BallPoint: (("center", "logradius", "degenerate"), lambda: BallPoint(Q(1), 2), [
        lambda: BallPoint(Q(2), 2), lambda: BallPoint(Q(1), 3)]),
    Segment: (("anchor", "rho_start", "rho_end"), lambda: Segment(Q(1), 3, 1), [
        lambda: Segment(Q(2), 3, 1), lambda: Segment(Q(1), 4, 1),
        lambda: Segment(Q(1), 3, 0)]),
    PoleFamily: (("poles", "x"), lambda: PoleFamily((Q(1), Q(2)), Q(0)), [
        lambda: PoleFamily((Q(1), Q(4)), Q(0)), lambda: PoleFamily((Q(1), Q(2)), Q(5))]),
    OrderSetResult: (("nmax", "C", "E_window", "u", "dims"),
                     lambda: order_set(PoleFamily((Q(1), Q(2)), Q(0)), 3), [
        lambda: order_set(PoleFamily((Q(1), Q(2)), Q(0)), 4),
        lambda: OrderSetResult(3, 2, (0, 1), (1, 2, 2, 2), (1, 2, 2, 2)),
        lambda: OrderSetResult(3, 1, (0, 2), (1, 2, 2, 2), (1, 2, 2, 2)),
        lambda: OrderSetResult(3, 1, (0, 1), (1, 1, 2, 2), (1, 2, 2, 2)),
        lambda: OrderSetResult(3, 1, (0, 1), (1, 2, 2, 2), (1, 1, 2, 2))]),
    RamifiedGerm: (("series", "e0"), lambda: RamifiedGerm(BoundedSeries.build(3, [1, 0, 3])), [
        lambda: RamifiedGerm(BoundedSeries.build(3, [1, 0, 6])),
        lambda: RamifiedGerm(BoundedSeries.build(3, [1, 3]))]),
    ArtinSchreierData: (("e", "p", "m", "d", "genus", "forces_vertex", "residue_equation"),
                        lambda: artin_schreier_certificate(6, 3), [
        lambda: artin_schreier_certificate(3, 3), lambda: artin_schreier_certificate(6, 5),
        lambda: ArtinSchreierData(6, 3, 1, 2, 1, True, "T^3 - T = X^7")]),
    Current: (("window", "cusp", "base", "period", "modulus"),
              lambda: Current.windowed({1: 2, 3: -1}, 1), [
        lambda: Current.windowed({1: 2, 3: -1, 4: 1}, 1),
        lambda: Current.windowed({1: 2, 3: -2}, 1), lambda: Current.windowed({1: 2, 3: -1}, 0),
        lambda: Current.periodic(3, {0: 1, 1: -1}, 1),
        lambda: Current.windowed({1: 2, 3: -1}, 1, modulus=5)]),
    EvalResult: (("value", "error_valuation", "pole_ord"), lambda: EvalResult(Q(1), Fraction(4)), [
        lambda: EvalResult(Q(2), Fraction(4)), lambda: EvalResult(Q(1), Fraction(5)),
        lambda: EvalResult(Q(1), Fraction(4), -1)]),
    FactoredFunction: (("x_exponent", "zeros"),
                       lambda: FactoredFunction(0, ((1, 1), (2, -1))), [
        lambda: FactoredFunction(1, ((1, 1), (2, -1))),
        lambda: FactoredFunction(0, ((1, 1), (3, -1)))]),
    ThetaRequest: (("fd", "q", "l", "z", "z0", "M"), theta, [
        lambda: theta(l=2), lambda: theta(M=5), lambda: theta(z=7), lambda: theta(z0=4)]),
    LadderResult: (("value", "pole", "table"), lambda: LadderResult(2, False, ((1, 3), (2, 5))), [
        lambda: LadderResult(1, False, ((1, 3), (2, 5))),
        lambda: LadderResult(2, True, ((1, 3), (2, 5))), lambda: LadderResult(2, False)]),
    Edge: (("id", "u", "v", "length"), lambda: Edge("e", "a", "b", 2), [
        lambda: Edge("f", "a", "b", 2), lambda: Edge("e", "c", "b", 2),
        lambda: Edge("e", "a", "c", 2), lambda: Edge("e", "a", "b", 3)]),
    SkeletonGraph: (("vertices", "edges", "cusps"), path, [
        lambda: SkeletonGraph.build(["a", "b", "c"], [("e", "a", "b", 2), ("f", "b", "c", 1)]),
        lambda: path(3), lambda: SkeletonGraph.build(["a", "b"], [("e", "a", "b", 2)],
                                                     [("h", "a")])]),
    GraphPoint: (("vertex", "edge", "offset"), lambda: GraphPoint.on_edge("e", "1/2"), [
        lambda: GraphPoint.at_vertex("a"), lambda: GraphPoint.on_edge("f", "1/2"),
        lambda: GraphPoint.on_edge("e", "1/3")]),
    Refinement: (("coarse", "fine", "vertex_map", "edge_paths"), halves, [
        lambda: Refinement(path(), path(), {"a": "a", "b": "b"}, {"e": [("e", 1)]})]),
    CheckReport: (("ok", "sample", "message"),
                  lambda: CheckReport(False, GraphPoint.at_vertex("a"), "m"), [
        lambda: CheckReport(True, GraphPoint.at_vertex("a"), "m"),
        lambda: CheckReport(False, None, "m"),
        lambda: CheckReport(False, GraphPoint.at_vertex("a"))]),
    SkeletonTower: (("graphs", "refinements"),
                    lambda: SkeletonTower((path(), split_path()), (halves(),)), [
        lambda: SkeletonTower((path(),), ())]),
    SubdivisionSet: (("length", "levels"), lambda: SubdivisionSet(2, [[1], ["1/2", 1]]), [
        lambda: SubdivisionSet(3, [[1], ["1/2", 1]]),
        lambda: SubdivisionSet(2, [[1], ["1/2", 1, "3/2"]])]),
    CompletedSubdivision: (("length", "cuts"),
                           lambda: subdivision_union(SubdivisionSet(2, [[1], ["1/2", 1]])), [
        lambda: CompletedSubdivision(3, (Fraction(1, 2), Fraction(1))),
        lambda: CompletedSubdivision(Fraction(2), (Fraction(1),))]),
}

CLASSES = sorted(CASES, key=lambda cls: cls.__name__)


def test_the_cases_cover_the_value_classes():
    assert len(CASES) == 21


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_field_wise_within_one_class(cls):
    names, build, variants = CASES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    for variant in variants:
        other = variant()
        assert type(other) is cls and a != other and not a == other
    assert a != tuple(getattr(a, name) for name in names)
    for other_cls in CLASSES:
        if other_cls is not cls:
            assert a != CASES[other_cls][1]()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_records_hash_alike(cls):
    _, build, _ = CASES[cls]
    assert hash(build()) == hash(build())


@pytest.mark.parametrize("cls", CLASSES + [PadicNumber], ids=lambda cls: cls.__name__)
def test_a_record_refuses_assignment_and_deletion(cls):
    a = CASES[cls][1]() if cls in CASES else Q(1)
    field = CASES[cls][0][0] if cls in CASES else "p"
    before = getattr(a, field)
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError) as exc:
            setattr(a, name, before)
        assert str(exc.value) == f"{cls.__name__} is immutable: cannot assign {name!r}"
        with pytest.raises(AttributeError) as exc:
            delattr(a, name)
        assert str(exc.value) == f"{cls.__name__} is immutable: cannot delete {name!r}"
    assert getattr(a, field) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copy_deepcopy_and_pickle_give_an_equal_record(cls):
    names, build, _ = CASES[cls]
    a = build()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and hash(twin) == hash(a)
        assert [getattr(twin, name) for name in names] == [getattr(a, name) for name in names]


def test_derived_fields_are_not_compared():
    # BallPoint compares balls, not the degenerate flag or the same center
    assert BallPoint(Q(1), 2) == BallPoint(Q(10), 2, degenerate=True)
    # a germ is normalized to f(0) = 1 before its fields are compared
    assert RamifiedGerm(BoundedSeries.build(3, [2, 0, 6])) == CASES[RamifiedGerm][1]()
    # the zeros of a factored function are sorted and zero exponents dropped
    assert FactoredFunction(0, ((2, -1), (1, 1), (5, 0))) == CASES[FactoredFunction][1]()


def test_a_refinement_hashes_only_its_graphs():
    # the same two graphs, embedded the other way round: unequal, same hash
    a = Refinement(path(), path(), {"a": "a", "b": "b"}, {"e": [("e", 1)]})
    b = Refinement(path(), path(), {"a": "b", "b": "a"}, {"e": [("e", -1)]})
    assert a != b and hash(a) == hash(b) == hash((path(), path()))


def test_repr_texts():
    assert repr(GraphPoint.at_vertex("a")) == "Pt(v=a)"
    assert repr(GraphPoint.on_edge("e", "1/2")) == "Pt(e@1/2)"
    assert repr(CheckReport(True)) == "CheckReport(ok=True, sample=None, message='')"
    assert repr(CheckReport(False, GraphPoint.at_vertex("a"),
                            "Pt(v=b) != Pt(v=c) at Pt(v=a)")) == (
        "CheckReport(ok=False, sample=Pt(v=a), message='Pt(v=b) != Pt(v=c) at Pt(v=a)')")
    assert repr(CheckReport(False, None, "('c', 1, Fraction(0, 1)) != None on edge e")) == (
        "CheckReport(ok=False, sample=None, "
        "message=\"('c', 1, Fraction(0, 1)) != None on edge e\")")
    assert repr(TailBound(1, 2)) == "TailBound(alpha=Fraction(1, 1), beta=Fraction(2, 1))"
