"""The contract of the package's immutable value classes.

Equality reads the fields and nothing cached or marked
(``LeibnizAlgebra._cache``, the closed mark of a ``LieSet`` from
``lie_set_closure``, the kept hashes, row terms and transposes), equal objects
hash alike before and after their caches fill, assignment raises
``AttributeError``, the reprs are the literal strings below, and every
frozen class survives a pickle round trip. The result records stay
mutable and unhashable.
"""

import pickle
import weakref
from fractions import Fraction

import pytest

from leibniz_engel import (Bimodule, Element, FamilySpec, Flag,
                           LeibnizAlgebra, LieSet, cyclic, engel_flag,
                           heisenberg3, is_ideal, lie_set_closure,
                           lower_central_series, regular_bimodule)
from leibniz_engel.algebra import (IdentityReport, IdentityViolation,
                                   LeibnizValidation, LieSetCheck)
from leibniz_engel.bimodule import BimoduleValidation
from leibniz_engel.corollaries import MapCheck
from leibniz_engel.fields import GF, QQ, PrimeField, RationalField
from leibniz_engel.linalg import Matrix, Subspace
from leibniz_engel.reports import Check, Report

HALF = Fraction(1, 2)


def _copy_algebra(A: LeibnizAlgebra) -> LeibnizAlgebra:
    """An equal algebra that shares no tuple with ``A`` and has an empty
    cache."""
    return LeibnizAlgebra(A.field, A.dim, tuple(
        tuple(tuple(list(cij)) for cij in ci) for ci in A.structure),
        A.basis_names)


def _fill_caches(A: LeibnizAlgebra) -> None:
    A._operators()
    lower_central_series(A)
    is_ideal(A, A.full_space())
    for m in A._operators()[0]:
        m._row_terms, m.transpose()._row_terms


def _equal_pairs() -> list:
    """(x, y): equal objects built separately, so no field is shared."""
    A = heisenberg3()
    B = _copy_algebra(A)
    m = Matrix.from_rows(QQ, [[1, HALF], [0, -3]])
    members = tuple(lie_set_closure(A.basis()).members)
    return [
        (m, Matrix.from_rows(QQ, [[1, HALF], [0, -3]])),
        (Subspace.span(GF(7), 3, [(1, 2, 3)]),
         Subspace.span(GF(7), 3, [(2, 4, 6)])),
        (RationalField(), QQ),
        (GF(7), PrimeField(7)),
        (A, B),
        (regular_bimodule(A), regular_bimodule(B)),
        (Element(A, (1, 0, 0)), Element(B, (1, 0, 0))),
        (LieSet(A, members), LieSet(B, members)),
        (Flag((Subspace.zero(QQ, 2), Subspace.full(QQ, 2))),
         Flag((Subspace.zero(QQ, 2), Subspace.full(QQ, 2)))),
        (FamilySpec("cyclic", (3,), GF(5)), FamilySpec("cyclic", (3,), GF(5))),
    ]


def test_equal_objects_hash_alike_before_and_after_caches_fill():
    for x, y in _equal_pairs():
        assert x is not y and x == y and y == x
        assert hash(x) == hash(y)
    for x, y in _equal_pairs():
        for obj in (x, y):
            if isinstance(obj, LeibnizAlgebra):
                _fill_caches(obj)
            elif isinstance(obj, Matrix):
                obj._row_terms, obj.transpose()._row_terms
        before = hash(y)
        hash(x)  # the kept hashes fill now
        assert x == y and hash(x) == hash(y) == before


def test_hashes_are_those_of_the_fields():
    A = cyclic(3)
    m = Matrix.identity(GF(5), 2)
    s = Subspace.full(QQ, 2)
    closure = lie_set_closure(A.basis())
    assert hash(QQ) == hash((0,)) and hash(GF(7)) == hash((7,))
    assert hash(m) == hash((m.field, m.rows, m.cols, m.entries))
    assert hash(s) == hash((s.field, s.ambient_dim, s.basis))
    assert hash(A) == hash((A.field, A.dim, A.structure, A.basis_names))
    assert hash(closure) == hash((A, closure.members))


def test_cache_and_closed_mark_stay_out_of_equality():
    A = cyclic(3)
    B = _copy_algebra(A)
    _fill_caches(A)
    assert A._cache and not B._cache
    assert A == B and hash(A) == hash(B)
    closure = lie_set_closure(A.basis())
    bare = LieSet(B, closure.members)
    assert closure._closed and not bare._closed
    assert closure == bare and hash(closure) == hash(bare)
    assert LieSet(A, closure.members[:-1]) != closure


def test_each_compared_field_tells_objects_apart():
    assert QQ != GF(5) and GF(5) != QQ
    assert GF(5) != GF(7)
    assert Matrix.zero(QQ, 2, 2) != Matrix.zero(GF(5), 2, 2)
    assert Matrix.zero(QQ, 2, 3) != Matrix.zero(QQ, 3, 2)
    assert Subspace.zero(QQ, 2) != Subspace.zero(QQ, 3)
    assert Subspace.zero(QQ, 2) != Subspace.zero(GF(5), 2)
    A, B = cyclic(2), cyclic(2, GF(5))
    assert A != B
    assert A != LeibnizAlgebra(A.field, A.dim, A.structure)  # names differ
    assert Element(A, (1, 0)) != Element(A, (0, 1))
    assert FamilySpec("cyclic", (2,)) != FamilySpec("cyclic", (2,), GF(5))
    assert Matrix.zero(QQ, 1, 1) != Subspace.zero(QQ, 1)
    # records of two classes with equal fields differ by their class
    assert LieSetCheck(True, None) != MapCheck(True, None)
    assert IdentityReport(True, []) != LeibnizValidation(True, [])


def _frozen_objects() -> list:
    A = cyclic(2)
    module = regular_bimodule(A)
    return [Matrix.identity(QQ, 2), Subspace.full(QQ, 2), QQ, GF(7), A,
            module, A.basis_element(0), lie_set_closure(A.basis()),
            engel_flag(module, A.basis()), FamilySpec("abelian", (2,))]


def test_assignment_and_deletion_raise_attribute_error():
    for obj in _frozen_objects():
        for name in ("field", "dim", "p", "chain", "_cache", "anything"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            del obj.field


def _records() -> list:
    """One object of each result record class."""
    return [Check("x", True), Report([], []), LeibnizValidation(True, []),
            IdentityViolation("right_right", {"pair": [2, 1]}),
            IdentityReport(True, []), LieSetCheck(True, None),
            BimoduleValidation(True, [], True, []), MapCheck(True, None)]


def test_report_classes_stay_mutable_and_unhashable():
    check = Check("x", True)
    report = Report([check], [])
    for obj in (check, report):
        with pytest.raises(TypeError):
            hash(obj)
    check.passed = False
    assert report.verdict == "premises_failed"
    report.forced_verdict = "error"
    assert report.verdict == "error"
    check.passed = True
    assert report == Report([Check("x", True)], [], {}, [], "error")
    assert Report([], []).data == {} and Report([], []).notes == []
    assert Report([], []).data is not Report([], []).data
    records, others = _records(), _records()
    assert len({type(r) for r in records}) == 8
    for record, other in zip(records, others):
        with pytest.raises(TypeError):
            hash(record)
        assert record == other
        for name in record.__slots__:
            setattr(record, name, "changed")
            assert getattr(record, name) == "changed"
            assert record != other
            setattr(other, name, "changed")
            assert record == other


def test_matrices_subspaces_and_fields_survive_pickle():
    """Every frozen class, with its caches filled before the round trip."""
    A = heisenberg3()
    _fill_caches(A)
    m = Matrix.from_rows(GF(7), [[1, 2], [3, 4]])
    hash(m), m._row_terms, m.transpose()
    s = Subspace.span(QQ, 3, [(1, HALF, 3)])
    hash(s)
    module = regular_bimodule(A)
    hash(module)
    closure = lie_set_closure(A.basis())
    objects = [m, s, QQ, GF(7), A, module, A.basis_element(1), closure,
               engel_flag(module, A.basis()), FamilySpec("cyclic", (3,), GF(5))]
    assert len({type(obj) for obj in objects}) == 10
    for obj in objects:
        copy = pickle.loads(pickle.dumps(obj))
        assert type(copy) is type(obj)
        assert copy == obj and hash(copy) == hash(obj)
        assert repr(copy) == repr(obj)
    assert weakref.ref(m)() is m
    # the closed mark is not a field: a copy is checked as any public set
    copy = pickle.loads(pickle.dumps(closure))
    assert closure._closed and not copy._closed
    assert not pickle.loads(pickle.dumps(A))._cache


def test_reprs_are_unchanged():
    assert repr(Matrix.from_rows(QQ, [[1, HALF], [0, -3]])) == (
        "Matrix(field=RationalField(characteristic=0), rows=2, cols=2, "
        "entries=((1, Fraction(1, 2)), (0, -3)))")
    assert repr(Subspace.span(QQ, 3, [[1, 2, 3]])) == (
        "Subspace(field=RationalField(characteristic=0), ambient_dim=3, "
        "basis=((1, 2, 3),))")
    assert repr(QQ) == "RationalField(characteristic=0)"
    assert repr(GF(7)) == "PrimeField(p=7)"
    assert repr(FamilySpec("cyclic", (2,), GF(5))) == \
        "FamilySpec(kind='cyclic', args=(2,), field=PrimeField(p=5))"
    assert repr(FamilySpec("abelian")) == \
        "FamilySpec(kind='abelian', args=(), field=RationalField(characteristic=0))"
    A = cyclic(2, GF(3))
    A._operators()
    assert repr(A) == (
        "LeibnizAlgebra(field=PrimeField(p=3), dim=2, "
        "structure=(((0, 1), (0, 0)), ((0, 0), (0, 0))), "
        "basis_names=('e1', 'e2'))")
    assert repr(Bimodule(A, 0, (Matrix.zero(A.field, 0, 0),) * 2,
                         (Matrix.zero(A.field, 0, 0),) * 2)) == (
        f"Bimodule(algebra={A!r}, module_dim=0, left_actions=("
        "Matrix(field=PrimeField(p=3), rows=0, cols=0, entries=()), "
        "Matrix(field=PrimeField(p=3), rows=0, cols=0, entries=())), "
        "right_actions=(Matrix(field=PrimeField(p=3), rows=0, cols=0, "
        "entries=()), Matrix(field=PrimeField(p=3), rows=0, cols=0, "
        "entries=())))")
    assert repr(Report([Check("x", True)], [])) == (
        "Report(premises=[Check(name='x', passed=True, witness=None, "
        "data=None)], conclusions=[], data={}, notes=[], "
        "forced_verdict=None)")
    assert repr(Check("c", False, witness={"x": HALF}, data=[1])) == (
        "Check(name='c', passed=False, witness={'x': Fraction(1, 2)}, "
        "data=[1])")
    assert repr(Report([], [Check("y", True)], {"k": 1}, ["n"], "error")) == (
        "Report(premises=[], conclusions=[Check(name='y', passed=True, "
        "witness=None, data=None)], data={'k': 1}, notes=['n'], "
        "forced_verdict='error')")
    assert repr(LeibnizValidation(False, [(1, 1, 2, ("1",), ("0",))])) == (
        "LeibnizValidation(ok=False, violations=[(1, 1, 2, ('1',), "
        "('0',))])")
    violation = IdentityViolation("right_right", {"pair": [2, 1]})
    assert repr(violation) == (
        "IdentityViolation(identity='right_right', witness={'pair': [2, 1]})")
    assert repr(IdentityReport(True, [])) == \
        "IdentityReport(ok=True, violations=[])"
    x = A.basis_element(0)
    assert repr(x) == f"Element(algebra={A!r}, coords=(1, 0))"
    assert repr(LieSetCheck(False, (x, x))) == \
        f"LieSetCheck(ok=False, witness=({x!r}, {x!r}))"
    assert repr(BimoduleValidation(True, [], False, [violation])) == (
        "BimoduleValidation(ok=True, violations=[], derived_ok=False, "
        f"derived_violations=[{violation!r}])")
    assert repr(MapCheck(False, {"pair": [1, 2]})) == \
        "MapCheck(ok=False, witness={'pair': [1, 2]})"
    y = A.basis_element(1)
    assert repr(lie_set_closure(A.basis())) == \
        f"LieSet(algebra={A!r}, members=({x!r}, {y!r}))"
    assert repr(LieSet(A, (x,))) == f"LieSet(algebra={A!r}, members=({x!r},))"
    assert repr(Flag((Subspace.zero(QQ, 1), Subspace.full(QQ, 1)))) == (
        "Flag(chain=(Subspace(field=RationalField(characteristic=0), "
        "ambient_dim=1, basis=()), Subspace(field=RationalField("
        "characteristic=0), ambient_dim=1, basis=((1,),))))")
