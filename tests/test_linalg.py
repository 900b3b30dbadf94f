import dataclasses
import gc
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from leibniz_engel.algebra import _add_combination
from leibniz_engel.cli import main
from leibniz_engel.errors import (DimensionMismatch, FieldMismatch,
                                  FormatError, NonSquareError)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import (Matrix, Subspace, _walk, invert,
                                  is_nilpotent_matrix, kernel_basis,
                                  matrix_rank, rref)
import leibniz_engel.linalg as linalg_module

from oracles import transpose_per_column

F5 = GF(5)


def _random_matrix(field, rows, cols, rng):
    return Matrix.from_rows(field, [[field.from_int(rng.randrange(-4, 5))
                                     for _ in range(cols)]
                                    for _ in range(rows)])


def test_rref_single_pivot():
    m = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    red, rank, pivots = rref(m)
    assert red == Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    assert rank == 1
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    m = Matrix.identity(QQ, 3)
    red, rank, _ = rref(m)
    assert red == m
    assert rank == 3


def test_rref_mod5_dependent_rows():
    # second row is twice the first mod 5, so it eliminates to zero
    m = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    red, rank, _ = rref(m)
    assert red == Matrix.from_rows(F5, [[1, 2], [0, 0]])
    assert rank == 1


@pytest.mark.parametrize("field", [QQ, F5])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = _random_matrix(field, rows, cols, rng)
        red, rank, _ = rref(m)
        again, rank2, _ = rref(red)
        assert again == red and rank2 == rank
        assert rank + kernel_basis(m).dim == cols
        for v in kernel_basis(m).basis:
            assert all(x == 0 for x in m.apply(v))


def test_kernel_examples():
    assert kernel_basis(Matrix.zero(QQ, 2, 2)).dim == 2
    assert kernel_basis(Matrix.identity(QQ, 2)).is_zero()
    k = kernel_basis(Matrix.from_rows(QQ, [[0, 0], [1, 0]]))
    assert k.basis == ((0, 1),)


def test_nilpotent_matrix_examples():
    n = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    assert is_nilpotent_matrix(n) == (True, 2)
    d = Matrix.from_rows(QQ, [[0, 0], [0, 1]])
    assert is_nilpotent_matrix(d) == (False, None)
    assert is_nilpotent_matrix(Matrix.zero(QQ, 3, 3)) == (True, 1)
    assert is_nilpotent_matrix(Matrix.from_rows(QQ, [])) == (True, 1)
    with pytest.raises(NonSquareError):
        is_nilpotent_matrix(Matrix.zero(QQ, 2, 3))


def test_nilpotency_agrees_with_explicit_powering():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randrange(1, 5)
        m = _random_matrix(F5, d, d, rng)
        power = m
        for _ in range(d - 1):
            power = power @ m
        assert is_nilpotent_matrix(m).verdict == power.is_zero()


def test_subspace_sum_and_contains():
    s1 = Subspace.span(QQ, 2, [(1, 0)])
    s2 = Subspace.span(QQ, 2, [(0, 1)])
    assert (s1 + s2).is_full()
    assert Subspace.span(QQ, 2, [(1, 1)]).contains((2, 2))
    assert not Subspace.span(QQ, 2, [(1, 1)]).contains((1, 2))


def test_public_span_normalises_its_input():
    # (5, 10) is zero mod 5: it must not be taken as a pivot row
    assert Subspace.span(F5, 2, [(-1, 6), (5, 10)]) == \
        Subspace.span(F5, 2, [(4, 1)])
    assert Subspace.span(F5, 2, [(-1, 6)]).basis == ((1, 4),)
    # the pivot is already 1, so only normalising makes 4/2 an int
    basis = Subspace.span(QQ, 2, [(1, Fraction(4, 2))]).basis
    assert basis == ((1, 2),) and type(basis[0][1]) is int
    with pytest.raises(FormatError):
        Subspace.span(QQ, 2, [(True, 0)])
    with pytest.raises(DimensionMismatch):
        Subspace.span(QQ, 2, [(1, 0, 0)])


def test_public_contains_normalises_its_input():
    # 5 and 10 are zero mod 5; contains_subspace hands the private
    # membership loop echelon rows, which are canonical already
    assert Subspace.zero(F5, 2).contains((5, 10))
    assert Subspace.span(F5, 2, [(1, 0)]).contains((0, 5))
    assert not Subspace.span(F5, 2, [(1, 0)]).contains((0, 6))
    assert Subspace.span(F5, 2, [(1, 0)]).contains_subspace(
        Subspace.span(F5, 2, [(-1, 5)]))
    with pytest.raises(DimensionMismatch):
        Subspace.zero(F5, 2).contains((0, 0, 0))


def test_subspace_equality_is_canonical():
    rng = random.Random(23)
    for field in (QQ, F5):
        for _ in range(20):
            n = rng.randrange(1, 5)
            vecs = [tuple(field.from_int(rng.randrange(-3, 4)) for _ in range(n))
                    for _ in range(rng.randrange(1, 4))]
            s = Subspace.span(field, n, vecs)
            shuffled = list(vecs)
            rng.shuffle(shuffled)
            scaled = [tuple(field.mul(field.from_int(2), x) for x in v)
                      for v in shuffled]
            assert Subspace.span(field, n, vecs + scaled) == s
            assert Subspace.span(field, n, scaled).basis == s.basis


def test_quotient_data_projection():
    rng = random.Random(7)
    for field in (QQ, F5):
        for _ in range(15):
            n = rng.randrange(1, 6)
            s = Subspace.span(field, n,
                              [tuple(field.from_int(rng.randrange(-3, 4))
                                     for _ in range(n))
                               for _ in range(rng.randrange(0, n + 1))])
            q, lifts = s.quotient_data()
            assert q.rows == n - s.dim and q.cols == n
            assert kernel_basis(q) == s
            for i, lift in enumerate(lifts):
                image = q.apply(lift)
                assert all(x == (field.one() if j == i else field.zero())
                           for j, x in enumerate(image))


def test_walk_ends_before_the_first_term_already_taken(monkeypatch):
    # the shift e1 -> e2 -> e3 -> e1 carries span{e1} round a cycle of three
    # terms, and the fourth image is the first term again; a walk that
    # looked only at its last term would never end
    shift = Matrix.from_rows(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    calls = Counter()
    image = linalg_module._image

    def bounded_image(space, transposes):
        calls["image"] += 1
        assert calls["image"] <= 10, "the walk did not end"
        return image(space, transposes)

    monkeypatch.setattr(linalg_module, "_image", bounded_image)
    walk = _walk(Subspace.span(QQ, 3, [(1, 0, 0)]), [shift.transpose()])
    assert [t.basis for t in walk] == [((1, 0, 0),), ((0, 1, 0),),
                                       ((0, 0, 1),)]
    assert calls["image"] == 3
    # a shrinking walk ends at its first zero term, its own image
    nil = Matrix.from_rows(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert [t.dim for t in _walk(Subspace.full(QQ, 3), [nil.transpose()])] \
        == [3, 2, 1, 0]


def test_invert_round_trip():
    rng = random.Random(31)
    for field in (QQ, F5, GF(7)):
        assert invert(Matrix.zero(field, 0, 0)) == Matrix.zero(field, 0, 0)
        found = 0
        while found < 10:
            n = rng.randrange(1, 9)
            m = _random_matrix(field, n, n, rng)
            inv = invert(m)
            if inv is None:
                assert matrix_rank(m) < n
                continue
            assert inv @ m == Matrix.identity(field, n)
            assert m @ inv == Matrix.identity(field, n)
            found += 1


def test_invert_refuses_a_dependent_last_column():
    # the last column is a combination of the others, so [m | I] has its
    # last pivot right of m and the left block of its echelon basis is not
    # the identity
    rng = random.Random(7)
    for field in (QQ, F5, GF(7)):
        for n in range(1, 9):
            rows = [[field.from_int(rng.randrange(-4, 5)) for _ in range(n)]
                    for _ in range(n)]
            weights = [field.from_int(rng.randrange(-2, 3))
                       for _ in range(n - 1)]
            for row in rows:
                row[-1] = field.zero()
                for x, w in zip(row, weights):
                    row[-1] = field.add(row[-1], field.mul(w, x))
            m = Matrix.from_rows(field, rows)
            assert matrix_rank(m) < n
            assert invert(m) is None


def test_matrix_pow_and_shape_errors():
    m = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    assert m ** 0 == Matrix.identity(QQ, 2)
    assert m ** 3 == Matrix.from_rows(QQ, [[1, 3], [0, 1]])
    with pytest.raises(DimensionMismatch):
        Matrix.zero(QQ, 2, 3) @ Matrix.zero(QQ, 2, 3)
    with pytest.raises(NonSquareError):
        Matrix.zero(QQ, 2, 3) ** 2


def _sample_matrices():
    rng = random.Random(12)
    return [_random_matrix(field, rows, cols, rng)
            for field in (QQ, F5) for rows, cols in ((2, 3), (3, 3), (1, 4))]


def test_matrix_and_subspace_stay_frozen():
    m = Matrix.identity(QQ, 2)
    s = Subspace.full(QQ, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.rows = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.basis = ()
    assert [f.name for f in dataclasses.fields(Matrix)] == \
        ["field", "rows", "cols", "entries"]
    assert [f.name for f in dataclasses.fields(Subspace)] == \
        ["field", "ambient_dim", "basis"]


def test_caches_leave_eq_hash_and_repr_alone():
    for m in _sample_matrices():
        fresh = Matrix(m.field, m.rows, m.cols, m.entries)
        before = (hash(m), repr(m))
        m._row_terms, m.transpose()._row_terms
        assert (hash(m), repr(m)) == before
        assert m == fresh and fresh == m
        assert repr(m) == (f"Matrix(field={m.field!r}, rows={m.rows}, "
                           f"cols={m.cols}, entries={m.entries!r})")


def test_pickle_and_replace_round_trips():
    for m in _sample_matrices():
        m.transpose()
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and hash(copy) == hash(m)
        assert copy.transpose() == m.transpose()
        assert copy.transpose().transpose() is copy
        assert dataclasses.replace(m) == m
        assert dataclasses.replace(m, entries=m.transpose().entries,
                                   rows=m.cols, cols=m.rows) == m.transpose()
    s = Subspace.span(QQ, 3, [(1, 2, 3)])
    assert pickle.loads(pickle.dumps(s)) == s
    assert dataclasses.replace(s, basis=()) == Subspace.zero(QQ, 3)


def test_transpose_is_built_once_and_links_back():
    for m in _sample_matrices() + [Matrix.zero(QQ, 0, 3),
                                   Matrix.zero(QQ, 3, 0)]:
        t = m.transpose()
        assert m.transpose() is t
        assert t.transpose() is m
        assert t == transpose_per_column(m)
    assert Matrix.zero(QQ, 0, 3).transpose() == Matrix.zero(QQ, 3, 0)
    assert Matrix.zero(QQ, 3, 0).transpose() == Matrix.zero(QQ, 0, 3)


def test_transpose_that_outlives_its_matrix_rebuilds_it():
    t = _sample_matrices()[0].transpose()
    again = t.transpose()
    assert again == transpose_per_column(t)
    assert t.transpose() is again


def test_fuzz_leaves_no_reference_cycles():
    # a matrix and its cached transpose link each other, one way weakly, so
    # reference counting alone frees every temporary of a run
    args = ["fuzz", "--seed", "2024", "--count", "20", "--max-dim", "8",
            "--quiet"]
    assert main(args) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(args) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_add_combination_leaves_the_shared_zero_rows_zero():
    zero = Matrix.zero(F5, 3, 3)
    assert len({id(row) for row in zero.entries}) == 1
    ops = [Matrix.identity(F5, 3), Matrix.from_rows(F5, [[0, 1, 2]] * 3)]
    total = _add_combination(zero, (2, 3), ops)
    assert total == Matrix.from_rows(F5, [[2, 3, 1], [0, 0, 1], [0, 3, 3]])
    assert zero.is_zero() and zero == Matrix.zero(F5, 3, 3)


def test_field_check_by_identity_then_equality():
    a, b = Matrix.identity(GF(5), 2), Matrix.identity(GF(7), 2)
    with pytest.raises(FieldMismatch):
        a @ b
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        Subspace.full(GF(5), 2) + Subspace.full(GF(7), 2)
    # GF builds a new object per call: equal fields still combine
    f, g = GF(7), GF(7)
    assert f is not g and f == g
    m, n = Matrix.identity(f, 2), Matrix.identity(g, 2)
    assert m @ n == m and m + n == Matrix.from_rows(f, [[2, 0], [0, 2]])
    assert Subspace.full(f, 2).contains_subspace(Subspace.zero(g, 2))
