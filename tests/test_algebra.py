import random

import pytest

from leibniz_engel import (cyclic, heisenberg3, sol2, abelian, fuzz_corpus,
                           is_ideal, is_lie_set, is_nilpotent_algebra,
                           left_mult_matrix, lie_set_closure,
                           lower_central_series, power, right_mult_matrix,
                           subalgebra_generated, validate_leibniz,
                           verify_operator_identities)
from leibniz_engel.algebra import LeibnizAlgebra, product_span
from leibniz_engel.errors import (AlgebraMismatch, CapExceeded,
                                  InvalidAlgebra, InvalidExponent)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix, Subspace

from oracles import leibniz_triple_violations


def _square_algebra(unvalidated=True):
    # e1 e1 = e1 violates the defining identity: e1(e1 e1) = e1 but
    # (e1 e1)e1 + e1(e1 e1) = 2 e1
    structure = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    return LeibnizAlgebra.create(QQ, structure, unvalidated=unvalidated)


def test_validate_cyclic2_passes():
    A = cyclic(2)
    assert validate_leibniz(A.structure, QQ, 2).ok


def test_validate_abelian_passes():
    A = abelian(3)
    assert validate_leibniz(A.structure, QQ, 3).ok


def test_validate_reports_violating_triple_with_both_sides():
    A = _square_algebra()
    report = validate_leibniz(A.structure, QQ, 2)
    assert not report.ok
    first = report.violations[0]
    assert first[:3] == (1, 1, 1)
    assert first[3] == ("1", "0")   # e1
    assert first[4] == ("2", "0")   # 2 e1


def test_invalid_algebra_rejected_without_flag():
    with pytest.raises(InvalidAlgebra):
        _square_algebra(unvalidated=False)
    assert _square_algebra(unvalidated=True).validated is False


def test_multiply_cyclic2():
    A = cyclic(2)
    e1, e2 = A.basis()
    assert (e1 * e1).coords == e2.coords
    assert (e2 * e1).is_zero()
    assert (e1 * A.zero()).is_zero()


def test_multiply_requires_same_algebra():
    with pytest.raises(AlgebraMismatch):
        cyclic(2).basis_element(0) * abelian(2).basis_element(0)


def test_mult_matrices_cyclic2():
    A = cyclic(2)
    e1, e2 = A.basis()
    n = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    assert left_mult_matrix(e1) == n
    assert right_mult_matrix(e1) == n
    assert left_mult_matrix(e2).is_zero()
    assert right_mult_matrix(e2).is_zero()


def test_mult_matrices_linear_in_element():
    A = heisenberg3(GF(5))
    x = A.element([2, 3, 1])
    expected = left_mult_matrix(A.basis_element(0)).scale(2) + \
        left_mult_matrix(A.basis_element(1)).scale(3) + \
        left_mult_matrix(A.basis_element(2))
    assert left_mult_matrix(x) == expected


def test_power_examples():
    A = cyclic(2)
    e1 = A.basis_element(0)
    assert power(e1, 2).coords == A.basis_element(1).coords
    assert power(e1, 3).is_zero()
    B = abelian(3)
    x = B.element([1, 2, 3])
    assert power(x, 2).is_zero()
    with pytest.raises(InvalidExponent):
        power(e1, 0)


@pytest.mark.parametrize("algebra", [cyclic(2), abelian(4), heisenberg3(),
                                     sol2(), cyclic(4, GF(7))])
def test_operator_identities_hold(algebra):
    assert verify_operator_identities(algebra).ok


def test_operator_identities_c2_right_square_vanishes():
    A = cyclic(2)
    r = right_mult_matrix(A.basis_element(0))
    l = left_mult_matrix(A.basis_element(0))
    assert (r @ r).is_zero()
    assert (r @ l).is_zero()


def test_subalgebra_generated():
    A = cyclic(2)
    assert subalgebra_generated([A.basis_element(0)]).is_full()
    assert subalgebra_generated([A.basis_element(1)]).basis == ((0, 1),)
    assert subalgebra_generated([A.zero()]).is_zero()


def test_subalgebra_generated_idempotent_and_monotone():
    A = heisenberg3()
    e1, e2, e3 = A.basis()
    small = subalgebra_generated([e1])
    bigger = subalgebra_generated([e1, e2])
    assert bigger.contains_subspace(small)
    regen = subalgebra_generated([A.element(v) for v in bigger.basis])
    assert regen == bigger


def test_is_lie_set_cyclic2():
    A = cyclic(2)
    check = is_lie_set(A.basis())
    assert check.ok and check.witness is None


def test_lie_set_closure_cyclic2_singleton():
    A = cyclic(2)
    closure = lie_set_closure([A.basis_element(0)])
    assert {m.coords for m in closure.members} == {(1, 0), (0, 1)}


def test_sol2_lie_set_and_closure():
    A = sol2()
    e1, e2 = A.basis()
    check = is_lie_set([e1, e2])
    assert not check.ok
    x, y = check.witness
    assert (x.coords, y.coords) == ((0, 1), (1, 0))  # e2 e1 = -e2 unlisted
    closure = lie_set_closure([e1, e2])
    assert {m.coords for m in closure.members} == {(1, 0), (0, 1), (0, -1)}
    assert is_lie_set(list(closure.members)).ok


def test_lie_set_rejects_zero_members():
    A = cyclic(2)
    with pytest.raises(ValueError):
        is_lie_set([A.zero()])


def test_closure_cap():
    # e1 e2 = 2 e2 doubles forever over Q: the closure orbit is infinite
    A = LeibnizAlgebra.create(QQ, [[[0, 0], [0, 2]], [[0, -2], [0, 0]]])
    with pytest.raises(CapExceeded):
        lie_set_closure(A.basis(), cap=50)


def test_lower_central_series_examples():
    assert [s.dim for s in lower_central_series(cyclic(2))] == [2, 1, 0]
    assert [s.dim for s in lower_central_series(sol2())] == [2, 1]
    assert [s.dim for s in lower_central_series(abelian(3))] == [3, 0]
    assert is_nilpotent_algebra(cyclic(2)) == (True, 2)
    assert is_nilpotent_algebra(sol2()) == (False, None)
    assert is_nilpotent_algebra(abelian(5)) == (True, 1)


def test_series_terms_are_ideals_and_strictly_decrease():
    for A in (cyclic(4), heisenberg3(), sol2(), cyclic(3, GF(5))):
        series = lower_central_series(A)
        for term in series:
            assert is_ideal(A, term)
        for prev, nxt in zip(series, series[1:]):
            assert prev.contains_subspace(nxt)
            assert prev.dim > nxt.dim


def test_is_ideal_examples():
    A = cyclic(2)
    assert is_ideal(A, Subspace.span(QQ, 2, [(0, 1)]))
    assert not is_ideal(A, Subspace.span(QQ, 2, [(1, 0)]))
    assert is_ideal(A, Subspace.full(QQ, 2))


def test_left_mult_of_powers_vanishes_on_random_combinations():
    rng = random.Random(17)
    for A in (cyclic(4), heisenberg3(), cyclic(3, GF(7)), sol2()):
        for _ in range(10):
            x = A.element([A.field.from_int(rng.randrange(-3, 4))
                           for _ in range(A.dim)])
            p = x * x
            for _ in range(A.dim):
                assert left_mult_matrix(p).is_zero()
                p = x * p


def test_right_power_vanishes_when_left_power_does():
    # wherever L_a^(n-1) = 0, R_a^n = 0 must follow
    for A in (cyclic(4), heisenberg3(), abelian(3), cyclic(5, GF(5))):
        for a in A.basis():
            l, r = left_mult_matrix(a), right_mult_matrix(a)
            for n in range(2, A.dim + 2):
                if (l ** (n - 1)).is_zero():
                    assert (r ** n).is_zero()
                    break


def test_product_span_matches_series_step():
    A = heisenberg3()
    full = A.full_space()
    sq = product_span(A, full, full)
    assert sq.basis == ((0, 0, 1),)


def test_fractional_structure_constants():
    # rescaling the basis of cyclic(3) by 1, 2, 6 puts true fractions into
    # the constants: f1 f1 = (1/2) f2, f1 f2 = (1/3) f3
    half, third = QQ.parse("1/2"), QQ.parse("1/3")
    structure = [[[0, half, 0], [0, 0, third], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    A = LeibnizAlgebra.create(QQ, structure)
    assert A.validated
    assert verify_operator_identities(A).ok
    assert is_nilpotent_algebra(A) == (True, 3)
    e1 = A.basis_element(0)
    assert power(e1, 3).coords == (0, 0, QQ.parse("1/6"))


def test_identity_verifier_flags_invalid_algebra():
    report = verify_operator_identities(_square_algebra())
    assert not report.ok
    names = {v.identity for v in report.violations}
    assert "right_mult_of_product" in names


def test_validate_matches_triple_loop_oracle_on_corrupted_tensors():
    rng = random.Random(1101)
    fields_seen, broken = set(), 0
    for algebra, _ in fuzz_corpus(11, 36, 8):
        f, n = algebra.field, algebra.dim
        if n < 2:
            continue
        assert validate_leibniz(algebra.structure, f, n).ok
        tensor = [[list(cij) for cij in ci] for ci in algebra.structure]
        i, j, k = (rng.randrange(n) for _ in range(3))
        tensor[i][j][k] = f.add(tensor[i][j][k], f.from_int(rng.randrange(1, 5)))
        corrupted = LeibnizAlgebra.create(f, tensor, unvalidated=True).structure
        got = validate_leibniz(corrupted, f, n).violations
        assert got == leibniz_triple_violations(corrupted, f, n)
        fields_seen.add(str(f))
        broken += bool(got)
    assert fields_seen == {"Q", "F5", "F7"}
    assert broken > 20
