import random

import pytest

from leibniz_engel import (Bimodule, abelian, annihilator_ideal, cyclic,
                           heisenberg3, lower_central_series,
                           quotient_bimodule, regular_bimodule, s_matrix,
                           sol2, submodule_generated, t_matrix,
                           validate_bimodule)
from leibniz_engel.bimodule import is_submodule
from leibniz_engel.errors import AlgebraMismatch, ShapeMismatch
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix, Subspace

from oracles import invariant_per_action, spin_per_vector


def test_regular_cyclic2_actions():
    M = regular_bimodule(cyclic(2))
    n = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    assert M.left_actions[0] == n and M.right_actions[0] == n
    assert M.left_actions[1].is_zero() and M.right_actions[1].is_zero()
    v = validate_bimodule(M)
    assert v.ok and v.derived_ok


def test_regular_abelian_actions_zero():
    M = regular_bimodule(abelian(4))
    assert all(m.is_zero() for m in M.left_actions + M.right_actions)
    assert validate_bimodule(M).all_ok()


def test_regular_heisenberg_actions():
    M = regular_bimodule(heisenberg3())
    assert M.left_actions[0].apply((0, 1, 0)) == (0, 0, 1)    # e1 e2 = e3
    assert M.right_actions[0].apply((0, 1, 0)) == (0, 0, -1)  # e2 e1 = -e3
    assert validate_bimodule(M).all_ok()


def test_zero_actions_validate_on_any_space():
    A = cyclic(2)
    z = Matrix.zero(QQ, 3, 3)
    M = Bimodule.create(A, 3, [z, z], [z, z])
    assert validate_bimodule(M).all_ok()


def test_invalid_one_dimensional_bimodule():
    # T_{e1} = S_{e1} = (1) on a line: the product-compatibility identity
    # S_{e1 e1} = S^2 + T S reads 0 = 2 and fails
    A = cyclic(2)
    one = Matrix.from_rows(QQ, [[1]])
    zero = Matrix.zero(QQ, 1, 1)
    M = Bimodule.create(A, 1, [one, zero], [one, zero])
    report = validate_bimodule(M)
    assert not report.ok
    names = {v.identity for v in report.violations}
    assert "right_action_of_product" in names
    assert report.violations[0].witness["pair"] == (1, 1)


def test_shape_checks():
    A = cyclic(2)
    z2 = Matrix.zero(QQ, 2, 2)
    with pytest.raises(ShapeMismatch):
        Bimodule.create(A, 2, [z2], [z2, z2])
    with pytest.raises(ShapeMismatch):
        Bimodule.create(A, 3, [z2, z2], [z2, z2])
    with pytest.raises(ShapeMismatch):
        Bimodule.create(A, 2, [Matrix.zero(GF(5), 2, 2), z2], [z2, z2])


def test_t_and_s_matrices():
    A = cyclic(2)
    M = regular_bimodule(A)
    assert t_matrix(M, A.zero()).is_zero()
    x = A.element([1, 1])
    assert t_matrix(M, x) == Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    H = heisenberg3()
    MH = regular_bimodule(H)
    assert t_matrix(MH, H.basis_element(1)).apply((1, 0, 0)) == (0, 0, -1)
    with pytest.raises(AlgebraMismatch):
        t_matrix(M, abelian(2).basis_element(0))
    assert s_matrix(M, x) == Matrix.from_rows(QQ, [[0, 0], [1, 0]])


def test_annihilator_examples():
    assert annihilator_ideal(regular_bimodule(cyclic(2))).basis == ((0, 1),)
    assert annihilator_ideal(regular_bimodule(abelian(3))).is_full()
    assert annihilator_ideal(regular_bimodule(heisenberg3())).basis == \
        ((0, 0, 1),)


def test_submodule_generated():
    M = regular_bimodule(cyclic(2))
    assert submodule_generated(M, (0, 1)).basis == ((0, 1),)
    assert submodule_generated(M, (1, 0)).is_full()
    A = cyclic(2)
    z3 = Matrix.zero(QQ, 3, 3)
    Z = Bimodule.create(A, 3, [z3, z3], [z3, z3])
    assert submodule_generated(Z, (1, 2, 3)).dim == 1


def test_submodule_generated_is_invariant(small_corpus):
    rng = random.Random(41)
    for algebra, module in small_corpus[:15]:
        if module.module_dim == 0:
            continue
        v = [algebra.field.from_int(rng.randrange(-2, 3))
             for _ in range(module.module_dim)]
        sub = submodule_generated(module, v)
        assert is_submodule(module, sub)
        assert sub.is_zero() == all(x == 0 for x in v)


def test_quotient_bimodule_validates():
    A = sol2()
    M = regular_bimodule(A)
    sub = Subspace.span(QQ, 2, [(0, 1)])
    Q = quotient_bimodule(M, sub)
    assert Q.module_dim == 1
    assert validate_bimodule(Q).all_ok()
    with pytest.raises(ShapeMismatch):
        quotient_bimodule(M, Subspace.span(QQ, 2, [(1, 0)]))  # not invariant


def test_spin_and_invariance_match_per_action_oracles(small_corpus,
                                                     corpus2024):
    rng = random.Random(1101)
    verdicts = []
    for algebra, module in small_corpus + corpus2024:
        f, m = algebra.field, module.module_dim
        vectors = [(f.zero(),) * m] + \
            [tuple(f.from_int(rng.randrange(-2, 3)) for _ in range(m))
             for _ in range(2)]
        carriers = []
        for v in vectors:
            spun = submodule_generated(module, v)
            assert spun == spin_per_vector(module, v)
            carriers.append(spun)
        for _ in range(2):
            carriers.append(Subspace.span(f, m, [
                [f.from_int(rng.randrange(-2, 3)) for _ in range(m)]
                for _ in range(rng.randint(1, m))]))
        checks = [(module, c) for c in carriers]
        regular = regular_bimodule(algebra)
        for term in lower_central_series(algebra):
            checks.append((regular, term))
            if m == algebra.dim:
                checks.append((module, term))
        for mod, carrier in checks:
            verdict = is_submodule(mod, carrier)
            assert verdict == invariant_per_action(mod, carrier)
            verdicts.append(verdict)
    assert verdicts.count(False) > 50 and verdicts.count(True) > 1000
