import dataclasses
from array import array

import pytest

from leibniz_engel import (LieSet, abelian, check_engel_premises, cyclic,
                           engel_flag, heisenberg3,
                           image_filtration,
                           is_nilpotent_algebra, joint_annihilator,
                           lemma_word_bound_check, lie_set_closure,
                           lower_central_series, regular_bimodule, sol2,
                           theorem2_verify)
from leibniz_engel.bimodule import Bimodule
from leibniz_engel.errors import (AlgebraMismatch, CapExceeded,
                                  DimensionMismatch, FieldMismatch,
                                  FlagStalled, NoAnnihilator)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix, Subspace
import leibniz_engel.algebra as algebra_module
import leibniz_engel.engel as engel_module
import leibniz_engel.linalg as linalg_module

from oracles import (engel_flag_all_members, min_vanishing_word_length,
                     operator_algebra_closure)


def _zero_module(algebra, dim):
    z = Matrix.zero(algebra.field, dim, dim)
    return Bimodule.create(algebra, dim, [z] * algebra.dim, [z] * algebra.dim)


def test_operator_algebra_single_nilpotent_generator():
    n = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    op = operator_algebra_closure([n])
    assert len(op.basis) == 1
    assert op.index == 2
    assert op.power_dims == (1, 0)
    filtration = image_filtration([n])
    assert filtration.index == op.index
    assert filtration.dims == (2, 1, 0)


def test_operator_algebra_identity_not_nilpotent():
    identity = Matrix.identity(QQ, 2)
    op = operator_algebra_closure([identity])
    assert len(op.basis) == 1
    assert op.index is None
    assert op.power_dims == (1, 1)
    filtration = image_filtration([identity])
    assert filtration.index is None
    assert filtration.dims == (2, 2)


def test_operator_algebra_regular_cyclic3_pair():
    A = cyclic(3)
    M = regular_bimodule(A)
    pair = [M.left_actions[0], M.right_actions[0]]
    op = operator_algebra_closure(pair)
    assert op.index is not None and op.index <= 3
    for mat in op.basis:
        for i in range(3):
            for j in range(i, 3):
                assert mat.entries[i][j] == 0  # strictly lower triangular
    filtration = image_filtration(pair)
    assert filtration.index == op.index
    assert list(filtration.dims) == sorted(filtration.dims, reverse=True)


def test_operator_algebra_power_filtration_shape():
    A = cyclic(4, GF(7))
    M = regular_bimodule(A)
    ops = list(M.left_actions) + list(M.right_actions)
    op = operator_algebra_closure(ops)
    assert op.index is not None
    assert op.index <= 4 * 4 + 1
    assert op.power_dims[-1] == 0
    assert op.power_dims[-2] > 0
    assert op.power_dims[0] == len(op.basis)
    filtration = image_filtration(ops)
    assert filtration.index == op.index <= 4 + 1
    assert len(filtration.dims) == op.index + 1
    assert filtration.dims[0] == 4
    assert filtration.dims[-1] == 0
    assert filtration.dims[-2] > 0
    assert all(a > b for a, b in zip(filtration.dims, filtration.dims[1:]))


def test_operator_algebra_input_checks():
    with pytest.raises(DimensionMismatch):
        image_filtration([])
    with pytest.raises(DimensionMismatch):
        image_filtration([Matrix.zero(QQ, 2, 2), Matrix.zero(QQ, 3, 3)])
    with pytest.raises(DimensionMismatch):
        image_filtration([Matrix.zero(QQ, 2, 3)])
    with pytest.raises(FieldMismatch):
        image_filtration([Matrix.zero(QQ, 2, 2), Matrix.zero(GF(5), 2, 2)])


def test_image_filtration_of_the_zero_module():
    # V_1 is always taken, so the zero module repeats its dimension and has
    # index 1
    assert image_filtration([Matrix.zero(QQ, 0, 0)]) == ((0, 0), 1)


def test_lemma_bound_regular_cyclic2():
    A = cyclic(2)
    report = lemma_word_bound_check(regular_bimodule(A), A.basis_element(0))
    assert report.verdict == "pass"
    assert report.data["left_exponent"] == 2
    assert report.data["n"] == 3
    assert report.data["word_bound"] == 5
    assert report.data["operator_index"] <= 5
    # T = S = the 2x2 shift: V > e2-line > 0
    assert report.data["image_dims"] == [2, 1, 0]
    assert report.data["operator_index"] == 2


def test_lemma_bound_zero_actions():
    A = cyclic(2)
    report = lemma_word_bound_check(_zero_module(A, 3), A.basis_element(0))
    assert report.verdict == "pass"
    assert report.data["left_exponent"] == 1
    assert report.data["n"] == 2
    assert report.data["word_bound"] == 3


def test_lemma_bound_regular_cyclic3():
    A = cyclic(3)
    report = lemma_word_bound_check(regular_bimodule(A), A.basis_element(0))
    assert report.verdict == "pass"
    assert report.data["left_exponent"] == 3
    assert report.data["n"] == 4
    assert report.data["word_bound"] == 7
    assert report.data["operator_index"] <= 3


def test_lemma_bound_rejects_non_nilpotent():
    # in sol2, L_{e1} fixes e2: the premise fails and no conclusion is tried
    A = sol2()
    report = lemma_word_bound_check(regular_bimodule(A), A.basis_element(0))
    assert report.verdict == "premises_failed"
    assert [(c.name, c.passed, c.witness) for c in report.premises] == \
        [("left_action_nilpotent", False, "(1, 0)")]
    assert report.conclusions == []


def test_premises_pass_on_cyclic2():
    A = cyclic(2)
    report = check_engel_premises(regular_bimodule(A),
                                  lie_set_closure(A.basis()))
    assert report.verdict == "pass"


def test_premises_generation_clause_fails():
    A = cyclic(2)
    report = check_engel_premises(regular_bimodule(A),
                                  LieSet(A, (A.basis_element(1),)))
    by_name = {c.name: c for c in report.premises}
    assert by_name["closed_under_products"].passed
    assert not by_name["members_generate_algebra"].passed
    assert by_name["left_actions_nilpotent"].passed


def test_premises_read_closure_off_the_closure_table(monkeypatch,
                                                     dense_f7_closures):
    """A basis closure's table certifies the closure premise: checking it
    multiplies no pair of members again."""
    calls = []
    real = algebra_module._products_with

    def counted(x, ys):
        calls.append(x)
        return real(x, ys)

    monkeypatch.setattr(algebra_module, "_products_with", counted)
    for A, closure in dense_f7_closures:
        report = check_engel_premises(regular_bimodule(A), closure)
        assert report.premises[0].passed
    assert calls == []
    # the same members without their table are multiplied again
    A, closure = dense_f7_closures[0]
    check_engel_premises(regular_bimodule(A), LieSet(A, closure.members))
    assert len(calls) == len(closure.members)


def test_premise_read_off_needs_the_whole_table():
    """Only a table of k rows of k cells, each a member index or -1, stands
    for the products; any other falls back to checking every product."""
    A = sol2()
    e1, e2 = A.basis()
    module = regular_bimodule(A)
    open_set = LieSet(A, (e1, e2))  # e2 e1 = -e2 is no member
    for table in ((), (array("i", (-1, -1)),),
                  (array("i", (-1, -1)), array("i", (-1,))),
                  (array("i", (0, 1)), array("i", (-1, -2))),
                  (array("i", (0, 1)), array("i", (2, -1)))):
        forged = dataclasses.replace(open_set, table=table)
        closed = check_engel_premises(module, forged).premises[0]
        assert not closed.passed
        assert closed.witness == ["(0, 1)", "(1, 0)"]
    # a whole table is taken as it stands: only lie_set_closure makes one
    whole = dataclasses.replace(
        open_set, table=(array("i", (-1, 1)), array("i", (-1, -1))))
    assert check_engel_premises(module, whole).premises[0].passed


def test_premises_nilpotency_clause_fails_on_sol2():
    A = sol2()
    report = check_engel_premises(regular_bimodule(A),
                                  lie_set_closure(A.basis()))
    by_name = {c.name: c for c in report.premises}
    assert by_name["closed_under_products"].passed
    assert by_name["members_generate_algebra"].passed
    assert not by_name["left_actions_nilpotent"].passed
    assert by_name["left_actions_nilpotent"].witness == "(1, 0)"


def test_engel_flag_regular_cyclic2():
    A = cyclic(2)
    flag = engel_flag(regular_bimodule(A), A.basis())
    assert flag.dims() == [0, 1, 2]
    assert flag.length == 2
    assert flag.chain[1].basis == ((0, 1),)


def test_engel_flag_zero_actions():
    A = cyclic(2)
    flag = engel_flag(_zero_module(A, 3), A.basis())
    assert flag.dims() == [0, 3]
    assert flag.length == 1


def test_engel_flag_stalls_on_sol2():
    A = sol2()
    with pytest.raises(FlagStalled) as info:
        engel_flag(regular_bimodule(A), A.basis())
    assert info.value.level == 1
    assert info.value.stalled_dim == 0


def test_engel_flag_reads_levels_off_without_row_reduction(monkeypatch):
    # each level is read off the dual walk's echelon basis, so neither rref
    # nor kernel_basis runs; the dims and the stall are as before
    def refuse(*args):
        raise AssertionError("the flag row-reduced a matrix")

    monkeypatch.setattr(linalg_module, "rref", refuse)
    monkeypatch.setattr(linalg_module, "kernel_basis", refuse)
    monkeypatch.setattr(engel_module, "kernel_basis", refuse)
    for A, dims in ((cyclic(2), [0, 1, 2]), (heisenberg3(), [0, 1, 3]),
                    (cyclic(4, GF(5)), [0, 1, 2, 3, 4])):
        assert engel_flag(regular_bimodule(A), A.basis()).dims() == dims
    A = cyclic(2)
    assert engel_flag(_zero_module(A, 3), A.basis()).dims() == [0, 3]
    with pytest.raises(FlagStalled) as info:
        engel_flag(regular_bimodule(sol2()), sol2().basis())
    assert (info.value.level, info.value.stalled_dim) == (1, 0)


def test_flag_levels_nested_and_invariant():
    for A in (cyclic(4), heisenberg3(), cyclic(3, GF(5))):
        M = regular_bimodule(A)
        flag = engel_flag(M, A.basis())
        for lower, upper in zip(flag.chain, flag.chain[1:]):
            assert upper.contains_subspace(lower)
            assert upper.dim > lower.dim
            for mat in list(M.left_actions) + list(M.right_actions):
                image = Subspace.span(A.field, mat.rows,
                                      [mat.apply(v) for v in upper.basis])
                assert lower.contains_subspace(image)
        assert flag.chain[-1].is_full()


def test_joint_annihilator_examples():
    A = cyclic(2)
    assert joint_annihilator(regular_bimodule(A)) == (0, 1)
    H = heisenberg3()
    assert joint_annihilator(regular_bimodule(H)) == (0, 0, 1)
    with pytest.raises(NoAnnihilator):
        joint_annihilator(regular_bimodule(sol2()))


def test_annihilator_level_contains_last_series_term():
    for A in (cyclic(4), heisenberg3(), cyclic(5, GF(7))):
        M = regular_bimodule(A)
        flag = engel_flag(M, A.basis())
        series = lower_central_series(A)
        last_nonzero = series[-2]  # series ends with 0 for nilpotent input
        assert flag.chain[1].contains_subspace(last_nonzero)


def test_flag_length_equals_class_on_named_families():
    for A in (cyclic(2), cyclic(4), heisenberg3(), abelian(3),
              cyclic(3, GF(5))):
        flag = engel_flag(regular_bimodule(A), A.basis())
        assert flag.length == is_nilpotent_algebra(A)[1]


def test_flag_length_matches_word_oracle():
    for A in (cyclic(2), cyclic(3), heisenberg3(), abelian(2),
              cyclic(3, GF(7))):
        M = regular_bimodule(A)
        ops = list(M.left_actions) + list(M.right_actions)
        oracle = min_vanishing_word_length(ops, M.module_dim)
        flag = engel_flag(M, A.basis())
        assert flag.length == oracle
    S = regular_bimodule(sol2())
    assert min_vanishing_word_length(
        list(S.left_actions) + list(S.right_actions), 2) is None


def test_theorem2_cyclic2():
    A = cyclic(2)
    report = theorem2_verify(regular_bimodule(A), lie_set_closure(A.basis()))
    assert report.verdict == "pass"
    assert report.data["flag_dims"] == [0, 1, 2]
    assert report.data["annihilator"] == ["0", "1"]
    assert report.data["joint_index"] <= 3


def test_theorem2_joint_index_equals_flag_length():
    for A in (cyclic(2), cyclic(4), heisenberg3(), abelian(3),
              cyclic(3, GF(5))):
        report = theorem2_verify(regular_bimodule(A),
                                 lie_set_closure(A.basis()))
        assert report.verdict == "pass"
        by_name = {c.name: c for c in report.conclusions}
        check = by_name["joint_index_equals_flag_length"]
        assert check.passed
        assert check.data["flag_length"] == len(report.data["flag_dims"]) - 1
        assert report.data["joint_index"] == is_nilpotent_algebra(A)[1]
    zero = theorem2_verify(_zero_module(cyclic(2), 3),
                           lie_set_closure(cyclic(2).basis()))
    by_name = {c.name: c for c in zero.conclusions}
    check = by_name["joint_index_equals_flag_length"]
    assert check.passed
    assert check.data["flag_length"] == 1
    assert zero.data["joint_index"] == 1


def test_theorem2_rejects_zero_module():
    """The theorem is about nonzero modules: the zero module has no nonzero
    annihilated vector, so its conclusions cannot hold."""
    with pytest.raises(DimensionMismatch):
        theorem2_verify(_zero_module(cyclic(2), 0),
                        lie_set_closure(cyclic(2).basis()))


def test_theorem2_abelian2():
    A = abelian(2)
    report = theorem2_verify(regular_bimodule(A), lie_set_closure(A.basis()))
    assert report.verdict == "pass"
    assert report.data["flag_dims"] == [0, 2]


def test_theorem2_sol2_premises_fail():
    A = sol2()
    report = theorem2_verify(regular_bimodule(A), lie_set_closure(A.basis()))
    assert report.verdict == "premises_failed"
    assert report.conclusions == []


def test_lemma_bound_invariant_small_corpus(small_corpus):
    for algebra, module in small_corpus:
        if not is_nilpotent_algebra(algebra)[0]:
            continue
        for a in algebra.basis():
            report = lemma_word_bound_check(module, a)
            assert report.verdict == "pass"
            assert report.data["operator_index"] is None or \
                report.data["operator_index"] <= report.data["word_bound"]


def test_joint_algebra_bound_small_corpus(small_corpus):
    for algebra, module in small_corpus:
        if not is_nilpotent_algebra(algebra)[0]:
            continue
        ops = list(module.left_actions) + list(module.right_actions)
        joint = image_filtration(ops)
        assert joint.index is not None
        assert joint.index <= module.module_dim + 1
        assert joint.index <= module.module_dim ** 2 + 1
        assert joint.index == operator_algebra_closure(ops).index


def _operator_span(field, mats, size):
    return Subspace.span(field, size * size,
                         [tuple(x for row in m.entries for x in row)
                          for m in mats])


def test_single_element_algebra_covers_generated_subalgebra_actions():
    # the pair of actions of a generates the same operator algebra as all
    # actions of elements of the subalgebra generated by a
    from leibniz_engel import subalgebra_generated, t_matrix, s_matrix
    for A in (cyclic(4), heisenberg3(), cyclic(3, GF(5))):
        M = regular_bimodule(A)
        for a in A.basis():
            pair_ops = [t_matrix(M, a), s_matrix(M, a)]
            pair = operator_algebra_closure(pair_ops)
            sub = subalgebra_generated([a])
            gens = []
            for v in sub.basis:
                b = A.element(v)
                gens.extend([t_matrix(M, b), s_matrix(M, b)])
            full = operator_algebra_closure(gens)
            lhs = _operator_span(A.field, pair.basis, M.module_dim)
            rhs = _operator_span(A.field, full.basis, M.module_dim)
            assert lhs == rhs
            assert image_filtration(pair_ops).index == \
                image_filtration(gens).index == pair.index


def _assert_index_agrees(ops, module_dim):
    """Filtration index == closure index == least vanishing word length;
    a nilpotent index never exceeds module_dim + 1."""
    index = image_filtration(ops).index
    assert index == operator_algebra_closure(ops).index
    assert index == min_vanishing_word_length(ops, module_dim + 1)
    return index


def test_image_filtration_index_matches_oracles_on_corpus(small_corpus):
    non_nilpotent = 0
    for algebra, module in small_corpus:
        for i in range(algebra.dim):
            pair = [module.left_actions[i], module.right_actions[i]]
            non_nilpotent += _assert_index_agrees(pair, module.module_dim) is None
        joint = list(module.left_actions) + list(module.right_actions)
        non_nilpotent += _assert_index_agrees(joint, module.module_dim) is None
    S = regular_bimodule(sol2())
    for i in range(2):
        pair = [S.left_actions[i], S.right_actions[i]]
        _assert_index_agrees(pair, 2)
    assert _assert_index_agrees(
        list(S.left_actions) + list(S.right_actions), 2) is None
    for field in (QQ, GF(5)):
        for size in (1, 3):
            identity = Matrix.identity(field, size)
            assert _assert_index_agrees([identity], size) is None
            nil = Matrix.zero(field, size, size)
            assert _assert_index_agrees([nil, identity], size) is None
            assert _assert_index_agrees([nil], size) == 1
    assert non_nilpotent > 0


def _flag_outcome(build, module, generators):
    """The flag's chain, or the level and dimension where it stalled."""
    try:
        return build(module, generators).chain
    except FlagStalled as exc:
        return ("stalled", exc.level, exc.stalled_dim)


def _basis_closure(algebra):
    try:
        return lie_set_closure(algebra.basis()).members
    except CapExceeded:
        return tuple(algebra.basis())


def test_flag_over_span_basis_matches_all_members(small_corpus, corpus2024,
                                                  closures2024,
                                                  dense_f7_closures):
    cases = [(module, _basis_closure(algebra))
             for algebra, module in small_corpus]
    cases += [(module, closure.members if closure is not None
               else tuple(algebra.basis()))
              for (algebra, module), closure in zip(corpus2024, closures2024)]
    cases += [(regular_bimodule(A), closure.members)
              for A, closure in dense_f7_closures]
    stalled = 0
    for module, members in cases:
        ours = _flag_outcome(engel_flag, module, members)
        assert ours == _flag_outcome(engel_flag_all_members, module, members)
        stalled += ours[0] == "stalled"
    assert 0 < stalled < len(cases)


def test_engel_flag_rejects_foreign_generators():
    with pytest.raises(AlgebraMismatch):
        engel_flag(regular_bimodule(cyclic(2)), cyclic(2, GF(5)).basis())
