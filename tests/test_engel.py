import json
import random
from collections import Counter
from pathlib import Path

import pytest

from leibniz_engel import (LieSet, abelian, check_engel_premises,
                           corollary3_check, cyclic, direct_sum, engel_flag,
                           fuzz_corpus, heisenberg3,
                           image_filtration,
                           is_nilpotent_algebra, joint_annihilator,
                           lemma_word_bound_check, lie_set_closure,
                           lower_central_series, regular_bimodule, sol2,
                           theorem2_verify)
from leibniz_engel.algebra import Element, LeibnizAlgebra, left_mult_matrix
from leibniz_engel.bimodule import Bimodule, t_matrix, validate_bimodule
from leibniz_engel.errors import (AlgebraMismatch, CapExceeded,
                                  DimensionMismatch, FieldMismatch,
                                  FlagStalled, NoAnnihilator)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.formats import load_algebra
from leibniz_engel.linalg import Matrix, Subspace, invert, is_nilpotent_matrix
import leibniz_engel.algebra as algebra_module
import leibniz_engel.engel as engel_module
from leibniz_engel.cli import main
import leibniz_engel.linalg as linalg_module

from oracles import (basis_change_per_pair, engel_flag_all_members,
                     left_actions_nilpotent_per_member,
                     min_vanishing_word_length, operator_algebra_closure)


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


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
    """A basis closure is marked closed, which certifies the closure
    premise: checking it multiplies no pair of members again."""
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
    # the same members through the public constructor are multiplied again
    A, closure = dense_f7_closures[0]
    check_engel_premises(regular_bimodule(A), LieSet(A, closure.members))
    assert len(calls) == len(closure.members)


def test_a_public_lie_set_is_never_taken_as_closed():
    """Only ``lie_set_closure`` marks a set closed. A set built through
    the public constructor has every product checked, so {e1, e2} in sol2,
    where e2 e1 = -e2 is no member, fails the closure premise, and theorem
    2 and corollary 3 stop at their premises."""
    A = sol2()
    e1, e2 = A.basis()
    module = regular_bimodule(A)
    open_set = LieSet(A, (e1, e2))
    assert not open_set._closed and lie_set_closure(A.basis())._closed
    closed = check_engel_premises(module, open_set).premises[0]
    assert (closed.passed, closed.witness) == (False, ["(0, 1)", "(1, 0)"])
    report = theorem2_verify(module, open_set)
    assert report.verdict == "premises_failed"
    assert report.premises[0] == closed
    report = corollary3_check(A, open_set)
    assert report.verdict == "premises_failed"
    assert report.premises[0] == closed


def test_premises_nilpotency_clause_fails_on_sol2():
    A = sol2()
    report = check_engel_premises(regular_bimodule(A),
                                  lie_set_closure(A.basis()))
    by_name = {c.name: c for c in report.premises}
    assert by_name["closed_under_products"].passed
    assert by_name["members_generate_algebra"].passed
    assert not by_name["left_actions_nilpotent"].passed
    assert by_name["left_actions_nilpotent"].witness == "(1, 0)"


def _sl2_f7():
    """sl_2 over F_7 in the basis e, f, h + e - f. Each basis element acts
    nilpotently on the regular module (h + e - f is the nilpotent 2 x 2
    matrix [[1, 1], [-1, -1]]), but e f = h, with coordinates (6, 1, 1),
    does not."""
    F7 = GF(7)
    std = [[[0] * 3 for _ in range(3)] for _ in range(3)]  # e, f, h
    std[0][1], std[1][0] = [0, 0, 1], [0, 0, -1]    # ef = h
    std[2][0], std[0][2] = [2, 0, 0], [-2, 0, 0]    # he = 2e
    std[2][1], std[1][2] = [0, -2, 0], [0, 2, 0]    # hf = -2f
    # the columns are e, f and h + e - f in the basis e, f, h
    p = Matrix.from_rows(F7, [[1, 0, 1], [0, 1, -1], [0, 0, 1]])
    return LeibnizAlgebra.create(F7, basis_change_per_pair(
        LeibnizAlgebra.create(F7, std), p))


def _e3_acts_by_one():
    """e1 e3 = e2 and every other product 0, on the 1-dim antisymmetric
    module where e3 acts on the left by 1 and everything else by 0: L_{e3}
    is zero, but T_{e3} is not nilpotent."""
    structure = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][2] = [0, 1, 0]
    A = LeibnizAlgebra.create(QQ, structure)
    one, zero = Matrix.identity(QQ, 1), Matrix.zero(QQ, 1, 1)
    return Bimodule.create(A, 1, [zero, zero, one], [zero] * 3)


def test_premises_build_the_action_of_a_product_of_nonzero_actions():
    A = _sl2_f7()
    module, closure = regular_bimodule(A), lie_set_closure(A.basis())
    assert all(is_nilpotent_matrix(t_matrix(module, x)).verdict
               for x in A.basis())
    premise = check_engel_premises(module, closure).premises[2]
    assert (premise.passed, premise.witness) == (False, "(6, 1, 1)")
    assert left_actions_nilpotent_per_member(module, closure.members) == \
        (False, "(6, 1, 1)")


def test_premises_take_zero_actions_from_the_module_not_the_table():
    module = _e3_acts_by_one()
    assert validate_bimodule(module).all_ok()
    closure = lie_set_closure(module.algebra.basis())
    # only e1 multiplies anything: L_{e2} = L_{e3} = 0
    assert [left_mult_matrix(x).is_zero() for x in closure.members] == \
        [False, True, True]
    premise = check_engel_premises(module, closure).premises[2]
    assert (premise.passed, premise.witness) == (False, "(0, 0, 1)")
    assert left_actions_nilpotent_per_member(module, closure.members) == \
        (False, "(0, 0, 1)")


def _distinct_closures(seeds):
    """(algebra, basis closure) once per distinct algebra of the fuzz
    corpora of the seeds whose closure stays within the default cap."""
    closures = {}
    for seed in seeds:
        for algebra, _ in fuzz_corpus(seed, 200, 8):
            if algebra not in closures:
                closures[algebra] = _closure_or_none(algebra)
    return [(a, c) for a, c in closures.items() if c is not None]


def test_corollary3_builds_no_action_on_a_nilpotent_algebra(
        monkeypatch, dense_f7_closures):
    """Corollary 3 walks the lower central series first; when it reaches
    0, L_x maps A^k into A^{k+1} for every x, so every left action is
    nilpotent and no T_c is built: on every nilpotent algebra of fuzz seeds
    2024, 323 and 331 and on the dense F_7 closures. On sol2, sl_2 over
    F_7, its sum with the 10-dim dense F_7 algebra (368 members, the
    witness 14th) and the non-nilpotent fuzz algebras the member loop
    decides the premise, with the verdict and witness of the per-member
    oracle."""
    cases = _distinct_closures((2024, 323, 331)) + list(dense_f7_closures)
    sl2 = _sl2_f7()
    for A in (sol2(), sl2, direct_sum(sl2, dense_f7_closures[2][0])):
        cases.append((A, lie_set_closure(A.basis())))
    built = []
    real_t = engel_module.t_matrix

    def t(module, c):
        built.append(c)
        return real_t(module, c)

    outcomes = Counter()
    for A, closure in cases:
        nilpotent = is_nilpotent_algebra(A)[0]
        expected = left_actions_nilpotent_per_member(regular_bimodule(A),
                                                     closure.members)
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engel_module, "t_matrix", t)
            premise = corollary3_check(A, closure).premises[2]
        if nilpotent:
            assert built == [] and premise.passed
        else:
            assert (premise.passed, premise.witness) == expected
            assert built
        outcomes[nilpotent, premise.passed] += 1
    assert outcomes[True, True] > 100 and outcomes[False, False] == 6
    assert outcomes[True, False] == 0


def test_premises_reject_a_table_of_another_algebra():
    closure = lie_set_closure(cyclic(2).basis())
    with pytest.raises(AlgebraMismatch):
        check_engel_premises(regular_bimodule(cyclic(2, GF(5))), closure)
    # theorem 2 builds no T_c when its joint walk reaches 0, and still
    # refuses a foreign set whose other premises fail
    foreign = lie_set_closure(cyclic(2).basis()[1:])
    with pytest.raises(AlgebraMismatch):
        theorem2_verify(regular_bimodule(cyclic(2, GF(5))), foreign)


def _closure_or_none(algebra):
    try:
        return lie_set_closure(algebra.basis())
    except CapExceeded:
        return None


def test_left_action_premise_equals_per_member_oracle(monkeypatch,
                                                      small_corpus,
                                                      corpus2024,
                                                      closures2024,
                                                      dense_f7_closures):
    """The left-action premise has the verdict and witness of building
    and powering every member's T_c, on the fuzz corpora, their regular and
    quotient modules, the dense F_7 closures and the two hand-built cases.
    The premise check builds T_c for the members up to its witness, or for
    all of them, in order; corollary 3, on the regular module of a
    nilpotent algebra, builds none."""
    cases = [(module, _closure_or_none(algebra))
             for algebra, module in small_corpus]
    cases += [(module, closure) for (_, module), closure
              in zip(corpus2024, closures2024)]
    for seed in (323, 331):
        cases += [(module, _closure_or_none(algebra))
                  for algebra, module in fuzz_corpus(seed, 200, 8)]
    cases += [(regular_bimodule(A), closure) for A, closure in dense_f7_closures]
    cases.append((regular_bimodule(_sl2_f7()),
                  lie_set_closure(_sl2_f7().basis())))
    module = _e3_acts_by_one()
    cases.append((module, lie_set_closure(module.algebra.basis())))
    verdicts, certified, built = Counter(), 0, []
    real_t = engel_module.t_matrix

    def t(module, c):
        built.append(c)
        return real_t(module, c)

    for module, closure in cases:
        if closure is None or module.module_dim == 0:
            continue
        expected = left_actions_nilpotent_per_member(module, closure.members)
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engel_module, "t_matrix", t)
            premise = check_engel_premises(module, closure).premises[2]
            assert built == list(closure.members[:len(built)])
            assert len(built) == len(closure.members) if premise.passed \
                else built[-1].to_str() == premise.witness
            algebra = module.algebra
            if module == regular_bimodule(algebra) and \
                    is_nilpotent_algebra(algebra)[0]:
                built.clear()
                premises = corollary3_check(algebra, closure).premises
                assert premises[2] == premise and built == []
                certified += 1
        assert (premise.passed, premise.witness) == expected
        verdicts[premise.passed] += 1
    assert verdicts[True] > 300 and verdicts[False] > 30
    assert certified > 100


def test_closure_and_premises_skip_the_actions_products_force_to_zero(
        monkeypatch, tmp_path):
    """On the largest engel-fp closure (f18, key 4: 150 members, 5 with
    L_x != 0) the closure combines L_x^T for 23 members, not 150, and every
    member left out acts as zero. The premise check builds T_c for all 150
    members; corollary 3, whose lower central series reaches 0, builds
    none."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "bench"))
    import workloads
    workloads.engel_fp(tmp_path, workloads.DEFAULT_SEED)
    A = load_algebra(tmp_path / "f18_4.json")
    combined, built = [], []
    real_combination, real_t = algebra_module._combination, engel_module.t_matrix

    def combination(field, size, coords, mats):
        combined.append(coords)
        return real_combination(field, size, coords, mats)

    def t(module, c):
        built.append(c.coords)
        return real_t(module, c)

    monkeypatch.setattr(algebra_module, "_combination", combination)
    monkeypatch.setattr(engel_module, "t_matrix", t)
    closure = lie_set_closure(A.basis())
    members = [x.coords for x in closure.members]
    assert (len(members), len(combined)) == (150, 23)
    monkeypatch.undo()
    active = [x for x in members
              if not left_mult_matrix(Element(A, x)).is_zero()]
    assert len(active) == 5 and set(active) <= set(combined)
    module = regular_bimodule(A)
    monkeypatch.setattr(engel_module, "t_matrix", t)
    assert check_engel_premises(module, closure).verdict == "pass"
    assert built == members
    built.clear()
    assert corollary3_check(A, closure).verdict == "pass"
    assert built == []


@pytest.fixture(scope="module")
def theorem2_cases(small_corpus, corpus2024, dense_f7_closures):
    """(module, basis closure) once per distinct nonzero module of the
    small corpus and of fuzz seeds 2024, 323 and 331 (an algebra past the
    closure cap left out), then the dense F_7 closures, sol2, sl_2 over
    F_7 and e3 acting by one."""
    items = list(small_corpus) + list(corpus2024)
    for seed in (323, 331):
        items += fuzz_corpus(seed, 200, 8)
    closures, by_module = {}, {}
    for algebra, module in items:
        if algebra not in closures:
            closures[algebra] = _closure_or_none(algebra)
        if module.module_dim and closures[algebra] is not None:
            by_module.setdefault(module, closures[algebra])
    cases = list(by_module.items())
    cases += [(regular_bimodule(A), closure) for A, closure in dense_f7_closures]
    for A in (sol2(), _sl2_f7()):
        cases.append((regular_bimodule(A), lie_set_closure(A.basis())))
    module = _e3_acts_by_one()
    cases.append((module, lie_set_closure(module.algebra.basis())))
    return cases


def _joint_walk_stalls(module):
    return image_filtration(module.left_actions + module.right_actions) \
        .index is None


def test_theorem2_premises_equal_the_premise_check_and_the_oracle(
        theorem2_cases):
    """Theorem 2 takes the left-action premise from its joint walk when
    that reaches 0 and member by member when it stalls; either way its
    premise list is that of ``check_engel_premises``, and the left-action
    verdict and witness are those of building and powering every T_c."""
    outcomes = Counter()
    for module, closure in theorem2_cases:
        premises = theorem2_verify(module, closure).premises
        assert premises == check_engel_premises(module, closure).premises
        assert (premises[2].passed, premises[2].witness) == \
            left_actions_nilpotent_per_member(module, closure.members)
        outcomes[_joint_walk_stalls(module), premises[2].passed] += 1
    # a walk that reaches 0 certifies the premise; a stalled one may not
    assert outcomes[False, False] == 0
    assert outcomes[False, True] > 200 and outcomes[True, False] >= 5


def test_theorem2_reads_the_annihilator_off_the_flag(monkeypatch,
                                                      theorem2_cases):
    """On every item whose premises pass, ``data.annihilator`` is the
    vector of ``joint_annihilator``, which theorem 2 calls only when the
    flag stalls; with ``engel_flag`` made to stall, the vector comes from
    that fallback and is the same."""
    calls = []
    real = joint_annihilator

    def counted(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(engel_module, "joint_annihilator", counted)
    passing = []
    for module, closure in theorem2_cases:
        report = theorem2_verify(module, closure)
        if report.conclusions:
            vector = report.data["annihilator"]
            field = module.algebra.field
            assert vector == [field.to_str(x) for x in real(module)]
            passing.append((module, closure, vector))
    assert calls == [] and len(passing) > 200

    def stall(module, generators):
        raise FlagStalled(1, 0, module.module_dim)

    monkeypatch.setattr(engel_module, "engel_flag", stall)
    for module, closure, vector in passing:
        report = theorem2_verify(module, closure)
        assert report.data["annihilator"] == vector
        assert report.conclusions[2].name == "joint_annihilator_exists"
        assert report.conclusions[2].passed
    assert calls == [module for module, _, _ in passing]


def test_theorem2_builds_no_action_for_the_premise_on_engel_fp(monkeypatch,
                                                               tmp_path):
    """On the five engel-fp inputs the joint walk reaches 0, so theorem 2
    builds no T_c for the left-action premise and powers none: its only
    T_c are the flag's, one per basis vector of the members' span.
    Corollary 3, whose lower central series reaches 0, builds and powers
    none either. The member loop of ``check_engel_premises`` builds and
    powers one for each of the 453 members."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "bench"))
    import workloads
    workloads.engel_fp(tmp_path, workloads.DEFAULT_SEED)
    cases = []
    for path in sorted(tmp_path.glob("f*.json")):
        A = load_algebra(path)
        cases.append((regular_bimodule(A), lie_set_closure(A.basis())))
    assert len(cases) == 5
    built, powered = [], []
    real_t, real_power = engel_module.t_matrix, engel_module.is_nilpotent_matrix

    def t(module, c):
        built.append(c)
        return real_t(module, c)

    def power(m):
        powered.append(m)
        return real_power(m)

    monkeypatch.setattr(engel_module, "t_matrix", t)
    monkeypatch.setattr(engel_module, "is_nilpotent_matrix", power)
    for module, closure in cases:
        assert theorem2_verify(module, closure).verdict == "pass"
    assert len(built) == sum(m.algebra.dim for m, _ in cases)
    assert powered == []
    built.clear()
    for module, closure in cases:
        assert corollary3_check(module.algebra, closure).verdict == "pass"
    assert (built, powered) == ([], [])
    for module, closure in cases:
        assert check_engel_premises(module, closure).verdict == "pass"
    assert len(built) == len(powered) == 453


def _natural_sl2():
    """sl_2 over Q in the basis e, f, h on its natural module, with
    T = rho and S = 0 (an antisymmetric module)."""
    structure = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][1], structure[1][0] = [0, 0, 1], [0, 0, -1]    # ef = h
    structure[2][0], structure[0][2] = [2, 0, 0], [-2, 0, 0]    # he = 2e
    structure[2][1], structure[1][2] = [0, -2, 0], [0, 2, 0]    # hf = -2f
    A = LeibnizAlgebra.create(QQ, structure)
    rho = [Matrix.from_rows(QQ, rows) for rows in
           ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])]
    return Bimodule.create(A, 2, rho, [Matrix.zero(QQ, 2, 2)] * 3)


def test_theorem2_premise_on_a_stalled_walk_goes_member_by_member(
        monkeypatch):
    """On the natural sl_2 module T_h is invertible, so the joint walk
    stalls, yet e and f act nilpotently: the left-action premise passes
    through the member-by-member check, and {e, f} fails only closure."""
    module = _natural_sl2()
    assert validate_bimodule(module).all_ok()
    assert _joint_walk_stalls(module)
    e, f, _ = module.algebra.basis()
    members = LieSet(module.algebra, (e, f))
    built = []
    real = engel_module.t_matrix

    def counted(module, c):
        built.append(c)
        return real(module, c)

    monkeypatch.setattr(engel_module, "t_matrix", counted)
    report = theorem2_verify(module, members)
    assert built == [e, f]
    assert [c.passed for c in report.premises] == [False, True, True]
    assert report.premises == check_engel_premises(module, members).premises
    assert report.verdict == "premises_failed"


def _thousand_multiples_request(tmp_path) -> list:
    """The arguments of ``engel`` on a hostile ``--lieset``: the multiples
    j e1, j = 1..1000, of the basis element of abelian(1) over Q, acting by
    T = P J P^-1 (P a dense unimodular matrix, J the 24 x 24 shift) and
    S = 0. The report goes to ``tmp_path / "report.json"``."""
    m, rng = 24, random.Random(5)
    lower = Matrix.from_rows(QQ, [[1 if i == j else rng.choice((-1, 0, 1))
                                   if j < i else 0 for j in range(m)]
                                  for i in range(m)])
    upper = Matrix.from_rows(QQ, [[1 if i == j else rng.choice((-1, 0, 1))
                                   if j > i else 0 for j in range(m)]
                                  for i in range(m)])
    p = lower @ upper
    shift = Matrix.from_rows(QQ, [[int(i == j + 1) for j in range(m)]
                                  for i in range(m)])
    t = p @ shift @ invert(p)
    algebra = _write_json(tmp_path / "a1.json",
                          {"field": "Q", "dim": 1, "products": []})
    module = _write_json(tmp_path / "t.json", {
        "module_dim": m,
        "left_actions": [[[int(x) for x in row] for row in t.entries]],
        "right_actions": [[[0] * m for _ in range(m)]]})
    lieset = _write_json(tmp_path / "multiples.json",
                         [[j] for j in range(1, 1001)])
    return ["engel", algebra, "--module", module, "--lieset", lieset,
            "--quiet", "--json", str(tmp_path / "report.json")]


def test_theorem2_certifies_a_thousand_multiples_of_one_element(
        monkeypatch, tmp_path):
    """The joint walk of the thousand multiples of ``e1`` reaches 0 in 24
    steps and certifies every member's T_c without building one, so the
    request takes about a second and a half, where building and powering
    each T_c took about 38 s. The one T_c built is the flag's, over the
    basis of the members' span."""
    built, real = [], engel_module.t_matrix

    def counted(module, c):
        built.append(c.coords)
        return real(module, c)

    monkeypatch.setattr(engel_module, "t_matrix", counted)
    assert main(_thousand_multiples_request(tmp_path)) == 0
    assert built == [(1,)]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["data"]["joint_index"] == 24
    assert report["data"]["flag_dims"] == list(range(25))


def test_theorem2_walks_one_filtration_on_a_one_dimensional_algebra(
        monkeypatch, tmp_path):
    """On a one-dimensional algebra the per-element pair (T_1, S_1) is all
    the actions, so the joint walk serves as its walk too: the thousand
    multiples of ``e1`` take one image filtration, and the per-element
    index is that of the pair walked on its own. On n >= 2 each basis
    element's pair gets its own walk after the joint one: n + 1 walks."""
    walks = []
    real = engel_module.image_filtration

    def counted(ops):
        walks.append(len(ops))
        return real(ops)

    monkeypatch.setattr(engel_module, "image_filtration", counted)
    argv = _thousand_multiples_request(tmp_path)
    assert main(argv) == 0
    assert walks == [2]
    report = json.loads((tmp_path / "report.json").read_text())
    module = json.loads(Path(argv[3]).read_text())
    pair = [Matrix.from_rows(QQ, module[side][0])
            for side in ("left_actions", "right_actions")]
    index = real(pair).index
    assert index == report["data"]["joint_index"] == 24
    assert report["data"]["per_element_indices"] == [index]
    per_element = next(c for c in report["conclusions"] if c["name"] ==
                       "per_element_operator_algebras_nilpotent")
    assert per_element == {"name": "per_element_operator_algebras_nilpotent",
                           "pass": True, "data": {"indices": [index]}}
    for A in (cyclic(2), heisenberg3(), cyclic(4, GF(5))):
        walks.clear()
        module = regular_bimodule(A)
        report = theorem2_verify(module, lie_set_closure(A.basis()))
        assert report.verdict == "pass"
        assert walks == [2 * A.dim] + [2] * A.dim
        assert report.data["per_element_indices"] == [
            real([module.left_actions[i], module.right_actions[i]]).index
            for i in range(A.dim)]


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


def test_generators_reach_the_spans_in_canonical_form(monkeypatch, tmp_path):
    """``engel_flag`` and ``subalgebra_generated`` span the coordinates of
    their generators without normalising them (``Subspace._span``), since
    element coordinates are canonical. Over the seed-2024 fuzz corpus and
    the engel-q and engel-fp bench inputs, every generator that reaches
    either span equals its normalised coordinates, scalar types included."""
    reached = {"engel_flag": 0, "subalgebra_generated": 0}

    def checked(name):
        original = getattr(engel_module, name)

        def wrapper(*args):
            for x in args[-1]:
                want = tuple(map(x.algebra.field.normalize, x.coords))
                assert x.coords == want
                assert list(map(type, x.coords)) == list(map(type, want))
                reached[name] += 1
            return original(*args)
        return wrapper

    for name in reached:  # theorem2_verify calls both through this module
        monkeypatch.setattr(engel_module, name, checked(name))
    assert main(["fuzz", "--seed", "2024", "--count", "200",
                 "--max-dim", "8", "--quiet"]) == 0
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "bench"))
    import workloads
    for make in (workloads.engel_q, workloads.engel_fp):
        for request in make(tmp_path, workloads.DEFAULT_SEED):
            assert main([*request.argv, "--quiet"]) == request.exit_code
    assert all(reached.values()), reached
