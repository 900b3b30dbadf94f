"""Property tests on bimodules that are not the regular one.

A representation rho of the Lie algebra A / Leib(A) makes its space a
Leibniz bimodule in two ways (Loday and Pirashvili, Math. Ann. 296, 1993):
the antisymmetric module, T = rho and S = 0, and the symmetric module,
T = rho and S = -rho. Here rho is the left multiplication of A on its
quotient by an ideal, a representation because the defining identity reads
L_{xy} = L_x L_y - L_y L_x, taken in a random basis of the quotient. A draw
is a module of either kind or the direct sum of one of each (mixed), over
Q, F_5 and F_7. Every draw passes ``validate_bimodule``; the left-action
premise of the basis closure equals the per-member oracle; and every
conclusion of ``theorem2_verify`` is checked against the brute-force
oracles: the index of each action pair and of all actions against the
least vanishing word length, the flag against the flag of every member,
and the joint annihilator against the rank of the stacked actions by
textbook Gauss-Jordan. Skipped when hypothesis is not installed.
"""

import random
from collections import Counter

import pytest

from leibniz_engel import (abelian, cyclic, direct_sum, heisenberg3,
                           lie_set_closure, lower_central_series,
                           regular_bimodule, sol2, theorem2_verify)
from leibniz_engel.bimodule import (Bimodule, quotient_bimodule,
                                    submodule_generated, validate_bimodule)
from leibniz_engel.errors import FlagStalled
from leibniz_engel.families import _unimodular
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix, Subspace, invert
from leibniz_engel.reports import PASS, PREMISES_FAILED

from oracles import (apply_per_scalar, engel_flag_all_members,
                     left_actions_nilpotent_per_member,
                     min_vanishing_word_length, rref_per_scalar)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KINDS = ("antisymmetric", "symmetric", "mixed")


def _algebras(field):
    """Small family algebras whose basis closures are finite over Q too,
    nilpotent ones and the non-nilpotent sol2."""
    return (cyclic(2, field), cyclic(3, field), cyclic(4, field),
            abelian(2, field), heisenberg3(field), sol2(field),
            direct_sum(cyclic(2, field), sol2(field)),
            direct_sum(abelian(1, field), heisenberg3(field)))


@st.composite
def representations(draw, algebra):
    """L on A / I for a proper ideal I, a series term or the ideal one
    vector generates, conjugated by a seeded invertible matrix P:
    P^-1 L_x P for each basis element x."""
    field, n = algebra.field, algebra.dim
    regular = regular_bimodule(algebra)
    vector = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    ideals = [Subspace.zero(field, n), submodule_generated(regular, vector)]
    ideals += lower_central_series(algebra)
    ideal = draw(st.sampled_from([i for i in ideals if i.dim < n]))
    quotient = regular if ideal.is_zero() else \
        quotient_bimodule(regular, ideal)
    p = _unimodular(field, quotient.module_dim,
                    random.Random(draw(st.integers(0, 10**6))))
    p_inv = invert(p)
    return [p_inv @ t @ p for t in quotient.left_actions]


def _block_diagonal(field, a: Matrix, b: Matrix) -> Matrix:
    zero = field.zero()
    rows = [row + (zero,) * b.cols for row in a.entries]
    rows += [(zero,) * a.cols + row for row in b.entries]
    return Matrix(field, a.rows + b.rows, a.cols + b.cols, tuple(rows))


def _module(algebra, lefts, rights):
    return Bimodule.create(algebra, lefts[0].rows, lefts, rights)


@st.composite
def loday_pirashvili_modules(draw):
    """(kind, module): an antisymmetric, a symmetric or a mixed module."""
    field = draw(st.sampled_from((QQ, GF(5), GF(7))))
    algebra = draw(st.sampled_from(_algebras(field)))
    kind = draw(st.sampled_from(KINDS))
    rho = draw(representations(algebra))
    zeros = [Matrix.zero(field, t.rows, t.cols) for t in rho]
    if kind == "antisymmetric":
        return kind, _module(algebra, rho, zeros)
    if kind == "symmetric":
        return kind, _module(algebra, rho, [-t for t in rho])
    sigma = draw(representations(algebra))
    return kind, _module(
        algebra, [_block_diagonal(field, a, b) for a, b in zip(rho, sigma)],
        [_block_diagonal(field, z, -b) for z, b in zip(zeros, sigma)])


def _flag_outcome(module, members):
    try:
        return engel_flag_all_members(module, members).dims()
    except FlagStalled as exc:
        return ("stalled", exc.level, exc.stalled_dim)


def _check_theorem2(module):
    """theorem2_verify on the basis closure against the oracles; returns
    the verdict."""
    algebra, m = module.algebra, module.module_dim
    closure = lie_set_closure(algebra.basis())
    report = theorem2_verify(module, closure)
    premise = report.premises[2]
    assert (premise.passed, premise.witness) == \
        left_actions_nilpotent_per_member(module, closure.members)
    if report.verdict == PREMISES_FAILED:
        assert not premise.passed
        return report.verdict
    # the premises hold, so the theorem gives every conclusion
    assert report.verdict == PASS
    pairs = [[t, s] for t, s in zip(module.left_actions, module.right_actions)]
    assert report.data["per_element_indices"] == [
        min_vanishing_word_length(pair, m + 1) for pair in pairs]
    assert report.data["flag_dims"] == _flag_outcome(module, closure.members)
    actions = list(module.left_actions) + list(module.right_actions)
    assert report.data["joint_index"] == \
        min_vanishing_word_length(actions, m + 1)
    stacked = Matrix(algebra.field, m * len(actions), m,
                     tuple(row for a in actions for row in a.entries))
    assert rref_per_scalar(stacked)[1] < m
    vector = tuple(map(algebra.field.parse, report.data["annihilator"]))
    assert any(vector)
    assert all(not any(apply_per_scalar(a, vector)) for a in actions)
    return report.verdict


def test_loday_pirashvili_modules_match_the_oracles():
    """Each kind is drawn, and the premises both hold and fail."""
    seen = Counter()

    @settings(max_examples=100, deadline=None)
    @given(loday_pirashvili_modules())
    def check(drawn):
        kind, module = drawn
        assert validate_bimodule(module).all_ok()
        seen[kind, _check_theorem2(module)] += 1

    check()
    assert {kind for kind, _ in seen} == set(KINDS)
    assert {verdict for _, verdict in seen} == {PASS, PREMISES_FAILED}
