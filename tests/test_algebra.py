import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from leibniz_engel import (cyclic, heisenberg3, sol2, abelian, fuzz_corpus,
                           check_engel_premises,
                           is_ideal, is_lie_set, is_nilpotent_algebra,
                           left_mult_matrix, lie_set_closure,
                           lower_central_series, regular_bimodule,
                           right_mult_matrix, subalgebra_generated,
                           submodule_generated,
                           validate_bimodule, validate_leibniz,
                           direct_sum, verify_operator_identities)
from leibniz_engel.algebra import (Element, LeibnizAlgebra, LieSet,
                                   carrier_series, mult_coords)
from leibniz_engel.errors import (AlgebraMismatch, CapExceeded,
                                  InvalidAlgebra)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix, Subspace
import leibniz_engel.algebra as algebra_module
import leibniz_engel.linalg as linalg_module

from oracles import (carrier_series_per_pair, ideal_by_unit_vectors,
                     leibniz_triple_violations, lie_set_check_per_pair,
                     lie_set_closure_per_pair, mult_coords_per_scalar,
                     operator_pair_violations,
                     power_identity_violations, product_span_per_pair,
                     subalgebra_generated_per_round, unchecked_algebra)


# e1 e1 = e1 violates the defining identity: e1(e1 e1) = e1 but
# (e1 e1)e1 + e1(e1 e1) = 2 e1
SQUARE = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]


def _square_algebra():
    return unchecked_algebra(QQ, SQUARE)


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
        LeibnizAlgebra.create(QQ, SQUARE)


def test_multiply_cyclic2():
    A = cyclic(2)
    e1, e2 = A.basis()
    assert (e1 * e1).coords == e2.coords
    assert (e2 * e1).is_zero()
    assert (e1 * A.zero()).is_zero()


def test_mult_coords_equals_oracle_on_fixed_vectors():
    """Fixed inputs for the drawn ones of ``test_kernels.py``, on algebras
    where x y and y x differ."""
    for A, x, y in ((heisenberg3(), (1, 2, 0), (0, 1, 3)),
                    (sol2(GF(7)), (1, 3), (2, 5))):
        assert mult_coords(A, x, y) == \
            mult_coords_per_scalar(A.field, A.structure, x, y) != \
            mult_coords(A, y, x)


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
    F = A.field
    parts = [left_mult_matrix(A.basis_element(i)).entries for i in range(3)]
    expected = [[F.add(F.add(F.mul(2, a), F.mul(3, b)), c)
                 for a, b, c in zip(*rows)] for rows in zip(*parts)]
    assert left_mult_matrix(x) == Matrix.from_rows(F, expected)


def test_power_examples():
    # a^2 = a a and a^3 = a (a a)
    A = cyclic(2)
    e1 = A.basis_element(0)
    assert (e1 * e1).coords == A.basis_element(1).coords
    assert (e1 * (e1 * e1)).is_zero()
    B = abelian(3)
    x = B.element([1, 2, 3])
    assert (x * x).is_zero()


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


def test_subalgebra_generated_stops_at_the_full_span(monkeypatch):
    calls = []
    real = linalg_module._image

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg_module, "_image", counted)
    for A in (cyclic(3), heisenberg3(), sol2()):
        assert subalgebra_generated(A.basis()) == A.full_space()
    assert calls == []
    # a generator short of the full span does take the image step
    assert subalgebra_generated([cyclic(3).basis_element(0)]).is_full()
    assert calls


def test_subalgebra_generated_equals_per_round_oracle(small_corpus,
                                                     corpus2024):
    # random generator sets: with zero vectors, with repeats, basis
    # elements, and random vectors, mostly not Lie sets
    rng = random.Random(323)
    compared = not_lie_sets = 0
    for algebra, _ in small_corpus + corpus2024 + fuzz_corpus(323, 200, 8):
        n = algebra.dim
        if n == 0:
            continue

        def vector():
            return algebra.element([rng.randrange(-2, 3) for _ in range(n)])

        basis = algebra.basis()
        for gens in ([algebra.zero(), vector()],
                     [vector()] * 2 + [vector()],
                     rng.sample(basis, rng.randint(1, n)),
                     [vector() for _ in range(rng.randint(1, 3))]):
            assert subalgebra_generated(gens) == \
                subalgebra_generated_per_round(gens)
            compared += 1
            nonzero = [x for x in gens if not x.is_zero()]
            not_lie_sets += bool(nonzero) and not is_lie_set(nonzero).ok
    assert compared > 1500
    assert not_lie_sets > compared // 4


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


def _closure_outcome(close, elements, cap):
    """The closure's member coordinates in order, or the cap and member
    count at which it stopped."""
    try:
        return [x.coords for x in close(elements, cap)]
    except CapExceeded as exc:
        return ("cap", exc.cap, exc.members_so_far)


def _check_outcome(ok, witness):
    return ok, witness and tuple(x.coords for x in witness)


def test_lie_sets_match_per_pair_oracles(small_corpus, corpus2024,
                                         closures2024, dense_f7_closures):
    def batched(elements, cap):
        return lie_set_closure(elements, cap=cap).members

    cases = [(A, lie_set_closure(A.basis())) for A, _ in small_corpus]
    cases += [(A, closure) for (A, _), closure in zip(corpus2024, closures2024)
              if closure is not None]
    cases += dense_f7_closures
    stopped = open_sets = 0
    for A, closure in cases:
        basis, members = A.basis(), closure.members
        assert _closure_outcome(lie_set_closure_per_pair, basis, 1000) == \
            [x.coords for x in members]
        for cap in {50, max(len(members) - 1, 1)}:
            ours = _closure_outcome(batched, basis, cap)
            assert ours == _closure_outcome(lie_set_closure_per_pair,
                                            basis, cap)
            stopped += ours[0] == "cap"
        check = is_lie_set(members)
        assert (check.ok, check.witness) == (True, None)
        assert lie_set_check_per_pair(members) == (True, None)
        # the table holds the member index of every x y, or -1 for zero
        index = {x.coords: i for i, x in enumerate(members)}
        assert [list(row) for row in closure.table] == \
            [[-1 if (x * y).is_zero() else index[(x * y).coords]
              for y in members] for x in members]
        module = regular_bimodule(A)
        premises = check_engel_premises(module, closure)
        assert premises == check_engel_premises(
            module, LieSet(closure.algebra, closure.members))
        assert premises.premises[0].passed
        if len(members) > A.dim:
            # members past the basis were adjoined as products of earlier
            # ones, so dropping one leaves a set that is not closed
            middle = (A.dim + len(members)) // 2
            dropped = members[:middle] + members[middle + 1:]
            check = is_lie_set(dropped)
            assert not check.ok
            expected = _check_outcome(*lie_set_check_per_pair(dropped))
            assert _check_outcome(check.ok, check.witness) == expected
            # without a table, or with the table of the whole closure, the
            # premise is checked product by product
            for open_set in (LieSet(A, dropped),
                             LieSet(closure.algebra, dropped, closure.table)):
                closed = check_engel_premises(module, open_set).premises[0]
                assert not closed.passed
                assert closed.witness == [
                    Element(A, c).to_str() for c in expected[1]]
            open_sets += 1
    # e1 e2 = 2 e2 doubles forever over Q: both stop at the same count
    A = LeibnizAlgebra.create(QQ, [[[0, 0], [0, 2]], [[0, -2], [0, 0]]])
    assert _closure_outcome(batched, A.basis(), 50) == \
        _closure_outcome(lie_set_closure_per_pair, A.basis(), 50) == \
        ("cap", 50, 51)
    assert stopped > 200 and open_sets > 100


def test_closure_multiplies_each_ordered_pair_once(monkeypatch, corpus2024,
                                                  dense_f7_closures):
    """The closure takes x y only for a member x with L_x != 0, as a row of
    a block product with L_x^T, and each such ordered pair once, a square
    x x included; every pair it skips has x y = 0."""
    operand_of, computed = {}, []
    real_combination = algebra_module._combination
    real_matmul = Matrix.__matmul__

    def combined(field, size, coords, mats):
        m = real_combination(field, size, coords, mats)
        operand_of[id(m)] = coords
        return m

    def recorded(ys, lt):
        computed.extend((operand_of[id(lt)], y) for y in ys.entries)
        return real_matmul(ys, lt)

    monkeypatch.setattr(algebra_module, "_combination", combined)
    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    algebras = [A for A, _ in corpus2024] + [A for A, _ in dense_f7_closures]
    skipped_somewhere = False
    for A in algebras:
        computed.clear()
        try:
            closure = lie_set_closure(A.basis(), cap=100_000)
            members = [x.coords for x in closure.members]
        except CapExceeded:
            members = None
        counts = Counter(computed)
        assert all(n == 1 for n in counts.values())
        if members is not None:
            active = [x for x in members
                      if not left_mult_matrix(Element(A, x)).is_zero()]
            assert set(counts) == {(a, b) for a in active for b in members}
            skipped = [(a, b) for a in members for b in members
                       if (a, b) not in counts]
            assert all((Element(A, a) * Element(A, b)).is_zero()
                       for a, b in skipped)
            skipped_somewhere |= bool(skipped)
    assert skipped_somewhere


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
    sq = product_span_per_pair(A, full, full)
    assert sq.basis == ((0, 0, 1),)
    assert lower_central_series(A)[1] == sq


def test_fractional_structure_constants():
    # rescaling the basis of cyclic(3) by 1, 2, 6 puts true fractions into
    # the constants: f1 f1 = (1/2) f2, f1 f2 = (1/3) f3
    half, third = QQ.parse("1/2"), QQ.parse("1/3")
    structure = [[[0, half, 0], [0, 0, third], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    A = LeibnizAlgebra.create(QQ, structure)
    assert verify_operator_identities(A).ok
    assert is_nilpotent_algebra(A) == (True, 3)
    e1 = A.basis_element(0)
    assert (e1 * (e1 * e1)).coords == (0, 0, QQ.parse("1/6"))


def test_identity_verifier_flags_invalid_algebra():
    report = verify_operator_identities(_square_algebra())
    assert not report.ok
    names = {v.identity for v in report.violations}
    assert "right_mult_of_product" in names


def _corrupted_algebras():
    """(valid algebra, unchecked copy with one seeded constant changed)
    for the tensors of dims 2-8 of a seeded corpus over Q, F5 and F7."""
    rng = random.Random(1101)
    for algebra, _ in fuzz_corpus(11, 36, 8):
        f, n = algebra.field, algebra.dim
        if n < 2:
            continue
        tensor = [[list(cij) for cij in ci] for ci in algebra.structure]
        i, j, k = (rng.randrange(n) for _ in range(3))
        tensor[i][j][k] = f.add(tensor[i][j][k], f.from_int(rng.randrange(1, 5)))
        yield algebra, unchecked_algebra(f, tensor)


def test_validate_matches_triple_loop_oracle_on_corrupted_tensors():
    fields_seen, broken = set(), 0
    for algebra, corrupted_algebra in _corrupted_algebras():
        f, n = algebra.field, algebra.dim
        assert validate_leibniz(algebra.structure, f, n).ok
        corrupted = corrupted_algebra.structure
        got = validate_leibniz(corrupted, f, n).violations
        assert got == leibniz_triple_violations(corrupted, f, n)
        fields_seen.add(str(f))
        broken += bool(got)
    assert fields_seen == {"Q", "F5", "F7"}
    assert broken > 20


def test_validate_triples_are_the_swapped_left_mult_of_product_pairs():
    # the defining identity at (i, j, k) is column k of the residual of
    # L_c L_b = L_{cb} + L_b L_c at the pair (b, c) = (j, i)
    broken = 0
    for _, A in _corrupted_algebras():
        triples = validate_leibniz(A.structure, A.field, A.dim).violations
        pairs = [v.witness["pair"]
                 for v in verify_operator_identities(A).violations
                 if v.identity == "left_mult_of_product"]
        assert sorted({t[:2] for t in triples}) == \
            sorted((c, b) for b, c in pairs)
        broken += bool(pairs)
    assert broken > 20


MULT_IDENTITIES = ("right_mult_of_product", "mixed_mult_commutation",
                   "left_mult_of_product", "right_right_reduction")
ACTION_IDENTITIES = ("right_action_of_product", "mixed_action_commutation",
                     "left_action_of_product", "right_right_action_reduction")


def test_pair_identities_match_loop_oracle_on_corrupted_tensors():
    broken = 0
    for _, A in _corrupted_algebras():
        n, c = A.dim, A.structure
        lefts = [Matrix.from_rows(A.field,
                                  [c[i][j] for j in range(n)]).transpose()
                 for i in range(n)]
        rights = [Matrix.from_rows(A.field,
                                   [c[j][i] for j in range(n)]).transpose()
                  for i in range(n)]

        expected = operator_pair_violations(c, lefts, rights, MULT_IDENTITIES)
        got = [(v.identity, v.witness["pair"])
               for v in verify_operator_identities(A).violations
               if v.identity in MULT_IDENTITIES]
        assert got == expected
        broken += bool(got)

        expected = operator_pair_violations(c, lefts, rights,
                                            ACTION_IDENTITIES)
        derived_name = ACTION_IDENTITIES[-1]
        check = validate_bimodule(regular_bimodule(A))
        assert [(v.identity, v.witness["pair"]) for v in check.violations] == \
            [v for v in expected if v[0] != derived_name]
        assert [(v.identity, v.witness["pair"])
                for v in check.derived_violations] == \
            [v for v in expected if v[0] == derived_name]
        assert check.all_ok() == (not expected)
    assert broken > 20


def test_power_identities_match_three_product_oracle():
    fired = 0
    for algebra, corrupted in _corrupted_algebras():
        for A in (algebra, corrupted):
            got = [(v.identity, v.witness["basis"], v.witness["exponent"])
                   for v in verify_operator_identities(A).violations
                   if v.identity in ("left_mult_of_power_vanishes",
                                     "right_power_reduction")]
            assert got == power_identity_violations(A)
            fired += bool(got)
    assert fired > 0


def test_power_identities_match_three_product_oracle_on_small_corpus(
        small_corpus):
    names = ("left_mult_of_power_vanishes", "right_power_reduction")
    for A, _ in small_corpus:
        got = [(v.identity, v.witness["basis"], v.witness["exponent"])
               for v in verify_operator_identities(A).violations
               if v.identity in names]
        assert got == power_identity_violations(A) == []


def test_power_walks_stop_at_zero(monkeypatch):
    # heisenberg3 (e1 e2 = e3 = -e2 e1): a^2 = 0 and R_a^2 = 0 = -R_a L_a
    # for every basis element a, so each power walk ends at its first step
    # and the chain of R_a takes the two products of k = 2 alone
    A = heisenberg3()
    assert all((a * a).is_zero() for a in A.basis())
    counts = Counter()
    matmul, left = Matrix.__matmul__, algebra_module.left_mult_matrix

    def counted_matmul(self, other):
        counts["matmul"] += 1
        return matmul(self, other)

    def counted_left(a):
        counts["left"] += 1
        return left(a)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(algebra_module, "left_mult_matrix", counted_left)
    assert verify_operator_identities(A).ok
    assert counts == {"matmul": 2 * A.dim}


def test_right_power_chain_stops_once_k2_holds(monkeypatch):
    # in sol2 + abelian(3), e2 e1 = -e2, so no power of R_{e1} is 0; the
    # identity holds at k = 2 for every basis element, so each chain of R_a
    # takes the two products of k = 2 alone (walking on until R_a^k = 0
    # would take 2 more per exponent up to k = 5 for e1)
    A = direct_sum(sol2(), abelian(3))
    assert not (right_mult_matrix(A.basis_element(0)) ** A.dim).is_zero()
    counts = Counter()
    matmul = Matrix.__matmul__

    def counted_matmul(self, other):
        counts["matmul"] += 1
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    assert verify_operator_identities(A).ok
    assert counts == {"matmul": 2 * A.dim}


def test_right_power_chain_goes_on_after_a_failure_at_k2():
    # e1 e1 = e1 in dimension 4 (not Leibniz): R_a = L_a = P, a nonzero
    # idempotent, so R_a^k = P against (-1)^(k-1) P: the identity fails at
    # k = 2, holds at k = 3 with R_a^3 nonzero, and fails again at k = 4
    tensor = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    tensor[0][0][0] = 1
    A = unchecked_algebra(QQ, tensor)
    got = [(v.identity, v.witness["basis"], v.witness["exponent"])
           for v in verify_operator_identities(A).violations
           if v.identity in ("left_mult_of_power_vanishes",
                             "right_power_reduction")]
    assert got == power_identity_violations(A)
    assert [g[1:] for g in got if g[0] == "right_power_reduction"] == \
        [(1, 2), (1, 4)]


def _raw_triple_terms(c, i, j, k, t) -> list:
    """The terms of coordinate t of e_i(e_j e_k) - (e_i e_j)e_k -
    e_j(e_i e_k), in raw arithmetic, unreduced."""
    n = len(c)
    return ([c[j][k][m] * c[i][m][t] for m in range(n)]
            + [-c[i][j][m] * c[m][k][t] for m in range(n)]
            + [-c[i][k][m] * c[j][m][t] for m in range(n)])


def _raw_pair_terms(c):
    """The terms of every entry of the four pair residuals of the regular
    bimodule (T_i = L_i, S_i = R_i) at every pair (b, c), unreduced:
    S_{bc} - S_c S_b - T_b S_c, T_b S_c - S_c T_b - S_{bc},
    T_c T_b - T_{cb} - T_b T_c and S_c S_b + S_c T_b."""
    n = len(c)

    def L(i, r, s):
        return c[i][s][r]

    def R(i, r, s):
        return c[s][i][r]

    def neg(terms):
        return [-x for x in terms]

    for b, d, r, s in product(range(n), repeat=4):
        def prod(X, x, Y, y):
            return [X(x, r, q) * Y(y, q, s) for q in range(n)]

        ss, ts, st = prod(R, d, R, b), prod(L, b, R, d), prod(R, d, L, b)
        tt, tt_swapped = prod(L, d, L, b), prod(L, b, L, d)
        s_bd = [x * R(t, r, s) for t, x in enumerate(c[b][d])]
        t_db = [x * L(t, r, s) for t, x in enumerate(c[d][b])]
        yield s_bd + neg(ss) + neg(ts)
        yield ts + neg(st) + neg(s_bd)
        yield tt + neg(t_db) + neg(tt_swapped)
        yield ss + st


def _assert_all_checks_pass(field, tensor):
    A = LeibnizAlgebra.create(field, tensor)
    assert validate_leibniz(A.structure, field, A.dim).ok
    assert verify_operator_identities(A).ok
    assert validate_bimodule(regular_bimodule(A)).all_ok()


def test_residual_that_is_a_nonzero_multiple_of_p_is_reduced_first():
    # sol2 in another basis over F_5: e1 e2 = 4 e1, e2 e1 = e1
    tensor = [[[0, 0], [4, 0]], [[1, 0], [0, 0]]]
    # e1(e2 e2) - (e1 e2)e2 - e2(e1 e2) = 0 - 16 e1 - 4 e1
    assert sum(_raw_triple_terms(tensor, 0, 1, 1, 0)) == -20
    raw_pairs = [sum(terms) for terms in _raw_pair_terms(tensor)]
    assert any(x and x % 5 == 0 for x in raw_pairs)
    _assert_all_checks_pass(GF(5), tensor)


def test_residual_of_cancelling_fractions_is_zero():
    # sol2 in a basis with fractional constants over Q
    tensor = [[[0, 0], [Fraction(-1, 2), 1]], [[Fraction(1, 2), -1], [0, 0]]]

    def cancels(terms):
        return any(type(x) is Fraction for x in terms) and sum(terms) == 0

    assert any(cancels(_raw_triple_terms(tensor, *ijkt))
               for ijkt in product(range(2), repeat=4))
    assert any(cancels(terms) for terms in _raw_pair_terms(tensor))
    _assert_all_checks_pass(QQ, tensor)


def test_validation_and_axioms_take_no_matrix_product(corpus2024,
                                                      monkeypatch):
    algebras = [A for A, _ in corpus2024]
    corrupted = [B for _, B in _corrupted_algebras()]
    reports = [validate_leibniz(B.structure, B.field, B.dim)
               for B in corrupted]
    axioms = [validate_bimodule(regular_bimodule(A)) for A in algebras]
    assert not all(report.ok for report in reports)

    def no_product(*args):
        raise AssertionError("a matrix product was taken")

    monkeypatch.setattr(Matrix, "__matmul__", no_product)
    for A, expected in zip(algebras, axioms):
        fresh = LeibnizAlgebra.create(A.field, A.structure, A.basis_names)
        assert fresh == A
        assert validate_bimodule(regular_bimodule(fresh)) == expected
    for B, report in zip(corrupted, reports):
        if report.ok:
            assert LeibnizAlgebra.create(B.field, B.structure) == B
            continue
        with pytest.raises(InvalidAlgebra) as refused:
            LeibnizAlgebra.create(B.field, B.structure)
        assert refused.value.report == report
    # positive control: the power identities still multiply matrices
    with pytest.raises(AssertionError, match="matrix product"):
        verify_operator_identities(heisenberg3())


# e1 e2 = e2: span(e1) is a left ideal (A e1 = 0) but e1 e2 = e2 leaves it
ONE_SIDED = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]


def _ideal_test_carriers(small_corpus):
    """(algebra, carrier) over every series term of ``small_corpus`` and
    of the one-sided algebra, plus 4 seeded random subspaces per algebra."""
    rng = random.Random(2438)
    one_sided = LeibnizAlgebra.create(QQ, ONE_SIDED)
    out = [(one_sided, Subspace.span(QQ, 2, [(1, 0)]))]
    for A in [A for A, _ in small_corpus] + [one_sided]:
        f, n = A.field, A.dim
        carriers = lower_central_series(A)
        for _ in range(4):
            vecs = [[f.from_int(rng.randrange(-2, 3)) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            carriers.append(Subspace.span(f, n, vecs))
        out += [(A, carrier) for carrier in carriers]
    return out


def test_is_ideal_matches_unit_vector_oracle(small_corpus):
    pairs = _ideal_test_carriers(small_corpus)
    assert not is_ideal(*pairs[0])
    ideals = non_ideals = 0
    for A, carrier in pairs:
        verdict = is_ideal(A, carrier)
        assert verdict == ideal_by_unit_vectors(A, carrier)
        ideals += verdict
        non_ideals += not verdict
    assert ideals > 100 and non_ideals > 20


def test_is_ideal_verdicts_are_kept_per_algebra(small_corpus, monkeypatch):
    pairs = _ideal_test_carriers(small_corpus)
    first = [is_ideal(A, carrier) for A, carrier in pairs]
    fresh = {}
    for A, carrier in pairs:
        if id(A) not in fresh:
            fresh[id(A)] = LeibnizAlgebra.create(A.field, A.structure)
    assert first == [is_ideal(fresh[id(A)], carrier) for A, carrier in pairs]
    assert first == [ideal_by_unit_vectors(A, carrier) for A, carrier in pairs]
    assert True in first and False in first

    # repeated calls answer from the algebra's cache: the invariance step
    # is not taken again, and an equal carrier built anew hits the same entry
    def no_image(*args):
        raise AssertionError("is_ideal recomputed a cached verdict")

    monkeypatch.setattr(algebra_module, "_image", no_image)
    assert first == [is_ideal(A, carrier) for A, carrier in pairs]
    assert first == [is_ideal(A, Subspace.span(A.field, A.dim, carrier.basis))
                     for A, carrier in pairs]


def test_lower_central_series_is_the_carrier_series_of_the_algebra(
        small_corpus):
    # the cycling non-ideal carrier of the corollary tests: span{e1} steps
    # span{e2} -> span{e3} -> span{e2}
    cycling = LeibnizAlgebra.create(QQ, [[[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                                         [[0, 0, 0]] * 3, [[0, 0, 0]] * 3])
    carriers = [(cycling, Subspace.span(QQ, 3, [(1, 0, 0)]))]
    for A, _ in small_corpus:
        fresh = LeibnizAlgebra.create(A.field, A.structure)
        expected = carrier_series(fresh, fresh.full_space())
        series = lower_central_series(A)
        assert series == expected
        series.append(A.zero_space())
        series[0] = A.zero_space()
        again = lower_central_series(A)
        assert again == expected
        assert again is not series
        carriers += [(A, term) for term in expected[1:]]
    for A, carrier in carriers:
        first = carrier_series(A, carrier)
        first.append(A.zero_space())
        first[0] = A.zero_space()
        again = carrier_series(A, carrier)
        fresh = LeibnizAlgebra.create(A.field, A.structure)
        assert again == carrier_series(fresh, carrier)
        assert again[0] == carrier and again is not first


def test_carrier_series_matches_per_pair_oracle(corpus2024):
    """Each series step is one image under the carrier's multiplication
    operators; the oracle multiplies basis pairs. Carriers: the series
    terms of every seed-2024 corpus algebra, the ideals generated by e_1
    and by e_n and their sum, which the corollary 6 check of ``fuzz``
    takes, 3 seeded random subspaces per algebra and their sums with the
    second term."""
    rng = random.Random(1101_2438)
    ideals = non_ideals = 0
    for A, _ in corpus2024:
        f, n = A.field, A.dim
        series = lower_central_series(A)
        assert series == carrier_series_per_pair(A, A.full_space())
        regular, basis = regular_bimodule(A), A.basis()
        first, last = (submodule_generated(regular, basis[i].coords)
                       for i in (0, -1))
        carriers = series + [first, last, first + last]
        for _ in range(3):
            vecs = [[f.from_int(rng.randrange(-2, 3)) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            seeded = Subspace.span(f, n, vecs)
            carriers += [seeded, seeded + series[min(1, len(series) - 1)]]
        for carrier in carriers:
            assert carrier_series(A, carrier) == \
                carrier_series_per_pair(A, carrier)
            if is_ideal(A, carrier):
                ideals += 1
            else:
                non_ideals += 1
    assert ideals > 1000 and non_ideals > 200
