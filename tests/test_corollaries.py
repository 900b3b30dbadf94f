import itertools

import pytest

from leibniz_engel import (abelian, corollary3_check, corollary4_check,
                           corollary5_check, cyclic, heisenberg3,
                           is_automorphism, is_derivation, lie_set_closure,
                           lower_central_series, nilradical_from_family,
                           sol2, sum_of_nilpotent_ideals)
from leibniz_engel.algebra import mult_coords
from leibniz_engel.corollaries import MAX_ORDER
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix, Subspace

F7 = GF(7)


def test_corollary3_cyclic2():
    A = cyclic(2)
    report = corollary3_check(A, lie_set_closure(A.basis()))
    assert report.verdict == "pass"
    assert report.data["class"] == 2


def test_corollary3_abelian():
    A = abelian(3)
    report = corollary3_check(A, lie_set_closure(A.basis()))
    assert report.verdict == "pass"
    assert report.data["class"] == 1


def test_corollary3_sol2_premise_fails():
    A = sol2()
    report = corollary3_check(A, lie_set_closure(A.basis()))
    assert report.verdict == "premises_failed"
    by_name = {c.name: c for c in report.premises}
    assert not by_name["left_actions_nilpotent"].passed


def test_is_derivation_diag():
    A = cyclic(2)
    assert is_derivation(A, Matrix.from_rows(QQ, [[1, 0], [0, 2]])).ok


def test_is_automorphism_diag():
    A = cyclic(2)
    assert is_automorphism(A, Matrix.from_rows(QQ, [[-1, 0], [0, 1]])).ok


def test_identity_map_is_automorphism_not_derivation():
    A = cyclic(2)
    identity = Matrix.identity(QQ, 2)
    check = is_derivation(A, identity)
    assert not check.ok
    assert check.witness["pair"] == (1, 1)
    assert is_automorphism(A, identity).ok


def test_derivation_extends_bilinearly():
    import random
    rng = random.Random(9)
    cases = [
        (cyclic(3), [[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
        (heisenberg3(), [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
        (sol2(), [[0, 0], [0, 1]]),
    ]
    # an accepted derivation must satisfy the rule on arbitrary elements too
    for A, rows in cases:
        d = Matrix.from_rows(QQ, rows)
        assert is_derivation(A, d).ok
        for _ in range(5):
            x = [QQ.from_int(rng.randrange(-3, 4)) for _ in range(A.dim)]
            y = [QQ.from_int(rng.randrange(-3, 4)) for _ in range(A.dim)]
            lhs = d.apply(mult_coords(A, x, y))
            rhs1 = mult_coords(A, d.apply(x), y)
            rhs2 = mult_coords(A, x, d.apply(y))
            assert lhs == tuple(QQ.add(a, b) for a, b in zip(rhs1, rhs2))


def test_corollary4_f7_example():
    A = cyclic(2, F7)
    T = Matrix.from_rows(F7, [[2, 0], [0, 4]])
    report = corollary4_check(A, T, 3)
    assert report.verdict == "pass"
    assert report.notes == []
    assert report.data["class"] == 2


def test_corollary4_fixed_point_fails():
    A = cyclic(2)
    T = Matrix.from_rows(QQ, [[-1, 0], [0, 1]])
    report = corollary4_check(A, T, 2)
    by_name = {c.name: c for c in report.premises}
    assert by_name["is_automorphism"].passed
    assert not by_name["no_nonzero_fixed_points"].passed
    assert report.verdict == "premises_failed"


def test_corollary4_identity_order_fails():
    A = cyclic(2)
    report = corollary4_check(A, Matrix.identity(QQ, 2), 2)
    by_name = {c.name: c for c in report.premises}
    assert not by_name["exact_order"].passed


def test_corollary4_composite_order_noted():
    A = abelian(2, F7)
    # diag(3, 2): 3 has order 6 in F7*, and 2 = 3^2 keeps it an automorphism
    T = Matrix.from_rows(F7, [[3, 0], [0, 2]])
    report = corollary4_check(A, T, 6)
    assert any("composite" in note for note in report.notes)
    assert report.verdict == "pass"
    with pytest.raises(ValueError):
        corollary4_check(A, T, 1)


def _order_premise_by_sequential_powers(t: Matrix, p: int) -> tuple:
    """The exact-order premise from T, T^2, ..., T^p multiplied out."""
    identity = Matrix.identity(t.field, t.rows)
    powers, power = [], t
    for _ in range(p):
        powers.append(power)
        power = power @ t
    if powers[-1] != identity:
        return False, {"power_p_not_identity": p}
    q = next(q for q in range(1, p + 1) if powers[q - 1] == identity)
    return (True, None) if q == p else (False, {"lower_power_is_identity": q})


def test_corollary4_order_premise_matches_sequential_powers():
    maps = [Matrix.from_rows(F7, [[3, 0], [0, 2]]),   # order 6
            Matrix.from_rows(F7, [[2, 0], [0, 4]]),   # order 3
            Matrix.from_rows(QQ, [[0, -1], [1, 0]]),  # order 4
            Matrix.from_rows(QQ, [[0, -1], [1, -1]]),  # order 3
            Matrix.from_rows(QQ, [[-1, 0], [0, -1]]),  # order 2
            Matrix.identity(QQ, 2),                     # order 1
            Matrix.from_rows(QQ, [[2, 0], [0, 2]]),   # infinite order
            Matrix.from_rows(QQ, [[1, 1], [0, 1]])]   # infinite order
    seen = set()
    for t in maps:
        A = abelian(2, t.field)
        for p in range(2, 25):
            by_name = {c.name: c for c in corollary4_check(A, t, p).premises}
            check = by_name["exact_order"]
            expected = _order_premise_by_sequential_powers(t, p)
            assert (check.passed, check.witness) == expected, (t, p)
            seen.add(next(iter(expected[1])) if expected[1] else "pass")
    assert seen == {"pass", "power_p_not_identity", "lower_power_is_identity"}


def test_corollary4_refuses_orders_past_the_limit():
    # refused before any power is taken: T = 2I never returns to 1, and
    # its entries double with every power
    A = abelian(2)
    T = Matrix.from_rows(QQ, [[2, 0], [0, 2]])
    assert corollary4_check(A, T, MAX_ORDER).premises[1].witness == \
        {"power_p_not_identity": MAX_ORDER}
    for p in (MAX_ORDER + 1, 10**30, 0):
        with pytest.raises(ValueError, match="order must be in"):
            corollary4_check(A, T, p)


def test_corollary5_cyclic2():
    A = cyclic(2)
    report = corollary5_check(A, Matrix.from_rows(QQ, [[1, 0], [0, 2]]))
    assert report.verdict == "pass"
    assert report.data["class"] == 2


def test_corollary5_singular_derivation_on_sol2():
    A = sol2()
    D = Matrix.from_rows(QQ, [[0, 0], [0, 1]])
    report = corollary5_check(A, D)
    by_name = {c.name: c for c in report.premises}
    assert by_name["is_derivation"].passed
    assert not by_name["nonsingular"].passed
    assert report.verdict == "premises_failed"


def test_corollary5_characteristic_not_zero():
    A = cyclic(2, GF(5))
    report = corollary5_check(A, Matrix.from_rows(GF(5), [[1, 0], [0, 2]]))
    by_name = {c.name: c for c in report.premises}
    assert not by_name["characteristic_zero"].passed
    assert report.verdict == "premises_failed"


def test_sum_of_ideals_heisenberg():
    H = heisenberg3()
    first = Subspace.span(QQ, 3, [(1, 0, 0), (0, 0, 1)])
    second = Subspace.span(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    report = sum_of_nilpotent_ideals(H, first, second)
    assert report.verdict == "pass"
    assert report.data["sum_dim"] == 3
    assert report.data["sum_class"] == 2


def test_sum_of_ideals_idempotent():
    A = cyclic(2)
    span_e2 = Subspace.span(QQ, 2, [(0, 1)])
    report = sum_of_nilpotent_ideals(A, span_e2, span_e2)
    assert report.verdict == "pass"
    assert report.data["sum_dim"] == 1
    assert report.data["sum_class"] == 1


def test_sum_of_ideals_rejects_non_ideal():
    A = sol2()
    report = sum_of_nilpotent_ideals(A, Subspace.span(QQ, 2, [(0, 1)]),
                                     Subspace.span(QQ, 2, [(1, 0)]))
    assert report.verdict == "premises_failed"
    by_name = {c.name: c for c in report.premises}
    assert not by_name["second_is_ideal"].passed


def test_nilradical_heisenberg_family():
    H = heisenberg3()
    family = [Subspace.span(QQ, 3, [(1, 0, 0), (0, 0, 1)]),
              Subspace.span(QQ, 3, [(0, 1, 0), (0, 0, 1)])]
    report = nilradical_from_family(H, family)
    assert report.verdict == "pass"
    assert report.data["radical_dim"] == 3


def test_nilradical_empty_family_is_zero():
    report = nilradical_from_family(cyclic(2), [])
    assert report.verdict == "pass"
    assert report.data["radical_dim"] == 0


def test_nilradical_containment_chain():
    C3 = cyclic(3)
    family = [Subspace.span(QQ, 3, [(0, 0, 1)]),
              Subspace.span(QQ, 3, [(0, 1, 0), (0, 0, 1)])]
    report = nilradical_from_family(C3, family)
    assert report.verdict == "pass"
    assert report.data["radical_dim"] == 2


def _failed_premises(report):
    return [(c.name, c.passed, c.witness) for c in report.premises]


def test_nilradical_reports_bad_member():
    A = sol2()
    good = Subspace.span(QQ, 2, [(0, 1)])
    bad = Subspace.span(QQ, 2, [(1, 0)])
    report = nilradical_from_family(A, [good, bad])
    assert report.verdict == "premises_failed"
    assert _failed_premises(report) == \
        [("family_members_are_ideals", False, {"index": 1})]
    assert report.conclusions == []
    report = nilradical_from_family(A, [Subspace.full(QQ, 2)])
    assert report.verdict == "premises_failed"
    assert _failed_premises(report) == \
        [("family_members_are_nilpotent", False, {"index": 0})]
    assert report.conclusions == []


def test_carrier_series_terminates_on_cycling_non_ideal():
    # e1 e1 = e2, e1 e2 = e3, e1 e3 = e2: the step map on span{e1} cycles
    # span{e2} -> span{e3} -> span{e2}, so the series must cut off
    from leibniz_engel.algebra import LeibnizAlgebra
    from leibniz_engel.corollaries import carrier_nilpotency, carrier_series
    structure = [[[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    A = LeibnizAlgebra.create(QQ, structure)
    carrier = Subspace.span(QQ, 3, [(1, 0, 0)])
    series = carrier_series(A, carrier)
    assert [s.dim for s in series] == [1, 1, 1]
    assert carrier_nilpotency(A, carrier) == (False, None)
    report = sum_of_nilpotent_ideals(A, carrier, carrier)
    assert report.verdict == "premises_failed"


def test_nilradical_order_independent():
    H = heisenberg3()
    series = lower_central_series(H)
    family = [series[1],
              Subspace.span(QQ, 3, [(1, 0, 0), (0, 0, 1)]),
              Subspace.span(QQ, 3, [(0, 1, 0), (0, 0, 1)])]
    carriers = set()
    for perm in itertools.permutations(family):
        report = nilradical_from_family(H, list(perm))
        carriers.add(tuple(map(tuple, report.data["radical_basis"])))
    assert len(carriers) == 1
