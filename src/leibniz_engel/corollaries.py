"""Mechanical checkers for the nilpotency consequences.

Four checkers: abstract nilpotency from a generating Lie set with nilpotent
left multiplications, fixed-point-free automorphisms of finite order,
non-singular derivations in characteristic zero, and sums of nilpotent
ideals (with a family-relative nilradical fold on top). Each returns a
premise/conclusion report; a conclusion failing under passing premises is an
implementation bug surfaced as a THEOREM_VIOLATION verdict. The first three
share one premise gate, ``_nilpotency_report``. The derivation
and automorphism tests compare two operators per basis element, built from
the algebra's cached multiplication operators, not products pair by pair.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (LeibnizAlgebra, LieSet, _add_combination,
                      _combination, carrier_series, is_ideal,
                      lower_central_series, series_nilpotency)
from .bimodule import regular_bimodule
from .engel import check_engel_premises
from .errors import ShapeMismatch
from .fields import RationalField, Record
from .linalg import Matrix, Subspace, kernel_basis, matrix_rank
from .reports import THEOREM_VIOLATION, Check, Report


class MapCheck(Record):
    __slots__ = ("ok", "witness")
    ok: bool
    witness: dict | None

    def __init__(self, ok: bool, witness: dict | None):
        self.ok = ok
        self.witness = witness


def _check_map_shape(algebra: LeibnizAlgebra, m: Matrix) -> None:
    if m.rows != algebra.dim or m.cols != algebra.dim:
        raise ShapeMismatch(f"self map must be {algebra.dim}x{algebra.dim}")
    if m.field != algebra.field:
        raise ShapeMismatch("self map over a different field")


def _first_failing_pair(algebra: LeibnizAlgebra, sides) -> MapCheck:
    """Check a map identity on all basis pairs (e_i, e_j) from its operator
    form at each e_i: ``sides(i, L_i^T)`` gives the transposes of its two
    sides, so row j of each is one side at (e_i, e_j). The witness is the
    first pair, i outer and j inner, whose rows differ."""
    to_str = algebra.field.to_str
    for i, lt in enumerate(algebra._operators()[0]):
        lhs, rhs = sides(i, lt)
        for j, (left, right) in enumerate(zip(lhs.entries, rhs.entries)):
            if left != right:
                return MapCheck(False, {"pair": (i + 1, j + 1),
                                        "lhs": [to_str(x) for x in left],
                                        "rhs": [to_str(x) for x in right]})
    return MapCheck(True, None)


def is_derivation(algebra: LeibnizAlgebra, d: Matrix) -> MapCheck:
    """D(xy) = D(x)y + x D(y) on all basis pairs; witness is the first pair.

    At x = e_i this is D L_i = L_{D e_i} + L_i D, checked transposed: row j
    of L_i^T D^T is D(e_i e_j), and row j of L_{D e_i}^T + D^T L_i^T is
    D(e_i) e_j + e_i D(e_j), where D e_i is row i of D^T.
    """
    _check_map_shape(algebra, d)
    dt, lts = d.transpose(), algebra._operators()[0]
    return _first_failing_pair(algebra, lambda i, lt: (
        lt @ dt, _add_combination(dt @ lt, dt.entries[i], lts)))


def is_automorphism(algebra: LeibnizAlgebra, t: Matrix) -> MapCheck:
    """T invertible with T(xy) = T(x)T(y) on all basis pairs.

    At x = e_i this is T L_i = L_{T e_i} T, checked transposed: row j of
    L_i^T T^T is T(e_i e_j), and row j of T^T L_{T e_i}^T is T(e_i) T(e_j).
    """
    _check_map_shape(algebra, t)
    if matrix_rank(t) != algebra.dim:
        return MapCheck(False, {"singular": True})
    tt, lts = t.transpose(), algebra._operators()[0]
    return _first_failing_pair(algebra, lambda i, lt: (
        lt @ tt,
        tt @ _combination(algebra.field, algebra.dim, tt.entries[i], lts)))


def _nilpotency_report(algebra: LeibnizAlgebra, premises: list,
                       notes: list | None = None) -> Report:
    """The premises alone if one fails, else with the conclusion that the
    algebra is nilpotent; its class and series dims are also the data."""
    if not all(c.passed for c in premises):
        return Report(premises=premises, conclusions=[], notes=notes)
    series = lower_central_series(algebra)
    verdict, cls = series_nilpotency(series)
    data = {"class": cls, "series_dims": [s.dim for s in series]}
    return Report(premises=premises,
                  conclusions=[Check("algebra_nilpotent", verdict, data=data)],
                  data=data, notes=notes)


def corollary3_check(algebra: LeibnizAlgebra, lie_set: LieSet) -> Report:
    """Generating Lie set with nilpotent left multiplications forces the
    whole algebra nilpotent; premises are checked on the regular bimodule,
    where the left action of an element is its left multiplication."""
    return _nilpotency_report(algebra, check_engel_premises(
        regular_bimodule(algebra), lie_set).premises)


# Largest order corollary 4 accepts. Trial division factors every order up
# to it in at most 31 steps. T^p by repeated squaring must also return when
# T has infinite order, whose entries grow linearly in p: for a dense 64x64
# T over Q, p = 1024 took 2.7 s with entries in {-2, -1, 1, 2} and 57 s
# with entries +-a/b, a in {1, 2}, b in {1, 2, 3} (where one product of
# two such matrices takes 1 s), on a 2-vCPU Xeon with Python 3.11.
MAX_ORDER = 1024


def _prime_divisors(p: int) -> list:
    """The distinct prime divisors of p, by trial division."""
    primes, d = [], 2
    while d * d <= p:
        if p % d == 0:
            primes.append(d)
            while p % d == 0:
                p //= d
        d += 1
    return primes + [p] if p > 1 else primes


def _exact_order(t: Matrix, p: int, primes: list) -> tuple:
    """(passed, witness) for "T has exact order p": T^p = 1 and
    T^(p/r) != 1 for every prime r | p. When T^p = 1 the order of T divides
    p, and dividing out primes while the power stays 1 reaches it; a
    smaller order is the witness."""
    identity = Matrix.identity(t.field, t.rows)
    if t ** p != identity:
        return False, {"power_p_not_identity": p}
    order = p
    for r in primes:
        while order % r == 0 and t ** (order // r) == identity:
            order //= r
    if order < p:
        return False, {"lower_power_is_identity": order}
    return True, None


def corollary4_check(algebra: LeibnizAlgebra, t: Matrix, p: int) -> Report:
    """Fixed-point-free automorphism of exact order p forces nilpotency.

    The order check verifies T^p = 1 and T^q != 1 for 1 <= q < p, through
    the powers T^(p/r) for the primes r | p. An order below 2 or above
    MAX_ORDER is refused with ValueError. A composite p is recorded as a
    non-fatal note (the classical statement uses a prime period; the
    hypothesis checked here is the stated one).
    """
    if not 2 <= p <= MAX_ORDER:
        raise ValueError(f"order must be in [2, {MAX_ORDER}], got {p}")
    primes = _prime_divisors(p)
    auto = is_automorphism(algebra, t)
    exact_order, order_witness = _exact_order(t, p, primes)
    fixed = kernel_basis(t - Matrix.identity(algebra.field, algebra.dim))
    fixed_free = fixed.is_zero()
    premises = [
        Check("is_automorphism", auto.ok, witness=auto.witness),
        Check("exact_order", exact_order, witness=order_witness,
              data={"order": p}),
        Check("no_nonzero_fixed_points", fixed_free,
              witness=None if fixed_free else
              [algebra.field.to_str(x) for x in fixed.basis[0]]),
    ]
    return _nilpotency_report(algebra, premises, None if primes == [p] else
                              [f"order {p} is composite (NotPrime)"])


def corollary5_check(algebra: LeibnizAlgebra, d: Matrix) -> Report:
    """Non-singular derivation in characteristic zero forces nilpotency."""
    char_zero = isinstance(algebra.field, RationalField)
    deriv = is_derivation(algebra, d)
    rank = matrix_rank(d)
    return _nilpotency_report(algebra, [
        Check("characteristic_zero", char_zero,
              witness=None if char_zero else
              {"characteristic": algebra.field.characteristic}),
        Check("is_derivation", deriv.ok, witness=deriv.witness),
        Check("nonsingular", rank == algebra.dim,
              witness=None if rank == algebra.dim else {"rank": rank}),
    ])


def carrier_nilpotency(algebra: LeibnizAlgebra, carrier: Subspace) -> tuple:
    """(verdict, class) of the induced structure on a carrier subspace."""
    return series_nilpotency(carrier_series(algebra, carrier))


def sum_of_nilpotent_ideals(algebra: LeibnizAlgebra, first: Subspace,
                            second: Subspace) -> Report:
    """Check both carriers are nilpotent ideals; then so must be their sum."""
    checks = []
    for label, carrier in (("first", first), ("second", second)):
        ideal_ok = is_ideal(algebra, carrier)
        nil_ok, cls = carrier_nilpotency(algebra, carrier)
        checks.append(Check(f"{label}_is_ideal", ideal_ok,
                            witness=None if ideal_ok else {"which": label}))
        checks.append(Check(f"{label}_is_nilpotent", nil_ok,
                            witness=None if nil_ok else {"which": label},
                            data={"class": cls}))
    if not all(c.passed for c in checks):
        return Report(premises=checks, conclusions=[])
    total = first + second
    sum_ideal = is_ideal(algebra, total)
    sum_nil, sum_cls = carrier_nilpotency(algebra, total)
    conclusions = [
        Check("sum_is_ideal", sum_ideal),
        Check("sum_is_nilpotent", sum_nil, data={"class": sum_cls}),
    ]
    return Report(premises=checks, conclusions=conclusions,
                  data={"sum_dim": total.dim, "sum_class": sum_cls,
                        "sum_basis": [[algebra.field.to_str(x) for x in row]
                                      for row in total.basis]},
                  notes=["sum carrier returned in data.sum_basis"])


def nilradical_from_family(algebra: LeibnizAlgebra,
                           ideals: Sequence[Subspace]) -> Report:
    """Fold the sum over a family of nilpotent ideals.

    Every input must be an ideal and nilpotent. The first member that is
    not fails the premise ``family_members_are_ideals`` or
    ``family_members_are_nilpotent``, with its 0-based index as witness.
    A partial sum that is not a nilpotent ideal under passing premises
    gives a THEOREM_VIOLATION report naming the member just added. The
    last one is a nilpotent ideal containing every input, maximal only
    relative to the supplied family.
    """
    for idx, carrier in enumerate(ideals):
        if not is_ideal(algebra, carrier):
            failed = "family_members_are_ideals"
        elif not carrier_nilpotency(algebra, carrier)[0]:
            failed = "family_members_are_nilpotent"
        else:
            continue
        return Report(premises=[Check(failed, False, witness={"index": idx})],
                      conclusions=[])
    total = Subspace.zero(algebra.field, algebra.dim)  # the empty sum
    ideal, (nil, cls) = True, carrier_nilpotency(algebra, total)
    for idx, carrier in enumerate(ideals):
        total = total + carrier
        ideal = is_ideal(algebra, total)
        nil, cls = carrier_nilpotency(algebra, total)
        if not (ideal and nil):
            return Report(premises=[], conclusions=[],
                          data={"violation":
                                f"sum with family member {idx} failed"},
                          forced_verdict=THEOREM_VIOLATION)
    premises = [Check("family_members_are_nilpotent_ideals", True,
                      data={"count": len(ideals)})]
    conclusions = [
        Check("radical_is_ideal", ideal),
        Check("radical_is_nilpotent", nil, data={"class": cls}),
        Check("radical_contains_family",
              all(total.contains_subspace(c) for c in ideals)),
    ]
    return Report(premises=premises, conclusions=conclusions,
                  data={"radical_dim": total.dim, "radical_class": cls,
                        "radical_basis": [[algebra.field.to_str(x) for x in row]
                                          for row in total.basis]},
                  notes=["maximal only relative to the supplied family"])
