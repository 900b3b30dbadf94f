"""Leibniz algebras given by structure constants.

An algebra is a tensor ``c`` with ``e_i * e_j = sum_k c[i][j][k] e_k`` over an
exact field. :meth:`LeibnizAlgebra.create` is the only way in: it validates
the defining identity

    x(yz) = (xy)z + y(xz)

on all basis triples (bilinearity makes that sufficient) and raises
:class:`InvalidAlgebra` when it fails. On top of that sit multiplication
operators and the operator identities they satisfy, element powers,
generated subalgebras, Lie sets, the lower central series of a subspace
and the ideal test. An algebra's ``_cache`` holds its operators and, per
carrier, the series and the ideal verdict, each computed once.

Products of coordinate vectors walk the tensor. The multiplication
operators of the basis are read once per algebra off the tensor: row j of
``c[i]`` is e_i e_j, so ``c[i]`` is L_{e_i}^T as it stands. Validation, the
Lie sets (row y of Y @ L_x^T is x y, of Y @ R_x^T is y x), the ideal test,
the regular bimodule and the identity suite all use these operators, and
``_combination`` builds the operator of any element from them. The series
of a carrier, the generated subalgebra and the ideal test each step by the
one image step ``linalg._image`` under such operators.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .errors import (AlgebraMismatch, CapExceeded, InvalidAlgebra,
                     InvalidExponent, ShapeMismatch)
from .fields import Field
from .linalg import Matrix, Subspace, _image, vec_is_zero

DEFAULT_CLOSURE_CAP = 1000

# Largest dimension taken from input files or family specs, checked before
# anything of that size (a structure tensor holds dim**3 scalars) is built.
MAX_DIM = 64


def _mult_coords(algebra: "LeibnizAlgebra", x: Sequence, y: Sequence) -> tuple:
    """Bilinear product of coordinate vectors through the structure tensor.

    Walks the nonzero coordinates of x and y and, for each pair (i, j), the
    nonzero constants of e_i e_j.
    """
    zero = algebra.field.zero()
    y_terms = list(compress(enumerate(y), y))
    out = None
    for xi, ci in compress(zip(x, algebra.structure), x):
        for j, yj in y_terms:
            cij = ci[j]
            if any(cij):
                if out is None:
                    out = [zero] * algebra.dim
                coeff = xi * yj
                for k, c in compress(enumerate(cij), cij):
                    out[k] += coeff * c
    if out is None:
        return (zero,) * algebra.dim
    return algebra.field.reduce_row(out)


@dataclass
class LeibnizValidation:
    """Outcome of the defining-identity check.

    ``violations`` holds 1-based triples ``(i, j, k)`` together with the
    coordinates of both sides of the identity at that triple.
    """

    ok: bool
    violations: list


def _add_combination(base: Matrix, coords: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """base + sum_t coords[t] mats[t], touching only the nonzero terms and
    reducing only the rows that received one."""
    rows = list(base.entries)
    touched = {}
    for c, m in zip(coords, mats):
        if not c:
            continue
        for i, ts in m._row_terms:
            acc = touched.get(i)
            if acc is None:
                acc = touched[i] = list(rows[i])
            for k, x in ts:
                acc[k] += c * x
    reduce_row = base.field.reduce_row
    for i, acc in touched.items():
        rows[i] = reduce_row(acc)
    return Matrix(base.field, base.rows, base.cols, tuple(rows))


def _combination(field: Field, size: int, coords: Sequence,
                 mats: Sequence[Matrix]) -> Matrix:
    """sum_t coords[t] mats[t] over size x size matrices: the operator of
    an element from the operators of the basis. A unit vector picks its
    matrix itself, whose row terms and transpose are then read once."""
    if coords.count(1) == 1 and coords.count(0) == len(coords) - 1:
        return mats[coords.index(1)]
    return _add_combination(Matrix.zero(field, size, size), coords, mats)


def validate_leibniz(structure, field: Field, n: int) -> LeibnizValidation:
    """Check x(yz) = (xy)z + y(xz) on all basis triples of the tensor.

    On z = e_k this is the operator identity L_i L_j = L_{e_i e_j} + L_j L_i
    for the pair (i, j), checked transposed,
    L_j^T L_i^T = L_{e_i e_j}^T + L_i^T L_j^T, on the L_i^T that the tensor
    already holds (row j of ``structure[i]`` is e_i e_j); row k of either
    side is the triple (i, j, k). Each pair is compared whole, and only a
    failing pair is split into its rows.
    """
    if len(structure) != n or any(
            len(ci) != n or any(len(cij) != n for cij in ci) for ci in structure):
        raise ShapeMismatch(f"structure tensor is not {n}x{n}x{n}")
    lts = [Matrix(field, n, n, ci) for ci in structure]
    violations = []

    def check(i, j, lhs, swapped):
        # lhs = (L_i L_j)^T and swapped = (L_j L_i)^T
        rhs = _add_combination(swapped, structure[i][j], lts)
        if lhs == rhs:
            return
        for k, (lrow, rrow) in enumerate(zip(lhs.entries, rhs.entries)):
            if lrow != rrow:
                violations.append((i + 1, j + 1, k + 1,
                                   tuple(map(field.to_str, lrow)),
                                   tuple(map(field.to_str, rrow))))

    # both products of a pair serve both of its orders; walking unordered
    # pairs keeps two products alive instead of all n^2
    for i in range(n):
        for j in range(i, n):
            p_ij = lts[j] @ lts[i]
            if j == i:
                check(i, i, p_ij, p_ij)
                continue
            p_ji = lts[i] @ lts[j]
            check(i, j, p_ij, p_ji)
            check(j, i, p_ji, p_ij)
    violations.sort(key=lambda v: v[:3])
    return LeibnizValidation(not violations, violations)


@dataclass(frozen=True)
class LeibnizAlgebra:
    """Finite dimensional Leibniz algebra over an exact field.

    Instances are immutable. Construction goes through :meth:`create`, which
    validates the defining identity and raises :class:`InvalidAlgebra` with
    the report when it fails.
    """

    field: Field
    dim: int
    structure: tuple  # normalized n x n x n tensor of scalars
    basis_names: tuple | None = None
    _cache: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def create(field: Field, structure,
               basis_names: Sequence[str] | None = None) -> "LeibnizAlgebra":
        n = len(structure)
        norm = tuple(tuple(tuple(map(field.normalize, cij)) for cij in ci)
                     for ci in structure)
        names = tuple(basis_names) if basis_names is not None else None
        if names is not None and len(names) != n:
            raise ShapeMismatch("basis_names length differs from dimension")
        report = validate_leibniz(norm, field, n)
        if not report.ok:
            raise InvalidAlgebra(report)
        return LeibnizAlgebra(field, n, norm, names)

    # -- elements ---------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, (self.field.zero(),) * self.dim)

    def basis_element(self, i: int) -> "Element":
        coords = tuple(self.field.one() if t == i else self.field.zero()
                       for t in range(self.dim))
        return Element(self, coords)

    def basis(self) -> list:
        return [self.basis_element(i) for i in range(self.dim)]

    def element(self, coords: Sequence) -> "Element":
        coords = tuple(map(self.field.normalize, coords))
        if len(coords) != self.dim:
            raise ShapeMismatch("coordinate length differs from dimension")
        return Element(self, coords)

    # -- multiplication operators ------------------------------------------

    def _operators(self) -> tuple:
        """(L^T, R^T, L, R): the multiplication operators of the basis, each
        a tuple of n matrices, read once per algebra off the tensor. Row j
        of L_{e_i}^T is ``structure[i][j]`` = e_i e_j, row j of R_{e_i}^T is
        e_j e_i, and L, R are their transposes (column j of L_{e_i} is
        e_i e_j)."""
        ops = self._cache.get("operators")
        if ops is None:
            n, f, c = self.dim, self.field, self.structure
            lts = tuple(Matrix(f, n, n, ci) for ci in c)
            rts = tuple(Matrix(f, n, n, tuple(cj[i] for cj in c))
                        for i in range(n))
            ops = self._cache["operators"] = (
                lts, rts, tuple(m.transpose() for m in lts),
                tuple(m.transpose() for m in rts))
        return ops

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)


@dataclass(frozen=True)
class Element:
    """Algebra element held as a coordinate vector over the basis."""

    algebra: LeibnizAlgebra
    coords: tuple

    def _check(self, other: "Element") -> None:
        if self.algebra is other.algebra:
            return
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        f = self.algebra.field
        return Element(self.algebra,
                       tuple(f.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        f = self.algebra.field
        return Element(self.algebra, tuple(f.neg(a) for a in self.coords))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra,
                       _mult_coords(self.algebra, self.coords, other.coords))

    def to_str(self) -> str:
        ts = self.algebra.field.to_str
        return "(" + ", ".join(ts(x) for x in self.coords) + ")"


def left_mult_matrix(a: Element) -> Matrix:
    """Matrix of x -> a x in the basis (columns are images of basis vectors)."""
    A = a.algebra
    return _combination(A.field, A.dim, a.coords, A._operators()[2])


def right_mult_matrix(a: Element) -> Matrix:
    """Matrix of x -> x a."""
    A = a.algebra
    return _combination(A.field, A.dim, a.coords, A._operators()[3])


def power(a: Element, k: int) -> Element:
    """a^1 = a and a^(k+1) = a * a^k."""
    if k < 1:
        raise InvalidExponent(f"powers start at 1, got {k}")
    result = a
    for _ in range(k - 1):
        result = a * result
    return result


@dataclass
class IdentityViolation:
    identity: str
    witness: dict


@dataclass
class IdentityReport:
    """Outcome of the multiplication-operator identity suite."""

    ok: bool
    violations: list


def _pair_identity_violations(algebra: LeibnizAlgebra, lefts: Sequence[Matrix],
                               rights: Sequence[Matrix], size: int,
                               names: Sequence[str]) -> list:
    """The four pair identities of :func:`verify_operator_identities` with
    L, R replaced by an action family T, S of size x size matrices, one per
    basis element, named by ``names`` in that order. Violations come pair
    by pair, in that order within a pair.
    """
    n, field = algebra.dim, algebra.field
    found = []
    for i in range(n):
        for j in range(i, n):
            # the orders (i, j) and (j, i) share T_j T_i and T_i T_j
            tt = {(j, i): lefts[j] @ lefts[i]}
            tt[i, j] = lefts[i] @ lefts[j] if i != j else tt[j, i]
            for b, c in {(i, j), (j, i)}:
                Tb, Sb, Sc = lefts[b], rights[b], rights[c]
                s_bc = _combination(field, size, algebra.structure[b][c],
                                    rights)
                ss, ts, st = Sc @ Sb, Tb @ Sc, Sc @ Tb
                sides = [
                    (s_bc, ss + ts),
                    (ts, st + s_bc),
                    (tt[c, b], _add_combination(tt[b, c],
                                                algebra.structure[c][b], lefts)),
                    (ss, -st),
                ]
                found += [(b, c, t) for t, (lhs, rhs) in enumerate(sides)
                          if lhs != rhs]
    found.sort()
    return [IdentityViolation(names[t], {"pair": (b + 1, c + 1)})
            for b, c, t in found]


def verify_operator_identities(algebra: LeibnizAlgebra) -> IdentityReport:
    """Check the operator consequences of the defining identity.

    For all basis pairs (b, c), writing L and R for left and right
    multiplication and bc for the product element:

    - right_mult_of_product:   R_{bc} = R_c R_b + L_b R_c
    - mixed_mult_commutation:  L_b R_c = R_c L_b + R_{bc}
    - left_mult_of_product:    L_c L_b = L_{cb} + L_b L_c
    - right_right_reduction:   R_c R_b = -(R_c L_b)

    and for every basis element a with n = dim:

    - left_mult_of_power_vanishes:  L_{a^i} = 0 for 2 <= i <= n + 1
    - right_power_reduction:        R_a^k = (-1)^(k-1) R_a L_a^(k-1), 2 <= k <= n

    Violations indicate an implementation bug on a validated algebra; they
    are collected, not raised.
    """
    A = algebra
    n = A.dim
    _, _, lefts, rights = A._operators()
    violations = _pair_identity_violations(
        A, lefts, rights, n,
        ("right_mult_of_product", "mixed_mult_commutation",
         "left_mult_of_product", "right_right_reduction"))

    for i in range(n):
        a = A.basis_element(i)
        La, Ra = lefts[i], rights[i]
        p = a
        for exp in range(2, n + 2):
            p = a * p
            if not left_mult_matrix(p).is_zero():
                violations.append(IdentityViolation(
                    "left_mult_of_power_vanishes",
                    {"basis": i + 1, "exponent": exp}))
        # r_pow = R_a^k and rl = R_a L_a^(k-1), both carried forward
        r_pow = rl = Ra
        sign = 1
        for k in range(2, n + 1):
            r_pow = r_pow @ Ra
            rl = rl @ La
            sign = -sign
            if r_pow != (rl if sign > 0 else -rl):
                violations.append(IdentityViolation(
                    "right_power_reduction", {"basis": i + 1, "exponent": k}))

    return IdentityReport(not violations, violations)


def subalgebra_generated(elements: Sequence[Element]) -> Subspace:
    """Smallest subspace containing the elements and closed under products.

    Each step adds the image of the current span U under the left
    multiplications L_u, u in the basis of U: span{u v : u, v in U}."""
    if not elements:
        raise AlgebraMismatch("need at least one generator")
    A = elements[0].algebra
    for x in elements[1:]:
        if x.algebra != A:
            raise AlgebraMismatch("generators from different algebras")
    current = Subspace.span(A.field, A.dim, [x.coords for x in elements])
    lts = A._operators()[0]
    # the whole algebra is closed under products
    while not current.is_full():
        grown = current + _image(current, [_combination(A.field, A.dim, u, lts)
                                           for u in current.basis])
        if grown == current:
            break
        current = grown
    return current


@dataclass(frozen=True)
class LieSet:
    """Finite list of distinct nonzero elements closed under products.

    Members are compared by exact coordinates; closure is not enforced at
    construction (see :func:`is_lie_set`).
    """

    algebra: LeibnizAlgebra
    members: tuple

    def __len__(self) -> int:
        return len(self.members)


def _prepare_members(elements: Sequence[Element]):
    if not elements:
        raise AlgebraMismatch("a Lie set needs at least one element")
    A = elements[0].algebra
    seen = {}
    for x in elements:
        if x.algebra != A:
            raise AlgebraMismatch("elements from different algebras")
        if x.is_zero():
            raise ValueError("Lie set members must be nonzero")
        seen.setdefault(x.coords, x)
    return A, list(seen.values())


@dataclass
class LieSetCheck:
    ok: bool
    witness: tuple | None  # (x, y) with x y neither zero nor a member


def _products_with(x: Element, ys: Matrix, right: bool = False) -> tuple:
    """The products x y for every row y of ``ys`` (y x with ``right``), as
    the rows of one matmul ys @ L_x^T (ys @ R_x^T), with L_x^T (R_x^T)
    combined from the cached transposes of the basis operators."""
    A = x.algebra
    return (ys @ _combination(A.field, A.dim, x.coords,
                              A._operators()[right])).entries


def is_lie_set(elements: Sequence[Element]) -> LieSetCheck:
    """Every pairwise product must be zero or exactly a listed member.

    The products x y of one member x with all members y come from one
    matmul; the first failing pair is reported, x outer and y inner.
    """
    A, members = _prepare_members(elements)
    coords = {x.coords for x in members}
    ys = Matrix(A.field, len(members), A.dim, tuple(y.coords for y in members))
    for x in members:
        for y, p in zip(members, _products_with(x, ys)):
            if any(p) and p not in coords:
                return LieSetCheck(False, (x, y))
    return LieSetCheck(True, None)


def lie_set_closure(elements: Sequence[Element],
                    cap: int = DEFAULT_CLOSURE_CAP) -> LieSet:
    """Adjoin nonzero products until closed; CapExceeded past ``cap`` members.

    Each round multiplies every frontier member x with the members present
    at the start of the round, x y and y x from one matmul per side, and
    adjoins new products in the order x, y, then x y before y x. A frontier
    member earlier than x already took both products with x as the outer
    member, so x skips it, and the square x x is taken on the left side
    only.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    A, members = _prepare_members(elements)
    coords = {x.coords for x in members}
    if len(members) > cap:
        raise CapExceeded(cap, len(members))
    frontier = list(members)
    while frontier:
        fresh = []
        rows = tuple(y.coords for y in members)
        old = len(rows) - len(frontier)
        for t, x in enumerate(frontier):
            # x is row ``old`` of the left side and left out of the right,
            # where ``()`` holds its place: the square x x is taken once
            ys = rows[:old] + rows[old + t:]
            lefts = _products_with(x, Matrix(A.field, len(ys), A.dim, ys))
            rights = _products_with(
                x, Matrix(A.field, len(ys) - 1, A.dim, ys[:old] + ys[old + 1:]),
                right=True)
            for pair in zip(lefts, rights[:old] + ((),) + rights[old:]):
                for p in pair:
                    if any(p) and p not in coords:
                        coords.add(p)
                        fresh.append(Element(A, p))
                        if len(coords) > cap:
                            raise CapExceeded(cap, len(coords))
        members.extend(fresh)
        frontier = fresh
    return LieSet(A, tuple(members))


def carrier_series(algebra: LeibnizAlgebra, carrier: Subspace) -> list:
    """Lower central series of a subspace with products taken in the algebra.

    The next term after T is span(S * T + T * S) for the carrier S: the
    image of T under L_s and R_s for s in the echelon basis of S, taken in
    one ``linalg._image`` step. For the whole algebra those operators are
    the cached basis operators themselves. For an ideal the terms decrease
    monotonically and the series ends at its first stable term. A carrier
    that is not even a subalgebra can make the step map cycle through
    subspaces without stabilizing, so the series cuts off at the first
    repeated term; either way it reaches zero exactly when the induced
    structure is nilpotent.

    The series of each carrier is computed once per algebra; each call
    returns a fresh list.
    """
    memo = algebra._cache.setdefault("series", {})
    series = memo.get(carrier)
    if series is None:
        lts, rts, _, _ = algebra._operators()
        if carrier.is_full():
            ops = lts + rts
        else:
            ops = [_combination(algebra.field, algebra.dim, s, family)
                   for s in carrier.basis for family in (lts, rts)]
        terms = [carrier]
        seen = {carrier.basis}
        while True:
            last = terms[-1]
            nxt = _image(last, ops)
            if nxt == last or nxt.basis in seen:
                break
            terms.append(nxt)
            seen.add(nxt.basis)
        series = memo[carrier] = tuple(terms)
    return list(series)


def series_nilpotency(series: Sequence[Subspace]) -> tuple:
    """(verdict, class) read from a series that ends at its first stable or
    repeated term: class c means term c is nonzero and term c+1 is 0."""
    if series[-1].is_zero():
        return True, len(series) - 1
    return False, None


def lower_central_series(algebra: LeibnizAlgebra) -> list:
    """Two-sided series: next term is span(A * T + T * A); stops once stable.

    The returned list starts at the whole algebra and ends with the first
    stable term (0 exactly when the algebra is nilpotent). It is the
    carrier series of the whole algebra, so it shares that cache.
    """
    return carrier_series(algebra, algebra.full_space())


def is_nilpotent_algebra(algebra: LeibnizAlgebra) -> tuple:
    """(verdict, class): class c means term c is nonzero and term c+1 is 0."""
    return series_nilpotency(lower_central_series(algebra))


def is_ideal(algebra: LeibnizAlgebra, carrier: Subspace) -> bool:
    """Both A * S and S * A must land back in S: S is invariant under every
    left and right multiplication by a basis element. The verdict of each
    carrier is computed once per algebra."""
    if carrier.ambient_dim != algebra.dim or carrier.field != algebra.field:
        raise ShapeMismatch("carrier does not sit inside the algebra")
    memo = algebra._cache.setdefault("ideal", {})
    verdict = memo.get(carrier)
    if verdict is None:
        lts, rts, _, _ = algebra._operators()
        verdict = memo[carrier] = carrier.contains_subspace(
            _image(carrier, lts + rts))
    return verdict


def mult_coords(algebra: LeibnizAlgebra, x: Sequence, y: Sequence) -> tuple:
    """Product of two coordinate vectors in the algebra."""
    return _mult_coords(algebra, x, y)
