"""Leibniz algebras given by structure constants.

An algebra is a tensor ``c`` with ``e_i * e_j = sum_k c[i][j][k] e_k`` over an
exact field, validated against the defining identity

    x(yz) = (xy)z + y(xz)

on all basis triples (bilinearity makes that sufficient). On top of that sit
multiplication operators, element powers, generated subalgebras, Lie sets,
the lower central series and ideal tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from .errors import (AlgebraMismatch, CapExceeded, InvalidAlgebra,
                     InvalidExponent, ShapeMismatch)
from .fields import Field
from .linalg import Matrix, Subspace, vec_is_zero

DEFAULT_CLOSURE_CAP = 1000


def _mult_coords(field: Field, structure, x: Sequence, y: Sequence) -> tuple:
    """Bilinear product of coordinate vectors through the structure tensor."""
    n = len(x)
    add, mul = field.add, field.mul
    out = [field.zero()] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        ci = structure[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coeff = mul(xi, yj)
            for k, c in enumerate(ci[j]):
                if c != 0:
                    out[k] = add(out[k], mul(coeff, c))
    return tuple(out)


@dataclass
class LeibnizValidation:
    """Outcome of the defining-identity check.

    ``violations`` holds 1-based triples ``(i, j, k)`` together with the
    coordinates of both sides of the identity at that triple.
    """

    ok: bool
    violations: list

    def summary(self) -> str:
        if self.ok:
            return "defining identity holds on all basis triples"
        return f"{len(self.violations)} violating basis triples, first at " \
               f"{self.violations[0][:3]}"


def _left_mult_matrices(field: Field, structure) -> tuple:
    """L_{e_i} for every basis element: column j is e_i e_j."""
    n = len(structure)
    return tuple(Matrix.from_columns(field, [structure[i][j] for j in range(n)])
                 for i in range(n))


def _add_combination(base: Matrix, coords: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """base + sum_t coords[t] mats[t], touching only the nonzero terms."""
    add, mul = base.field.add, base.field.mul
    out = [list(row) for row in base.entries]
    for c, m in zip(coords, mats):
        if c == 0:
            continue
        for acc, row in zip(out, m.entries):
            for k, x in enumerate(row):
                if x != 0:
                    acc[k] = add(acc[k], mul(c, x))
    return Matrix(base.field, base.rows, base.cols, tuple(map(tuple, out)))


def validate_leibniz(structure, field: Field, n: int,
                     lefts: Sequence[Matrix] | None = None) -> LeibnizValidation:
    """Check x(yz) = (xy)z + y(xz) on all basis triples of the tensor.

    On z = e_k this is the operator identity L_i L_j = L_{e_i e_j} + L_j L_i
    for the pair (i, j), whose column k is the triple (i, j, k). Each pair is
    compared whole, and only a failing pair is split into its columns.
    ``lefts`` may pass the matrices L_i already built from the tensor.
    """
    if len(structure) != n or any(
            len(ci) != n or any(len(cij) != n for cij in ci) for ci in structure):
        raise ShapeMismatch(f"structure tensor is not {n}x{n}x{n}")
    if lefts is None:
        lefts = _left_mult_matrices(field, structure)
    violations = []

    def check(i, j, lhs, swapped):
        # lhs = L_i L_j and swapped = L_j L_i
        rhs = _add_combination(swapped, structure[i][j], lefts)
        if lhs == rhs:
            return
        for k in range(n):
            lcol, rcol = lhs.column(k), rhs.column(k)
            if lcol != rcol:
                violations.append((i + 1, j + 1, k + 1,
                                   tuple(field.to_str(x) for x in lcol),
                                   tuple(field.to_str(x) for x in rcol)))

    # both products of a pair serve both of its orders; walking unordered
    # pairs keeps two products alive instead of all n^2
    for i in range(n):
        for j in range(i, n):
            p_ij = lefts[i] @ lefts[j]
            if j == i:
                check(i, i, p_ij, p_ij)
                continue
            p_ji = lefts[j] @ lefts[i]
            check(i, j, p_ij, p_ji)
            check(j, i, p_ji, p_ij)
    violations.sort(key=lambda v: v[:3])
    return LeibnizValidation(not violations, violations)


@dataclass(frozen=True)
class LeibnizAlgebra:
    """Finite dimensional Leibniz algebra over an exact field.

    Instances are immutable. Construction goes through :meth:`create`, which
    validates the defining identity unless ``unvalidated=True`` is passed
    (needed to exercise the validator on negatives).
    """

    field: Field
    dim: int
    structure: tuple  # normalized n x n x n tensor of scalars
    basis_names: tuple | None = None
    validated: bool = True
    _cache: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def create(field: Field, structure, basis_names: Sequence[str] | None = None,
               unvalidated: bool = False) -> "LeibnizAlgebra":
        n = len(structure)
        norm = tuple(tuple(tuple(field.normalize(x) for x in cij) for cij in ci)
                     for ci in structure)
        if any(len(ci) != n or any(len(cij) != n for cij in ci) for ci in norm):
            raise ShapeMismatch(f"structure tensor is not {n}x{n}x{n}")
        names = tuple(basis_names) if basis_names is not None else None
        if names is not None and len(names) != n:
            raise ShapeMismatch("basis_names length differs from dimension")
        lefts = _left_mult_matrices(field, norm)
        if not unvalidated:
            report = validate_leibniz(norm, field, n, lefts)
            if not report.ok:
                raise InvalidAlgebra(report)
        return LeibnizAlgebra(field, n, norm, names, validated=not unvalidated,
                              _cache={"lefts": lefts})

    def name(self, i: int) -> str:
        if self.basis_names is not None:
            return self.basis_names[i]
        return f"e{i + 1}"

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
        coords = tuple(self.field.normalize(x) for x in coords)
        if len(coords) != self.dim:
            raise ShapeMismatch("coordinate length differs from dimension")
        return Element(self, coords)

    # -- multiplication operators ------------------------------------------

    def _basis_mult_matrices(self) -> tuple:
        cached = self._cache.get("mult_matrices")
        if cached is None:
            n, f = self.dim, self.field
            lefts = self._cache.get("lefts") or \
                _left_mult_matrices(f, self.structure)
            # column j of R_{e_i} is e_j e_i
            rights = tuple(Matrix.from_columns(f, [self.structure[j][i]
                                                   for j in range(n)])
                           for i in range(n))
            cached = (lefts, rights)
            self._cache["mult_matrices"] = cached
        return cached

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

    def scale(self, c) -> "Element":
        f = self.algebra.field
        c = f.normalize(c)
        return Element(self.algebra, tuple(f.mul(c, a) for a in self.coords))

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra,
                       _mult_coords(self.algebra.field, self.algebra.structure,
                                    self.coords, other.coords))

    def to_str(self) -> str:
        ts = self.algebra.field.to_str
        return "(" + ", ".join(ts(x) for x in self.coords) + ")"


def left_mult_matrix(a: Element) -> Matrix:
    """Matrix of x -> a x in the basis (columns are images of basis vectors)."""
    lefts, _ = a.algebra._basis_mult_matrices()
    return _combine(a, lefts)


def right_mult_matrix(a: Element) -> Matrix:
    """Matrix of x -> x a."""
    _, rights = a.algebra._basis_mult_matrices()
    return _combine(a, rights)


def _combine(a: Element, mats: Sequence[Matrix]) -> Matrix:
    n = a.algebra.dim
    return _add_combination(Matrix.zero(a.algebra.field, n, n), a.coords, mats)


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

    def first(self) -> IdentityViolation | None:
        return self.violations[0] if self.violations else None


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
    lefts, rights = A._basis_mult_matrices()
    zero = Matrix.zero(A.field, n, n)
    violations = []

    for b in range(n):
        for c in range(n):
            Lb, Rb, Lc, Rc = lefts[b], rights[b], lefts[c], rights[c]
            r_bc = _add_combination(zero, A.structure[b][c], rights)
            l_cb = _add_combination(zero, A.structure[c][b], lefts)
            checks = [
                ("right_mult_of_product", r_bc, Rc @ Rb + Lb @ Rc),
                ("mixed_mult_commutation", Lb @ Rc, Rc @ Lb + r_bc),
                ("left_mult_of_product", Lc @ Lb, l_cb + Lb @ Lc),
                ("right_right_reduction", Rc @ Rb, -(Rc @ Lb)),
            ]
            for name, lhs, rhs in checks:
                if lhs != rhs:
                    violations.append(IdentityViolation(
                        name, {"pair": (b + 1, c + 1)}))

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
        r_pow = Ra
        l_pow = Matrix.identity(A.field, n)
        sign = 1
        for k in range(2, n + 1):
            r_pow = r_pow @ Ra
            l_pow = l_pow @ La
            sign = -sign
            expected = Ra @ l_pow
            if sign < 0:
                expected = -expected
            if r_pow != expected:
                violations.append(IdentityViolation(
                    "right_power_reduction", {"basis": i + 1, "exponent": k}))

    return IdentityReport(not violations, violations)


def product_span(algebra: LeibnizAlgebra, left: Subspace, right: Subspace) -> Subspace:
    """span{u v : u in basis(left), v in basis(right)}."""
    f, c = algebra.field, algebra.structure
    vecs = [_mult_coords(f, c, u, v) for u in left.basis for v in right.basis]
    return Subspace.span(f, algebra.dim, vecs)


def subalgebra_generated(elements: Sequence[Element]) -> Subspace:
    """Smallest subspace containing the elements and closed under products."""
    if not elements:
        raise AlgebraMismatch("need at least one generator")
    A = elements[0].algebra
    for x in elements[1:]:
        if x.algebra != A:
            raise AlgebraMismatch("generators from different algebras")
    current = Subspace.span(A.field, A.dim, [x.coords for x in elements])
    while True:
        grown = current + product_span(A, current, current)
        if grown == current:
            return current
        current = grown


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


def is_lie_set(elements: Sequence[Element]) -> LieSetCheck:
    """Every pairwise product must be zero or exactly a listed member."""
    A, members = _prepare_members(elements)
    coords = {x.coords for x in members}
    for x in members:
        for y in members:
            p = x * y
            if not p.is_zero() and p.coords not in coords:
                return LieSetCheck(False, (x, y))
    return LieSetCheck(True, None)


def lie_set_closure(elements: Sequence[Element],
                    cap: int = DEFAULT_CLOSURE_CAP) -> LieSet:
    """Adjoin nonzero products until closed; CapExceeded past ``cap`` members."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    A, members = _prepare_members(elements)
    coords = {x.coords for x in members}
    if len(members) > cap:
        raise CapExceeded(cap, len(members))
    frontier = list(members)
    while frontier:
        fresh = []
        for x in frontier:
            for y in members:
                for p in (x * y, y * x):
                    if not p.is_zero() and p.coords not in coords:
                        coords.add(p.coords)
                        fresh.append(p)
                        if len(coords) > cap:
                            raise CapExceeded(cap, len(coords))
        members.extend(fresh)
        frontier = fresh
    return LieSet(A, tuple(members))


def lower_central_series(algebra: LeibnizAlgebra) -> list:
    """Two-sided series: next term is span(A * T + T * A); stops once stable.

    The returned list starts at the whole algebra and ends with the first
    stable term (0 exactly when the algebra is nilpotent).
    """
    full = algebra.full_space()
    series = [full]
    while True:
        last = series[-1]
        nxt = product_span(algebra, full, last) + product_span(algebra, last, full)
        if nxt == last:
            break
        series.append(nxt)
    return series


def is_nilpotent_algebra(algebra: LeibnizAlgebra) -> tuple:
    """(verdict, class): class c means term c is nonzero and term c+1 is 0."""
    series = lower_central_series(algebra)
    if series[-1].is_zero():
        return True, len(series) - 1
    return False, None


def is_ideal(algebra: LeibnizAlgebra, carrier: Subspace) -> bool:
    """Both A * S and S * A must land back in S."""
    if carrier.ambient_dim != algebra.dim or carrier.field != algebra.field:
        raise ShapeMismatch("carrier does not sit inside the algebra")
    f, c = algebra.field, algebra.structure
    n = algebra.dim
    for s in carrier.basis:
        for i in range(n):
            ei = tuple(f.one() if t == i else f.zero() for t in range(n))
            if not carrier.contains(_mult_coords(f, c, ei, s)):
                return False
            if not carrier.contains(_mult_coords(f, c, s, ei)):
                return False
    return True


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, carried as a subspace of the algebra."""

    algebra: LeibnizAlgebra
    carrier: Subspace


def mult_coords(algebra: LeibnizAlgebra, x: Sequence, y: Sequence) -> tuple:
    """Product of two coordinate vectors in the algebra."""
    return _mult_coords(algebra.field, algebra.structure, x, y)
