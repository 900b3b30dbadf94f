"""Leibniz algebras given by structure constants.

An algebra is a tensor ``c`` with ``e_i * e_j = sum_k c[i][j][k] e_k`` over an
exact field. :meth:`LeibnizAlgebra.create` is the only public way in: it
validates the defining identity

    x(yz) = (xy)z + y(xz)

on all basis triples (bilinearity makes that sufficient) and raises
:class:`InvalidAlgebra` when it fails. On top of that sit multiplication
operators and the operator identities they satisfy, generated
subalgebras, Lie sets, the lower central series of a subspace
and the ideal test. An algebra's ``_cache`` holds its operators and, per
carrier, the series and the ideal verdict, each computed once, and
``create`` marks there that the defining identity holds.

The multiplication operators of the basis are read once per algebra off
the tensor when first needed, as by ``create``: row j of ``c[i]`` is e_i e_j,
so ``c[i]`` is L_{e_i}^T as it stands. Every product is taken from them,
with ``_combination`` building the operator of any element: x y is L_x
applied to y, the Lie sets take row y of Y @ L_x^T as x y (the closure
takes y x as a left product of y, and no product at all of an x with
L_x = 0, which every square is: (xx)z = 0), and the ideal test, the
regular bimodule and the identity suite use them as they are. The series
of a carrier is the image walk ``linalg._walk`` under such operators, the
generated subalgebra is the spin ``linalg._spin`` under those of the
generators, and the ideal test takes one image step ``linalg._image``.

One sparse contraction, ``_pair_identity_violations``, takes no matrix
product: it checks the pair identities of the identity suite on (L, R),
the bimodule axioms on (T, S), and the defining identity, which is the
pair identity L_{xy} = L_x L_y - L_y L_x, on (L, 0).
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, count
from typing import Callable, Sequence

from .errors import (AlgebraMismatch, CapExceeded, InvalidAlgebra,
                     ShapeMismatch)
from .fields import Field
from .linalg import Matrix, Subspace, _image, _spin, _walk

DEFAULT_CLOSURE_CAP = 1000

# Largest dimension taken from input files or family specs, checked before
# anything of that size (a structure tensor holds dim**3 scalars) is built.
MAX_DIM = 64

# Largest ``fuzz --count``, checked before any corpus item is built.
MAX_FUZZ_COUNT = 10_000


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


def validate_leibniz(structure, field: Field, n: int,
                     operators: Callable | None = None) -> LeibnizValidation:
    """Check x(yz) = (xy)z + y(xz) on all basis triples of the tensor.

    As operators the identity reads L_{xy} = L_x L_y - L_y L_x, the pair
    identity left_mult_of_product, and it is checked as that: by the pair
    contraction on the action family (T, S) = (L, 0), S passed as no
    matrices, where the other three pair identities vanish identically.
    Column k of the residual T_c T_b - T_{cb} - T_b T_c at the pair (b, c)
    is the residual of the triple (c, b, k), so each column that is nonzero
    after ``reduce_row`` is a violating triple, and only that triple has
    its two sides built.

    ``create`` passes its new algebra's ``_operators`` as ``operators``,
    called after the shape check, so they are read once, into its cache.
    """
    if len(structure) != n or any(
            len(ci) != n or any(len(cij) != n for cij in ci) for ci in structure):
        raise ShapeMismatch(f"structure tensor is not {n}x{n}x{n}")
    _, _, L, R = (operators or LeibnizAlgebra(field, n, structure)._operators)()
    found = _pair_identity_violations(field, L, L, (), n)
    triples = sorted((c, b, k) for b, c, _, cols in found for k in cols)
    c, to_str, violations = structure, field.to_str, []
    for i, j, k in triples:
        rhs = zip(R[k].apply(c[i][j]), L[j].apply(c[i][k]))
        violations.append((i + 1, j + 1, k + 1,
                           tuple(map(to_str, L[i].apply(c[j][k]))),
                           tuple(map(to_str, field.reduce_row(
                               [a + b for a, b in rhs])))))
    return LeibnizValidation(not violations, violations)


@dataclass(frozen=True)
class LeibnizAlgebra:
    """Finite dimensional Leibniz algebra over an exact field.

    Instances are immutable. Construction goes through :meth:`create`, which
    validates the defining identity and raises :class:`InvalidAlgebra` with
    the report when it fails; the family builders, valid by construction,
    skip to :meth:`_from_canonical`.
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
        if basis_names is not None and len(basis_names) != n:
            raise ShapeMismatch("basis_names length differs from dimension")
        algebra = LeibnizAlgebra._from_canonical(field, [
            [tuple(map(field.normalize, cij)) for cij in ci]
            for ci in structure], basis_names)
        report = validate_leibniz(algebra.structure, field, n,
                                  algebra._operators)
        if not report.ok:
            raise InvalidAlgebra(report)
        # the identity just checked is left_mult_of_product on the cached
        # operators, so the identity suite need not sum it again
        algebra._cache["left_mult_of_product"] = True
        return algebra

    @staticmethod
    def _from_canonical(field: Field, structure,
                        names: Sequence | None = None) -> "LeibnizAlgebra":
        """The algebra on a canonical tensor, with no ``normalize`` and no
        check: the caller vouches for both, as ``create`` does."""
        return LeibnizAlgebra(field, len(structure), tuple(
            tuple(map(tuple, ci)) for ci in structure),
            tuple(names) if names is not None else None)

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
        return not any(self.coords)

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra,
                       mult_coords(self.algebra, self.coords, other.coords))

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


@dataclass
class IdentityViolation:
    identity: str
    witness: dict


@dataclass
class IdentityReport:
    """Outcome of the multiplication-operator identity suite."""

    ok: bool
    violations: list


def _pair_identity_violations(field: Field, L: Sequence[Matrix],
                               lefts: Sequence[Matrix],
                               rights: Sequence[Matrix], size: int,
                               tt: bool = True) -> list:
    """The four pair identities of :func:`verify_operator_identities` with
    L, R replaced by an action family T, S of size x size matrices, one per
    basis element, the constants of the products read off the left
    multiplications ``L`` of the basis. Returns (b, c, identity, columns),
    sorted, for each identity (numbered in that order) that fails at a pair
    (b, c); ``columns`` holds the columns of its residual that are nonzero
    after ``reduce_row``.

    For one b at a time, the residuals (lhs - rhs) of the identities at
    every pair (b, c),

        S_{bc} - S_c S_b - T_b S_c,    T_b S_c - S_c T_b - S_{bc},
        T_c T_b - T_{cb} - T_b T_c,    S_c S_b + S_c T_b,

    are summed row by row in raw arithmetic, row r of X Y being
    sum_q X[r][q] Y_q. A product with b on the right walks the nonzero rows
    q of S_b and T_b and the entries of S_c, T_c in column q; one with b on
    the left walks the entries of T_b and the rows q of S_c, T_c. S_{bc}
    and T_{cb} walk the constants of e_b e_c (row t of L_b) and of e_c e_b
    (the L_c in column b) and the rows of S_t, T_t. The rows and entries of
    each family are indexed by that shared index once per call, so only
    nonzero products touch a row, and at most 4 n size rows of length size
    are alive. With S = 0, or no S at all, only the third identity has
    terms, and the loops that read S are skipped. With ``tt`` false the
    three loops of T T terms, which only the third identity has, are
    skipped: the caller knows that identity holds. An identity fails at
    (b, c) when one of its rows is nonzero after ``reduce_row``.
    """
    zero, reduce_row = field.zero(), field.reduce_row

    def index(family, width):
        # q -> (c, row q of the c-th matrix), and q -> (c, r, entry [r][q])
        by_row, by_col = [[] for _ in range(width)], [[] for _ in range(width)]
        for c, m in enumerate(family):
            for r, terms in m._row_terms:
                by_row[r].append((c, terms))
                for q, x in terms:
                    by_col[q].append((c, r, x))
        return by_row, by_col

    T = [m._row_terms for m in lefts]
    S = [m._row_terms for m in rights]
    (T_row, T_col), (S_row, S_col) = index(lefts, size), index(rights, size)
    L_col = T_col if L is lefts else index(L, len(L))[1]

    def add(x, terms, plus, minus):
        for t, y in terms:
            v = x * y
            plus[t] += v
            minus[t] -= v

    failed = defaultdict(set)  # (b, c, identity) -> nonzero columns
    for b in range(len(T)):
        # (c, identity, r) -> row r of that identity's residual at (b, c)
        res = defaultdict(lambda: [zero] * size)
        if tt:
            for q, terms in T[b]:
                for c, r, x in T_col[q]:  # T_c T_b
                    acc = res[c, 2, r]
                    for t, y in terms:
                        acc[t] += x * y
            for r, row in T[b]:
                for q, x in row:
                    for c, terms in T_row[q]:  # T_b T_c
                        acc = res[c, 2, r]
                        for t, y in terms:
                            acc[t] -= x * y
            for c, s, x in L_col[b]:  # T_{cb}
                for r, terms in T[s]:
                    acc = res[c, 2, r]
                    for t, y in terms:
                        acc[t] -= x * y
        if any(S):  # the other three identities vanish with S = 0
            for q, terms in S[b]:
                for c, r, x in S_col[q]:  # S_c S_b
                    add(x, terms, res[c, 3, r], res[c, 0, r])
            for q, terms in T[b]:
                for c, r, x in S_col[q]:  # S_c T_b
                    add(x, terms, res[c, 3, r], res[c, 1, r])
            for r, row in T[b]:
                for q, x in row:
                    for c, terms in S_row[q]:  # T_b S_c
                        add(x, terms, res[c, 1, r], res[c, 0, r])
            for t, consts in L[b]._row_terms:  # S_{bc}
                for r, terms in S[t]:
                    for c, x in consts:
                        add(x, terms, res[c, 0, r], res[c, 1, r])
        for (c, t, _), acc in res.items():
            row = reduce_row(acc)
            if any(row):
                failed[b, c, t].update(compress(count(), row))
    return [(*key, cols) for key, cols in sorted(failed.items())]


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

    The power walks of one basis element stop early: at the first a^i = 0,
    since every later power is 0 too, and once the right power identity
    holds at k = 2 (R_a^2 = -R_a L_a), since by induction and associativity
    alone R_a^(k+1) = R_a R_a^k = (-1)^(k-1) R_a^2 L_a^(k-1) = (-1)^k R_a L_a^k.
    After a failure at k = 2 the walk goes on, for the later witnesses,
    until R_a^k = 0 with the identity holding at k (both sides 0 from then).

    ``left_mult_of_product`` is the defining identity itself, so on an
    algebra that ``create`` validated, which marks its cache, that identity
    is not summed a second time; every other algebra gets all four.

    Violations indicate an implementation bug on a validated algebra; they
    are collected, not raised.
    """
    A = algebra
    n = A.dim
    _, _, lefts, rights = A._operators()
    names = ("right_mult_of_product", "mixed_mult_commutation",
             "left_mult_of_product", "right_right_reduction")
    violations = [IdentityViolation(names[t], {"pair": (b + 1, c + 1)})
                  for b, c, t, _ in _pair_identity_violations(
                      A.field, lefts, lefts, rights, n,
                      tt="left_mult_of_product" not in A._cache)]

    for i in range(n):
        a = A.basis_element(i)
        La, Ra = lefts[i], rights[i]
        p = a
        for exp in range(2, n + 2):
            p = a * p
            if p.is_zero():
                break
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
            elif k == 2 or r_pow.is_zero():
                break

    return IdentityReport(not violations, violations)


def subalgebra_generated(elements: Sequence[Element]) -> Subspace:
    """Smallest subspace containing the elements and closed under products.

    It is the spin ``linalg._spin`` of U = span(X), for the generators X,
    under the fixed operators L_u, u in the echelon basis of U: the
    smallest subspace W that contains X and is invariant under L_x for
    every x in X (invariance under the L_u is the same, by linearity).

    Why that W is closed under products: the defining identity
    x(yz) = (xy)z + y(xz) reads L_{xy} = L_x L_y - L_y L_x, so the subspace
    P = {a : L_a W lies in W} is closed under products. P contains X, so it
    contains the subalgebra generated by X, and that contains W (it
    contains X and each L_x maps it into itself). Hence L_w W lies in W for
    every w in W, and W is the subalgebra generated by X.
    """
    if not elements:
        raise AlgebraMismatch("need at least one generator")
    A = elements[0].algebra
    for x in elements[1:]:
        if x.algebra != A:
            raise AlgebraMismatch("generators from different algebras")
    span = Subspace.span(A.field, A.dim, [x.coords for x in elements])
    if span.is_full():  # closed already: no operator needs building
        return span
    lts = A._operators()[0]
    return _spin(span, [_combination(A.field, A.dim, u, lts)
                        for u in span.basis])


@dataclass(frozen=True)
class LieSet:
    """Finite list of distinct nonzero elements closed under products.

    Members are compared by exact coordinates; closure is not enforced at
    construction (see :func:`is_lie_set`). ``table``, set only by
    :func:`lie_set_closure`, is the multiplication table of the members:
    row i is an ``array('i')`` whose cell j is the member index of
    x_i x_j, or -1 for a zero product. A set with a table is closed by
    construction, and the table is its certificate. Row i is all -1
    whenever L_{x_i} = 0, as for every square x = y y, since the defining
    identity at x = y reads (yy)z = 0.
    """

    algebra: LeibnizAlgebra
    members: tuple
    table: tuple | None = dataclasses.field(default=None, compare=False)

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


def _products_with(x: Element, ys: Matrix) -> tuple:
    """The products x y for every row y of ``ys``, as the rows of one
    matmul ys @ L_x^T, with L_x^T combined from the cached transposes of
    the basis operators."""
    A = x.algebra
    return (ys @ _combination(A.field, A.dim, x.coords,
                              A._operators()[0])).entries


def is_lie_set(elements: Sequence[Element]) -> LieSetCheck:
    """Every pairwise product must be zero or exactly a listed member.

    This is the check for a list of elements that comes without a table,
    such as a user's ``--lieset``; the closure's table already certifies
    its own set. The products x y of one member x with all members y come
    from one matmul; the first failing pair is reported, x outer and y
    inner.
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

    The multiplication table (see :class:`LieSet`) is filled by rows, and
    only the rows of active members x, those with L_x != 0, take products;
    every other row is all -1. Most members of a closure are inactive: in a
    left Leibniz algebra every square lies in the left annihilator, since
    y = x in x(yz) = (xy)z + y(xz) gives (xx)z = 0. Each member's L_x^T is
    combined once, when it joins. An active row takes its new cells from
    one block product Y @ L_x^T, whose row y is x y: against every member
    for a member that joins this round, and against the round's new
    members for an older one. So y x is taken as a left product of y, and
    each ordered pair (x, y) with x active is multiplied once.

    New products join in the order of a round that multiplies each
    frontier member x with the members y present at its start, x y before
    y x, skipping the frontier members before x (they took both products
    with x already). A cell's key is (owner, 2 other + side): the owner is
    the frontier member of the pair, the earlier one when both are, and
    side is 0 for owner * other and 1 for other * owner. The products of a
    round that the index does not hold yet are walked in key order, so the
    members, the table and the point of CapExceeded are those of that pair
    by pair order; a skipped row holds only zero products, which never
    join.

    One dict maps coordinates to member indices, and the zero vector to
    -1; each block is looked up in it whole. The rows grow as lists and
    end as arrays of 4-byte cells: about 4 MB at the default cap.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    A, members = _prepare_members(elements)
    if len(members) > cap:
        raise CapExceeded(cap, len(members))
    field, dim, lts = A.field, A.dim, A._operators()[0]
    index = {x.coords: i for i, x in enumerate(members)}
    index[(field.zero(),) * dim] = -1
    active = {}  # member index -> (L_x^T, its table row so far)
    old = 0
    while old < len(members):  # members[old:] is the frontier
        n = len(members)
        ys = tuple(y.coords for y in members)
        # the first column each active row takes this round
        starts = dict.fromkeys(active, old)
        for a in range(old, n):
            lt = _combination(field, dim, ys[a], lts)
            if lt._row_terms:
                active[a] = lt, []
                starts[a] = 0
        pending = []  # (key, row, cell position, product) of new products
        for r, start in starts.items():
            lt, row = active[r]
            products = (Matrix(field, n - start, dim, ys[start:]) @ lt).entries
            cells = list(map(index.get, products))
            if None in cells:
                for c, cell, p in zip(count(start), cells, products):
                    if cell is None:
                        key = ((c, 2 * r + 1) if old <= c < r or r < old
                               else (r, 2 * c))
                        pending.append((key, row, len(row) + c - start, p))
            row.extend(cells)
        for _, row, i, p in sorted(pending):
            if p not in index:
                members.append(Element(A, p))
                index[p] = len(members) - 1
                if len(members) > cap:
                    raise CapExceeded(cap, len(members))
            row[i] = index[p]
        old = n
    return LieSet(A, tuple(members), tuple(
        array("i", active[i][1]) if i in active else array("i", [-1]) * old
        for i in range(old)))


def carrier_series(algebra: LeibnizAlgebra, carrier: Subspace) -> list:
    """Lower central series of a subspace with products taken in the algebra.

    The next term after T is span(S * T + T * S) for the carrier S, and
    that is span(S * T): the image of T under L_s for s in the echelon basis
    of S, so the series is the walk ``linalg._walk`` of S under those
    operators (for the whole algebra, whose echelon basis is the unit rows,
    the cached basis operators themselves). For an ideal the terms decrease
    monotonically and the series ends at its first stable term. A carrier that is not even a
    subalgebra can make the step map cycle through subspaces without
    stabilizing, so the series cuts off at the first repeated term; either
    way it reaches zero exactly when the induced structure is nilpotent.

    Why one side is enough, for any subspace S, ideal or not: let U_1 = S
    and U_{k+1} = span(S * U_k). Then U_i * U_j lies in U_{i+j}, by
    induction on i. For i = 1 it is the definition. For i > 1 take x in S,
    y in U_{i-1} and z in U_j; then (xy)z = x(yz) - y(xz), where yz lies in
    U_{i+j-1} and so x(yz) in U_{i+j}, and xz lies in U_{j+1} and so y(xz)
    in U_{i-1} * U_{j+1}, inside U_{i+j}. Hence if T = U_k, then T * S lies
    in U_{k+1} = span(S * T), and the two-sided step gives U_{k+1} too. The
    terms, and with them the point where the series stops, are those of
    the two-sided series.

    The series of each carrier is computed once per algebra; each call
    returns a fresh list.
    """
    memo = algebra._cache.setdefault("series", {})
    series = memo.get(carrier)
    if series is None:
        lts = algebra._operators()[0]
        ops = [_combination(algebra.field, algebra.dim, s, lts)
               for s in carrier.basis]
        series = memo[carrier] = tuple(_walk(carrier, ops))
    return list(series)


def series_nilpotency(series: Sequence[Subspace]) -> tuple:
    """(verdict, class) read from a series that ends at its first stable or
    repeated term: class c means term c is nonzero and term c+1 is 0."""
    if series[-1].is_zero():
        return True, len(series) - 1
    return False, None


def lower_central_series(algebra: LeibnizAlgebra) -> list:
    """Two-sided series: next term is span(A * T + T * A), which is
    span(A * T) (see :func:`carrier_series`); stops once stable.

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
    """Product of two coordinate vectors in the algebra: L_x, combined from
    the cached basis operators, applied to y."""
    return _combination(algebra.field, algebra.dim, x,
                        algebra._operators()[2]).apply(y)
