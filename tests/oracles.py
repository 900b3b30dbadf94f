"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's subspace/series machinery: nilpotency
is decided by evaluating every parenthesized product of basis elements, flag
length by multiplying out every operator word, the nilpotency index of an
operator algebra by span-closing it in the m*m-dim matrix space, the
defining identity triple by triple, the ideal property one basis product at
a time, the operator pair identities with every matrix product written
out, and the power identities with L_a^(k-1) multiplied up from the
identity matrix, every one of them computed on every tensor, whatever the
others give. They exist to cross-check the production algorithms, so they
must stay dumb.

The per-scalar kernels below (matrix product, transpose read column by
column, matrix-vector product, row reduction, the product of coordinate
vectors, the linear combination of matrices, and the flag built from every
Lie set member) are the textbook loops the sparse library kernels replaced:
one field method call per scalar operation. The derivation and
automorphism checks and the basis change take one product of basis images
per pair (i, j), as they did before each became one operator identity per
basis element. The Lie set check and closure multiply one pair of members at a
time, as they did before the products of a member with the whole set came
from one matrix product. The quotient projection is read off the inverse of the basis
completed by unit vectors, as it was before it was read off the echelon
basis directly. The spun submodule and the invariance test take the image
of a subspace one action and one basis vector at a time, as they did
before the images came from one matrix product per action. The generated
subalgebra grows by the products of every pair of basis vectors of the
current span, a round at a time, as it did before it became the spin under
the fixed operators of the generators. The lower central series of a
carrier takes span(S T + T S) one product of basis vectors per pair, as it
did before each step became one image under the multiplication operators
of the carrier's basis, and the flag stacks the projected actions level
by level, as it did before it became the annihilator of the dual image
walk. ``left_actions_nilpotent_per_member`` builds and powers T_c for
every member of a Lie set, the loop the premise check runs, kept apart
from it to check the certificates that let corollary 3 and theorem 2
skip that loop.
``fuzz_data_per_item`` runs the checks of ``fuzz`` on every
corpus item from scratch, as ``fuzz`` did before it verified each
distinct algebra and module once per call, and ``fuzz_corpus_per_item``
builds every corpus item in full, as the corpus did before it was drawn
as specs and built once per distinct spec and draw.

``unchecked_algebra`` builds the non-Leibniz tensors the validators are
tested on, which ``LeibnizAlgebra.create`` refuses.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from leibniz_engel.algebra import (LeibnizAlgebra, lower_central_series,
                                   mult_coords, series_nilpotency)
from leibniz_engel.bimodule import (quotient_bimodule, regular_bimodule,
                                    s_matrix, submodule_generated, t_matrix)
from leibniz_engel.corollaries import corollary3_check, nilradical_from_family
from leibniz_engel.engel import Flag, theorem2_verify
from leibniz_engel.reports import PASS, THEOREM_VIOLATION
from leibniz_engel.errors import CapExceeded, FlagStalled
from leibniz_engel.families import (abelian, basis_change, cyclic,
                                    direct_sum, heisenberg3, sol2)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import (Matrix, Subspace, invert,
                                  is_nilpotent_matrix, kernel_basis)


def unchecked_algebra(field, structure) -> LeibnizAlgebra:
    """An algebra on any n x n x n tensor, the defining identity unchecked:
    the tensor is normalized and handed to the dataclass constructor."""
    norm = tuple(tuple(tuple(map(field.normalize, cij)) for cij in ci)
                 for ci in structure)
    return LeibnizAlgebra(field, len(norm), norm)


def products_of_length(algebra: LeibnizAlgebra, length: int) -> set:
    """Values of all length-k products of basis elements, every
    parenthesization: any product splits at the top into a length-i and a
    length-(k-i) product, so dynamic programming over split sizes covers
    every binary tree."""
    n = algebra.dim
    f = algebra.field
    basis = {tuple(f.one() if t == i else f.zero() for t in range(n))
             for i in range(n)}
    values = {1: basis}
    for k in range(2, length + 1):
        vals = set()
        for i in range(1, k):
            for u in values[i]:
                for v in values[k - i]:
                    vals.add(mult_coords(algebra, u, v))
        values[k] = vals
    return values[length]


def brute_force_nilpotent(algebra: LeibnizAlgebra) -> bool:
    """Nilpotent iff every product of dim+1 basis elements vanishes."""
    return all(all(x == 0 for x in v)
               for v in products_of_length(algebra, algebra.dim + 1))


def min_vanishing_word_length(operators: list, cap: int) -> int | None:
    """Least k <= cap with every length-k word in the operators zero.

    Words are left-to-right products, enumerated exhaustively with value
    deduplication; any valid annihilator flag of length k forces all
    length-k words to vanish and conversely, so this is the minimal flag
    length when it exists.
    """
    if not operators:
        return 1
    field, size = operators[0].field, operators[0].rows

    def to_mat(entries):
        return Matrix(field, size, size, entries)

    words = {m.entries for m in operators}
    for k in range(1, cap + 1):
        if all(to_mat(e).is_zero() for e in words):
            return k
        words = {(g @ to_mat(e)).entries for g in operators for e in words}
    return None


class OperatorClosure(NamedTuple):
    """Linear basis of the matrix algebra the generators span-close to.

    ``power_dims`` lists the dimensions of W_1 (the whole algebra), W_2 =
    span(W_1 W_1), ... up to the first zero or repeated value; ``index`` is
    the least j with W_j = 0, or None when the powers stall above zero.
    """

    basis: tuple
    index: int | None
    power_dims: tuple


class _Echelon:
    """Incremental independence test over flattened matrices."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # (leading column, echelon row)

    def insert(self, m: Matrix) -> bool:
        field = self.field
        work = [x for row in m.entries for x in row]
        for lead, row in self.rows:
            if work[lead] != 0:
                f = work[lead]
                work = [field.sub(x, field.mul(f, y)) for x, y in zip(work, row)]
        lead = next((j for j, x in enumerate(work) if x != 0), None)
        if lead is None:
            return False
        inv = field.inv(work[lead])
        self.rows.append((lead, [field.mul(inv, x) for x in work]))
        return True


def operator_algebra_closure(generators: list) -> OperatorClosure:
    """Span-close the generators under two-sided products in the m*m-dim
    matrix space, then walk the power filtration W_{j+1} = span(gens W_j)
    (every product of j+1 or more factors is a generator times a product of
    j or more factors)."""
    field = generators[0].field
    tracker = _Echelon(field)
    basis = [g for g in generators if tracker.insert(g)]
    queue = list(basis)
    while queue:
        w = queue.pop(0)
        for g in generators:
            for prod in (g @ w, w @ g):
                if tracker.insert(prod):
                    basis.append(prod)
                    queue.append(prod)
    if not basis:
        return OperatorClosure((), 1, (0,))
    power_dims = [len(basis)]
    current = basis
    while True:
        step = _Echelon(field)
        current = [p for p in (g @ w for g in generators for w in current)
                   if step.insert(p)]
        power_dims.append(len(current))
        if not current:
            return OperatorClosure(tuple(basis), len(power_dims),
                                   tuple(power_dims))
        if len(current) == power_dims[-2]:
            return OperatorClosure(tuple(basis), None, tuple(power_dims))


def leibniz_triple_violations(structure, field, n: int) -> list:
    """The defining identity e_i(e_j e_k) = (e_i e_j)e_k + e_j(e_i e_k),
    evaluated triple by triple through the tensor, in the violation format
    of ``validate_leibniz``."""

    def product(x, y):
        out = [field.zero()] * n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi != 0 and yj != 0:
                    for k, c in enumerate(structure[i][j]):
                        out[k] = field.add(out[k],
                                           field.mul(field.mul(xi, yj), c))
        return out

    def unit(i):
        return [field.one() if t == i else field.zero() for t in range(n)]

    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = product(unit(i), structure[j][k])
                rhs = [field.add(a, b) for a, b in
                       zip(product(structure[i][j], unit(k)),
                           product(unit(j), structure[i][k]))]
                if lhs != rhs:
                    violations.append((i + 1, j + 1, k + 1,
                                       tuple(field.to_str(x) for x in lhs),
                                       tuple(field.to_str(x) for x in rhs)))
    return violations


def ideal_by_unit_vectors(algebra: LeibnizAlgebra, carrier) -> bool:
    """e_i s and s e_i lie in the carrier for every unit vector e_i and
    every basis vector s of the carrier, one membership test each."""
    f, n = algebra.field, algebra.dim
    for s in carrier.basis:
        for i in range(n):
            ei = tuple(f.one() if t == i else f.zero() for t in range(n))
            if not carrier.contains(mult_coords(algebra, ei, s)):
                return False
            if not carrier.contains(mult_coords(algebra, s, ei)):
                return False
    return True


def operator_pair_violations(structure, lefts: list, rights: list,
                             names: tuple) -> list:
    """(name, pair) for each failing pair identity of an action family:

    - S_{bc} = S_c S_b + T_b S_c
    - T_b S_c = S_c T_b + S_{bc}
    - T_c T_b = T_{cb} + T_b T_c
    - S_c S_b = -(S_c T_b)

    for all basis pairs (b, c), labelled by ``names`` in this order, pair by
    pair. The actions of the product elements are sums of scaled matrices."""
    n = len(structure)
    field, size = lefts[0].field, lefts[0].rows

    def action(coords, mats):
        entries = [[field.zero()] * size for _ in range(size)]
        for coeff, m in zip(coords, mats):
            for r, row in enumerate(m.entries):
                for s, a in enumerate(row):
                    entries[r][s] = field.add(entries[r][s],
                                              field.mul(coeff, a))
        return Matrix.from_rows(field, entries)

    T, S = lefts, rights
    violations = []
    for b in range(n):
        for c in range(n):
            s_bc = action(structure[b][c], S)
            t_cb = action(structure[c][b], T)
            checks = [
                (s_bc, S[c] @ S[b] + T[b] @ S[c]),
                (T[b] @ S[c], S[c] @ T[b] + s_bc),
                (T[c] @ T[b], t_cb + T[b] @ T[c]),
                (S[c] @ S[b], -(S[c] @ T[b])),
            ]
            for name, (lhs, rhs) in zip(names, checks):
                if lhs != rhs:
                    violations.append((name, (b + 1, c + 1)))
    return violations


def power_identity_violations(algebra: LeibnizAlgebra) -> list:
    """(name, basis, exponent) for each failing power identity of
    ``verify_operator_identities``, in its order:

    - left_mult_of_power_vanishes:  L_{a^i} = 0 for 2 <= i <= n + 1
    - right_power_reduction:        R_a^k = (-1)^(k-1) R_a L_a^(k-1), 2 <= k <= n

    for every basis element a, with L_x and R_x built column by column from
    products of coordinate vectors and three matrix products per exponent
    (R_a^k, L_a^(k-1) from the identity matrix, and R_a L_a^(k-1))."""
    f, n = algebra.field, algebra.dim
    units = [tuple(f.one() if t == i else f.zero() for t in range(n))
             for i in range(n)]

    def left(x):
        return Matrix.from_rows(
            f, [mult_coords(algebra, x, e) for e in units]).transpose()

    def right(x):
        return Matrix.from_rows(
            f, [mult_coords(algebra, e, x) for e in units]).transpose()

    violations = []
    for i, a in enumerate(units):
        p = a
        for exp in range(2, n + 2):
            p = mult_coords(algebra, a, p)
            if not left(p).is_zero():
                violations.append(("left_mult_of_power_vanishes", i + 1, exp))
        La, Ra = left(a), right(a)
        r_pow, l_pow = Ra, Matrix.identity(f, n)
        for k in range(2, n + 1):
            r_pow = r_pow @ Ra
            l_pow = l_pow @ La
            expected = Ra @ l_pow
            if k % 2 == 0:
                expected = -expected
            if r_pow != expected:
                violations.append(("right_power_reduction", i + 1, k))
    return violations


def operator_suite_violations(algebra: LeibnizAlgebra) -> tuple:
    """(pair violations, power violations) of the whole identity suite of
    ``verify_operator_identities``, each an (identity, witness) list in its
    order: the pair identities of L and R, read column by column off the
    tensor, by ``operator_pair_violations``, and the power identities by
    ``power_identity_violations``. Every identity is computed, whatever
    the other list holds."""
    c, n, f = algebra.structure, algebra.dim, algebra.field
    names = ("right_mult_of_product", "mixed_mult_commutation",
             "left_mult_of_product", "right_right_reduction")
    lefts = [Matrix.from_rows(f, [c[i][j] for j in range(n)]).transpose()
             for i in range(n)]
    rights = [Matrix.from_rows(f, [c[j][i] for j in range(n)]).transpose()
              for i in range(n)]
    pairs = operator_pair_violations(c, lefts, rights, names) if n else []
    return ([(name, {"pair": pair}) for name, pair in pairs],
            [(name, {"basis": i, "exponent": k})
             for name, i, k in power_identity_violations(algebra)])


def matmul_per_scalar(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with one field call per scalar operation."""
    add, mul, zero = a.field.add, a.field.mul, a.field.zero()
    out = []
    for row in a.entries:
        acc = [zero] * b.cols
        for k, x in enumerate(row):
            if x == 0:
                continue
            for j, y in enumerate(b.entries[k]):
                if y != 0:
                    acc[j] = add(acc[j], mul(x, y))
        out.append(tuple(acc))
    return Matrix(a.field, a.rows, b.cols, tuple(out))


def _columns(m: Matrix) -> list:
    return [tuple(row[j] for row in m.entries) for j in range(m.cols)]


def transpose_per_column(m: Matrix) -> Matrix:
    """The transpose, row j built from column j of ``m``."""
    return Matrix(m.field, m.cols, m.rows, tuple(_columns(m)))


def apply_per_scalar(m: Matrix, v) -> tuple:
    """m times the column vector v."""
    add, mul, zero = m.field.add, m.field.mul, m.field.zero()
    out = []
    for row in m.entries:
        s = zero
        for a, x in zip(row, v):
            if a != 0 and x != 0:
                s = add(s, mul(a, x))
        out.append(s)
    return tuple(out)


def rref_per_scalar(m: Matrix) -> tuple:
    """(reduced matrix, rank, pivot columns) by textbook Gauss-Jordan."""
    field = m.field
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    reduced = Matrix(field, m.rows, m.cols, tuple(tuple(row) for row in rows))
    return reduced, len(pivots), tuple(pivots)


def mult_coords_per_scalar(field, structure, x, y) -> tuple:
    """sum_{i,j,k} x_i y_j c[i][j][k] e_k, term by term."""
    out = [field.zero()] * len(x)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi == 0 or yj == 0:
                continue
            coeff = field.mul(xi, yj)
            for k, c in enumerate(structure[i][j]):
                if c != 0:
                    out[k] = field.add(out[k], field.mul(coeff, c))
    return tuple(out)


def _map_witness(field, i, j, lhs, rhs) -> dict:
    return {"pair": (i + 1, j + 1), "lhs": [field.to_str(x) for x in lhs],
            "rhs": [field.to_str(x) for x in rhs]}


def derivation_check_per_pair(algebra: LeibnizAlgebra, d: Matrix) -> tuple:
    """(ok, witness) of D(e_i e_j) = D(e_i) e_j + e_i D(e_j), one basis
    pair (i, j) at a time, i outer; the witness is the first failing pair."""
    f, n, c = algebra.field, algebra.dim, algebra.structure
    cols = _columns(d)
    units = [tuple(f.one() if t == i else f.zero() for t in range(n))
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = apply_per_scalar(d, c[i][j])
            rhs = tuple(map(f.add,
                            mult_coords_per_scalar(f, c, cols[i], units[j]),
                            mult_coords_per_scalar(f, c, units[i], cols[j])))
            if lhs != rhs:
                return False, _map_witness(f, i, j, lhs, rhs)
    return True, None


def automorphism_check_per_pair(algebra: LeibnizAlgebra, t: Matrix) -> tuple:
    """(ok, witness) of T(e_i e_j) = T(e_i) T(e_j), one basis pair at a
    time, after the rank test of the library."""
    f, n, c = algebra.field, algebra.dim, algebra.structure
    if rref_per_scalar(t)[1] != n:
        return False, {"singular": True}
    cols = _columns(t)
    for i in range(n):
        for j in range(n):
            lhs = apply_per_scalar(t, c[i][j])
            rhs = mult_coords_per_scalar(f, c, cols[i], cols[j])
            if lhs != rhs:
                return False, _map_witness(f, i, j, lhs, rhs)
    return True, None


def basis_change_per_pair(base: LeibnizAlgebra, p: Matrix) -> tuple:
    """Structure constants in the basis of the columns P e_i of the
    invertible P: e'_i e'_j = P^-1 ((P e_i)(P e_j)), one pair at a time."""
    f, c = base.field, base.structure
    cols, p_inv = _columns(p), invert(p)
    return tuple(tuple(apply_per_scalar(p_inv, mult_coords_per_scalar(
        f, c, x, y)) for y in cols) for x in cols)


def add_combination_per_scalar(base: Matrix, coords, mats) -> Matrix:
    """base + sum_t coords[t] mats[t], entry by entry."""
    add, mul = base.field.add, base.field.mul
    out = [list(row) for row in base.entries]
    for c, m in zip(coords, mats):
        for acc, row in zip(out, m.entries):
            for k, x in enumerate(row):
                acc[k] = add(acc[k], mul(c, x))
    return Matrix(base.field, base.rows, base.cols, tuple(map(tuple, out)))


def _distinct_members(elements) -> list:
    """The elements in order, each coordinate vector once."""
    seen = {}
    for x in elements:
        seen.setdefault(x.coords, x)
    return list(seen.values())


def lie_set_check_per_pair(elements) -> tuple:
    """(ok, witness) of the Lie set test, one product per pair of members,
    x outer and y inner: the witness is the first (x, y) whose product is
    neither zero nor a member."""
    members = _distinct_members(elements)
    coords = {x.coords for x in members}
    for x in members:
        for y in members:
            p = x * y
            if not p.is_zero() and p.coords not in coords:
                return False, (x, y)
    return True, None


def lie_set_closure_per_pair(elements, cap: int) -> tuple:
    """Members of the closure, adjoined one pair product at a time: each
    round takes every new member x against the members present at the
    start of the round, x y before y x. Raises CapExceeded past ``cap``."""
    members = _distinct_members(elements)
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
    return tuple(members)


def engel_flag_all_members(module, generators) -> Flag:
    """The joint-preimage flag with the conditions of every generator
    stacked, one action pair per member rather than per basis vector of
    their span: level i+1 is the kernel of the blocks q T and q S stacked
    for the projection q onto the module modulo level i. Raises FlagStalled
    like ``engel_flag``."""
    field, m = module.algebra.field, module.module_dim
    pairs = [(t_matrix(module, c), s_matrix(module, c)) for c in generators]
    chain = [Subspace.zero(field, m)]
    while not chain[-1].is_full():
        q, _ = chain[-1].quotient_data()
        rows = tuple(row for pair in pairs for mat in pair
                     for row in (q @ mat).entries)
        nxt = kernel_basis(Matrix(field, len(rows), m, rows))
        if nxt == chain[-1]:
            raise FlagStalled(len(chain), nxt.dim, m)
        chain.append(nxt)
    return Flag(tuple(chain))


def left_actions_nilpotent_per_member(module, members) -> tuple:
    """(ok, witness) of the premise that every member acts nilpotently on
    the left: T_c built and powered for each member in order; the witness
    is the first member whose T_c is not nilpotent, as its string."""
    for c in members:
        if not is_nilpotent_matrix(t_matrix(module, c)).verdict:
            return False, c.to_str()
    return True, None


def product_span_per_pair(algebra: LeibnizAlgebra, left: Subspace,
                          right: Subspace) -> Subspace:
    """span{u v : u in basis(left), v in basis(right)}, one product of
    coordinate vectors per pair."""
    return Subspace.span(algebra.field, algebra.dim,
                         [mult_coords(algebra, u, v)
                          for u in left.basis for v in right.basis])


def subalgebra_generated_per_round(elements) -> Subspace:
    """The span of the elements grown a round at a time by the products of
    every pair of its current basis vectors until it stops growing, as the
    generated subalgebra was before it became the spin under the fixed
    operators of the generators."""
    algebra = elements[0].algebra
    current = Subspace.span(algebra.field, algebra.dim,
                            [x.coords for x in elements])
    while True:
        grown = current + product_span_per_pair(algebra, current, current)
        if grown == current:
            return current
        current = grown


def carrier_series_per_pair(algebra: LeibnizAlgebra, carrier: Subspace) -> list:
    """The lower central series of a carrier S, each term after T being
    span(S T) + span(T S) from products of basis pairs, cut off at the
    first stable or repeated term as ``carrier_series`` does."""
    terms = [carrier]
    while True:
        last = terms[-1]
        nxt = product_span_per_pair(algebra, carrier, last) + \
            product_span_per_pair(algebra, last, carrier)
        if nxt in terms:
            return terms
        terms.append(nxt)


def quotient_data_by_inverse(space: Subspace) -> tuple:
    """(q, lifts) with q the last n-s rows of the inverse of the matrix whose
    columns are the basis of the space followed by the unit vectors e_f of
    its free columns f, and lifts those unit vectors."""
    field, n = space.field, space.ambient_dim
    pivots = {next(j for j, x in enumerate(row) if x != 0)
              for row in space.basis}
    lifts = [tuple(field.one() if i == f else field.zero() for i in range(n))
             for f in range(n) if f not in pivots]
    b_inv = invert(Matrix.from_rows(field,
                                    list(space.basis) + lifts).transpose())
    return Matrix(field, len(lifts), n, b_inv.entries[space.dim:]), lifts


def quotient_actions_per_scalar(module, sub: Subspace) -> tuple:
    """(left, right) induced actions on module / sub: column c of the action
    of g is q (g lift_c), one field call per scalar, with (q, lifts) read
    off the inverse as in ``quotient_data_by_inverse``."""
    field = module.algebra.field
    q, lifts = quotient_data_by_inverse(sub)

    def induced(g):
        cols = [apply_per_scalar(q, apply_per_scalar(g, lift))
                for lift in lifts]
        return Matrix.from_rows(field, [[col[r] for col in cols]
                                        for r in range(len(lifts))])

    return ([induced(g) for g in module.left_actions],
            [induced(g) for g in module.right_actions])


def spin_per_vector(module, vector) -> Subspace:
    """Smallest subspace containing the vector and invariant under every
    left and right action, grown by one ``apply`` per action and basis
    vector until it stops growing."""
    field, m = module.algebra.field, module.module_dim
    actions = list(module.left_actions) + list(module.right_actions)
    current = Subspace.span(field, m, [vector])
    while True:
        images = [mat.apply(v) for mat in actions for v in current.basis]
        grown = current + Subspace.span(field, m, images)
        if grown == current:
            return current
        current = grown


def invariant_per_action(module, carrier: Subspace) -> bool:
    """Every action's image of the carrier, taken one action at a time,
    lies in the carrier."""
    for mat in list(module.left_actions) + list(module.right_actions):
        image = Subspace.span(carrier.field, mat.rows,
                              [mat.apply(v) for v in carrier.basis])
        if not carrier.contains_subspace(image):
            return False
    return True


def fuzz_data_per_item(corpus, close) -> dict:
    """The ``items``, ``passes``, ``premises_failed`` and ``violations`` of
    a ``fuzz`` report on the corpus, every item checked on its own: its
    basis closure ``close(algebra)`` (an item whose closure raises
    CapExceeded fails its premises, with a note), theorem 2 on its module,
    and for a nilpotent algebra corollary 3 and corollary 6 on the family
    of the ideals generated by e_1 and by e_n, the submodules they generate
    in the regular bimodule."""
    items, violations = [], []
    premises_failed = passes = 0
    for idx, (algebra, module) in enumerate(corpus):
        try:
            closure = close(algebra)
        except CapExceeded:
            premises_failed += 1
            items.append({"index": idx, "verdict": "premises_failed",
                          "note": "basis closure exceeded the closure cap"})
            continue
        verdicts = [theorem2_verify(module, closure).verdict]
        if series_nilpotency(lower_central_series(algebra))[0]:
            regular, basis = regular_bimodule(algebra), algebra.basis()
            ideals = [submodule_generated(regular, basis[0].coords),
                      submodule_generated(regular, basis[-1].coords)]
            verdicts.append(corollary3_check(algebra, closure).verdict)
            verdicts.append(nilradical_from_family(algebra, ideals).verdict)
        if THEOREM_VIOLATION in verdicts:
            violations.append(idx)
            items.append({"index": idx, "verdict": THEOREM_VIOLATION})
        elif all(v == PASS for v in verdicts):
            passes += 1
            items.append({"index": idx, "verdict": PASS})
        else:
            premises_failed += 1
            items.append({"index": idx, "verdict": "premises_failed"})
    return {"items": items, "passes": passes,
            "premises_failed": premises_failed, "violations": violations}


_FIELDS = (QQ, GF(5), GF(7))


def _corpus_algebra(idx: int, rng: random.Random, max_dim: int):
    field = _FIELDS[rng.randrange(len(_FIELDS))]
    prime_field = field if field != QQ else _FIELDS[1 + rng.randrange(2)]
    menu = idx % 8
    if menu == 0:
        return cyclic(rng.randint(2, max_dim), field) if max_dim >= 2 \
            else abelian(1, field)
    if menu == 1:
        return abelian(rng.randint(1, max_dim), field)
    if menu == 2:
        return heisenberg3(field) if max_dim >= 3 else abelian(max_dim, field)
    if menu == 3:
        return sol2(field) if max_dim >= 2 else abelian(1, field)
    if menu == 4:
        if max_dim >= 3:
            a = rng.randint(2, max_dim - 1)
            b = rng.randint(1, max_dim - a)
            return direct_sum(cyclic(a, field), abelian(b, field))
        return cyclic(max(1, max_dim), field)
    if menu == 5:
        if max_dim < 2:
            return abelian(1, field)
        k = rng.randint(2, min(4, max_dim))
        return basis_change(cyclic(k, prime_field), rng.randrange(2 ** 30))
    if menu == 6:
        pick = rng.randrange(3)
        seed = rng.randrange(2 ** 30)
        if pick == 0 and max_dim >= 3:
            return basis_change(heisenberg3(field), seed)
        if pick == 1:
            return basis_change(abelian(rng.randint(1, max_dim), field), seed)
        return basis_change(cyclic(2, field) if max_dim >= 2
                            else abelian(1, field), seed)
    if max_dim >= 5:
        k = rng.randint(2, max_dim - 3)
        return direct_sum(heisenberg3(field), cyclic(k, field))
    return abelian(rng.randint(1, max_dim), field)


def _corpus_bimodule(algebra: LeibnizAlgebra, rng: random.Random):
    regular = regular_bimodule(algebra)
    choice = rng.randrange(3)
    if choice == 0 or algebra.dim == 0:
        return regular
    if choice == 1:
        series = lower_central_series(algebra)
        sub = series[1] if len(series) > 1 else algebra.zero_space()
        return quotient_bimodule(regular, sub)
    v = [algebra.field.from_int(rng.randrange(-2, 3))
         for _ in range(algebra.dim)]
    sub = submodule_generated(regular, v)
    if sub.is_full():
        series = lower_central_series(algebra)
        sub = series[1] if len(series) > 1 else algebra.zero_space()
    return quotient_bimodule(regular, sub)


def fuzz_corpus_per_item(seed: int, count: int, max_dim: int) -> list:
    """The (algebra, bimodule) pairs of ``fuzz_corpus``, every item built
    in full from the builders, one after another on one seeded generator,
    and none interned (arguments unchecked)."""
    rng = random.Random(seed)
    corpus = []
    for idx in range(count):
        algebra = _corpus_algebra(idx, rng, max_dim)
        corpus.append((algebra, _corpus_bimodule(algebra, rng)))
    return corpus
