"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's subspace/series machinery: nilpotency
is decided by evaluating every parenthesized product of basis elements, flag
length by multiplying out every operator word, the nilpotency index of an
operator algebra by span-closing it in the m*m-dim matrix space, and the
defining identity triple by triple. They exist to cross-check the production
algorithms, so they must stay dumb.
"""

from __future__ import annotations

from typing import NamedTuple

from leibniz_engel.algebra import LeibnizAlgebra, mult_coords
from leibniz_engel.linalg import Matrix


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
