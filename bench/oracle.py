"""Brute-force answers that share no code with the package under test.

Scalars are ``fractions.Fraction`` over Q (``p == 0``) or ints reduced mod a
prime ``p``. A structure tensor is a nested sequence ``c[i][j][k]`` with
``e_i e_j = sum_k c[i][j][k] e_k``. Everything here is deliberately naive:
nilpotency is decided by evaluating products and words, never by subspaces,
echelon forms or series, so an answer from here is an independent check on
the program's verdicts.
"""

from __future__ import annotations

from fractions import Fraction


def reduce(x, p: int):
    """Canonical scalar: a Fraction over Q, a residue in [0, p) over F_p."""
    if p:
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, p - 2, p) % p
        return x % p
    return Fraction(x)


def inverse(x, p: int):
    return pow(x, p - 2, p) if p else 1 / Fraction(x)


def mult(c, x, y, p: int) -> tuple:
    """Product of two coordinate vectors through the tensor ``c``."""
    n = len(x)
    out = [0] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, ck in enumerate(c[i][j]):
                if ck != 0:
                    out[k] += xi * yj * ck
    return tuple(reduce(v, p) for v in out)


def basis_vectors(n: int, p: int) -> list:
    return [tuple(reduce(1 if t == i else 0, p) for t in range(n))
            for i in range(n)]


def algebra_is_nilpotent(c, p: int) -> bool:
    """Every product of dim+1 basis elements vanishes, all parenthesizations.

    A product of length k splits at its top into products of lengths i and
    k-i, so dynamic programming over split sizes, keeping each length's set
    of distinct values, covers every binary tree.
    """
    n = len(c)
    values = {1: set(basis_vectors(n, p))}
    for k in range(2, n + 2):
        values[k] = {mult(c, u, v, p)
                     for i in range(1, k)
                     for u in values[i] for v in values[k - i]}
    return all(all(x == 0 for x in v) for v in values[n + 1])


def apply(matrix, v, p: int) -> tuple:
    return tuple(reduce(sum(a * x for a, x in zip(row, v)), p)
                 for row in matrix)


def action_is_nilpotent(matrices, m: int, p: int) -> bool:
    """Every word of length m in the matrices kills every basis vector.

    On an m-dimensional space a jointly nilpotent family has all words of
    length m equal to zero, and a nonzero word of length m rules nilpotency
    out, so following the distinct nonzero images of the basis vectors
    through m steps decides it.
    """
    frontier = set(basis_vectors(m, p))
    for _ in range(m):
        frontier = {w for mat in matrices for v in frontier
                    for w in [apply(mat, v, p)] if any(w)}
        if not frontier:
            return True
    return not frontier


def leibniz_violations(c, p: int) -> int:
    """Number of basis triples (i, j, k) violating x(yz) = (xy)z + y(xz)."""
    n = len(c)
    e = basis_vectors(n, p)
    bad = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mult(c, e[i], c[j][k], p)
                rhs1 = mult(c, c[i][j], e[k], p)
                rhs2 = mult(c, e[j], c[i][k], p)
                if any(reduce(a - b - d, p) != 0
                       for a, b, d in zip(lhs, rhs1, rhs2)):
                    bad += 1
    return bad
