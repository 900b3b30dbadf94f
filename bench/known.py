"""Seeded input families whose answers are known from how they are built.

Every algebra is assembled here from its structure constants, without the
package under test, together with the facts its construction fixes: the
nilpotency class, the dimensions of the two-sided lower central series, the
dimension of the two-sided annihilator, the dimensions of the annihilator
flag, and a generator with the nilpotency exponent of its left
multiplication. A basis change conjugates the constants by a seeded matrix
and carries those facts along, since none of them depends on the basis.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from oracle import inverse, mult, reduce


@dataclass(frozen=True)
class Family:
    """An algebra in its natural basis plus its known invariants.

    ``terms`` lists the lower central series as sets of natural basis
    indices, from the whole algebra to the first repeated term; ``upper``
    lists the annihilator-flag dimensions (None when the algebra is not
    nilpotent); ``generator`` is a natural basis index whose left
    multiplication has nilpotency exponent ``exponent``.
    """

    name: str
    dim: int
    p: int
    c: tuple
    terms: tuple
    upper: tuple | None
    ann_dim: int
    generator: int
    exponent: int | None

    @property
    def nilpotent(self) -> bool:
        return not self.terms[-1]

    @property
    def cls(self) -> int | None:
        return len(self.terms) - 1 if self.nilpotent else None

    @property
    def series_dims(self) -> list:
        return [len(t) for t in self.terms]


def _tensor(n: int, p: int, products: dict) -> tuple:
    return tuple(tuple(tuple(reduce(products.get((i, j, k), 0), p)
                             for k in range(n)) for j in range(n))
                 for i in range(n))


def cyclic(n: int, p: int) -> Family:
    """e1 e_i = e_{i+1}: class n, series e_k..e_n, annihilator e_n."""
    c = _tensor(n, p, {(0, i, i + 1): 1 for i in range(n - 1)})
    terms = tuple(frozenset(range(k, n)) for k in range(n + 1))
    return Family(f"cyclic({n})", n, p, c, terms, tuple(range(n + 1)),
                  1, 0, n)


def heisenberg3(p: int) -> Family:
    """e1 e2 = e3 = -e2 e1: class 2, centre e3."""
    c = _tensor(3, p, {(0, 1, 2): 1, (1, 0, 2): -1})
    terms = (frozenset(range(3)), frozenset({2}), frozenset())
    return Family("heisenberg3", 3, p, c, terms, (0, 1, 3), 1, 0, 2)


def abelian(n: int, p: int) -> Family:
    c = _tensor(n, p, {})
    terms = (frozenset(range(n)), frozenset())
    return Family(f"abelian({n})", n, p, c, terms, (0, n), n, 0, 1)


def sol2(p: int) -> Family:
    """e1 e2 = e2 = -e2 e1: solvable, not nilpotent, zero annihilator."""
    c = _tensor(2, p, {(0, 1, 1): 1, (1, 0, 1): -1})
    terms = (frozenset({0, 1}), frozenset({1}))
    return Family("sol2", 2, p, c, terms, None, 0, 0, None)


def direct_sum(a: Family, b: Family) -> Family:
    """Block-diagonal constants; every invariant adds up block by block."""
    assert a.p == b.p
    n, p = a.dim + b.dim, a.p
    products = {}
    for part, off in ((a, 0), (b, a.dim)):
        for i in range(part.dim):
            for j in range(part.dim):
                for k in range(part.dim):
                    if part.c[i][j][k] != 0:
                        products[(i + off, j + off, k + off)] = part.c[i][j][k]
    length = max(len(a.terms), len(b.terms))

    def term(f, j):
        return f.terms[min(j, len(f.terms) - 1)]

    terms = []
    for j in range(length):
        t = term(a, j) | frozenset(x + a.dim for x in term(b, j))
        if terms and t == terms[-1]:
            break
        terms.append(t)
    upper = None
    if a.upper is not None and b.upper is not None:
        size = max(len(a.upper), len(b.upper))
        upper = tuple(a.upper[min(j, len(a.upper) - 1)]
                      + b.upper[min(j, len(b.upper) - 1)]
                      for j in range(size))
    # the generator comes from a non-nilpotent block if there is one, else
    # from the block whose generator has the larger exponent
    if a.exponent is None or (b.exponent is not None
                              and a.exponent >= b.exponent):
        generator, exponent = a.generator, a.exponent
    else:
        generator, exponent = b.generator + a.dim, b.exponent
    return Family(f"direct_sum({a.name},{b.name})", n, p,
                  _tensor(n, p, products), tuple(terms), upper,
                  a.ann_dim + b.ann_dim, generator, exponent)


@dataclass(frozen=True)
class Based:
    """A family written in the basis given by the columns of ``P``.

    ``coords(v)`` turns natural coordinates into coordinates in the new
    basis; ``c`` holds the conjugated structure constants.
    """

    family: Family
    P: tuple
    P_inv: tuple
    c: tuple = field(default=())

    @property
    def p(self) -> int:
        return self.family.p

    @property
    def dim(self) -> int:
        return self.family.dim

    def coords(self, v) -> tuple:
        p = self.p
        return tuple(reduce(sum(a * x for a, x in zip(row, v)), p)
                     for row in self.P_inv)

    def natural(self, k: int) -> tuple:
        """New coordinates of the natural basis vector e_k."""
        return tuple(row[k] for row in self.P_inv)

    def term_basis(self, j: int) -> list:
        return [self.natural(k) for k in sorted(self.family.terms[j])]

    def conjugate(self, mat) -> tuple:
        """The matrix P^-1 M P of a linear map given in the natural basis."""
        return matmul(matmul(self.P_inv, mat, self.p), self.P, self.p)


def matmul(a, b, p: int) -> tuple:
    return tuple(tuple(reduce(sum(a[i][k] * b[k][j] for k in range(len(b))),
                              p) for j in range(len(b[0])))
                 for i in range(len(a)))


def identity(n: int, p: int) -> list:
    return [[reduce(1 if i == j else 0, p) for j in range(n)]
            for i in range(n)]


def _invert(m, p: int) -> tuple:
    """Gauss-Jordan inverse of an invertible matrix."""
    n = len(m)
    rows = [list(r) + e for r, e in zip(m, identity(n, p))]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = inverse(rows[col][col], p)
        rows[col] = [reduce(x * inv, p) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [reduce(x - f * y, p)
                           for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def rebase(fam: Family, P) -> Based:
    """Constants in the basis f_j = sum_i P[i][j] e_i."""
    n, p = fam.dim, fam.p
    P = tuple(tuple(reduce(x, p) for x in row) for row in P)
    P_inv = _invert(P, p)
    based = Based(fam, P, P_inv)
    cols = [tuple(row[j] for row in P) for j in range(n)]
    c = tuple(tuple(based.coords(mult(fam.c, cols[i], cols[j], p))
                    for j in range(n)) for i in range(n))
    return replace(based, c=c)


def unimodular(n: int, p: int, rng: random.Random) -> list:
    """Seeded product of elementary row operations on the identity."""
    rows = identity(n, p)
    for _ in range(2 * n + 2):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        op = rng.randrange(3) if n > 1 else 2
        if op == 0:
            lam = rng.choice((-2, -1, 1, 2))
            rows[j] = [reduce(x + lam * y, p)
                       for x, y in zip(rows[j], rows[i])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [reduce(-x, p) for x in rows[i]]
    return rows


def permutation(n: int, p: int, rng: random.Random) -> list:
    """A seeded permutation matrix: the basis is only reordered, so
    constants stay sparse and the basis closure stays finite over Q."""
    order = list(range(n))
    rng.shuffle(order)
    return [[reduce(1 if order[j] == i else 0, p) for j in range(n)]
            for i in range(n)]


# -- files read by the command line -----------------------------------------

def _scalar(x, p: int):
    if p:
        return int(x)
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


def algebra_json(c, p: int, unvalidated: bool = False) -> dict:
    n = len(c)
    out = {"field": {"Fp": p} if p else "Q", "dim": n,
           "products": [[i + 1, j + 1, k + 1, _scalar(c[i][j][k], p)]
                        for i in range(n) for j in range(n) for k in range(n)
                        if c[i][j][k] != 0]}
    if unvalidated:
        out["unvalidated"] = True
    return out


def regular_quotient_json(based: Based, j: int) -> dict:
    """The regular bimodule modulo the series term j, in the new basis.

    The module keeps natural coordinates on the natural basis vectors
    outside the term; the action of a new basis vector f_i is the
    combination sum_l P[l][i] of the natural actions.
    """
    fam, p = based.family, based.p
    keep = [k for k in range(fam.dim) if k not in fam.terms[j]]
    m = len(keep)

    def natural_action(l, left):
        return [[fam.c[l][keep[s]][keep[r]] if left
                 else fam.c[keep[s]][l][keep[r]]
                 for s in range(m)] for r in range(m)]

    def action(i, left):
        out = [[0] * m for _ in range(m)]
        for l in range(fam.dim):
            coeff = based.P[l][i]
            if coeff != 0:
                nat = natural_action(l, left)
                for r in range(m):
                    for s in range(m):
                        out[r][s] += coeff * nat[r][s]
        return [[_scalar(reduce(x, p), p) for x in row] for row in out]

    return {"module_dim": m,
            "left_actions": [action(i, True) for i in range(fam.dim)],
            "right_actions": [action(i, False) for i in range(fam.dim)]}


def matrix_json(mat, p: int) -> list:
    return [[_scalar(x, p) for x in row] for row in mat]


def vectors_json(vectors, p: int) -> list:
    return [[_scalar(x, p) for x in v] for v in vectors]


def element_arg(v, p: int) -> str:
    return ",".join(str(_scalar(x, p)) for x in v)


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)
