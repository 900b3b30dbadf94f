"""Deterministic generators of algebras and bimodules.

Families: cyclic(n) (one generator, products walk up the basis), the
3-dimensional Heisenberg algebra, abelian(n), the 2-dimensional solvable
non-nilpotent control, direct sums, and seeded basis changes (conjugation by
a unimodular matrix built from elementary row operations, so constants stay
small and inverses are exact). Random structure constants are never drawn
directly: random tensors essentially never satisfy the defining identity, so
randomness enters only through basis changes and family mixing. Each
builder's tensor is canonical (its fixed entries are ``field.zero/one/neg``)
and satisfies the defining identity by construction, as its docstring says,
so it skips the check of ``LeibnizAlgebra.create``, the one public way in.

One table, :data:`FAMILIES`, gives each family name its argument kinds and
its builder: ``parse_family_spec`` reads a spec by it, refusing nesting
past ``MAX_SPEC_DEPTH``, and ``build`` applies its builders.
"""

from __future__ import annotations

import random
import re

from .algebra import (MAX_DIM, MAX_FUZZ_COUNT, LeibnizAlgebra,
                      lower_central_series)
from .bimodule import (Bimodule, _quotient_bimodule, regular_bimodule,
                       submodule_generated)
from .errors import FieldMismatch, InvalidSpec
from .fields import GF, QQ, Field, Frozen, _checked_int
from .linalg import Matrix, Subspace, _combination, invert


class FamilySpec(Frozen):
    """Parsed family expression over a target field: a name of
    :data:`FAMILIES` and its arguments in the order of their kinds there."""

    __slots__ = ("kind", "args", "field")
    kind: str
    args: tuple
    field: Field

    def __init__(self, kind: str, args: tuple = (), field: Field = QQ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "field", field)


def cyclic(n: int, field: Field = QQ) -> LeibnizAlgebra:
    """Basis e1..en with e1 e_i = e_{i+1}; nilpotent of class n, non-Lie
    for n >= 2 (the square of e1 is nonzero). Valid: all products lie in
    span(e2..en), which multiplies nothing, so the identity reads
    x(yz) = y(xz), zero unless x = y. Entries are ``field.zero/one``."""
    if not 1 <= n <= MAX_DIM:
        raise InvalidSpec(f"cyclic needs 1 <= n <= {MAX_DIM}, got {n}")
    z, o = field.zero(), field.one()
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        structure[0][i][i + 1] = o
    return LeibnizAlgebra._from_canonical(field, structure,
                                          [f"e{i+1}" for i in range(n)])


def heisenberg3(field: Field = QQ) -> LeibnizAlgebra:
    """e1 e2 = e3 = -e2 e1; a Lie algebra, nilpotent of class 2. Valid:
    every product lies in span(e3), which multiplies nothing."""
    z, o = field.zero(), field.one()
    structure = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][1][2] = o
    structure[1][0][2] = field.neg(o)
    return LeibnizAlgebra._from_canonical(field, structure, ["e1", "e2", "e3"])


def abelian(n: int, field: Field = QQ) -> LeibnizAlgebra:
    """The zero product on e1..en; valid, both sides being zero."""
    if not 1 <= n <= MAX_DIM:
        raise InvalidSpec(f"abelian needs 1 <= n <= {MAX_DIM}, got {n}")
    z = field.zero()
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    return LeibnizAlgebra._from_canonical(field, structure,
                                          [f"e{i+1}" for i in range(n)])


def sol2(field: Field = QQ) -> LeibnizAlgebra:
    """e1 e2 = e2, e2 e1 = -e2: solvable but not nilpotent (the control).
    Valid: a Lie algebra, where the identity is the Jacobi identity."""
    z, o = field.zero(), field.one()
    structure = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    structure[0][1][1] = o
    structure[1][0][1] = field.neg(o)
    return LeibnizAlgebra._from_canonical(field, structure, ["e1", "e2"])


def direct_sum(left: LeibnizAlgebra, right: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal structure constants; cross products vanish. Valid
    and canonical: each block copies a valid algebra's entries, and a basis
    triple across blocks has both sides zero."""
    if left.field != right.field:
        raise FieldMismatch("direct sum needs one common field")
    field = left.field
    a, b = left.dim, right.dim
    n = a + b
    if n > MAX_DIM:
        raise InvalidSpec(f"direct sum of dimension {n} exceeds {MAX_DIM}")
    z = field.zero()
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(a):
        for j in range(a):
            for k in range(a):
                structure[i][j][k] = left.structure[i][j][k]
    for i in range(b):
        for j in range(b):
            for k in range(b):
                structure[a + i][a + j][a + k] = right.structure[i][j][k]
    return LeibnizAlgebra._from_canonical(field, structure)


def _unimodular(field: Field, n: int, rng: random.Random) -> Matrix:
    """Product of seeded elementary row operations on the identity, each
    changed row taken in raw arithmetic and passed through ``reduce_row``."""
    reduce_row = field.reduce_row
    rows = list(Matrix.identity(field, n).entries)
    if n == 1:
        if rng.random() < 0.5:
            rows[0] = reduce_row([-x for x in rows[0]])
        return Matrix(field, n, n, tuple(rows))
    for _ in range(2 * n + 2):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if op == 0:
            lam = rng.choice([-2, -1, 1, 2])
            rows[j] = reduce_row([x + lam * y
                                  for x, y in zip(rows[j], rows[i])])
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = reduce_row([-x for x in rows[i]])
    return Matrix(field, n, n, tuple(rows))


def basis_change(base: LeibnizAlgebra, seed: int) -> LeibnizAlgebra:
    """Conjugate the structure constants by a seeded unimodular matrix P.

    The new basis is the columns P e_i, with left multiplications
    L'_i = P^-1 L_{P e_i} P; row j of L'_i^T = P^T L_{P e_i}^T P^-T is the
    new product e'_i e'_j. Conjugation is an isomorphism, so the result is
    valid and keeps the nilpotency class; its entries are ``reduce_row``'d
    rows of ``Matrix.@``, so canonical.
    """
    n, field = base.dim, base.field
    p = _unimodular(field, n, random.Random(seed))
    p_inv = invert(p)
    assert p_inv is not None
    pt, p_inv_t = p.transpose(), p_inv.transpose()
    lts = base._operators()[0]
    structure = [(pt @ _combination(field, n, pe, lts) @ p_inv_t).entries
                 for pe in pt.entries]
    return LeibnizAlgebra._from_canonical(field, structure)


# Family name -> (argument kinds, builder), a kind being FamilySpec for a
# nested spec or int for an integer. The builder takes the built arguments,
# then the field if no argument is a spec (else the parts carry it).
FAMILIES = {
    "cyclic": ((int,), cyclic),
    "heisenberg3": ((), heisenberg3),
    "abelian": ((int,), abelian),
    "sol2": ((), sol2),
    "direct_sum": ((FamilySpec, FamilySpec), direct_sum),
    "basis_change": ((FamilySpec, int), basis_change),
}

# A family may sit inside at most this many others, which keeps the reader's
# recursion far from the interpreter's limit (it bounds no building time).
MAX_SPEC_DEPTH = 8

_TOKEN = re.compile(r"[\w-]+|\S")
_INT = re.compile(r"-?[0-9]+")


def build(spec: FamilySpec) -> LeibnizAlgebra:
    """Materialize a family spec: the table's builder on the built
    arguments."""
    kinds, builder = FAMILIES.get(spec.kind, ((), None))
    if builder is None or len(spec.args) != len(kinds) or not all(
            map(isinstance, spec.args, kinds)):
        raise InvalidSpec(f"no family {spec.kind!r} takes {spec.args!r}")
    args = [build(a) if k is FamilySpec else a
            for k, a in zip(kinds, spec.args)]
    return builder(*args) if FamilySpec in kinds \
        else builder(*args, spec.field)


def parse_family_spec(text: str, field: Field = QQ) -> FamilySpec:
    """Parse expressions like ``basis_change(direct_sum(cyclic(2),sol2),7)``.

    A spec is a family name of :data:`FAMILIES`, followed, when the family
    takes arguments, by one argument per kind of its table entry, in
    parentheses and separated by commas. A family nested inside more than
    ``MAX_SPEC_DEPTH`` others is refused before it is read.
    """
    tokens = _TOKEN.findall(text)[::-1]

    def take(expected: str, accept) -> str:
        token = tokens.pop() if tokens else ""
        if not accept(token):
            raise InvalidSpec(f"expected {expected} in family spec, got "
                              f"{repr(token) if token else 'its end'}")
        return token

    def read(depth: int) -> FamilySpec:
        if depth > MAX_SPEC_DEPTH:
            raise InvalidSpec(f"family spec nested more than "
                              f"{MAX_SPEC_DEPTH} deep")
        name = take(f"a family ({', '.join(FAMILIES)})", FAMILIES.__contains__)
        kinds, args = FAMILIES[name][0], []
        for i, kind in enumerate(kinds):
            take("','" if i else "'('", ("," if i else "(").__eq__)
            args.append(read(depth + 1) if kind is FamilySpec
                        else _checked_int(take("an integer", _INT.fullmatch)))
        if kinds:
            take("')'", ")".__eq__)
        return FamilySpec(name, tuple(args), field)

    spec = read(0)
    if tokens:
        raise InvalidSpec(f"trailing input in family spec {text!r}")
    return spec


_FIELDS = (QQ, GF(5), GF(7))


def _corpus_spec(idx: int, rng: random.Random, max_dim: int) -> FamilySpec:
    """The spec of item ``idx``, the family rotating with ``idx % 8``."""
    field = _FIELDS[rng.randrange(len(_FIELDS))]
    prime_field = field if field != QQ else _FIELDS[1 + rng.randrange(2)]

    def spec(kind, *args, over=field):
        return FamilySpec(kind, args, over)

    menu = idx % 8
    if menu == 0:
        return spec("cyclic", rng.randint(2, max_dim)) if max_dim >= 2 \
            else spec("abelian", 1)
    if menu == 1:
        return spec("abelian", rng.randint(1, max_dim))
    if menu == 2:
        return spec("heisenberg3") if max_dim >= 3 \
            else spec("abelian", max_dim)
    if menu == 3:
        # the non-nilpotent control
        return spec("sol2") if max_dim >= 2 else spec("abelian", 1)
    if menu == 4:
        if max_dim >= 3:
            a = rng.randint(2, max_dim - 1)
            b = rng.randint(1, max_dim - a)
            return spec("direct_sum", spec("cyclic", a), spec("abelian", b))
        return spec("cyclic", max(1, max_dim))
    if menu == 5:
        # conjugated cyclic families stay over prime fields: over Q a
        # conjugated basis of cyclic(n >= 3) generates an infinite Lie set
        if max_dim < 2:
            return spec("abelian", 1)
        k = rng.randint(2, min(4, max_dim))
        return spec("basis_change", spec("cyclic", k, over=prime_field),
                    rng.randrange(2 ** 30), over=prime_field)
    if menu == 6:
        # closure-safe conjugations over any field, including Q
        pick = rng.randrange(3)
        seed = rng.randrange(2 ** 30)
        if pick == 0 and max_dim >= 3:
            return spec("basis_change", spec("heisenberg3"), seed)
        if pick == 1:
            return spec("basis_change",
                        spec("abelian", rng.randint(1, max_dim)), seed)
        return spec("basis_change", spec("cyclic", 2) if max_dim >= 2
                    else spec("abelian", 1), seed)
    if max_dim >= 5:
        k = rng.randint(2, max_dim - 3)
        return spec("direct_sum", spec("heisenberg3"), spec("cyclic", k))
    return spec("abelian", rng.randint(1, max_dim))


def _corpus_submodule(algebra: LeibnizAlgebra, draw) -> Subspace:
    """The submodule of the regular bimodule that an item's bimodule is
    the quotient by: zero for draw 0 (the regular bimodule itself), the
    second series term for 1, else the spin of the drawn coordinates (the
    series term when that is the whole module)."""
    if draw == 0:
        return algebra.zero_space()
    if draw != 1:
        sub = submodule_generated(regular_bimodule(algebra), draw)
        if not sub.is_full():
            return sub
    series = lower_central_series(algebra)
    return series[1] if len(series) > 1 else algebra.zero_space()


def fuzz_corpus(seed: int, count: int, max_dim: int) -> list:
    """Deterministic list of (algebra, bimodule) pairs.

    Mixes all families across Q, F_5 and F_7, regular bimodules and
    quotients of the regular bimodule (by a lower-central-series term or a
    spun submodule); every algebra is valid by construction and the
    rotation guarantees a non-nilpotent control for count >= 4.

    Each item is drawn first as a family spec, then, once its algebra is
    at hand, as a bimodule draw (see :func:`_corpus_submodule`). Within a
    call each distinct spec is built once, and each bimodule once per
    algebra and submodule divided out, with no invariance check: a spin
    and a series term are submodules by construction.
    Equal items are one object: an algebra with the field and tensor of
    one built earlier in the call is replaced by that object (so it keeps
    that object's basis names, which no verdict reads), and a bimodule
    equal to an earlier one likewise. So whatever an algebra caches is
    shared by its repeats, and a caller can key its own work by item.
    Nothing is kept from one call to the next.
    """
    if not 1 <= count <= MAX_FUZZ_COUNT:
        raise InvalidSpec(f"fuzz count must be in [1, {MAX_FUZZ_COUNT}], "
                          f"got {count}")
    if not 1 <= max_dim <= MAX_DIM:
        raise InvalidSpec(f"fuzz max_dim must be in [1, {MAX_DIM}], "
                          f"got {max_dim}")
    rng = random.Random(seed)
    by_spec, by_tensor, by_sub, modules, corpus = {}, {}, {}, {}, []
    for idx in range(count):
        spec = _corpus_spec(idx, rng, max_dim)
        algebra = by_spec.get(spec)
        if algebra is None:
            algebra = build(spec)
            algebra = by_spec[spec] = by_tensor.setdefault(
                (algebra.field, algebra.structure), algebra)
        draw = rng.randrange(3)  # a vector's length is the algebra's dim
        if draw == 2:
            draw = tuple(rng.randrange(-2, 3) for _ in range(algebra.dim))
        sub = _corpus_submodule(algebra, draw)
        module = by_sub.get((algebra, sub))
        if module is None:
            regular = regular_bimodule(algebra)
            module = regular if sub.is_zero() else \
                _quotient_bimodule(regular, sub)
            module = by_sub[algebra, sub] = modules.setdefault(module, module)
        corpus.append((algebra, module))
    return corpus
