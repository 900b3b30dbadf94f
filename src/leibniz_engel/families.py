"""Deterministic generators of validated algebras and bimodules.

Families: cyclic(n) (one generator, products walk up the basis), the
3-dimensional Heisenberg algebra, abelian(n), the 2-dimensional solvable
non-nilpotent control, direct sums, and seeded basis changes (conjugation by
a unimodular matrix built from elementary row operations, so constants stay
small and inverses are exact). Random structure constants are never drawn
directly: random tensors essentially never satisfy the defining identity, so
randomness enters only through basis changes and family mixing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (MAX_DIM, LeibnizAlgebra, lower_central_series,
                      mult_coords)
from .bimodule import (Bimodule, quotient_bimodule, regular_bimodule,
                       submodule_generated)
from .errors import FieldMismatch, InvalidSpec
from .fields import GF, QQ, Field
from .linalg import Matrix, invert


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family expression plus the target field."""

    kind: str            # cyclic | heisenberg3 | abelian | sol2 | direct_sum | basis_change
    n: int | None = None
    parts: tuple = ()    # nested FamilySpec for direct_sum / basis_change
    seed: int | None = None
    field: Field = QQ


def cyclic(n: int, field: Field = QQ) -> LeibnizAlgebra:
    """Basis e1..en with e1 e_i = e_{i+1}; nilpotent of class n, non-Lie
    for n >= 2 (the square of e1 is nonzero)."""
    if not 1 <= n <= MAX_DIM:
        raise InvalidSpec(f"cyclic needs 1 <= n <= {MAX_DIM}, got {n}")
    z, o = field.zero(), field.one()
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        structure[0][i][i + 1] = o
    return LeibnizAlgebra.create(field, structure,
                                 [f"e{i+1}" for i in range(n)])


def heisenberg3(field: Field = QQ) -> LeibnizAlgebra:
    """e1 e2 = e3 = -e2 e1; a Lie algebra, nilpotent of class 2."""
    z, o = field.zero(), field.one()
    structure = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][1][2] = o
    structure[1][0][2] = field.neg(o)
    return LeibnizAlgebra.create(field, structure, ["e1", "e2", "e3"])


def abelian(n: int, field: Field = QQ) -> LeibnizAlgebra:
    if not 1 <= n <= MAX_DIM:
        raise InvalidSpec(f"abelian needs 1 <= n <= {MAX_DIM}, got {n}")
    z = field.zero()
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    return LeibnizAlgebra.create(field, structure,
                                 [f"e{i+1}" for i in range(n)])


def sol2(field: Field = QQ) -> LeibnizAlgebra:
    """e1 e2 = e2, e2 e1 = -e2: solvable but not nilpotent (the control)."""
    z, o = field.zero(), field.one()
    structure = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    structure[0][1][1] = o
    structure[1][0][1] = field.neg(o)
    return LeibnizAlgebra.create(field, structure, ["e1", "e2"])


def direct_sum(left: LeibnizAlgebra, right: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal structure constants; cross products vanish."""
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
    return LeibnizAlgebra.create(field, structure)


def _unimodular(field: Field, n: int, rng: random.Random) -> Matrix:
    """Product of seeded elementary row operations on the identity."""
    rows = [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]
    if n == 1:
        if rng.random() < 0.5:
            rows[0][0] = field.neg(rows[0][0])
        return Matrix.from_rows(field, rows)
    for _ in range(2 * n + 2):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if op == 0:
            lam = field.from_int(rng.choice([-2, -1, 1, 2]))
            rows[j] = [field.add(x, field.mul(lam, y))
                       for x, y in zip(rows[j], rows[i])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [field.neg(x) for x in rows[i]]
    return Matrix.from_rows(field, rows)


def basis_change(base: LeibnizAlgebra, seed: int) -> LeibnizAlgebra:
    """Conjugate the structure constants by a seeded unimodular matrix.

    The result is isomorphic to the input, so validation and the nilpotency
    class are preserved.
    """
    rng = random.Random(seed)
    n = len(base.structure)
    field = base.field
    p = _unimodular(field, n, rng)
    p_inv = invert(p)
    assert p_inv is not None
    cols = [p.column(j) for j in range(n)]
    structure = [[p_inv.apply(mult_coords(base, cols[i], cols[j]))
                  for j in range(n)] for i in range(n)]
    return LeibnizAlgebra.create(field, structure)


def build(spec: FamilySpec) -> LeibnizAlgebra:
    """Materialize a family spec."""
    kind = spec.kind
    if kind == "cyclic":
        if spec.n is None:
            raise InvalidSpec("cyclic needs a dimension")
        return cyclic(spec.n, spec.field)
    if kind == "heisenberg3":
        return heisenberg3(spec.field)
    if kind == "abelian":
        if spec.n is None:
            raise InvalidSpec("abelian needs a dimension")
        return abelian(spec.n, spec.field)
    if kind == "sol2":
        return sol2(spec.field)
    if kind == "direct_sum":
        if len(spec.parts) != 2:
            raise InvalidSpec("direct_sum takes exactly two parts")
        return direct_sum(build(spec.parts[0]), build(spec.parts[1]))
    if kind == "basis_change":
        if len(spec.parts) != 1 or spec.seed is None:
            raise InvalidSpec("basis_change takes a part and a seed")
        return basis_change(build(spec.parts[0]), spec.seed)
    raise InvalidSpec(f"unknown family kind {kind!r}")


def parse_family_spec(text: str, field: Field = QQ) -> FamilySpec:
    """Parse expressions like ``basis_change(direct_sum(cyclic(2),sol2),7)``."""
    tokens = _tokenize(text)
    spec, pos = _parse_spec(tokens, 0, field)
    if pos != len(tokens):
        raise InvalidSpec(f"trailing input in family spec {text!r}")
    return spec


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch in "_-":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise InvalidSpec(f"unexpected character {ch!r} in family spec")
    return tokens


def _parse_spec(tokens: list, pos: int, field: Field) -> tuple:
    if pos >= len(tokens):
        raise InvalidSpec("unexpected end of family spec")
    head = tokens[pos]
    pos += 1
    if head in ("heisenberg3", "sol2"):
        return FamilySpec(head, field=field), pos
    if head in ("cyclic", "abelian"):
        args, pos = _parse_args(tokens, pos)
        if len(args) != 1 or not args[0].lstrip("-").isdigit():
            raise InvalidSpec(f"{head} takes one integer argument")
        return FamilySpec(head, n=int(args[0]), field=field), pos
    if head == "direct_sum":
        pos = _expect(tokens, pos, "(")
        first, pos = _parse_spec(tokens, pos, field)
        pos = _expect(tokens, pos, ",")
        second, pos = _parse_spec(tokens, pos, field)
        pos = _expect(tokens, pos, ")")
        return FamilySpec("direct_sum", parts=(first, second), field=field), pos
    if head == "basis_change":
        pos = _expect(tokens, pos, "(")
        inner, pos = _parse_spec(tokens, pos, field)
        pos = _expect(tokens, pos, ",")
        if pos >= len(tokens) or not tokens[pos].lstrip("-").isdigit():
            raise InvalidSpec("basis_change needs an integer seed")
        seed = int(tokens[pos])
        pos = _expect(tokens, pos + 1, ")")
        return FamilySpec("basis_change", parts=(inner,), seed=seed,
                          field=field), pos
    raise InvalidSpec(f"unknown family {head!r}")


def _parse_args(tokens: list, pos: int) -> tuple:
    pos = _expect(tokens, pos, "(")
    args = []
    while True:
        if pos >= len(tokens):
            raise InvalidSpec("unterminated argument list")
        if tokens[pos] == ")":
            return args, pos + 1
        args.append(tokens[pos])
        pos += 1
        if pos < len(tokens) and tokens[pos] == ",":
            pos += 1


def _expect(tokens: list, pos: int, tok: str) -> int:
    if pos >= len(tokens) or tokens[pos] != tok:
        raise InvalidSpec(f"expected {tok!r} in family spec")
    return pos + 1


_FIELDS = (QQ, GF(5), GF(7))


def _corpus_algebra(idx: int, rng: random.Random, max_dim: int) -> LeibnizAlgebra:
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
        # the non-nilpotent control
        return sol2(field) if max_dim >= 2 else abelian(1, field)
    if menu == 4:
        if max_dim >= 3:
            a = rng.randint(2, max_dim - 1)
            b = rng.randint(1, max_dim - a)
            return direct_sum(cyclic(a, field), abelian(b, field))
        return cyclic(max(1, max_dim), field)
    if menu == 5:
        # conjugated cyclic families stay over prime fields: over Q a
        # conjugated basis of cyclic(n >= 3) generates an infinite Lie set
        if max_dim < 2:
            return abelian(1, field)
        k = rng.randint(2, min(4, max_dim))
        return basis_change(cyclic(k, prime_field), rng.randrange(2 ** 30))
    if menu == 6:
        # closure-safe conjugations over any field, including Q
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


def _corpus_bimodule(algebra: LeibnizAlgebra, rng: random.Random) -> Bimodule:
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


def fuzz_corpus(seed: int, count: int, max_dim: int) -> list:
    """Deterministic list of (algebra, bimodule) pairs.

    Mixes all families across Q, F_5 and F_7, regular bimodules and
    quotients of the regular bimodule (by a lower-central-series term or a
    spun submodule); every algebra is validated at construction and the
    rotation guarantees a non-nilpotent control for count >= 4.
    """
    if count < 1 or not 1 <= max_dim <= MAX_DIM:
        raise InvalidSpec(f"count must be at least 1 and max_dim in "
                          f"[1, {MAX_DIM}]")
    rng = random.Random(seed)
    corpus = []
    for idx in range(count):
        algebra = _corpus_algebra(idx, rng, max_dim)
        module = _corpus_bimodule(algebra, rng)
        corpus.append((algebra, module))
    return corpus
