"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values. Over the rationals an element is an
``int`` when it is integral and a ``fractions.Fraction`` (reduced, positive
denominator > 1) otherwise; that is the one canonical form, so the integer
structure constants of most algebras never build a ``Fraction``. ``int``
and ``Fraction`` agree on ``==``, ``hash`` and ``str``, so comparisons,
sets and printed reports do not see the difference. Over a prime field an
element is an ``int`` residue in ``[0, p)``. Every operation is exact;
nothing here ever rounds, and no result is ever a ``float``: ``inv`` and
``div`` over the rationals divide a ``Fraction``, never an ``int``.

The matrix and product kernels do not call the scalar methods below. They
combine entries with the raw operators ``+``, ``-`` and ``*``, which are
exact on both ``Fraction`` and ``int``, and pass each finished row through
the field's ``reduce_row`` once: ``% p`` over a prime field, and over the
rationals a ``Fraction`` with denominator 1 becomes its numerator.
``inv`` is the only field call they make, once per pivot. The other
per-scalar methods remain for parsing, for ``normalize`` (which divides over
a prime field) and for the signs of the fixed family tensors (``neg``). No
code in the package calls ``add`` or ``sub``; they stay, with the rest,
because ``bench/tracing.py`` counts calls to each per-scalar method of the
field classes (ROADMAP item 5). Either way no code branches on the field
kind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import FormatError

Scalar = Union[Fraction, int]

_LITERAL = re.compile(r"[+-]?\d+(/[+-]?\d+)?\Z")


def _fraction_from_literal(text: str) -> Fraction:
    """Integers and num/den strings only; decimal notation is rejected."""
    text = text.strip()
    if not _LITERAL.match(text):
        raise FormatError(f"bad scalar literal {text!r} (want int or num/den)")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise FormatError(f"zero denominator in {text!r}") from exc


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster 2015, "Strong pseudoprimes to twelve
# prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above MR_EXACT_BOUND."""
    if p >= MR_EXACT_BOUND:
        raise ValueError(f"{p} is too large to test for primality "
                         f"(limit {MR_EXACT_BOUND})")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _canonical(x: Scalar) -> Scalar:
    """An integral Fraction as its numerator; anything else as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers; elements are ``int`` when integral,
    ``Fraction`` otherwise."""

    characteristic: int = 0

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return _canonical(a + b)

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return _canonical(a - b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return _canonical(a * b)

    def neg(self, a: Scalar) -> Scalar:
        return -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canonical(Fraction(1) / a)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return _canonical(Fraction(a) / b)

    def from_int(self, n: int) -> int:
        return n

    def normalize(self, value) -> Scalar:
        """Coerce an int or Fraction into a field element."""
        if type(value) is int:
            return value
        if type(value) is Fraction:
            return _canonical(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise FormatError(f"not a rational scalar: {value!r}")
        return _canonical(Fraction(value))

    def reduce_row(self, row) -> tuple:
        """A row of raw-operator results as field elements: Fraction
        arithmetic is already exact and reduced, and an integral Fraction
        becomes its numerator."""
        return tuple([x.numerator if type(x) is Fraction and x.denominator == 1
                      else x for x in row])

    def parse(self, text) -> Scalar:
        """Parse an int, or a string like ``"3"`` or ``"-2/5"``."""
        if isinstance(text, bool):
            raise FormatError(f"not a scalar: {text!r}")
        if isinstance(text, int):
            return int(text)
        if isinstance(text, str):
            return _canonical(_fraction_from_literal(text))
        raise FormatError(f"bad rational literal {text!r}")

    def to_str(self, a: Scalar) -> str:
        return str(a)

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """Integers modulo a prime ``p``; elements are ints in ``[0, p)``."""

    p: int

    def __post_init__(self):
        try:
            prime = is_prime(self.p)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if not prime:
            raise FormatError(f"{self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def from_int(self, n: int) -> int:
        return n % self.p

    def normalize(self, value) -> int:
        if type(value) is int:
            return value % self.p
        if isinstance(value, bool):
            raise FormatError(f"not a scalar: {value!r}")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise FormatError(f"{str(value)!r} has no meaning mod {self.p} "
                                  "(denominator divisible by p)")
            return self.div(self.from_int(value.numerator),
                            self.from_int(value.denominator))
        raise FormatError(f"not a residue: {value!r}")

    def reduce_row(self, row) -> tuple:
        """A row of raw-operator results as residues in [0, p)."""
        p = self.p
        return tuple([x % p for x in row])

    def parse(self, text) -> int:
        """Parse an int or a ``"num"`` / ``"num/den"`` string into a residue."""
        if isinstance(text, bool):
            raise FormatError(f"not a scalar: {text!r}")
        if isinstance(text, int):
            return text % self.p
        if isinstance(text, str):
            return self.normalize(_fraction_from_literal(text))
        raise FormatError(f"bad scalar literal {text!r}")

    def to_str(self, a: int) -> str:
        return str(a % self.p)

    def __str__(self) -> str:
        return f"F{self.p}"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def GF(p: int) -> PrimeField:
    """Prime field of order ``p``."""
    return PrimeField(p)
