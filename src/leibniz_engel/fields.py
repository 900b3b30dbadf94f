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
field classes (ROADMAP item 1). Either way no code branches on the field
kind.

The two field classes derive from ``Frozen``, so the bases of the
package's value classes live here: ``Record`` for the result records and
``Frozen`` for the immutable values. Equality, the repr and, for
``Frozen``, the hash and a pickled copy read every field a class names,
and only those.

Integer literals are checked against ``sys.get_int_max_str_digits``,
which Python has from 3.10.7 on; that is the floor in pyproject.toml.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import attrgetter
from typing import Union

from .errors import FormatError

Scalar = Union[Fraction, int]

_LITERAL = re.compile(r"[+-]?\d+(/\d+)?\Z")


def _check_digits(literal: str) -> None:
    """FormatError for an integer or num/den literal with a part of more
    digits than Python converts to ``int`` (``sys.get_int_max_str_digits``,
    0 for no limit), which would raise a ValueError that names a setting
    instead of the input."""
    limit = sys.get_int_max_str_digits()
    if limit and len(literal) > limit:
        digits = max(len(part.lstrip("+-")) for part in literal.split("/"))
        if digits > limit:
            raise FormatError(f"integer literal of {digits} digits exceeds "
                              f"the limit of {limit} digits")


def _checked_int(literal: str) -> int:
    """``int`` of a string of digits, after :func:`_check_digits`."""
    _check_digits(literal)
    return int(literal)


def _fraction_from_literal(text: str) -> Fraction:
    """Integers and num/den strings only, signed on the numerator alone;
    decimal notation is rejected."""
    text = text.strip()
    if not _LITERAL.match(text):
        raise FormatError(f"bad scalar literal {text!r} (want int or num/den)")
    _check_digits(text)
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


def _tuple_getter(names: tuple):
    """A callable that returns the tuple of the named attributes of its
    argument. ``attrgetter`` returns a bare value for one name, which is
    wrapped here."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


class Record:
    """Base of the package's value classes. The result records derive from
    it directly and stay mutable and unhashable; ``Frozen`` below adds
    immutability, a hash and pickling.

    A class names its fields once, in the order of its ``__init__``
    parameters: as its ``__slots__``, or as ``_fields`` where instances
    keep caches in a ``__dict__``. When the class is created, this base
    builds one getter of its fields, ``_values``, and its repr template,
    once, so no call loops over names. ``__eq__`` checks identity first,
    then the class, then the fields; ``__repr__`` shows every field."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields", cls.__dict__.get("__slots__"))
        if not fields:  # Frozen itself names none
            return
        cls._values = staticmethod(_tuple_getter(fields))
        cls._template = f"{cls.__name__}(" + ", ".join(
            f"{name}=%r" for name in fields) + ")"

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self):
        return self._template % self._values(self)


class Frozen(Record):
    """Base of the package's immutable value classes.

    Each class sets its attributes once, in ``__init__``, past this guard
    (into ``__slots__`` through ``object.__setattr__``, or into the
    instance ``__dict__``); any later assignment or deletion raises
    ``AttributeError``. On top of ``Record``'s equality and repr, the hash
    is that of the tuple of the fields, kept in the ``__dict__`` once
    computed where the class sets ``_keeps_hash``, and ``__reduce__``
    rebuilds a pickled copy through ``__init__`` from the fields: plain
    unpickling would assign slots through this guard, or carry caches
    along (a kept hash of ``str`` basis names differs from process to
    process)."""

    __slots__ = ()
    _keeps_hash = False

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __hash__(self):
        if not self._keeps_hash:
            return hash(self._values(self))
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._values(self))
        return h

    def __reduce__(self):
        return self.__class__, self._values(self)


class RationalField(Frozen):
    """The field of rational numbers; elements are ``int`` when integral,
    ``Fraction`` otherwise."""

    __slots__ = ("characteristic",)
    characteristic: int

    def __init__(self, characteristic: int = 0):
        object.__setattr__(self, "characteristic", characteristic)

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


class PrimeField(Frozen):
    """Integers modulo a prime ``p``; elements are ints in ``[0, p)``."""

    __slots__ = ("p",)
    p: int

    def __init__(self, p: int):
        try:
            prime = is_prime(p)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if not prime:
            raise FormatError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

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
