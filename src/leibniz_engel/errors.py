"""Exception hierarchy shared across the package.

Checker functions (theorem, lemma and corollary verifiers) return every
failed premise, and every failed conclusion, in their report: no exception
here carries a verdict. Each class means that a function cannot return its
value at all: operands that do not fit together, an invalid algebra, a
malformed spec or file, a closure past its cap, a flag that stalls, or a
module with no annihilator vector.
"""

from __future__ import annotations


class LeibnizError(Exception):
    """Base class for all package errors."""


class FieldMismatch(LeibnizError):
    """Operands live over different fields."""


class DimensionMismatch(LeibnizError):
    """Vector/matrix/subspace dimensions are incompatible."""


class NonSquareError(LeibnizError):
    """A square matrix was required."""


class ShapeMismatch(LeibnizError):
    """A tensor or action family has the wrong shape."""


class AlgebraMismatch(LeibnizError):
    """Elements or modules belong to different algebras."""


class InvalidAlgebra(LeibnizError):
    """Structure constants violate the defining identity.

    Carries the validation report in ``.report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"structure constants violate the defining identity "
                         f"({len(report.violations)} violating triples)")


class InvalidSpec(LeibnizError):
    """Malformed family specification."""


class CapExceeded(LeibnizError):
    """Lie-set closure exceeded its member cap (possibly infinite set)."""

    def __init__(self, cap: int, members_so_far: int):
        self.cap = cap
        self.members_so_far = members_so_far
        super().__init__(f"closure exceeded cap of {cap} members")


class FlagStalled(LeibnizError):
    """The annihilator flag stopped growing before filling the module."""

    def __init__(self, level: int, stalled_dim: int, module_dim: int):
        self.level = level
        self.stalled_dim = stalled_dim
        self.module_dim = module_dim
        super().__init__(
            f"flag stalled at level {level} (dim {stalled_dim} of {module_dim})")


class NoAnnihilator(LeibnizError):
    """The module has no nonzero vector killed by all actions."""


class FormatError(LeibnizError):
    """A JSON input file does not match its schema."""
