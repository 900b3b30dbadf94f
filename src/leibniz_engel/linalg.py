"""Dense exact linear algebra: matrices, row reduction, kernels, subspaces.

Everything is immutable (tuples all the way down) and exact. Subspaces are
stored as reduced-row-echelon bases, so two equal subspaces have literally
identical representations and equality is a plain comparison. Dimensions are
desk-scale; elimination is the straightforward textbook algorithm.

The kernels combine entries with raw ``+``, ``-`` and ``*`` and skip zero
entries, then pass each row that received a term through the field's
``reduce_row`` once (see fields.py); a row that received none is a shared
zero row. A product walks only the nonzero rows of its right operand, read
with their nonzero entries once per matrix (``Matrix._row_terms``), so an
operator that is reused is scanned once. The image of a subspace under a
set of operators, ``_image``, is one product of its echelon basis with each
operator's transpose; the image filtration and the bimodule spin and
invariance test all take it. ``Subspace.span`` normalises what it is
handed; the kernels span their own canonical results through
``Subspace._span``, which skips that pass.

``Matrix`` and ``Subspace`` are frozen dataclasses whose ``__init__`` fills
the instance ``__dict__`` directly, so creating one costs about what its
tuple does; equality, hashing, ``repr``, pickling and ``dataclasses.replace``
stay the dataclass ones. A matrix keeps its row terms and its transpose in
that ``__dict__`` once read, and a transpose links back to its matrix.
``Matrix.zero`` shares one zero row among its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, FieldMismatch, NonSquareError
from .fields import Field, Scalar

Vector = tuple  # tuple of scalars over one field


def vec_is_zero(v: Sequence[Scalar]) -> bool:
    return not any(v)


@dataclass(frozen=True, init=False)
class Matrix:
    """Immutable dense matrix over one exact field."""

    field: Field
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        d = self.__dict__
        d["field"] = field
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable]) -> "Matrix":
        norm = tuple(tuple(map(field.normalize, row)) for row in rows)
        nrows = len(norm)
        ncols = len(norm[0]) if norm else 0
        if any(len(row) != ncols for row in norm):
            raise DimensionMismatch("ragged rows")
        return Matrix(field, nrows, ncols, norm)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, ((field.zero(),) * cols,) * rows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n,
                      tuple(tuple(o if i == j else z for j in range(n))
                            for i in range(n)))

    @staticmethod
    def from_columns(field: Field, columns: Sequence[Sequence]) -> "Matrix":
        cols = [tuple(map(field.normalize, c)) for c in columns]
        nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("ragged columns")
        return Matrix(field, nrows, len(cols),
                      tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @property
    def _row_terms(self) -> tuple:
        """(k, ((j, x), ...)) for each nonzero row k, with its nonzero
        entries; computed once per matrix."""
        terms = self.__dict__.get("_terms")
        if terms is None:
            terms = self.__dict__["_terms"] = tuple(
                (k, tuple(compress(enumerate(row), row)))
                for k, row in enumerate(self.entries) if any(row))
        return terms

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        """The transpose, built once; its transpose is this matrix again."""
        t = self.__dict__.get("_transpose")
        if t is None:
            entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
            t = self.__dict__["_transpose"] = Matrix(self.field, self.cols,
                                                     self.rows, entries)
            t.__dict__["_transpose"] = self
        return t

    def _check_field(self, other: "Matrix") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"fields differ: {self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        reduce_row = self.field.reduce_row
        return Matrix(self.field, self.rows, self.cols,
                      tuple(r1 if not any(r2) else r2 if not any(r1)
                            else reduce_row([a + b for a, b in zip(r1, r2)])
                            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        reduce_row = self.field.reduce_row
        return Matrix(self.field, self.rows, self.cols,
                      tuple(reduce_row([-a for a in row]) if any(row) else row
                            for row in self.entries))

    def scale(self, c) -> "Matrix":
        c = self.field.normalize(c)
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(mul(c, a) for a in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero, reduce_row = self.field.zero(), self.field.reduce_row
        ncols = other.cols
        zero_row = (zero,) * ncols
        terms = other._row_terms
        out = []
        for row in self.entries:
            acc = None
            for k, ts in terms:
                a = row[k]
                if a:
                    if acc is None:
                        acc = [zero] * ncols
                    for j, b in ts:
                        acc[j] += a * b
            out.append(zero_row if acc is None else reduce_row(acc))
        return Matrix(self.field, self.rows, ncols, tuple(out))

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise NonSquareError("powers need a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match columns")
        zero = self.field.zero()
        terms = list(compress(enumerate(v), v))
        if not terms:
            return (zero,) * self.rows
        out = []
        for row in self.entries:
            s = zero
            for k, x in terms:
                a = row[k]
                if a:
                    s += a * x
            out.append(s)
        return self.field.reduce_row(out)

    def stack(self, other: "Matrix") -> "Matrix":
        """Vertical concatenation."""
        self._check_field(other)
        if self.cols != other.cols:
            raise DimensionMismatch("stack needs equal column counts")
        return Matrix(self.field, self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    def augment(self, other: "Matrix") -> "Matrix":
        """Horizontal concatenation."""
        self._check_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch("augment needs equal row counts")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns."""
    field = m.field
    reduce_row, one = field.reduce_row, field.one()
    rows = list(m.entries)
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        if prow[c] != one:
            inv = field.inv(prow[c])
            prow = rows[r] = reduce_row([x and inv * x for x in prow])
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = reduce_row([x - f * y if y else x
                                      for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    reduced = Matrix(field, nrows, ncols, tuple(map(tuple, rows)))
    return RrefResult(reduced, len(pivots), tuple(pivots))


def kernel_basis(m: Matrix) -> "Subspace":
    """The right kernel {v : m v = 0} as a canonical subspace."""
    field = m.field
    red, rank, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero()] * m.cols
        v[f] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -red.entries[r][f]
        basis.append(field.reduce_row(v))
    return Subspace._span(field, m.cols, basis)


class Nilpotency(NamedTuple):
    verdict: bool
    index: int | None


def is_nilpotent_matrix(m: Matrix) -> Nilpotency:
    """Decide m^d = 0 by sequential exact powering; index is minimal.

    The zero matrix has index 1, and the 0x0 matrix counts as nilpotent
    with index 1.
    """
    if not m.is_square():
        raise NonSquareError(f"nilpotency needs a square matrix, got {m.rows}x{m.cols}")
    d = m.rows
    if d == 0:
        return Nilpotency(True, 1)
    power = m
    for k in range(1, d + 1):
        if power.is_zero():
            return Nilpotency(True, k)
        if k < d:
            power = power @ m
    return Nilpotency(False, None)


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse, or None when singular."""
    if not m.is_square():
        raise NonSquareError("inverse needs a square matrix")
    n = m.rows
    red, _, pivots = rref(m.augment(Matrix.identity(m.field, n)))
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix(m.field, n, n, tuple(row[n:] for row in red.entries))


def matrix_rank(m: Matrix) -> int:
    return rref(m).rank


@dataclass(frozen=True, init=False)
class Subspace:
    """Subspace of F^n held as a canonical reduced-echelon row basis.

    Identical subspaces have identical ``basis`` tuples, so ``==`` is both
    mathematical and structural equality.
    """

    field: Field
    ambient_dim: int
    basis: tuple  # tuple of row vectors, RREF, no zero rows

    def __init__(self, field: Field, ambient_dim: int, basis: tuple):
        d = self.__dict__
        d["field"] = field
        d["ambient_dim"] = ambient_dim
        d["basis"] = basis

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of any vectors, each entry normalised into the field."""
        return Subspace._span(field, ambient_dim,
                              [tuple(map(field.normalize, v)) for v in vectors])

    @staticmethod
    def _span(field: Field, ambient_dim: int, vecs: list) -> "Subspace":
        """The span of a list of vectors already in canonical form."""
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        if not vecs:
            return Subspace(field, ambient_dim, ())
        red, rank, _ = rref(Matrix(field, len(vecs), ambient_dim, tuple(vecs)))
        return Subspace(field, ambient_dim, red.entries[:rank])

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim,
                        Matrix.identity(field, ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces of different ambient dimension")

    def contains(self, v: Sequence[Scalar]) -> bool:
        """Membership by reduction against the echelon basis."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        return self._contains(tuple(map(self.field.normalize, v)))

    def _contains(self, work: tuple) -> bool:
        """Membership of a vector already in canonical form."""
        field = self.field
        for row in self.basis:
            f = work[next(j for j, x in enumerate(row) if x)]
            if f:
                work = field.reduce_row([x - f * y if y else x
                                         for x, y in zip(work, row)])
        return not any(work)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(map(self._contains, other.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient_dim,
                              list(self.basis) + list(other.basis))

    def quotient_data(self) -> tuple:
        """Projection onto F^n / S plus a lifted basis of the quotient.

        Returns ``(q, lifts)`` with ``q`` an (n-s) x n matrix whose kernel is
        exactly this subspace, and ``lifts`` a list of n-s ambient vectors
        with ``q.apply(lifts[i])`` the i-th standard quotient coordinate.
        """
        field, n = self.field, self.ambient_dim
        zero, one = field.zero(), field.one()
        pivots = [next(j for j, x in enumerate(row) if x)
                  for row in self.basis]
        pivot_set = set(pivots)
        rows, lifts = [], []
        for f in range(n):
            if f in pivot_set:
                continue
            e = [zero] * n
            e[f] = one
            lifts.append(tuple(e))
            # 1 at f and -b_i[f] at the pivot P_i of b_i: this row kills
            # every b_i (b_i[P_k] is 1 for k = i, else 0), is 1 on e_f and
            # 0 on the other lifts
            for c, row in zip(pivots, self.basis):
                e[c] = -row[f]
            rows.append(field.reduce_row(e))
        return Matrix(field, len(rows), n, tuple(rows)), lifts

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.dim, self.ambient_dim, self.basis)

    def to_str_rows(self) -> list:
        ts = self.field.to_str
        return [[ts(x) for x in row] for row in self.basis]


def _image(space: Subspace, transposes: Sequence[Matrix]) -> Subspace:
    """span{g v : g an operator, v in the basis of ``space``}, each operator
    passed as its transpose g^T: row v of (basis @ g^T) is g v, and the
    product skips the zeros of the sparse echelon rows."""
    basis = space.basis_matrix()
    return Subspace._span(space.field, space.ambient_dim,
                          [row for gt in transposes
                           for row in (basis @ gt).entries if any(row)])
