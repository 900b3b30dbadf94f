"""Dense exact linear algebra: matrices, row reduction, kernels, subspaces.

Everything is immutable (tuples all the way down) and exact. Subspaces are
stored as reduced-row-echelon bases, so two equal subspaces have literally
identical representations and equality is a plain comparison. Dimensions are
desk-scale.

The kernels combine entries with raw ``+``, ``-`` and ``*`` and skip zero
entries, then pass each row that received a term through the field's
``reduce_row`` once (see fields.py); a row that received none is a shared
zero row. A product walks only the nonzero rows of its right operand, read
with their nonzero entries once per matrix (``Matrix._row_terms``), so an
operator that is reused is scanned once.

One reducer, ``_echelon``, serves ``rref``, the rank, every span and image;
the inverse is ``rref`` of the rows [m | I].
One image step, ``_image``, streams each g v into it without building a
product matrix. It serves the ideal and invariance tests, the one spin
``_spin``, which adds images until the space is invariant (the spun
submodule and the generated subalgebra), and the one walk of repeated
images, ``_walk``, which is the image filtration, a carrier's lower
central series and the dual walk of the flag. One read-off,
``_annihilator``, gives the annihilator of an echelon basis: the kernel,
the quotient projection and each flag level.
``Subspace.span`` normalises what it is handed; the kernels span their own
canonical results through ``Subspace._span``, which skips that pass.

``Matrix`` and ``Subspace`` are frozen dataclasses whose ``__init__`` fills
the instance ``__dict__`` directly, so creating one costs about what its
tuple does; equality, hashing, ``repr`` and ``dataclasses.replace`` stay the
dataclass ones. A matrix keeps its row terms and its transpose in that
``__dict__`` once read, and a transpose links back to its matrix through a
weak reference, so the pair is no reference cycle and reference counting
frees it. A pickled matrix carries its fields only. ``Matrix.zero`` shares
one zero row among its rows, and ``Matrix.identity`` is one shared object
per (field, n) from a bounded cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from typing import Iterable, NamedTuple, Sequence
from weakref import ref

from .errors import DimensionMismatch, FieldMismatch, NonSquareError
from .fields import Field, Scalar

Vector = tuple  # tuple of scalars over one field


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
    @lru_cache(maxsize=32)
    def identity(field: Field, n: int) -> "Matrix":
        """The n x n identity, one shared object per (field, n)."""
        z, o = field.zero(), field.one()
        return Matrix(field, n, n,
                      tuple(tuple(o if i == j else z for j in range(n))
                            for i in range(n)))

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

    def __reduce__(self):
        # the cached row terms and transpose stay behind (a weak link
        # cannot be pickled); the copy rebuilds them when read
        return Matrix, (self.field, self.rows, self.cols, self.entries)

    def transpose(self) -> "Matrix":
        """The transpose, built once; its transpose is this matrix again,
        held by a weak link back while this matrix lives."""
        t = self.__dict__.get("_transpose")
        if type(t) is ref:
            t = t()
        if t is None:
            entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
            t = self.__dict__["_transpose"] = Matrix(self.field, self.cols,
                                                     self.rows, entries)
            t.__dict__["_transpose"] = ref(self)
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


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivots: tuple


def _echelon(field: Field, ncols: int, rows: Iterable[tuple]) -> tuple:
    """The canonical (fully reduced) echelon basis of the span of canonical
    rows of length ``ncols``.

    Rows are read one at a time. A row is reduced against the pivot rows
    in raw arithmetic and passed through ``reduce_row`` once, not once per
    elimination step: each pivot row is zero in every other pivot column,
    so each pivot entry of the incoming row is still its canonical input
    value, whatever the order. A row that is nonzero after that is scaled
    to a leading 1, cleared from the pivot rows that have an entry in its
    column, and kept. No row is read after the one that gives every column
    a pivot."""
    reduce_row, one = field.reduce_row, field.one()
    pivots = {}
    for v in rows:
        if not any(v):
            continue
        acc = v
        for c, p in pivots.items():
            f = v[c]
            if f:
                acc = [x - f * y if y else x for x, y in zip(acc, p)]
        if acc is not v:
            v = reduce_row(acc)
            if not any(v):
                continue
        c, f = next(compress(enumerate(v), v))
        if f != one:
            inv = field.inv(f)
            v = reduce_row([x and inv * x for x in v])
        for k, p in pivots.items():
            f = p[c]
            if f:
                pivots[k] = reduce_row([x - f * y if y else x for x, y in zip(p, v)])
        pivots[c] = v
        if len(pivots) == ncols:
            break
    return tuple([pivots[c] for c in sorted(pivots)])


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns."""
    basis = _echelon(m.field, m.cols, m.entries)
    rank = len(basis)
    if rank < m.rows:
        basis += ((m.field.zero(),) * m.cols,) * (m.rows - rank)
    return RrefResult(Matrix(m.field, m.rows, m.cols, basis), rank,
                      tuple(next(compress(count(), row)) for row in basis[:rank]))


def _annihilator(field: Field, n: int, basis: Sequence[tuple]) -> list:
    """Rows spanning {v : b v = 0 for b in ``basis``}, a canonical echelon
    basis in F^n: for each free column f, 1 at f and -b_i[f] at the pivot
    P_i of each b_i (b_i is 1 at P_i, 0 at the other pivots). One row per
    free column, so n - rank independent rows; canonical, not echelon."""
    zero, one = field.zero(), field.one()
    pivots = [next(compress(count(), row)) for row in basis]
    taken = set(pivots)
    rows = []
    for f in range(n):
        if f in taken:
            continue
        e = [zero] * n
        e[f] = one
        for c, row in zip(pivots, basis):
            e[c] = -row[f]
        rows.append(field.reduce_row(e))
    return rows


def kernel_basis(m: Matrix) -> "Subspace":
    """The right kernel {v : m v = 0} as a canonical subspace."""
    field, n = m.field, m.cols
    return Subspace._span(field, n,
                          _annihilator(field, n, _echelon(field, n, m.entries)))


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
    """Exact inverse, or None when singular: the reduced rows [m | I] are
    [I | m^-1] exactly when their first n pivots are the columns of m."""
    if not m.is_square():
        raise NonSquareError("inverse needs a square matrix")
    n = m.rows
    rows = tuple(row + unit for row, unit in
                 zip(m.entries, Matrix.identity(m.field, n).entries))
    red, _, pivots = rref(Matrix(m.field, n, 2 * n, rows))
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix(m.field, n, n, tuple(row[n:] for row in red.entries))


def matrix_rank(m: Matrix) -> int:
    return len(_echelon(m.field, m.cols, m.entries))


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
        return Subspace(field, ambient_dim, _echelon(field, ambient_dim, vecs))

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
        # the annihilator row of free column f is 1 on e_f and 0 on the
        # other free unit vectors, which are therefore the lifts
        rows = _annihilator(field, n, self.basis)
        pivots = {next(compress(count(), row)) for row in self.basis}
        units = Matrix.identity(field, n).entries
        return (Matrix(field, len(rows), n, tuple(rows)),
                [units[f] for f in range(n) if f not in pivots])

    def to_str_rows(self) -> list:
        ts = self.field.to_str
        return [[ts(x) for x in row] for row in self.basis]


def _image(space: Subspace, transposes: Sequence[Matrix]) -> Subspace:
    """span{g v : g an operator, v in the basis of ``space``}, each operator
    passed as its transpose g^T, so that g v is v @ g^T; the zero space is
    its own image."""
    if not space.basis:
        return space
    field, n = space.field, space.ambient_dim
    return Subspace(field, n, _echelon(field, n, _image_rows(space, transposes)))


def _spin(space: Subspace, transposes: Sequence[Matrix]) -> Subspace:
    """The smallest subspace that contains ``space`` and is invariant under
    the operators of ``_image``: a full space as it is, otherwise the space
    with images added until it stops growing. Each round adds the image of
    the last image only; that adds the image of the whole space, since the
    images of the earlier terms are in it already."""
    new = space
    while not space.is_full():
        new = _image(new, transposes)
        grown = space + new
        if grown == space:
            break
        space = grown
    return space


def _walk(space: Subspace, transposes: Sequence[Matrix]) -> list:
    """[space, its image, the image of that, ...] under the operators of
    ``_image``, ending before the first term already taken (compared by
    canonical basis, not hashed). A shrinking walk ends at a repeat of its
    last term, a zero term included; one under operators that do not keep
    ``space`` invariant can also cycle back to an earlier term."""
    terms = [space]
    while True:
        nxt = _image(terms[-1], transposes)
        if any(nxt.basis == t.basis for t in terms):
            return terms
        terms.append(nxt)


def _image_rows(space: Subspace, transposes: Sequence[Matrix]):
    """Each nonzero g v once, computed only when the reducer reads it: the
    sum of v[k] times row k of g^T over the nonzero rows k, as in a
    product. The full space has the identity as its echelon basis, so its
    images are the operators' own rows."""
    field, n = space.field, space.ambient_dim
    zero = field.zero()
    seen = {(zero,) * n}
    if len(space.basis) == n:
        for gt in transposes:
            entries = gt.entries
            for k, _ in gt._row_terms:
                row = entries[k]
                if row not in seen:
                    seen.add(row)
                    yield row
        return
    reduce_row = field.reduce_row
    for gt in transposes:
        terms = gt._row_terms
        for v in space.basis:
            acc = None
            for k, ts in terms:
                a = v[k]
                if a:
                    if acc is None:
                        acc = [zero] * n
                    for j, b in ts:
                        acc[j] += a * b
            if acc is not None:
                row = reduce_row(acc)
                if row not in seen:
                    seen.add(row)
                    yield row
