"""Property tests: the sparse kernels against the per-scalar oracles.

Random sparse and dense inputs over Q, F_5 and F_7, with negative and
fractional entries, all-zero rows and zero-row shapes; the batched
products of one element with many are checked against the product of
coordinate vectors on the small fuzz corpus, the Lie-set closure of random
generators (repeats and squares among them) and its table against the
pair-by-pair closure at random caps, and the derivation and
automorphism checks against their per-pair loops. The sparse contraction
that checks the defining identity and the operator pair identities is checked
against the triple-by-triple and matrix-product oracles on random tensors,
mostly not Leibniz, and on random action families that are mostly not
bimodules; the violating triples are the swapped pairs at which
left_mult_of_product fails. A right operand is read
through the nonzero rows it caches, so reuse, equality and hashing are
checked too, and a recording row shows that a product reads only those
rows. The echelon reducer is checked against column-wise Gauss-Jordan
on tall matrices with zero and copied rows, a recording row stream shows
that it reads no row after the one that completes full rank, and the
image step and the annihilator read-off are checked against spans and
kernels read off that oracle. Every result
is in the canonical form of its field and never a float. Skipped when
hypothesis is not installed; the sympy comparison also needs sympy.
"""

from fractions import Fraction
from functools import partial

import pytest

from leibniz_engel.algebra import (Element, _add_combination, _products_with,
                                   left_mult_matrix, lie_set_closure,
                                   mult_coords, validate_leibniz,
                                   verify_operator_identities)
from leibniz_engel.bimodule import Bimodule, validate_bimodule
from leibniz_engel.corollaries import is_automorphism, is_derivation
from leibniz_engel.errors import CapExceeded
from leibniz_engel.fields import GF, QQ, RationalField
from leibniz_engel.linalg import (Matrix, Subspace, _annihilator, _echelon,
                                  _image, kernel_basis, rref)

from oracles import (add_combination_per_scalar, apply_per_scalar,
                     automorphism_check_per_pair, derivation_check_per_pair,
                     leibniz_triple_violations, lie_set_closure_per_pair,
                     matmul_per_scalar,
                     mult_coords_per_scalar, operator_pair_violations,
                     quotient_data_by_inverse, rref_per_scalar,
                     transpose_per_column, unchecked_algebra)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIELDS = st.sampled_from((QQ, GF(5), GF(7)))
SETTINGS = settings(max_examples=100, deadline=None)


def scalars(field):
    ints = st.integers(-9, 9)
    if field == QQ:
        return st.one_of(ints, st.fractions(-4, 4, max_denominator=6))
    return ints


@st.composite
def vectors(draw, field, size):
    sparse = draw(st.booleans())
    entry = st.one_of(st.just(0), st.just(0), st.just(0), scalars(field)) \
        if sparse else scalars(field)
    return tuple(field.normalize(draw(entry)) for _ in range(size))


@st.composite
def matrices(draw, field, rows=None, cols=None):
    nrows = draw(st.integers(0, 6)) if rows is None else rows
    ncols = draw(st.integers(1, 6)) if cols is None else cols
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    entries = tuple((field.zero(),) * ncols if i in zero_rows
                    else draw(vectors(field, ncols)) for i in range(nrows))
    return Matrix(field, nrows, ncols, entries)


@st.composite
def matrix_pairs(draw):
    """Two multipliable matrices over one field."""
    field = draw(FIELDS)
    inner = draw(st.integers(0, 6))
    a = draw(matrices(field, cols=inner))
    b = draw(matrices(field, rows=inner))
    return a, b


@st.composite
def field_matrices(draw):
    field = draw(FIELDS)
    return draw(matrices(field))


def assert_canonical(field, values):
    """Over Q an entry is an int exactly when it is integral, otherwise a
    Fraction with denominator > 1, and never a float; over F_p it is a
    residue in [0, p)."""
    for x in values:
        if field == QQ:
            assert type(x) is int or (type(x) is Fraction
                                      and x.denominator > 1)
        else:
            assert type(x) is int and 0 <= x < field.p


def flat(m: Matrix) -> list:
    return [x for row in m.entries for x in row]


@SETTINGS
@given(matrix_pairs())
def test_matmul_equals_oracle(pair):
    a, b = pair
    product = a @ b
    assert product == matmul_per_scalar(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert_canonical(a.field, flat(product))


@SETTINGS
@given(st.data())
def test_reused_right_operand_equals_oracle(data):
    field = data.draw(FIELDS)
    inner = data.draw(st.integers(0, 6))
    square = data.draw(st.booleans())
    b = data.draw(matrices(field, rows=inner, cols=inner if square else None))
    fresh = Matrix(field, b.rows, b.cols, b.entries)
    lefts = [data.draw(matrices(field, cols=inner)) for _ in range(2)]
    if b.rows == b.cols:
        lefts.append(b)
    for a in lefts:
        assert a @ b == matmul_per_scalar(a, b)
    assert b == fresh and hash(b) == hash(fresh)


@SETTINGS
@given(st.data())
def test_transpose_equals_oracle(data):
    field = data.draw(FIELDS)
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m = data.draw(matrices(field, rows, cols))
    t = m.transpose()
    assert t == transpose_per_column(m)
    assert (t.rows, t.cols, len(t.entries)) == (m.cols, m.rows, m.cols)
    assert t.transpose() == m


class RecordingRow(tuple):
    """A matrix row that records every index read from it."""

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)


def test_product_reads_only_nonzero_rows_of_right_operand(dense_f7_closures):
    zero_rows = 0
    for algebra, closure in dense_f7_closures:
        field, n = algebra.field, algebra.dim
        plain = Matrix(field, len(closure), n,
                       tuple(y.coords for y in closure.members))
        for x in closure.members:
            lt = left_mult_matrix(x).transpose()
            nonzero = [k for k, row in enumerate(lt.entries) if any(row)]
            zero_rows += n - len(nonzero)
            rows = tuple(map(RecordingRow, plain.entries))
            for row in rows:
                row.reads = []
            product = Matrix(field, plain.rows, n, rows) @ lt
            assert product.entries == _products_with(x, plain)
            assert all(row.reads == nonzero for row in rows)
    assert zero_rows  # some L_x^T has zero rows, and they were never read


@SETTINGS
@given(st.data())
def test_apply_equals_oracle(data):
    field = data.draw(FIELDS)
    m = data.draw(matrices(field))
    v = data.draw(vectors(field, m.cols))
    out = m.apply(v)
    assert out == apply_per_scalar(m, v)
    assert len(out) == m.rows
    assert_canonical(field, out)


@SETTINGS
@given(st.data())
def test_add_and_neg_equal_elementwise(data):
    field = data.draw(FIELDS)
    a = data.draw(matrices(field))
    b = data.draw(matrices(field, rows=a.rows, cols=a.cols))
    total, negated = a + b, -a
    assert flat(total) == [field.add(x, y) for x, y in zip(flat(a), flat(b))]
    assert flat(negated) == [field.neg(x) for x in flat(a)]
    assert_canonical(field, flat(total) + flat(negated))


@SETTINGS
@given(st.data())
def test_add_combination_equals_oracle(data):
    field = data.draw(FIELDS)
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    count = data.draw(st.integers(0, 4))
    base = data.draw(matrices(field, rows, cols))
    mats = [data.draw(matrices(field, rows, cols)) for _ in range(count)]
    coords = data.draw(vectors(field, count))
    out = _add_combination(base, coords, mats)
    assert out == add_combination_per_scalar(base, coords, mats)
    assert_canonical(field, flat(out))


@SETTINGS
@given(st.data())
def test_mult_coords_equals_oracle(data):
    field = data.draw(FIELDS)
    n = data.draw(st.integers(0, 5))
    structure = [[data.draw(vectors(field, n)) for _ in range(n)]
                 for _ in range(n)]
    algebra = unchecked_algebra(field, structure)
    for _ in range(3):
        x, y = data.draw(vectors(field, n)), data.draw(vectors(field, n))
        out = mult_coords(algebra, x, y)
        assert out == mult_coords_per_scalar(field, algebra.structure, x, y)
        assert_canonical(field, out)


@SETTINGS
@given(st.data())
def test_batched_products_equal_mult_coords(small_corpus, data):
    algebra, _ = data.draw(st.sampled_from(small_corpus))
    field, n = algebra.field, algebra.dim
    x = data.draw(st.one_of(st.just((field.zero(),) * n), vectors(field, n)))
    ys = data.draw(matrices(field, cols=n))
    lefts = _products_with(Element(algebra, x), ys)
    # y x is the left product of y, taken against x as a one-row matrix
    xs = Matrix(field, 1, n, (x,))
    rights = [_products_with(Element(algebra, y), xs)[0] for y in ys.entries]
    assert len(lefts) == len(rights) == ys.rows
    for y, left, right in zip(ys.entries, lefts, rights):
        assert left == mult_coords(algebra, x, y)
        assert right == mult_coords(algebra, y, x)
        assert_canonical(field, left + right)


@st.composite
def generator_lists(draw, algebra):
    """Nonzero elements of the algebra with repeats, among them squares
    x x, which lie in the left annihilator: (xx)z = 0 for every z."""
    field, n = algebra.field, algebra.dim
    nonzero = vectors(field, n).map(
        lambda x: x if any(x) else (field.one(),) + x[1:])
    xs = draw(st.lists(nonzero, min_size=1, max_size=4))
    squares = [s for s in (mult_coords(algebra, x, x) for x in xs) if any(s)]
    out = xs + draw(st.lists(st.sampled_from(squares), max_size=3)
                    if squares else st.just([]))
    out += draw(st.lists(st.sampled_from(out), max_size=2))
    return [Element(algebra, x) for x in draw(st.permutations(out))]


@SETTINGS
@given(st.data())
def test_closure_of_generators_equals_per_pair_oracle(small_corpus, data):
    """The closure of any nonzero generators, not only of a basis, adjoins
    the members of the pair-by-pair closure in its order and stops at the
    same cap; each table cell is the member index of x y, or -1."""
    algebra, _ = data.draw(st.sampled_from(small_corpus))
    gens = data.draw(generator_lists(algebra))
    cap = data.draw(st.integers(1, 1000))
    try:
        closure = lie_set_closure(gens, cap=cap)
    except CapExceeded as exc:
        ours = ("cap", exc.cap, exc.members_so_far)
    else:
        ours = [x.coords for x in closure.members]
        index = {x: i for i, x in enumerate(ours)}
        products = [[mult_coords(algebra, x, y) for y in ours] for x in ours]
        assert [list(row) for row in closure.table] == [
            [index[p] if any(p) else -1 for p in row] for row in products]
    try:
        expected = [x.coords for x in lie_set_closure_per_pair(gens, cap)]
    except CapExceeded as exc:
        expected = ("cap", exc.cap, exc.members_so_far)
    assert ours == expected


@SETTINGS
@given(st.data())
def test_map_checks_equal_per_pair_oracle(small_corpus, data):
    algebra, _ = data.draw(st.sampled_from(small_corpus))
    field, n = algebra.field, algebra.dim
    # L_x is a derivation and the identity an automorphism, so both
    # verdicts occur; a random matrix mostly fails with a witness
    m = data.draw(st.one_of(
        matrices(field, n, n), st.just(Matrix.identity(field, n)),
        vectors(field, n).map(
            lambda x: left_mult_matrix(Element(algebra, x)))))
    check = is_derivation(algebra, m)
    assert (check.ok, check.witness) == derivation_check_per_pair(algebra, m)
    check = is_automorphism(algebra, m)
    assert (check.ok, check.witness) == \
        automorphism_check_per_pair(algebra, m)


MULT_IDENTITIES = ("right_mult_of_product", "mixed_mult_commutation",
                   "left_mult_of_product", "right_right_reduction")
ACTION_IDENTITIES = ("right_action_of_product", "mixed_action_commutation",
                     "left_action_of_product", "right_right_action_reduction")


@st.composite
def tensors(draw, field):
    """A random n x n x n tensor, n in 0..5, of sparse or dense rows: almost
    never a Leibniz algebra."""
    n = draw(st.integers(0, 5))
    return [[draw(vectors(field, n)) for _ in range(n)] for _ in range(n)]


@SETTINGS
@given(st.data())
def test_validate_leibniz_equals_triple_oracle(data):
    field = data.draw(FIELDS)
    algebra = unchecked_algebra(field, data.draw(tensors(field)))
    c, n = algebra.structure, algebra.dim
    report = validate_leibniz(c, field, n)
    assert report.violations == leibniz_triple_violations(c, field, n)
    assert report.ok == (not report.violations)


@SETTINGS
@given(st.data())
def test_validate_triples_are_the_swapped_left_mult_of_product_pairs(data):
    field = data.draw(FIELDS)
    algebra = unchecked_algebra(field, data.draw(tensors(field)))
    triples = validate_leibniz(algebra.structure, field, algebra.dim).violations
    pairs = [v.witness["pair"]
             for v in verify_operator_identities(algebra).violations
             if v.identity == "left_mult_of_product"]
    assert sorted({t[:2] for t in triples}) == \
        sorted((c, b) for b, c in pairs)


@SETTINGS
@given(st.data())
def test_operator_pair_identities_equal_product_oracle(data):
    field = data.draw(FIELDS)
    algebra = unchecked_algebra(field, data.draw(tensors(field)))
    c, n = algebra.structure, algebra.dim
    lefts = [Matrix.from_rows(field, [c[i][j] for j in range(n)]).transpose()
             for i in range(n)]
    rights = [Matrix.from_rows(field, [c[j][i] for j in range(n)]).transpose()
              for i in range(n)]
    expected = operator_pair_violations(c, lefts, rights, MULT_IDENTITIES) \
        if n else []
    got = [(v.identity, v.witness["pair"])
           for v in verify_operator_identities(algebra).violations
           if v.identity in MULT_IDENTITIES]
    assert got == expected


@SETTINGS
@given(st.data())
def test_bimodule_axioms_equal_product_oracle(small_corpus, data):
    algebra, _ = data.draw(st.sampled_from(small_corpus))
    field, n = algebra.field, algebra.dim
    size = data.draw(st.integers(0, 4))
    lefts, rights = ([data.draw(matrices(field, size, size)) for _ in range(n)]
                     for _ in range(2))
    check = validate_bimodule(Bimodule.create(algebra, size, lefts, rights))
    expected = operator_pair_violations(algebra.structure, lefts, rights,
                                        ACTION_IDENTITIES)
    derived = ACTION_IDENTITIES[-1]
    assert [(v.identity, v.witness["pair"]) for v in check.violations] == \
        [v for v in expected if v[0] != derived]
    assert [(v.identity, v.witness["pair"])
            for v in check.derived_violations] == \
        [v for v in expected if v[0] == derived]


@SETTINGS
@given(field_matrices())
def test_rref_equals_oracle(m):
    red, rank, pivots = rref(m)
    assert (red, rank, pivots) == rref_per_scalar(m)
    assert_canonical(m.field, flat(red))


@SETTINGS
@given(field_matrices())
def test_rref_is_canonical_and_idempotent(m):
    red, rank, pivots = rref(m)
    assert rref(red) == (red, rank, pivots)
    for r, row in enumerate(red.entries):
        if r >= rank:
            assert not any(row)
            continue
        c = pivots[r]
        assert row[c] == 1 and not any(row[:c])
        assert all(red.entries[i][c] == 0 for i in range(m.rows) if i != r)
    # a row-equivalent matrix (rows reversed, the last added to the first)
    # has the same reduced form
    if m.rows:
        rows = list(reversed(m.entries))
        rows[0] = tuple(m.field.add(x, y) for x, y in zip(rows[0], rows[-1])) \
            if m.rows > 1 else rows[0]
        assert rref(Matrix(m.field, m.rows, m.cols, tuple(rows))).matrix == red


@st.composite
def tall_matrices(draw):
    """Up to three times as many rows as columns, some rows zero and some
    copied from others."""
    field = draw(FIELDS)
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(ncols, 3 * ncols))
    rows = list(draw(matrices(field, rows=nrows, cols=ncols)).entries)
    for i, j in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                        st.integers(0, nrows - 1)),
                              max_size=nrows)):
        rows[i] = rows[j]
    return Matrix(field, nrows, ncols, tuple(rows))


@SETTINGS
@given(tall_matrices())
def test_rref_of_tall_matrices_equals_oracle(m):
    assert rref(m) == rref_per_scalar(m)


def full_rank_stream(field, size, data):
    """Some rows, then the rows of a unit upper triangular (so nonsingular)
    matrix, then more rows; and the number of rows up to and including
    the one that completes full rank."""
    rows = list(data.draw(matrices(field, cols=size)).entries)
    square = data.draw(matrices(field, rows=size, cols=size))
    rows += [tuple(field.one() if j == i else x if j > i else field.zero()
                   for j, x in enumerate(row))
             for i, row in enumerate(square.entries)]
    rows += data.draw(matrices(field, cols=size)).entries
    done = next(k for k in range(1, len(rows) + 1)
                if rref_per_scalar(Matrix(field, k, size,
                                          tuple(rows[:k])))[1] == size)
    return rows, done


@SETTINGS
@given(st.data())
def test_reducer_reads_no_row_after_full_rank(data):
    field = data.draw(FIELDS)
    size = data.draw(st.integers(1, 5))
    rows, done = full_rank_stream(field, size, data)
    read = []

    def stream():
        for row in rows:
            read.append(row)
            yield row

    assert _echelon(field, size, stream()) == \
        Matrix.identity(field, size).entries
    assert read == rows[:done]


@pytest.mark.parametrize("make", (RationalField, partial(GF, 5), partial(GF, 7)))
def test_identity_is_shared_and_spans_the_full_space(make):
    field = make()
    for n in range(7):
        per_entry = tuple(tuple(field.one() if i == j else field.zero()
                                for j in range(n)) for i in range(n))
        identity = Matrix.identity(field, n)
        # an equal field object built apart shares it too
        assert Matrix.identity(make(), n) is identity
        assert identity == Matrix(field, n, n, per_entry)
        assert Subspace.full(field, n) == Subspace(field, n, per_entry)
        assert Subspace.full(field, n).basis is identity.entries
    assert Matrix.identity(GF(5), 3) is not Matrix.identity(GF(7), 3)


@SETTINGS
@given(field_matrices())
def test_kernel_basis_vectors_are_killed(m):
    kernel = kernel_basis(m)
    assert kernel.dim == m.cols - rref(m).rank
    zero = (m.field.zero(),) * m.rows
    for v in kernel.basis:
        assert m.apply(v) == zero
        assert_canonical(m.field, v)


@SETTINGS
@given(st.data())
def test_contains_agrees_with_rank(data):
    field = data.draw(FIELDS)
    m = data.draw(matrices(field))
    v = data.draw(vectors(field, m.cols))
    space = Subspace.span(field, m.cols, m.entries)
    grown = Matrix(field, m.rows + 1, m.cols, m.entries + (v,))
    assert space.contains(v) == (rref_per_scalar(grown)[1] == space.dim)
    assert all(space.contains(row) for row in m.entries)


@SETTINGS
@given(st.data())
def test_subspace_sum_equals_public_span(data):
    field = data.draw(FIELDS)
    a = data.draw(matrices(field))
    b = data.draw(matrices(field, cols=a.cols))
    A = Subspace.span(field, a.cols, a.entries)
    B = Subspace.span(field, b.cols, b.entries)
    assert A + B == Subspace.span(field, a.cols, A.basis + B.basis)


@st.composite
def operators_with_repeats(draw, field, size):
    """Square operators, some rows copied onto others and some operators
    listed twice."""
    ops = []
    for _ in range(draw(st.integers(0, 4))):
        rows = list(draw(matrices(field, rows=size, cols=size)).entries)
        for i, j in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)),
                                  max_size=3)):
            rows[i] = rows[j]
        ops.append(Matrix(field, size, size, tuple(rows)))
    repeats = draw(st.lists(st.sampled_from(ops), max_size=2)) if ops else []
    return ops + repeats


def span_per_scalar(field, size, rows) -> Subspace:
    """The span of rows, its basis read off ``rref_per_scalar``."""
    red, rank, _ = rref_per_scalar(Matrix(field, len(rows), size, tuple(rows)))
    return Subspace(field, size, red.entries[:rank])


@SETTINGS
@given(st.data())
def test_image_equals_span_of_per_scalar_products(data):
    field = data.draw(FIELDS)
    size = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(("zero", "full", "span")))
    if kind == "zero":
        space = Subspace.zero(field, size)
    elif kind == "full":
        space = Subspace.full(field, size)
    else:
        space = span_per_scalar(field, size,
                                data.draw(matrices(field, cols=size)).entries)
    ops = data.draw(operators_with_repeats(field, size))
    columns = Matrix(field, size, space.dim,
                     tuple(zip(*space.basis)) if space.dim else ((),) * size)
    images = []
    for g in ops:
        products = transpose_per_column(matmul_per_scalar(g, columns))
        # one operator alone keeps the image of a proper subspace proper
        assert _image(space, [transpose_per_column(g)]) == \
            span_per_scalar(field, size, products.entries)
        images += products.entries
    image = _image(space, [transpose_per_column(g) for g in ops])
    assert image == span_per_scalar(field, size, images)
    assert_canonical(field, [x for row in image.basis for x in row])


def kernel_per_scalar(field, size, rows) -> Subspace:
    """{v : b v = 0 for the rows b}, from ``rref_per_scalar`` of [B^T | I]:
    a row of the result that is zero on its B^T block is E on the other,
    with E B^T = 0 for an invertible E, so its I block is a kernel vector,
    and there are size - rank such rows."""
    r = len(rows)
    units = Matrix.identity(field, size).entries
    aug = Matrix(field, size, r + size,
                 tuple(tuple(b[j] for b in rows) + units[j]
                       for j in range(size)))
    red = rref_per_scalar(aug)[0]
    return span_per_scalar(field, size, [row[r:] for row in red.entries
                                         if not any(row[:r])])


@SETTINGS
@given(st.data())
def test_annihilator_equals_per_scalar_kernel(data):
    field = data.draw(FIELDS)
    size = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(("zero", "full", "span")))
    if kind == "zero":
        rows = ()
    elif kind == "full":
        rows = data.draw(matrices(field, rows=size, cols=size)).entries
        rows += Matrix.identity(field, size).entries
    else:
        rows = data.draw(matrices(field, cols=size)).entries
    basis = span_per_scalar(field, size, rows).basis
    annihilator = _annihilator(field, size, basis)
    assert len(annihilator) == size - len(basis)
    assert_canonical(field, [x for row in annihilator for x in row])
    assert Subspace._span(field, size, annihilator) == \
        kernel_per_scalar(field, size, rows)


@SETTINGS
@given(field_matrices())
def test_quotient_data_equals_inverse_oracle(m):
    space = Subspace.span(m.field, m.cols, m.entries)
    q, lifts = space.quotient_data()
    assert (q, lifts) == quotient_data_by_inverse(space)
    assert all(not any(q.apply(b)) for b in space.basis)
    unit_rows = Matrix.identity(m.field, q.rows).entries
    assert tuple(q.apply(e) for e in lifts) == unit_rows
    assert_canonical(m.field, flat(q))


@SETTINGS
@given(matrices(QQ))
def test_rref_matches_sympy_over_q(m):
    sympy = pytest.importorskip("sympy")
    expected, pivots = sympy.Matrix(m.rows, m.cols, flat(m)).rref()
    red, _, ours = rref(m)
    assert ours == tuple(pivots)
    assert flat(red) == [Fraction(int(x.p), int(x.q)) for x in expected]


def assert_no_float(values):
    assert not any(isinstance(x, float) for x in values)


@SETTINGS
@given(st.data())
def test_field_methods_never_return_a_float(data):
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    field = data.draw(FIELDS)
    raw_a, raw_b = data.draw(scalars(field)), data.draw(scalars(field))
    a, b = field.normalize(raw_a), field.normalize(raw_b)
    results = [field.add(a, b), field.sub(a, b), field.mul(a, b),
               field.neg(a), field.normalize(raw_a), field.parse(str(raw_a)),
               *field.reduce_row([a + b, a - b, a * b, -a])]
    if type(raw_a) is int:
        results.append(field.parse(raw_a))
    if b:
        results += [field.inv(b), field.div(a, b)]
    assert_no_float(results)
    assert_canonical(field, results)


@SETTINGS
@given(st.data())
def test_kernels_never_return_a_float(data):
    field = data.draw(FIELDS)
    m = data.draw(matrices(field))
    other = data.draw(matrices(field, rows=m.cols))
    v = data.draw(vectors(field, m.cols))
    n = data.draw(st.integers(0, 4))
    structure = [[data.draw(vectors(field, n)) for _ in range(n)]
                 for _ in range(n)]
    algebra = unchecked_algebra(field, structure)
    x, y = data.draw(vectors(field, n)), data.draw(vectors(field, n))
    combination = _add_combination(m, v, [m] * len(v))
    results = (flat(m @ other) + list(m.apply(v)) + flat(rref(m).matrix)
               + [c for u in kernel_basis(m).basis for c in u]
               + flat(combination) + list(mult_coords(algebra, x, y)))
    assert_no_float(results)
    assert_canonical(field, results)
