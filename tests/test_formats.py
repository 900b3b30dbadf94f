import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_engel import cyclic, heisenberg3, regular_bimodule
from leibniz_engel.algebra import MAX_DIM, LeibnizAlgebra
from leibniz_engel.bimodule import Bimodule
from leibniz_engel.errors import FormatError
from leibniz_engel.fields import GF, QQ
from leibniz_engel.linalg import Matrix
from leibniz_engel.formats import (dump_bimodule,
                                   field_from_json, field_to_json,
                                   load_algebra_dict, load_bimodule,
                                   load_elements, load_ideals, load_map,
                                   parse_field_name, save_algebra)


def test_field_json_round_trip():
    assert field_from_json("Q") == QQ
    assert field_from_json({"Fp": 5}) == GF(5)
    assert field_to_json(QQ) == "Q"
    assert field_to_json(GF(7)) == {"Fp": 7}
    with pytest.raises(FormatError):
        field_from_json({"Fp": 6})
    with pytest.raises(FormatError):
        field_from_json("R")


def test_parse_field_name():
    assert parse_field_name("Q") == QQ
    assert parse_field_name("F11") == GF(11)
    with pytest.raises(FormatError):
        parse_field_name("GF(5)")


def test_algebra_round_trip(tmp_path):
    for algebra in (cyclic(3), heisenberg3(GF(7))):
        path = tmp_path / "a.json"
        save_algebra(algebra, path)
        loaded = load_algebra_dict(json.loads(path.read_text()))
        assert loaded.field == algebra.field
        assert loaded.structure == algebra.structure


def test_algebra_rational_coefficients():
    data = {"field": "Q", "dim": 2,
            "products": [[1, 1, 2, "1/2"], [1, 2, 2, -3]]}
    A = load_algebra_dict(data)
    assert A.structure[0][0][1] == QQ.parse("1/2")
    assert A.structure[0][1][1] == QQ.parse(-3)


def test_algebra_fp_fraction_coefficient():
    data = {"field": {"Fp": 5}, "dim": 2, "products": [[1, 1, 2, "1/2"]]}
    A = load_algebra_dict(data)
    assert A.structure[0][0][1] == 3  # 1/2 = 3 mod 5


@pytest.mark.parametrize("products,message", [
    ([[1, 1, 2, 1], [1, 1, 2, 1]], "duplicate"),
    ([[0, 1, 2, 1]], "outside"),
    ([[1, 1, 3, 1]], "outside"),
    ([[1, 1, 2]], "entries"),
    ([[1, 1, 2, "1.5"]], "literal"),
    ([[1, 1, 2, "1/-2"]], "literal"),
])
def test_algebra_file_rejections(products, message):
    data = {"field": "Q", "dim": 2, "products": products}
    with pytest.raises(FormatError, match=message):
        load_algebra_dict(data)


def test_algebra_file_requires_positive_dim():
    with pytest.raises(FormatError):
        load_algebra_dict({"field": "Q", "dim": 0, "products": []})
    with pytest.raises(FormatError):
        load_algebra_dict({"field": "Q"})


def test_dimensions_past_the_limit_are_refused_before_allocation(tmp_path):
    for dim in (MAX_DIM + 1, 10**9):
        with pytest.raises(FormatError, match="limit"):
            load_algebra_dict({"field": "Q", "dim": dim, "products": []})
    path = tmp_path / "m.json"
    for m in (0, MAX_DIM + 1, 10**9):
        path.write_text(json.dumps({"module_dim": m,
                                    "left_actions": [[], []],
                                    "right_actions": [[], []]}))
        with pytest.raises(FormatError, match="module_dim"):
            load_bimodule(path, cyclic(2))


def test_names_round_trip(tmp_path):
    A = cyclic(2)
    path = tmp_path / "named.json"
    save_algebra(A, path)
    data = json.loads(path.read_text())
    assert data["names"] == ["e1", "e2"]
    with pytest.raises(FormatError):
        load_algebra_dict({"field": "Q", "dim": 2, "names": ["x"],
                           "products": []})


def test_bimodule_round_trip(tmp_path):
    A = cyclic(2)
    M = regular_bimodule(A)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dump_bimodule(M)))
    loaded = load_bimodule(path, A)
    assert loaded == M


def test_elements_and_map_and_ideals(tmp_path):
    A = cyclic(2)
    elems = tmp_path / "e.json"
    elems.write_text(json.dumps([[1, 0], ["0", "1"]]))
    loaded = load_elements(elems, A)
    assert [e.coords for e in loaded] == [(QQ.one(), QQ.zero()),
                                          (QQ.zero(), QQ.one())]

    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": [[1, 0], [0, 2]],
                              "kind": "derivation"}))
    self_map = load_map(mp, A)
    assert self_map.entries[1][1] == QQ.parse(2)
    assert (self_map.rows, self_map.cols, self_map.field) == \
        (A.dim, A.dim, A.field)
    mp.write_text(json.dumps({"matrix": [[1, 0], [0, 2]], "kind": "other"}))
    with pytest.raises(FormatError, match="kind"):
        load_map(mp, A)

    ideals = tmp_path / "i.json"
    ideals.write_text(json.dumps({"ideals": [[[0, 1]], [[0, 1], [0, 2]]]}))
    loaded = load_ideals(ideals, A)
    assert [s.dim for s in loaded] == [1, 1]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_map(bad, A)
    with pytest.raises(FormatError):
        load_map(tmp_path / "missing.json", A)


FORMATS_PY = (Path(__file__).resolve().parent.parent / "src" / "leibniz_engel"
              / "formats.py")


def _scaled_algebra(field):
    """cyclic(3) on e1..e3 beside heisenberg3 on e4..e6, with rescaled
    constants, fractions among them: e1 e_i = c_i e_{i+1} and
    e4 e5 = a e6 = -e5 e4 keep the defining identity for any c_i and a."""
    c = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    c[0][0][1], c[0][1][2] = Fraction(1, 2), Fraction(-9, 4)
    c[3][4][5], c[4][3][5] = Fraction(10, 3), Fraction(-10, 3)
    return LeibnizAlgebra.create(field, c)


def _noisy(field, x, k):
    """(value, literal) for the canonical scalar ``x``: a value equal to it
    in the field but not canonical, and a JSON literal of that value; ``k``
    picks among the forms. Over Q the value is a Fraction, also when
    integral, written as an unreduced, a padded or a plain literal; over
    F_p it is x shifted by a multiple of p, written as an int, a padded
    string or a fraction over 2."""
    if field == QQ:
        v = Fraction(x)
        n, d = v.numerator, v.denominator
        return v, (f"{3 * n}/{3 * d}", f" {n}/{d}\t",
                   n if d == 1 else f"{n}/{d}")[k % 3]
    v = x + field.p * (-3, 0, 10**25)[k % 3]
    return v, (v, f" {v} ", f"{2 * v}/2")[k % 3]


def _noisy_rows(field, rows, start=0):
    """Values and literals of a matrix, entry by entry."""
    pairs = [[_noisy(field, x, start + 7 * i + j) for j, x in enumerate(row)]
             for i, row in enumerate(rows)]
    return ([[v for v, _ in row] for row in pairs],
            [[lit for _, lit in row] for row in pairs])


def _types(rows):
    return [[type(x) for x in row] for row in rows]


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_loaders_build_what_create_and_from_rows_build(field, tmp_path):
    """Each loader's result equals what ``LeibnizAlgebra.create`` or
    ``Matrix.from_rows`` builds from the same values, scalar types
    included, though the loaders parse each scalar once and normalise
    nothing again."""
    A = _scaled_algebra(field)
    n = A.dim
    values = [[[0] * n for _ in range(n)] for _ in range(n)]
    products = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = A.structure[i][j][k]
                if x or (i + j + k) % 5 == 0:  # some zeros in noisy form
                    values[i][j][k], literal = _noisy(field, x, i + j + k)
                    products.append([i + 1, j + 1, k + 1, literal])
    data = {"field": field_to_json(field), "dim": n, "products": products}
    loaded = load_algebra_dict(data)
    built = LeibnizAlgebra.create(field, values)
    assert loaded == built == A
    for got, want in zip(loaded.structure, built.structure):
        assert _types(got) == _types(want)
    assert loaded._cache["left_mult_of_product"] is True

    M = regular_bimodule(A)
    sides = {}
    for side in ("left_actions", "right_actions"):
        pairs = [_noisy_rows(field, m.entries, t)
                 for t, m in enumerate(getattr(M, side))]
        sides[side] = ([Matrix.from_rows(field, v) for v, _ in pairs],
                       [lit for _, lit in pairs])
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "module_dim": n, "left_actions": sides["left_actions"][1],
        "right_actions": sides["right_actions"][1]}))
    module = load_bimodule(path, A)
    built = Bimodule.create(A, n, sides["left_actions"][0],
                            sides["right_actions"][0])
    assert module == built == M
    for got, want in zip(module.left_actions + module.right_actions,
                         built.left_actions + built.right_actions):
        assert _types(got.entries) == _types(want.entries)

    rows = [[Fraction(i - 2 * j, 2 ** i) for j in range(n)] for i in range(n)]
    canonical = Matrix.from_rows(field, rows).entries
    values, literals = _noisy_rows(field, canonical)
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": literals}))
    loaded_map = load_map(path, A)
    built_map = Matrix.from_rows(field, values)
    assert loaded_map == built_map
    assert loaded_map.entries == canonical
    assert _types(loaded_map.entries) == _types(built_map.entries)


def test_formats_reaches_algebras_only_through_the_validating_constructor():
    """Every algebra read from a file is checked against the defining
    identity: in formats.py, ``LeibnizAlgebra`` is reached through
    ``_validated`` alone, never through ``_from_canonical`` nor its own
    constructor."""
    tree = ast.parse(FORMATS_PY.read_text(encoding="utf-8"))
    reached = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id == "LeibnizAlgebra"]
    called = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "LeibnizAlgebra"]
    assert reached == ["_validated"]
    assert not called
    assert "_from_canonical" not in {node.attr for node in ast.walk(tree)
                                     if isinstance(node, ast.Attribute)}
