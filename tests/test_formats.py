import json

import pytest

from leibniz_engel import cyclic, heisenberg3, regular_bimodule
from leibniz_engel.algebra import MAX_DIM
from leibniz_engel.errors import FormatError
from leibniz_engel.fields import GF, QQ
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
