"""JSON file formats: algebras, bimodules, element lists, maps, ideals.

Indices in files are 1-based to mirror the usual e_1, e_2, ... notation;
everything internal is 0-based. Coefficients are JSON integers or strings
like ``"3"`` and ``"-2/5"``; rationals are never written as floats.
``field.parse`` returns canonical scalars, so the loaders normalise
nothing again: an algebra is built and validated by
``LeibnizAlgebra._validated``, a matrix by the ``Matrix`` constructor.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import MAX_DIM, Element, LeibnizAlgebra
from .bimodule import Bimodule, validate_bimodule
from .errors import FormatError
from .fields import GF, QQ, Field, _checked_int
from .linalg import Matrix, Subspace

MAX_FILE_BYTES = 2 * MAX_DIM ** 3 * 64  # 32 MiB; see _read_json


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj.keys()) == {"Fp"}:
        p = obj["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise FormatError(f"Fp wants an integer prime, got {p!r}")
        return GF(p)
    raise FormatError(f"bad field spec {obj!r} (want \"Q\" or {{\"Fp\": p}})")


def field_to_json(field: Field):
    if field == QQ:
        return "Q"
    return {"Fp": field.p}


def parse_field_name(name: str) -> Field:
    """Command-line field names: Q, F5, F7, F<p>."""
    name = name.strip()
    if name in ("Q", "q"):
        return QQ
    if name.upper().startswith("F") and name[1:].isdigit():
        return GF(_checked_int(name[1:]))
    raise FormatError(f"bad field name {name!r} (want Q or F<p>)")


def _scalar_to_json(field: Field, x):
    """An integral scalar as a JSON integer, any other rational as a
    ``"num/den"`` string."""
    if field == QQ:
        return x.numerator if x.denominator == 1 else str(x)
    return int(x)


def load_algebra_dict(data: dict) -> LeibnizAlgebra:
    """Algebra file, validated against the defining identity: a tensor that
    breaks it raises InvalidAlgebra. Unknown keys are ignored."""
    if not isinstance(data, dict):
        raise FormatError("algebra file must hold a JSON object")
    for key in ("field", "dim"):
        if key not in data:
            raise FormatError(f"algebra file is missing {key!r}")
    field = field_from_json(data["field"])
    n = _dimension(data, "dim")
    names = data.get("names")
    if names is not None:
        if (not isinstance(names, list) or len(names) != n
                or not all(isinstance(s, str) for s in names)):
            raise FormatError("names must be a list of dim strings")
    products = data.get("products", [])
    if not isinstance(products, list):
        raise FormatError(f"products must be a list of [i, j, k, coeff] "
                          f"entries, got {products!r}")
    if len(products) > n ** 3:
        raise FormatError(f"products has {len(products)} entries, more than "
                          f"the dim**3 = {n ** 3} distinct (i, j, k)")
    z = field.zero()
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for entry in products:
        if not isinstance(entry, list) or len(entry) != 4:
            raise FormatError(f"product entries are [i, j, k, coeff], got {entry!r}")
        i, j, k, coeff = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or isinstance(idx, bool) \
                    or not 1 <= idx <= n:
                raise FormatError(f"index {idx!r} outside [1, {n}]")
        if (i, j, k) in seen:
            raise FormatError(f"duplicate product entry ({i}, {j}, {k})")
        seen.add((i, j, k))
        structure[i - 1][j - 1][k - 1] = field.parse(coeff)
    return LeibnizAlgebra._validated(field, structure, names)


def load_algebra(path) -> LeibnizAlgebra:
    return load_algebra_dict(_read_json(path))


def dump_algebra(algebra: LeibnizAlgebra) -> dict:
    n = algebra.dim
    products = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = algebra.structure[i][j][k]
                if c != 0:
                    products.append([i + 1, j + 1, k + 1,
                                     _scalar_to_json(algebra.field, c)])
    out = {"field": field_to_json(algebra.field), "dim": n,
           "products": products}
    if algebra.basis_names is not None:
        out["names"] = list(algebra.basis_names)
    return out


def save_algebra(algebra: LeibnizAlgebra, path) -> None:
    Path(path).write_text(
        json.dumps(dump_algebra(algebra), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _parse_matrix(field: Field, rows, size: int, what: str) -> Matrix:
    if (not isinstance(rows, list) or len(rows) != size
            or any(not isinstance(r, list) or len(r) != size for r in rows)):
        raise FormatError(f"{what} must be a {size}x{size} matrix")
    return Matrix(field, size, size,
                  tuple(tuple(map(field.parse, row)) for row in rows))


def load_bimodule(path, algebra: LeibnizAlgebra) -> Bimodule:
    """Bimodule file, checked against the three bimodule axioms."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError("bimodule file must hold a JSON object")
    m = _dimension(data, "module_dim")
    lefts = data.get("left_actions")
    rights = data.get("right_actions")
    n = algebra.dim
    for side, mats in (("left_actions", lefts), ("right_actions", rights)):
        if not isinstance(mats, list) or len(mats) != n:
            raise FormatError(f"{side} must list {n} matrices")
    field = algebra.field
    left = [_parse_matrix(field, mat, m, "left action") for mat in lefts]
    right = [_parse_matrix(field, mat, m, "right action") for mat in rights]
    module = Bimodule.create(algebra, m, left, right)
    axioms = validate_bimodule(module)
    if not axioms.ok:
        first = axioms.violations[0]
        raise FormatError(f"bimodule violates {first.identity} at basis "
                          f"pair {first.witness['pair']}")
    return module


def dump_bimodule(module: Bimodule) -> dict:
    field = module.algebra.field
    enc = lambda mat: [[_scalar_to_json(field, x) for x in row]
                       for row in mat.entries]
    return {"module_dim": module.module_dim,
            "left_actions": [enc(m) for m in module.left_actions],
            "right_actions": [enc(m) for m in module.right_actions]}


def parse_coords(field: Field, raw, n: int) -> tuple:
    if not isinstance(raw, list) or len(raw) != n:
        raise FormatError(f"coordinate vectors need length {n}, got {raw!r}")
    return tuple(field.parse(x) for x in raw)


def load_elements(path, algebra: LeibnizAlgebra) -> list:
    """Element list file: a JSON array of coordinate vectors."""
    data = _read_json(path)
    if not isinstance(data, list) or not data:
        raise FormatError("element file must hold a nonempty JSON array")
    return [Element(algebra, parse_coords(algebra.field, raw, algebra.dim))
            for raw in data]


def load_map(path, algebra: LeibnizAlgebra) -> Matrix:
    """Map file: {"matrix": n x n entries, "kind": optional string}; a kind
    other than derivation, automorphism or none is an error. Returns the
    n x n matrix over the algebra's field."""
    data = _read_json(path)
    if not isinstance(data, dict) or "matrix" not in data:
        raise FormatError("map file must hold an object with a \"matrix\" key")
    kind = data.get("kind", "none")
    if kind not in ("derivation", "automorphism", "none"):
        raise FormatError(f"bad map kind {kind!r}")
    return _parse_matrix(algebra.field, data["matrix"], algebra.dim, "map")


def load_ideals(path, algebra: LeibnizAlgebra) -> list:
    """Ideals file: {"ideals": [[vector, ...], ...]} of spanning sets."""
    data = _read_json(path)
    if not isinstance(data, dict) or "ideals" not in data \
            or not isinstance(data["ideals"], list):
        raise FormatError("ideals file must hold {\"ideals\": [...]}")
    out = []
    for spanning in data["ideals"]:
        if not isinstance(spanning, list):
            raise FormatError("each ideal is a list of spanning vectors")
        vecs = [parse_coords(algebra.field, raw, algebra.dim)
                for raw in spanning]
        out.append(Subspace._span(algebra.field, algebra.dim, vecs))
    return out


def _dimension(data: dict, key: str) -> int:
    """A dimension from a file: an integer in [1, MAX_DIM], checked before
    anything of that size is allocated."""
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FormatError(f"{key} must be a positive integer, got {value!r}")
    if value > MAX_DIM:
        raise FormatError(f"{key} {value} exceeds the limit of {MAX_DIM}")
    return value


def _read_json(path):
    """Parse an input file, refusing one past MAX_FILE_BYTES unread. The
    largest legal file, a bimodule, holds 2 * MAX_DIM**3 scalars, each
    allowed 64 bytes: save_algebra writes [64, 64, 64, "-123/457"] in 60,
    one value per indented line."""
    try:
        size = Path(path).stat().st_size
        if size > MAX_FILE_BYTES:
            raise FormatError(f"{path} has {size} bytes, more than the limit "
                              f"of {MAX_FILE_BYTES}")
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path} nests JSON too deeply to parse") from exc
    except ValueError:
        # an integer past the int-conversion limit: parse again, checking
        # each integer's digits first, so that the error names the input
        return json.loads(text, parse_int=_checked_int)
