"""Property tests over seeded family algebras on Q, F_5 and F_7.

Algebras are drawn from the families (cyclic, abelian, heisenberg3, sol2,
direct sums and seeded basis changes), optionally with the basis rescaled
by nonzero scalars, which puts true fractions into the constants over Q,
and optionally with basis names. Files written by ``dump_algebra`` and
``save_algebra`` load back to the same algebra, and a basis change keeps
the nilpotency verdict and class and the operator identities and equals
the basis change taken one product per pair. Random family specs drawn
from the table build what direct calls of the family functions build.
The premises of corollary 3, on the closure of drawn generators or on the
drawn elements as they are, equal those assembled from ``is_lie_set``,
``subalgebra_generated`` and the per-member oracle. The builders skip
validation, so every algebra they build, from these draws, from random
specs nested up to ``MAX_SPEC_DEPTH`` deep and from the fuzz corpora, is
validated again here and must come back unchanged.
Skipped when hypothesis is not installed.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest

from leibniz_engel import (LieSet, abelian, basis_change, corollary3_check,
                           cyclic, direct_sum, heisenberg3,
                           is_nilpotent_algebra, lie_set_closure, sol2,
                           verify_operator_identities)
from leibniz_engel.algebra import (Element, LeibnizAlgebra, is_lie_set,
                                   subalgebra_generated)
from leibniz_engel.bimodule import regular_bimodule
from leibniz_engel.errors import CapExceeded
from leibniz_engel.families import (FAMILIES, MAX_SPEC_DEPTH, FamilySpec,
                                    _unimodular, build, fuzz_corpus,
                                    parse_family_spec)
from leibniz_engel.fields import GF, QQ
from leibniz_engel.formats import (dump_algebra, load_algebra,
                                   load_algebra_dict, save_algebra)
from leibniz_engel.reports import Check

from oracles import (basis_change_per_pair, left_actions_nilpotent_per_member,
                     leibniz_triple_violations)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None)


def _rescaled(algebra, scales, names):
    """The same algebra on the basis f_i = d_i e_i: f_i f_j has the
    constants d_i d_j c_ijk / d_k."""
    f, n, c = algebra.field, algebra.dim, algebra.structure
    structure = [[[f.div(f.mul(f.mul(scales[i], scales[j]), c[i][j][k]),
                         scales[k]) for k in range(n)]
                  for j in range(n)] for i in range(n)]
    return LeibnizAlgebra.create(f, structure, names)


@st.composite
def family_algebras(draw):
    field = draw(st.sampled_from((QQ, GF(5), GF(7))))
    parts = st.one_of(
        st.integers(1, 4).map(lambda n: cyclic(n, field)),
        st.integers(1, 3).map(lambda n: abelian(n, field)),
        st.just(heisenberg3(field)), st.just(sol2(field)))
    algebra = draw(parts)
    if draw(st.booleans()):
        algebra = direct_sum(algebra, draw(parts))
    if draw(st.booleans()):
        algebra = basis_change(algebra, draw(st.integers(0, 10**6)))
    n = algebra.dim
    if draw(st.booleans()):
        # numerators and denominators in 1..4 are nonzero mod 5 and mod 7
        nums = draw(st.lists(st.integers(-4, 4).filter(bool),
                             min_size=n, max_size=n))
        dens = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        names = draw(st.none() | st.lists(st.text(max_size=4),
                                          min_size=n, max_size=n))
        scales = [field.div(field.from_int(a), field.from_int(b))
                  for a, b in zip(nums, dens)]
        algebra = _rescaled(algebra, scales, names)
    return algebra


def _assert_same(loaded, algebra):
    assert loaded.field == algebra.field
    assert loaded.structure == algebra.structure
    assert loaded.basis_names == algebra.basis_names


@SETTINGS
@given(family_algebras())
def test_files_load_back_to_the_same_algebra(algebra):
    _assert_same(load_algebra_dict(json.loads(json.dumps(
        dump_algebra(algebra)))), algebra)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "algebra.json"
        save_algebra(algebra, path)
        _assert_same(load_algebra(path), algebra)


@SETTINGS
@given(family_algebras(), st.integers(0, 10**6))
@example(heisenberg3(GF(5)), 2)
def test_basis_change_keeps_class_and_identities(algebra, seed):
    changed = basis_change(algebra, seed)
    assert is_nilpotent_algebra(changed) == is_nilpotent_algebra(algebra)
    assert verify_operator_identities(changed).ok
    p = _unimodular(algebra.field, algebra.dim, random.Random(seed))
    assert changed.structure == basis_change_per_pair(algebra, p)


def _drawn_lie_set(algebra, coords, close):
    """The distinct nonzero vectors read off ``coords`` dim at a time (the
    basis when there is none), closed under products when ``close`` and
    the closure stays within 200 members, else as a public set."""
    n, field = algebra.dim, algebra.field
    vectors = [tuple(map(field.from_int, coords[i:i + n]))
               for i in range(0, len(coords) - n + 1, n)]
    elements = [Element(algebra, v) for v in dict.fromkeys(vectors)
                if any(v)] or algebra.basis()
    if close:
        try:
            return lie_set_closure(elements, cap=200)
        except CapExceeded:
            pass
    return LieSet(algebra, tuple(elements))


@SETTINGS
@given(family_algebras(),
       st.lists(st.integers(-2, 2), min_size=2, max_size=24), st.booleans())
@example(sol2(QQ), [], True)
@example(sol2(QQ), [1, 0, 0, 1], False)
def test_corollary3_premises_equal_their_parts(algebra, coords, close):
    lie_set = _drawn_lie_set(algebra, coords, close)
    members = list(lie_set.members)
    closed = is_lie_set(members)
    generated = subalgebra_generated(members)
    nilpotent, witness = left_actions_nilpotent_per_member(
        regular_bimodule(algebra), members)
    assert corollary3_check(algebra, lie_set).premises == [
        Check("closed_under_products", closed.ok, witness=None if closed.ok
              else [x.to_str() for x in closed.witness]),
        Check("members_generate_algebra", generated.is_full(),
              witness=None if generated.is_full() else
              {"generated_dim": generated.dim, "algebra_dim": algebra.dim}),
        Check("left_actions_nilpotent", nilpotent, witness=witness),
    ]


# each family by a direct call, independent of the table's builders
DIRECT = {
    "cyclic": lambda field, n: cyclic(n, field),
    "heisenberg3": heisenberg3,
    "abelian": lambda field, n: abelian(n, field),
    "sol2": sol2,
    "direct_sum": lambda field, a, b: direct_sum(a, b),
    "basis_change": lambda field, a, seed: basis_change(a, seed),
}


@st.composite
def family_specs(draw, field, depth=0):
    """(spec text, the algebra direct calls build) for a family drawn from
    the table, with families nested at most two deep; an integer is a
    dimension in 1..3 for a family without a nested spec, else a seed."""
    names = sorted(name for name, (kinds, _) in FAMILIES.items()
                   if depth < 2 or FamilySpec not in kinds)
    name = draw(st.sampled_from(names))
    kinds = FAMILIES[name][0]
    texts, args = [], []
    for kind in kinds:
        if kind is FamilySpec:
            text, arg = draw(family_specs(field, depth + 1))
        else:
            arg = draw(st.integers(-10**6, 10**6) if FamilySpec in kinds
                       else st.integers(1, 3))
            text = str(arg)
        texts.append(text)
        args.append(arg)
    space = draw(st.sampled_from(("", " ")))
    text = name + (f"({space}{f',{space}'.join(texts)})" if kinds else "")
    return text, DIRECT[name](field, *args)


@SETTINGS
@given(st.data())
def test_family_specs_build_what_direct_calls_build(data):
    assert set(FAMILIES) == set(DIRECT)
    field = data.draw(st.sampled_from((QQ, GF(5), GF(7))))
    text, algebra = data.draw(family_specs(field))
    built = build(parse_family_spec(text, field))
    assert built.field == field
    assert built.structure == algebra.structure


def _assert_valid_and_canonical(algebra):
    """``create`` revalidates the tensor and gives back the same algebra,
    scalar for scalar and type for type: over Q an integral Fraction equals
    its int, but only the int is canonical. The triple oracle agrees."""
    f, c, n = algebra.field, algebra.structure, algebra.dim
    fresh = LeibnizAlgebra.create(f, c, algebra.basis_names)
    assert fresh == algebra
    assert [type(x) for ci in fresh.structure for cij in ci for x in cij] \
        == [type(x) for ci in c for cij in ci for x in cij]
    assert leibniz_triple_violations(c, f, n) == []


@SETTINGS
@given(family_algebras())
def test_family_algebras_are_valid_and_canonical(algebra):
    _assert_valid_and_canonical(algebra)


@st.composite
def nested_specs(draw, depth=0, budget=6):
    """Spec text of a family nested at most ``MAX_SPEC_DEPTH`` deep, of
    dimension at most ``budget``: a direct sum splits the budget between
    its parts, and a basis change takes any seed."""
    names = ["abelian", "cyclic"] + ["sol2"] * (budget >= 2) \
        + ["heisenberg3"] * (budget >= 3)
    if depth < MAX_SPEC_DEPTH:
        names += ["basis_change"] * 3 + ["direct_sum"] * (budget >= 2)
    name = draw(st.sampled_from(names))
    if name == "basis_change":
        inner = draw(nested_specs(depth + 1, budget))
        return f"basis_change({inner},{draw(st.integers(-10**6, 10**6))})"
    if name == "direct_sum":
        left = draw(st.integers(1, budget - 1))
        return (f"direct_sum({draw(nested_specs(depth + 1, left))},"
                f"{draw(nested_specs(depth + 1, budget - left))})")
    if name in ("abelian", "cyclic"):
        return f"{name}({draw(st.integers(1, budget))})"
    return name


DEEPEST = ("basis_change(" * MAX_SPEC_DEPTH + "cyclic(4)"
           + ",1)" * MAX_SPEC_DEPTH)


@SETTINGS
@given(st.sampled_from((QQ, GF(5), GF(7))), nested_specs())
@example(GF(7), DEEPEST)
@example(QQ, DEEPEST)
@example(QQ, "direct_sum(abelian(1),cyclic(2))")
def test_nested_specs_build_valid_canonical_algebras(field, text):
    algebra = build(parse_family_spec(text, field))
    assert algebra.field == field
    _assert_valid_and_canonical(algebra)


@pytest.mark.parametrize("seed", [2024, 323, 331])
def test_corpus_algebras_are_valid_and_canonical(seed):
    for algebra, _ in fuzz_corpus(seed, 200, 8):
        _assert_valid_and_canonical(algebra)
