import hashlib

import pytest

import leibniz_engel.algebra as algebra_module
from leibniz_engel import (abelian, basis_change, build, cyclic, direct_sum,
                           fuzz_corpus, heisenberg3, is_nilpotent_algebra,
                           lower_central_series, parse_family_spec, sol2,
                           validate_bimodule, validate_leibniz,
                           verify_operator_identities)
from leibniz_engel.algebra import LeibnizAlgebra
from leibniz_engel.errors import FieldMismatch, InvalidSpec
from leibniz_engel.fields import GF, QQ
from leibniz_engel.formats import load_algebra, save_algebra
from oracles import fuzz_corpus_per_item


def _satisfies_identity(algebra):
    return validate_leibniz(algebra.structure, algebra.field, algebra.dim).ok


def test_cyclic2_is_the_standard_example():
    A = cyclic(2)
    assert A.structure[0][0] == (0, 1)
    assert all(A.structure[i][j] == (0, 0)
               for i in range(2) for j in range(2) if (i, j) != (0, 0))


def test_cyclic_class_and_series_length():
    for n in (2, 3, 5):
        A = cyclic(n)
        assert is_nilpotent_algebra(A) == (True, n)
        assert len(lower_central_series(A)) == n + 1


def test_cyclic_generated_by_first_basis_vector():
    from leibniz_engel import subalgebra_generated
    A = cyclic(4)
    assert subalgebra_generated([A.basis_element(0)]).is_full()


def test_abelian_and_sol2():
    assert is_nilpotent_algebra(abelian(1)) == (True, 1)
    assert abelian(1).dim == 1
    assert is_nilpotent_algebra(sol2())[0] is False


def test_heisenberg_class2():
    assert is_nilpotent_algebra(heisenberg3()) == (True, 2)


def test_direct_sum_blocks():
    A = direct_sum(cyclic(2), abelian(2))
    assert A.dim == 4
    assert validate_leibniz(A.structure, QQ, 4).ok
    assert is_nilpotent_algebra(A) == (True, 2)
    e1, e3 = A.basis_element(0), A.basis_element(2)
    assert (e1 * e3).is_zero() and (e3 * e1).is_zero()
    with pytest.raises(FieldMismatch):
        direct_sum(cyclic(2), cyclic(2, GF(5)))


def test_basis_change_preserves_validation_and_class():
    base = cyclic(3)
    for seed in (0, 1, 2, 7, 42):
        changed = basis_change(base, seed)
        assert _satisfies_identity(changed)
        assert is_nilpotent_algebra(changed) == (True, 3)
        assert verify_operator_identities(changed).ok
    over_f5 = basis_change(cyclic(4, GF(5)), 42)
    assert is_nilpotent_algebra(over_f5) == (True, 4)
    assert is_nilpotent_algebra(basis_change(sol2(), 5))[0] is False


def test_family_spec_parsing():
    spec = parse_family_spec("basis_change(direct_sum(cyclic(2),sol2),7)",
                             GF(5))
    A = build(spec)
    assert A.dim == 4
    assert A.field == GF(5)
    assert build(parse_family_spec("heisenberg3")).dim == 3
    assert build(parse_family_spec("abelian(4)")).dim == 4


@pytest.mark.parametrize("bad", ["cyclic", "cyclic()", "cyclic(3,)",
                                 "unknown(2)", "basis_change(cyclic(2))",
                                 "cyclic(2) extra", "cyclic(0)",
                                 "direct_sum(cyclic(2))",
                                 "cyclic(1000000000)", "abelian(65)",
                                 "direct_sum(abelian(33),abelian(32))"])
def test_family_spec_rejects_malformed(bad):
    with pytest.raises(InvalidSpec):
        build(parse_family_spec(bad))


def test_fuzz_corpus_single_pair():
    corpus = fuzz_corpus(1, 1, 2)
    assert len(corpus) == 1
    algebra, module = corpus[0]
    assert _satisfies_identity(algebra)
    assert validate_bimodule(module).all_ok()


def test_fuzz_corpus_reproducible():
    first = fuzz_corpus(7, 50, 6)
    second = fuzz_corpus(7, 50, 6)
    assert len(first) == 50
    for (a1, m1), (a2, m2) in zip(first, second):
        assert a1 == a2
        assert m1 == m2


def test_fuzz_corpus_validated_and_mixed():
    corpus = fuzz_corpus(7, 50, 6)
    assert all(_satisfies_identity(a) for a, _ in corpus)
    assert all(a.dim <= 6 for a, _ in corpus)
    assert any(not is_nilpotent_algebra(a)[0] for a, _ in corpus)
    fields = {str(a.field) for a, _ in corpus}
    assert "Q" in fields and ("F5" in fields or "F7" in fields)
    assert any(m.module_dim < a.dim for a, m in corpus)   # quotient modules
    assert any(m.module_dim == a.dim for a, m in corpus)  # regular modules


def test_fuzz_corpus_bimodules_validate():
    for algebra, module in fuzz_corpus(3, 30, 5):
        report = validate_bimodule(module)
        assert report.ok and report.derived_ok


def test_fuzz_corpus_rejects_bad_arguments():
    with pytest.raises(InvalidSpec):
        fuzz_corpus(1, 0, 3)
    with pytest.raises(InvalidSpec):
        fuzz_corpus(1, 3, 0)
    with pytest.raises(InvalidSpec):
        fuzz_corpus(1, 3, 10**9)


# Eight nested basis changes around cyclic(32) over F7, as deep as a spec
# may nest, and the sha256 of its saved file as written when every level of
# the spec was still validated at construction.
DEEP_SPEC = "basis_change(" * 8 + "cyclic(32)" + "".join(
    f",{seed})" for seed in range(1, 9))
DEEP_SPEC_SHA256 = \
    "3293bdbb92644747334bf8843c7b1b301bbed1d8b8200a04664fed47485592e2"


def test_deep_spec_takes_no_contraction_and_saves_the_same_file(
        monkeypatch, tmp_path):
    calls = []
    contract = algebra_module._pair_identity_violations

    def counted(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(algebra_module, "_pair_identity_violations", counted)
    algebra = build(parse_family_spec(DEEP_SPEC, GF(7)))
    assert algebra.dim == 32 and calls == []
    path = tmp_path / "deep.json"
    save_algebra(algebra, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEEP_SPEC_SHA256
    # positive control: the counter sees the contraction that create runs
    LeibnizAlgebra.create(GF(7), cyclic(3, GF(7)).structure)
    assert len(calls) == 1


def test_builders_skip_validation_and_create_and_loaders_keep_it(
        monkeypatch, tmp_path):
    path = tmp_path / "algebra.json"
    save_algebra(basis_change(cyclic(3), 5), path)

    def refuse(*args):
        raise AssertionError("the pair contraction ran")

    monkeypatch.setattr(algebra_module, "_pair_identity_violations", refuse)
    spec = "basis_change(direct_sum(heisenberg3,basis_change(cyclic(3),5)),7)"
    assert build(parse_family_spec(spec, GF(5))).dim == 6
    assert len(fuzz_corpus(2024, 200, 8)) == 200
    with pytest.raises(AssertionError, match="pair contraction"):
        LeibnizAlgebra.create(QQ, cyclic(3).structure)
    with pytest.raises(AssertionError, match="pair contraction"):
        load_algebra(path)


def _corpus_keys(corpus) -> list:
    return [(a.field, a.structure, m.module_dim, m.left_actions,
             m.right_actions) for a, m in corpus]


@pytest.mark.parametrize("seed", [2024, 323, 331, 31337])
def test_fuzz_corpus_equals_the_per_item_oracle(seed):
    """Drawn as specs and built once per distinct spec and draw, the
    corpus has the items of building every one in full."""
    assert _corpus_keys(fuzz_corpus(seed, 200, 8)) == \
        _corpus_keys(fuzz_corpus_per_item(seed, 200, 8))


@pytest.mark.parametrize("max_dim", range(1, 9))
def test_fuzz_corpus_equals_the_per_item_oracle_at_every_max_dim(max_dim):
    for seed in range(4):
        assert _corpus_keys(fuzz_corpus(seed, 40, max_dim)) == \
            _corpus_keys(fuzz_corpus_per_item(seed, 40, max_dim))


def test_fuzz_corpus_equals_the_per_item_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32), count=st.integers(1, 60),
                      max_dim=st.integers(1, 8))
    def check(seed, count, max_dim):
        assert _corpus_keys(fuzz_corpus(seed, count, max_dim)) == \
            _corpus_keys(fuzz_corpus_per_item(seed, count, max_dim))

    check()
