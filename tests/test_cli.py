import itertools
import json
import os
import sys

import pytest

import leibniz_engel.algebra as algebra_module
import leibniz_engel.cli as cli_module
import leibniz_engel.corollaries as corollaries_module
import leibniz_engel.engel as engel_module
import leibniz_engel.families as families_module
from leibniz_engel import (abelian, basis_change, cyclic, direct_sum,
                           fuzz_corpus, heisenberg3, is_nilpotent_algebra,
                           lie_set_closure, verify_operator_identities)
from leibniz_engel.algebra import DEFAULT_CLOSURE_CAP, MAX_FUZZ_COUNT
from leibniz_engel.cli import _build_parser, main
from leibniz_engel.errors import CapExceeded
from leibniz_engel.families import MAX_SPEC_DEPTH
from leibniz_engel.fields import GF
from leibniz_engel.formats import MAX_FILE_BYTES, save_algebra
from leibniz_engel.reports import EXIT_CODES
from oracles import fuzz_corpus_per_item, fuzz_data_per_item


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def c2_file(tmp_path):
    return _write(tmp_path, "c2.json",
                  {"field": "Q", "dim": 2, "products": [[1, 1, 2, 1]]})


@pytest.fixture
def sol2_file(tmp_path):
    return _write(tmp_path, "sol2.json",
                  {"field": "Q", "dim": 2,
                   "products": [[1, 2, 2, 1], [2, 1, 2, -1]]})


def test_exit_code_table():
    assert EXIT_CODES == {"pass": 0, "premises_failed": 1, "error": 2,
                          "THEOREM_VIOLATION": 3}


def test_validate_pass(c2_file, capsys):
    assert main(["validate", c2_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_validate_failure_exits_1(tmp_path):
    bad = _write(tmp_path, "bad.json",
                 {"field": "Q", "dim": 2, "products": [[1, 1, 1, 1]]})
    assert main(["validate", bad, "--quiet"]) == 1


def test_validate_parse_error_exits_2(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{")
    assert main(["validate", str(garbage), "--quiet"]) == 2
    dup = _write(tmp_path, "dup.json",
                 {"field": "Q", "dim": 2,
                  "products": [[1, 1, 2, 1], [1, 1, 2, 1]]})
    assert main(["validate", dup, "--quiet"]) == 2


def test_analyze_abelian3(tmp_path):
    abelian3 = _write(tmp_path, "abelian3.json",
                      {"field": "Q", "dim": 3, "products": []})
    report_path = tmp_path / "report.json"
    assert main(["analyze", abelian3, "--quiet",
                 "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "pass"
    assert report["data"]["class"] == 1
    assert report["data"]["series_dims"] == [3, 0]
    assert report["conventions"]["lower_central_series"].startswith("two-sided")


def test_engel_default_lie_set(c2_file, tmp_path):
    report_path = tmp_path / "engel.json"
    assert main(["engel", c2_file, "--quiet", "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "pass"
    assert report["data"]["flag_dims"] == [0, 1, 2]
    assert report["data"]["annihilator"] == ["0", "1"]


def test_engel_sol2_premises_fail(sol2_file, tmp_path):
    report_path = tmp_path / "engel.json"
    assert main(["engel", sol2_file, "--quiet",
                 "--json", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "premises_failed"
    failing = [p for p in report["premises"] if not p["pass"]]
    assert failing[0]["name"] == "left_actions_nilpotent"
    assert failing[0]["witness"] == "(1, 0)"


def test_engel_with_module_and_lieset(c2_file, tmp_path):
    module = _write(tmp_path, "m.json",
                    {"module_dim": 1,
                     "left_actions": [[[0]], [[0]]],
                     "right_actions": [[[0]], [[0]]]})
    lieset = _write(tmp_path, "ls.json", [[1, 0], [0, 1]])
    assert main(["engel", c2_file, "--module", module,
                 "--lieset", lieset, "--quiet"]) == 0


def test_engel_unclosed_lieset_fails_premises(c2_file, tmp_path):
    # {e1} alone is not closed: e1 e1 = e2 is missing
    lieset = _write(tmp_path, "open.json", [[1, 0]])
    report_path = tmp_path / "r.json"
    assert main(["engel", c2_file, "--lieset", lieset, "--quiet",
                 "--json", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    failing = [p for p in report["premises"] if not p["pass"]]
    assert failing[0]["name"] == "closed_under_products"


def test_lemma_bound_command(c2_file, sol2_file, tmp_path):
    report_path = tmp_path / "lemma.json"
    assert main(["lemma-bound", c2_file, "--element", "1,0",
                 "--quiet", "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["data"]["n"] == 3
    assert main(["lemma-bound", sol2_file, "--element", "1,0",
                 "--quiet"]) == 1
    assert main(["lemma-bound", c2_file, "--element", "1",
                 "--quiet"]) == 2  # wrong arity


def test_corollary_commands(c2_file, tmp_path):
    assert main(["corollary", "3", c2_file, "--quiet"]) == 0

    f7c2 = _write(tmp_path, "c2f7.json",
                  {"field": {"Fp": 7}, "dim": 2, "products": [[1, 1, 2, 1]]})
    auto = _write(tmp_path, "auto.json", {"matrix": [[2, 0], [0, 4]]})
    assert main(["corollary", "4", f7c2, "--map", auto,
                 "--order", "3", "--quiet"]) == 0

    deriv = _write(tmp_path, "deriv.json", {"matrix": [[1, 0], [0, 2]]})
    assert main(["corollary", "5", c2_file, "--map", deriv, "--quiet"]) == 0

    assert main(["corollary", "4", c2_file, "--quiet"]) == 2  # missing map


def test_corollary6_commands(tmp_path, sol2_file):
    h3 = _write(tmp_path, "h3.json",
                {"field": "Q", "dim": 3,
                 "products": [[1, 2, 3, 1], [2, 1, 3, -1]]})
    ideals = _write(tmp_path, "ideals.json",
                    {"ideals": [[[1, 0, 0], [0, 0, 1]],
                                [[0, 1, 0], [0, 0, 1]]]})
    report_path = tmp_path / "c6.json"
    assert main(["corollary", "6", h3, "--ideals", ideals,
                 "--quiet", "--json", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["data"]["sum_dim"] == 3

    three = _write(tmp_path, "three.json",
                   {"ideals": [[[0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
                               [[0, 1, 0], [0, 0, 1]]]})
    assert main(["corollary", "6", h3, "--ideals", three, "--quiet"]) == 0

    bad = _write(tmp_path, "badideals.json",
                 {"ideals": [[[0, 1]], [[1, 0]], [[0, 1]]]})
    assert main(["corollary", "6", sol2_file, "--ideals", bad,
                 "--quiet"]) == 1


@pytest.fixture
def h3_file(tmp_path):
    return _write(tmp_path, "h3.json",
                  {"field": "Q", "dim": 3,
                   "products": [[1, 2, 3, 1], [2, 1, 3, -1]]})


def _report_of(argv, report_path):
    """Exit code and the report's verdict, checks, data and notes."""
    code = main([*argv, "--quiet", "--json", str(report_path)])
    report = json.loads(report_path.read_text())
    return code, {key: report[key] for key in
                  ("verdict", "premises", "conclusions", "data", "notes")}


def _premise_failure(name, witness):
    return {"verdict": "premises_failed",
            "premises": [{"name": name, "pass": False, "witness": witness}],
            "conclusions": [], "data": {}, "notes": []}


def test_corollary6_family_with_a_non_ideal_member(h3_file, tmp_path):
    # in heisenberg3, span{e1} is no ideal: e2 e1 = -e3
    family = _write(tmp_path, "family.json",
                    {"ideals": [[[0, 0, 1]], [[1, 0, 0]],
                                [[0, 1, 0], [0, 0, 1]]]})
    assert _report_of(["corollary", "6", h3_file, "--ideals", family],
                      tmp_path / "r.json") == \
        (1, _premise_failure("family_members_are_ideals", {"index": 1}))


def test_corollary6_family_with_a_non_nilpotent_member(sol2_file, tmp_path):
    # in sol2, span{e2} is a nilpotent ideal and the whole algebra an ideal
    # that is not nilpotent
    family = _write(tmp_path, "family.json",
                    {"ideals": [[[0, 1]], [[1, 0], [0, 1]], [[0, 1]]]})
    assert _report_of(["corollary", "6", sol2_file, "--ideals", family],
                      tmp_path / "r.json") == \
        (1, _premise_failure("family_members_are_nilpotent", {"index": 1}))


def test_corollary6_failed_fold_step_exits_3(monkeypatch, h3_file, tmp_path):
    # the partial sums are <e3>, <e1, e3> and the whole space; only the
    # last, reached at the third member, is made to fail its ideal check
    real, full_checks = corollaries_module.is_ideal, []

    def fails_on_the_full_space(algebra, carrier):
        if carrier.is_full():
            full_checks.append(carrier)
            return False
        return real(algebra, carrier)

    monkeypatch.setattr(corollaries_module, "is_ideal",
                        fails_on_the_full_space)
    family = _write(tmp_path, "family.json",
                    {"ideals": [[[0, 0, 1]], [[1, 0, 0], [0, 0, 1]],
                                [[0, 1, 0], [0, 0, 1]]]})
    assert _report_of(["corollary", "6", h3_file, "--ideals", family],
                      tmp_path / "r.json") == \
        (3, {"verdict": "THEOREM_VIOLATION", "premises": [],
             "conclusions": [],
             "data": {"violation": "sum with family member 2 failed"},
             "notes": []})
    assert len(full_checks) == 1


def test_lemma_bound_non_nilpotent_left_action(sol2_file, tmp_path):
    # in sol2, L_{e1} fixes e2
    assert _report_of(["lemma-bound", sol2_file, "--element", "1,0"],
                      tmp_path / "r.json") == \
        (1, _premise_failure("left_action_nilpotent", "(1, 0)"))


def test_corollary_failure_reports_serialize(c2_file, tmp_path):
    fixed = _write(tmp_path, "fixed.json", {"matrix": [[-1, 0], [0, 1]]})
    report_path = tmp_path / "c4.json"
    assert main(["corollary", "4", c2_file, "--map", fixed, "--order", "2",
                 "--quiet", "--json", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    failing = [p for p in report["premises"] if not p["pass"]]
    assert failing[0]["name"] == "no_nonzero_fixed_points"
    assert failing[0]["witness"] == ["0", "1"]

    not_deriv = _write(tmp_path, "id.json", {"matrix": [[1, 0], [0, 1]]})
    report_path5 = tmp_path / "c5.json"
    assert main(["corollary", "5", c2_file, "--map", not_deriv,
                 "--quiet", "--json", str(report_path5)]) == 1
    report5 = json.loads(report_path5.read_text())
    failing5 = [p for p in report5["premises"] if not p["pass"]]
    assert failing5[0]["name"] == "is_derivation"
    assert failing5[0]["witness"]["pair"] == [1, 1]


def test_generate_round_trip_deterministic(tmp_path):
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    cmd = ["generate", "--family", "basis_change(cyclic(3),42)",
           "--field", "F5", "--quiet"]
    assert main(cmd + ["--out", str(out1)]) == 0
    assert main(cmd + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["validate", str(out1), "--quiet"]) == 0

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["analyze", str(out1), "--quiet", "--json", str(r1)]) == 0
    assert main(["analyze", str(out1), "--quiet", "--json", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["data"]["class"] == 3


def test_generate_rejects_bad_spec(tmp_path):
    assert main(["generate", "--family", "nope(3)",
                 "--out", str(tmp_path / "x.json"), "--quiet"]) == 2


def _nested_spec(depth):
    """cyclic(2) inside ``depth`` nested basis changes."""
    return "basis_change(" * depth + "cyclic(2)" + ",1)" * depth


def test_generate_refuses_specs_nested_past_the_bound(tmp_path):
    out, report = tmp_path / "x.json", tmp_path / "report.json"
    for depth in (3000, MAX_SPEC_DEPTH + 1):
        assert main(["generate", "--family", _nested_spec(depth), "--out",
                     str(out), "--quiet", "--json", str(report)]) == 2
        error = json.loads(report.read_text())["data"]["error"]
        assert error.startswith("InvalidSpec: ")
        assert not out.exists()
    assert main(["generate", "--family", _nested_spec(MAX_SPEC_DEPTH),
                 "--out", str(out), "--quiet"]) == 0
    assert main(["validate", str(out), "--quiet"]) == 0


def test_fuzz_small_corpus(tmp_path):
    report_path = tmp_path / "fuzz.json"
    assert main(["fuzz", "--seed", "11", "--count", "16", "--max-dim", "4",
                 "--quiet", "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "pass"
    assert report["data"]["violations"] == []
    assert report["data"]["passes"] + report["data"]["premises_failed"] == 16
    assert report["conventions"]["bimodule_axioms"]


def test_fuzz_closes_each_item_within_the_default_cap(monkeypatch,
                                                     tmp_path):
    """fuzz closes every basis with the default member cap and reports an
    item whose closure exceeds the cap as premises_failed."""
    caps = []

    def capped(elements, cap=DEFAULT_CLOSURE_CAP):
        caps.append(cap)
        raise CapExceeded(cap, cap + 1)

    monkeypatch.setattr(cli_module, "lie_set_closure", capped)
    report_path = tmp_path / "fuzz.json"
    assert main(["fuzz", "--seed", "11", "--count", "3", "--max-dim", "4",
                 "--quiet", "--json", str(report_path)]) == 0
    data = json.loads(report_path.read_text())["data"]
    assert caps == [DEFAULT_CLOSURE_CAP] * 3
    assert [(item["verdict"], item["note"]) for item in data["items"]] == \
        [("premises_failed", "basis closure exceeded the closure cap")] * 3
    assert (data["passes"], data["premises_failed"]) == (0, 3)


def _fuzz_data(tmp_path, seed, count, max_dim) -> dict:
    report_path = tmp_path / f"fuzz-{seed}.json"
    main(["fuzz", "--seed", str(seed), "--count", str(count), "--max-dim",
          str(max_dim), "--quiet", "--json", str(report_path)])
    data = json.loads(report_path.read_text())["data"]
    return {key: data[key]
            for key in ("items", "passes", "premises_failed", "violations")}


@pytest.mark.parametrize("seed", [2024, 323, 331, 31337])
def test_fuzz_report_equals_the_per_item_oracle(seed, tmp_path):
    """Verifying each distinct algebra and module once gives the report of
    checking every item from scratch."""
    expected = fuzz_data_per_item(fuzz_corpus(seed, 200, 8),
                                  lambda a: lie_set_closure(a.basis()))
    assert _fuzz_data(tmp_path, seed, 200, 8) == expected


def test_fuzz_repeats_a_capped_closure_with_its_note(monkeypatch, tmp_path):
    corpus = fuzz_corpus(11, 16, 4)
    repeated = next(a for a, _ in corpus
                    if sum(b is a for b, _ in corpus) > 1)
    close = lie_set_closure

    def capped(elements, cap=DEFAULT_CLOSURE_CAP):
        if elements[0].algebra == repeated:
            raise CapExceeded(cap, cap + 1)
        return close(elements, cap)

    monkeypatch.setattr(cli_module, "lie_set_closure", capped)
    data = _fuzz_data(tmp_path, 11, 16, 4)
    assert data == fuzz_data_per_item(corpus, lambda a: capped(a.basis()))
    notes = [item["index"] for item in data["items"] if "note" in item]
    assert notes == [i for i, (a, _) in enumerate(corpus) if a == repeated]
    assert len(notes) > 1


def test_fuzz_verifies_each_distinct_item_once_per_call(monkeypatch,
                                                        tmp_path):
    """Theorem 2 runs once per distinct module; corollaries 3 and 6 run
    once per distinct nilpotent algebra, corollary 3 on the algebra's
    basis closure, and no premise check runs outside them."""
    corpus = fuzz_corpus(2024, 200, 8)
    algebras = set(a for a, _ in corpus)
    modules = set(m for _, m in corpus)
    nilpotent = [a for a in algebras if is_nilpotent_algebra(a)[0]]
    assert len(algebras) < 150 and len(modules) < 150
    assert 0 < len(nilpotent) < len(algebras)
    calls = {"lie_set_closure": 0, "corollary3_check": 0,
             "nilradical_from_family": 0, "theorem2_verify": 0}
    corollary3_sets = []
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(cli_module, name)):
            calls[_name] += 1
            if _name == "corollary3_check":
                corollary3_sets.append(args)
            return _inner(*args)
        monkeypatch.setattr(cli_module, name, counted)
    premise_checks = []
    monkeypatch.setattr(engel_module, "check_engel_premises",
                        lambda *args: premise_checks.append(args))
    for _ in range(2):  # no call keeps anything for the next
        for name in calls:
            calls[name] = 0
        corollary3_sets.clear()
        assert main(["fuzz", "--seed", "2024", "--count", "200",
                     "--max-dim", "8", "--quiet"]) == 0
        assert calls == {"lie_set_closure": len(algebras),
                         "corollary3_check": len(nilpotent),
                         "nilradical_from_family": len(nilpotent),
                         "theorem2_verify": len(modules)}
        assert premise_checks == []
        assert {a for a, _ in corollary3_sets} == set(nilpotent)
        for algebra, lie_set in corollary3_sets:
            assert lie_set._closed
            assert lie_set == lie_set_closure(algebra.basis())


def test_fuzz_walks_its_corpus_once(monkeypatch, tmp_path):
    """Handed its corpus as an iterator that can be read only once, fuzz
    still gives the report of checking every item from scratch."""
    corpus = fuzz_corpus(11, 16, 4)
    monkeypatch.setattr(cli_module, "fuzz_corpus",
                        lambda *args: iter(fuzz_corpus(*args)))
    assert _fuzz_data(tmp_path, 11, 16, 4) == fuzz_data_per_item(
        corpus, lambda a: lie_set_closure(a.basis()))


def test_fuzz_sums_non_nested_ideals_in_the_fold(monkeypatch):
    """The corollary-6 family of each nilpotent algebra, the ideals
    generated by e_1 and by e_n, is not always nested, so its sum is more
    than one of its members; the fold adds it up with no two-ideal
    report."""
    real, families = cli_module.nilradical_from_family, []

    def recorded(algebra, ideals):
        families.append(ideals)
        return real(algebra, ideals)

    def refuse(*args):
        raise AssertionError("sum_of_nilpotent_ideals was called")

    monkeypatch.setattr(cli_module, "nilradical_from_family", recorded)
    monkeypatch.setattr(cli_module, "sum_of_nilpotent_ideals", refuse)
    monkeypatch.setattr(corollaries_module, "sum_of_nilpotent_ideals", refuse)
    assert main(["fuzz", "--seed", "2024", "--count", "200", "--max-dim",
                 "8", "--quiet"]) == 0
    assert all(len(ideals) == 2 for ideals in families)
    nested = [a.contains_subspace(b) or b.contains_subspace(a)
              for a, b in families]
    assert 0 < nested.count(False) < len(nested)


def test_fuzz_corpus_interns_equal_items_and_keeps_the_field():
    corpus = fuzz_corpus(10, 24, 4)
    for (a, m), (b, n) in itertools.combinations(corpus, 2):
        assert ((a.field, a.structure) == (b.field, b.structure)) == (a is b)
        assert (m == n) == (m is n)
    # abelian(3) over F5 and over F7 share an all-zero tensor, yet are two
    f5, f7 = (next(a for a, _ in corpus
                   if (a.field, a.structure) == (p.field, p.structure))
              for p in (abelian(3, GF(5)), abelian(3, GF(7))))
    assert f5.structure == f7.structure and f5 is not f7
    assert (f5.field, f7.field) == (GF(5), GF(7))
    # abelian(k) has basis names, a basis change of it none, and both have
    # the zero tensor: each item is the first one built with its field and
    # tensor, names and all
    built = [a for a, _ in fuzz_corpus_per_item(10, 24, 4)]
    first = {}
    for a in built:
        first.setdefault((a.field, a.structure), a)
    assert [a for a, _ in corpus] == [first[a.field, a.structure]
                                      for a in built]
    assert any(a != first[a.field, a.structure] for a in built)


def test_fuzz_count_past_the_bound_exits_2_before_building(monkeypatch,
                                                            tmp_path):
    def refuse(*args):
        raise AssertionError("a corpus item was built")

    monkeypatch.setattr(families_module, "_corpus_spec", refuse)
    monkeypatch.setattr(families_module, "build", refuse)
    report_path = tmp_path / "fuzz.json"
    for count in (MAX_FUZZ_COUNT + 1, 10**8):
        assert main(["fuzz", "--seed", "1", "--count", str(count),
                     "--max-dim", "8", "--quiet",
                     "--json", str(report_path)]) == 2
        error = json.loads(report_path.read_text())["data"]["error"]
        assert error == (f"InvalidSpec: fuzz count must be in "
                         f"[1, {MAX_FUZZ_COUNT}], got {count}")
    with pytest.raises(AssertionError, match="corpus item"):
        fuzz_corpus(1, MAX_FUZZ_COUNT, 8)


def test_validate_sums_left_mult_of_product_once(monkeypatch, tmp_path):
    """Loading checks the defining identity, the pair identity
    left_mult_of_product, by one contraction with no right actions; the
    identity suite of validate reads its verdict off that and contracts
    nothing, and an algebra not loaded gets one contraction of L and R."""
    path = tmp_path / "algebra.json"
    save_algebra(basis_change(direct_sum(heisenberg3(), cyclic(5)), 3), path)
    runs = []
    contract = algebra_module._pair_identity_violations

    def counted(*args):
        runs.append(len(args[3]))  # the number of right actions
        return contract(*args)

    monkeypatch.setattr(algebra_module, "_pair_identity_violations", counted)
    assert main(["validate", str(path), "--quiet"]) == 0
    assert runs == [0]
    runs.clear()
    assert verify_operator_identities(cyclic(4)).ok
    assert runs == [4]


def test_reports_carry_conventions(c2_file, tmp_path):
    report_path = tmp_path / "r.json"
    main(["validate", c2_file, "--quiet", "--json", str(report_path)])
    report = json.loads(report_path.read_text())
    for key in ("lower_central_series", "flag_generators", "bimodule_axioms",
                "lie_sets", "nilpotency_class"):
        assert key in report["conventions"]
    assert report["command"] == "validate"
    assert "input" in report


def test_huge_prime_field_exits_2(tmp_path):
    huge = _write(tmp_path, "huge.json",
                  {"field": {"Fp": 10**25 + 13}, "dim": 1, "products": []})
    report_path = tmp_path / "report.json"
    assert main(["validate", huge, "--quiet",
                 "--json", str(report_path)]) == 2
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "error"
    assert "too large" in report["data"]["error"]


def test_large_prime_field_loads(tmp_path):
    big = _write(tmp_path, "big.json",
                 {"field": {"Fp": 10**18 + 3}, "dim": 2,
                  "products": [[1, 1, 2, 1]]})
    assert main(["validate", big, "--quiet"]) == 0


def test_oversized_inputs_exit_2(tmp_path):
    huge = _write(tmp_path, "huge.json",
                  {"field": "Q", "dim": 10**9, "products": []})
    assert main(["validate", huge, "--quiet"]) == 2
    assert main(["generate", "--family", "cyclic(1000000000)",
                 "--out", str(tmp_path / "x.json"), "--quiet"]) == 2
    assert main(["fuzz", "--seed", "1", "--count", "1",
                 "--max-dim", "1000000000", "--quiet"]) == 2


def test_engel_zero_module_exits_2(c2_file, tmp_path):
    module = _write(tmp_path, "zero.json",
                    {"module_dim": 0, "left_actions": [[], []],
                     "right_actions": [[], []]})
    report_path = tmp_path / "r.json"
    assert main(["engel", c2_file, "--module", module, "--quiet",
                 "--json", str(report_path)]) == 2
    report = json.loads(report_path.read_text())
    assert "module_dim" in report["data"]["error"]


@pytest.fixture
def non_bimodule_file(tmp_path):
    # over cyclic(2), S_{e1 e1} = S_{e2} = 0 but S^2 + T S = 1
    return _write(tmp_path, "bad_module.json",
                  {"module_dim": 1, "left_actions": [[[0]], [[0]]],
                   "right_actions": [[[1]], [[0]]]})


def _error_of(argv, report_path):
    code = main([*argv, "--quiet", "--json", str(report_path)])
    report = json.loads(report_path.read_text())
    return code, report["verdict"], report["data"].get("error")


def test_engel_non_bimodule_exits_2(c2_file, non_bimodule_file, tmp_path):
    assert _error_of(["engel", c2_file, "--module", non_bimodule_file],
                     tmp_path / "r.json") == \
        (2, "error", "bimodule violates right_action_of_product at basis "
                     "pair (1, 1)")


def test_lemma_bound_non_bimodule_exits_2(c2_file, non_bimodule_file,
                                          tmp_path):
    assert _error_of(["lemma-bound", c2_file, "--element", "1,0",
                      "--module", non_bimodule_file],
                     tmp_path / "r.json") == \
        (2, "error", "bimodule violates right_action_of_product at basis "
                     "pair (1, 1)")


@pytest.mark.parametrize("products", [5, {}, "[[1, 1, 2, 1]]", None])
def test_non_list_products_exit_2(tmp_path, products):
    path = _write(tmp_path, "bad.json",
                  {"field": "Q", "dim": 2, "products": products})
    report_path = tmp_path / "report.json"
    assert main(["validate", path, "--quiet",
                 "--json", str(report_path)]) == 2
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "error"
    assert "products must be a list" in report["data"]["error"]


def test_oversized_products_exit_2_before_any_entry_is_parsed(tmp_path):
    # dim 1 has one (i, j, k); the second entry is malformed, and the count
    # is refused before it is read
    path = _write(tmp_path, "long.json",
                  {"field": "Q", "dim": 1,
                   "products": [[1, 1, 1, 1], "not an entry"]})
    report_path = tmp_path / "report.json"
    assert main(["validate", path, "--quiet",
                 "--json", str(report_path)]) == 2
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "error"
    assert "more than the dim**3 = 1" in report["data"]["error"]


def test_corollary4_order_past_the_limit_exits_2(tmp_path):
    abelian2 = _write(tmp_path, "ab2.json", {"field": "Q", "dim": 2})
    double = _write(tmp_path, "double.json", {"matrix": [[2, 0], [0, 2]]})
    report_path = tmp_path / "c4.json"
    assert main(["corollary", "4", abelian2, "--map", double,
                 "--order", str(10**30), "--quiet",
                 "--json", str(report_path)]) == 2
    report = json.loads(report_path.read_text())
    assert "order must be in [2, 1024]" in report["data"]["error"]


SWAP = {"field": "Q", "dim": 2, "products": [[1, 1, 2, 1], [2, 2, 1, 1]]}


@pytest.mark.parametrize("argv,code", [
    (["engel"], 2), (["corollary", "3"], 2), (["analyze"], 2),
    (["validate"], 1)], ids=["engel", "corollary3", "analyze", "validate"])
def test_unvalidated_key_does_not_bypass_the_identity(tmp_path, argv, code):
    # e1 e1 = e2 and e2 e2 = e1 break the defining identity; the key
    # "unvalidated" is ignored like any unknown key, so every command sees
    # the same failed check, with the key or without it
    path = tmp_path / "swap.json"
    report_path = tmp_path / "report.json"
    reports = []
    for payload in ({**SWAP, "unvalidated": True}, SWAP):
        path.write_text(json.dumps(payload))
        assert main([*argv, str(path), "--quiet",
                     "--json", str(report_path)]) == code
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    if code == 2:
        assert report["data"]["error"].startswith(
            "InvalidAlgebra: structure constants violate the defining "
            "identity")
    else:
        assert report["premises"][0]["name"] == "defining_identity"
        assert report["premises"][0]["pass"] is False
        assert report["premises"][0]["data"]["violations"] > 0


def test_deeply_nested_json_exits_2(tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, on this
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(deep), "--quiet",
                 "--json", str(report_path)]) == 2
    error = json.loads(report_path.read_text())["data"]["error"]
    assert error == f"{deep} nests JSON too deeply to parse"


@pytest.fixture
def int_digit_limit():
    """Python's int-conversion limit, pinned to its default for the test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_literal_past_the_int_digit_limit_exits_2(tmp_path, int_digit_limit):
    # a string literal that Fraction or int would refuse with a ValueError
    # naming sys.set_int_max_str_digits, in a file and on the command line
    digits = int_digit_limit + 1
    message = (f"integer literal of {digits} digits exceeds the limit of "
               f"{int_digit_limit} digits")
    huge = _write(tmp_path, "huge.json",
                  {"field": "Q", "dim": 1,
                   "products": [[1, 1, 1, "-1/" + "3" * digits]]})
    assert _error_of(["validate", huge], tmp_path / "r.json") == \
        (2, "error", message)
    abelian1 = _write(tmp_path, "ab1.json", {"field": {"Fp": 5}, "dim": 1})
    assert _error_of(["lemma-bound", abelian1, "--element", "7" * digits],
                     tmp_path / "r.json") == (2, "error", message)
    out = str(tmp_path / "a.json")
    for family, field in (("cyclic(3)", "F" + "7" * digits),
                          (f"basis_change(cyclic(3),{'7' * digits})", "Q")):
        assert _error_of(["generate", "--family", family, "--field", field,
                          "--out", out], tmp_path / "r.json") == \
            (2, "error", message)


def test_json_integer_past_the_int_digit_limit_exits_2(tmp_path,
                                                       int_digit_limit):
    # json.loads refuses it with a ValueError naming the setting; written
    # by hand, since json.dumps refuses to write it
    digits = int_digit_limit + 1
    huge = tmp_path / "huge.json"
    huge.write_text('{"field": "Q", "dim": 1, "products": [[1, 1, 1, '
                    + "7" * digits + "]]}")
    assert _error_of(["analyze", str(huge)], tmp_path / "r.json") == \
        (2, "error", f"integer literal of {digits} digits exceeds the limit "
                     f"of {int_digit_limit} digits")


def test_oversized_file_exits_2_before_reading(tmp_path):
    # a sparse file one byte past the limit: truncate writes no data
    huge = tmp_path / "huge.json"
    huge.touch()
    os.truncate(huge, MAX_FILE_BYTES + 1)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(huge), "--quiet",
                 "--json", str(report_path)]) == 2
    error = json.loads(report_path.read_text())["data"]["error"]
    assert error == (f"{huge} has {MAX_FILE_BYTES + 1} bytes, more than the "
                     f"limit of {MAX_FILE_BYTES}")


def _f7_vectors(count, dim=4):
    """The first ``count`` nonzero vectors of F_7^dim, all distinct."""
    vectors = itertools.product(range(7), repeat=dim)
    next(vectors)  # the zero vector
    return [list(v) for v in itertools.islice(vectors, count)]


def test_lieset_past_the_member_cap_exits_2(tmp_path):
    # abelian over F_7: every product is zero, so any set of nonzero
    # vectors is a Lie set, and only the cap can refuse one
    algebra = _write(tmp_path, "ab4.json",
                     {"field": {"Fp": 7}, "dim": 4, "products": []})
    report_path = tmp_path / "report.json"
    over = _write(tmp_path, "over.json", _f7_vectors(1001))
    assert main(["engel", algebra, "--lieset", over, "--quiet",
                 "--json", str(report_path)]) == 2
    assert json.loads(report_path.read_text())["data"]["error"] == \
        "--lieset has 1001 distinct members, more than the cap of 1000"
    # the cap counts distinct members: 1001 entries, one repeated, pass
    at_cap = _write(tmp_path, "at_cap.json",
                    _f7_vectors(1000) + _f7_vectors(1))
    assert main(["engel", algebra, "--lieset", at_cap, "--quiet"]) == 0


def test_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    c2 = _write(tmp_path, "c2.json",
                {"field": "Q", "dim": 2, "products": [[1, 1, 2, 1]]})
    square = _write(tmp_path, "square.json",
                    {"field": "Q", "dim": 2, "products": [[1, 1, 1, 1]]})
    # {e1} is not closed (e1 e1 = e2), so a leaked --lieset changes the
    # verdict of the plain engel call after it
    open_set = _write(tmp_path, "open.json", [[1, 0]])
    fixed = _write(tmp_path, "fixed.json", {"matrix": [[-1, 0], [0, 1]]})
    report_path = tmp_path / "report.json"
    calls = [["engel", c2, "--lieset", open_set],
             ["engel", c2],
             ["corollary", "4", c2, "--map", fixed, "--order", "2"],
             ["corollary", "3", c2],
             ["validate", square],
             ["corollary", "7", c2]]  # not a corollary: argparse exits 2

    def run(argv):
        report_path.unlink(missing_ok=True)
        try:
            code = main(argv + ["--json", str(report_path)])
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        report = report_path.read_bytes() if report_path.exists() else None
        return code, report, capsys.readouterr()

    def fresh(argv):
        _build_parser.cache_clear()
        return run(argv)

    _build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    assert reused == [fresh(argv) for argv in calls]
    assert [code for code, _, _ in reused] == [1, 0, 1, 0, 1, "SystemExit(2)"]
