import itertools
import json
import os

import pytest

from leibniz_engel.cli import _build_parser, main
from leibniz_engel.formats import MAX_FILE_BYTES
from leibniz_engel.reports import EXIT_CODES


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


def test_fuzz_small_corpus(tmp_path):
    report_path = tmp_path / "fuzz.json"
    assert main(["fuzz", "--seed", "11", "--count", "16", "--max-dim", "4",
                 "--quiet", "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "pass"
    assert report["data"]["violations"] == []
    assert report["data"]["passes"] + report["data"]["premises_failed"] == 16
    assert report["conventions"]["bimodule_axioms"]


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
