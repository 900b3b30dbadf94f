import json

import pytest

from leibniz_engel.cli import main
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
