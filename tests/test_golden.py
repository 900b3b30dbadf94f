"""Golden reports: CLI output on fixed inputs, compared byte for byte.

``tests/golden/`` holds the full ``fuzz --seed 2024 --count 200 --max-dim 8``
report and, for five generated families, the exit code and report of
``analyze``, ``engel`` and ``corollary 3`` without the ``input`` block (it
names temporary paths). Rewrite the files only for an intended report
change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from leibniz_engel.cli import main

GOLDEN = Path(__file__).parent / "golden"
FUZZ_GOLDEN = GOLDEN / "fuzz-2024-200-8.json"
FAMILY_GOLDEN = GOLDEN / "families.json"
FUZZ_ARGS = ["fuzz", "--seed", "2024", "--count", "200", "--max-dim", "8"]
FAMILIES = ("cyclic(4)", "heisenberg3", "sol2",
            "direct_sum(heisenberg3,cyclic(5))", "basis_change(heisenberg3,7)")
COMMANDS = (["analyze"], ["engel"], ["corollary", "3"])


def fuzz_report(workdir: Path) -> bytes:
    out = workdir / "fuzz.json"
    main(FUZZ_ARGS + ["--quiet", "--json", str(out)])
    return out.read_bytes()


def family_reports(workdir: Path) -> bytes:
    algebra, out = workdir / "algebra.json", workdir / "report.json"
    reports = {}
    for family in FAMILIES:
        assert main(["generate", "--family", family, "--out", str(algebra),
                     "--quiet"]) == 0
        for command in COMMANDS:
            code = main(command + [str(algebra), "--quiet", "--json", str(out)])
            envelope = json.loads(out.read_text(encoding="utf-8"))
            del envelope["input"]
            reports[f"{' '.join(command)} {family}"] = {"exit_code": code,
                                                        "report": envelope}
    return (json.dumps(reports, indent=2, sort_keys=True) + "\n").encode()


def test_fuzz_report_matches_golden(tmp_path):
    assert fuzz_report(tmp_path) == FUZZ_GOLDEN.read_bytes()


def test_family_reports_match_golden(tmp_path):
    assert family_reports(tmp_path) == FAMILY_GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        FUZZ_GOLDEN.write_bytes(fuzz_report(Path(tmp)))
        FAMILY_GOLDEN.write_bytes(family_reports(Path(tmp)))
