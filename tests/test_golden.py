"""Golden reports: CLI output on fixed inputs, compared byte for byte.

``tests/golden/`` holds the full ``fuzz --count 200 --max-dim 8`` report at
fuzz seed 2024 and at fuzz seeds 323 and 331, the corpora that the
benchmark's ``fuzz-corpus`` workload runs at its seeds 2024 and 31337. For
five generated families it holds the exit code and report of ``analyze``,
``engel`` and ``corollary 3`` without the ``input`` block (it names
temporary paths). It also holds, in request order, the exit code and
report (again without ``input``) of every request of the benchmark's
``cli-mix``, ``engel-fp`` and ``engel-q`` workloads at seed 2024 and at the
holdout seed 31337, built by ``bench/workloads.py``:
101 short calls of every file-reading subcommand per seed, failing ones
included (a corrupted ``validate`` report lists its violating triples),
five dense Engel checks over F_7 and three sparse ones over Q. Rewrite the
files only for an intended report change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from leibniz_engel.cli import main

GOLDEN = Path(__file__).parent / "golden"
FUZZ_GOLDEN = GOLDEN / "fuzz-2024-200-8.json"
BENCH_FUZZ_SEEDS = (323, 331)
FAMILY_GOLDEN = GOLDEN / "families.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_SEED, HOLDOUT_SEED = 2024, 31337
BENCH_WORKLOADS = {BENCH_SEED: ("cli-mix", "engel-fp", "engel-q"),
                   HOLDOUT_SEED: ("cli-mix", "engel-fp", "engel-q")}
FAMILIES = ("cyclic(4)", "heisenberg3", "sol2",
            "direct_sum(heisenberg3,cyclic(5))", "basis_change(heisenberg3,7)")
COMMANDS = (["analyze"], ["engel"], ["corollary", "3"])


def fuzz_golden(seed: int) -> Path:
    return GOLDEN / f"fuzz-{seed}-200-8.json"


def bench_golden(seed: int) -> Path:
    return GOLDEN / f"bench-{seed}.json"


def fuzz_report(workdir: Path, seed: int = 2024) -> bytes:
    out = workdir / f"fuzz-{seed}.json"
    main(["fuzz", "--seed", str(seed), "--count", "200", "--max-dim", "8",
          "--quiet", "--json", str(out)])
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


def _bench_workloads():
    """``bench/workloads.py``, which imports its sibling modules by their
    bare names, so ``bench/`` goes on the path while it loads."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def bench_reports(workdir: Path, seed: int = BENCH_SEED) -> bytes:
    workloads = _bench_workloads()
    out = workdir / "report.json"
    reports = {}
    for name in BENCH_WORKLOADS[seed]:
        work = workdir / f"{name}-{seed}"
        work.mkdir()
        runs = reports[name] = []
        for req in workloads.WORKLOADS[name](work, seed):
            out.unlink(missing_ok=True)
            code = main([*req.argv, "--quiet", "--json", str(out)])
            envelope = json.loads(out.read_text(encoding="utf-8"))
            del envelope["input"]
            runs.append({"label": req.label, "exit_code": code,
                         "report": envelope})
    return (json.dumps(reports, separators=(",", ":"), sort_keys=True)
            + "\n").encode()


def test_fuzz_report_matches_golden(tmp_path):
    assert fuzz_report(tmp_path) == FUZZ_GOLDEN.read_bytes()


@pytest.mark.parametrize("seed", BENCH_FUZZ_SEEDS)
def test_bench_fuzz_reports_match_golden(tmp_path, seed):
    assert fuzz_report(tmp_path, seed) == fuzz_golden(seed).read_bytes()


def test_family_reports_match_golden(tmp_path):
    assert family_reports(tmp_path) == FAMILY_GOLDEN.read_bytes()


def test_bench_request_reports_match_golden(tmp_path):
    assert bench_reports(tmp_path) == bench_golden(BENCH_SEED).read_bytes()


def test_bench_holdout_request_reports_match_golden(tmp_path):
    assert bench_reports(tmp_path, HOLDOUT_SEED) == \
        bench_golden(HOLDOUT_SEED).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        FUZZ_GOLDEN.write_bytes(fuzz_report(Path(tmp)))
        for seed in BENCH_FUZZ_SEEDS:
            fuzz_golden(seed).write_bytes(fuzz_report(Path(tmp), seed))
        FAMILY_GOLDEN.write_bytes(family_reports(Path(tmp)))
        for seed in BENCH_WORKLOADS:
            bench_golden(seed).write_bytes(bench_reports(Path(tmp), seed))
