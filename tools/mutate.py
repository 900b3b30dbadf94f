#!/usr/bin/env python3
"""Run the source mutants of ``tools/mutants.json`` against their tests.

Run from the repository root:

    python3 tools/mutate.py                 # every listed mutant
    python3 tools/mutate.py ID [ID ...]     # only these

Each mutant names a file under ``src/``, an exact source snippet that
occurs once in it, the replacement, the pytest node ids that must fail
when the snippet is replaced, and the CHANGES.md line it came from.

The repository is copied to a temporary directory first, so nothing is
written into it. On the copy the named tests of every selected mutant are
run once unmutated, where they must pass. Then one mutant at a time
replaces its snippet, its tests run in one pytest subprocess (one after
another, never in parallel), and the file is restored. A mutant is killed
when pytest exits nonzero, a failure at collection included, or runs past
the time limit. A kill table goes to standard output, and its last line
names every mutant not killed, so a rare survivor is named even when only
the end of the output is kept; the exit code is 0 only when every selected
mutant was killed. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"
TIMEOUT_S = 600
# what git, the tests and the benchmark leave behind; none of it is needed
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".benchmarks", "out", "*.egg-info")


def load(path: Path = MUTANTS) -> list:
    return json.loads(path.read_text(encoding="utf-8"))


def run_tests(copy: Path, tests: list) -> tuple:
    """(pytest exit code or "timeout", seconds) for the node ids on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    return code, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutant ids (default: all)")
    args = parser.parse_args(argv)
    mutants = load()
    known = {m["id"] for m in mutants}
    unknown = [i for i in args.ids if i not in known]
    if unknown:
        parser.error(f"unknown mutant ids: {', '.join(unknown)}")
    if args.ids:
        mutants = [m for m in mutants if m["id"] in args.ids]

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        baseline = sorted({t for m in mutants for t in m["tests"]})
        code, seconds = run_tests(copy, baseline)
        if code != 0:
            print(f"the named tests fail on the unmutated copy (exit {code}, "
                  f"{seconds:.1f} s); no mutant was run", file=sys.stderr)
            return 2
        print(f"baseline: {len(baseline)} tests pass unmutated "
              f"({seconds:.1f} s)")
        rows = []
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text(encoding="utf-8")
            found = original.count(m["snippet"])
            if found != 1:
                rows.append((m["id"], f"snippet found {found} times", 0.0))
                continue
            path.write_text(original.replace(m["snippet"], m["replacement"]),
                            encoding="utf-8")
            try:
                code, seconds = run_tests(copy, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "SURVIVED" if code == 0 else \
                "killed (timeout)" if code == "timeout" else "killed"
            rows.append((m["id"], verdict, seconds))

    width = max(len(r[0]) for r in rows) if rows else 2
    print(f"{'mutant':<{width}}  {'verdict':<16}  seconds")
    for name, verdict, seconds in rows:
        print(f"{name:<{width}}  {verdict:<16}  {seconds:7.1f}")
    missed = [r[0] for r in rows if not r[1].startswith("killed")]
    print(f"{len(rows) - len(missed)} of {len(rows)} mutants killed"
          + (f"; not killed: {' '.join(missed)}" if missed else ""))
    return 0 if not missed else 1


if __name__ == "__main__":
    sys.exit(main())
