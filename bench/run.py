#!/usr/bin/env python3
"""Closed-loop benchmark of the leibniz-engel command line.

Run from the repository root:

    python3 bench/run.py --workload cli-mix --seed 2024 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 31337

One client sends one request at a time: each request is an in-process call
of ``leibniz_engel.cli.main(argv)`` on files generated from ``--seed``, and
the next request goes only after the previous one returned. Passes over the
workload's request list repeat until ``--seconds`` are used up. Every report
is checked against an answer known without the program (see workloads.py).

``--trace 0`` prints the end-to-end metrics. Their times are in reference
seconds, which cancel changes in host CPU speed (see refclock.py); the wall
times go to the record. ``--trace 1`` alternates untraced and traced passes
(see tracing.py) and prints the per-layer metrics and the tracing overhead;
it also checks that traced reports are byte-identical to untraced ones and
that every count repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with
run metadata goes to ``bench/out/``. The exit code is 0 only when every
request gave its known answer; 2 means the package could not be imported.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from refclock import ReferenceClock, to_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 6  # fresh interpreters timed before and again after the passes
SETUP_ROUNDS = 20  # reference rounds run after each of them
WORKLOAD_NAMES = ("fuzz-corpus", "engel-q", "engel-fp", "cli-mix")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("request_p50_ms", "ms"),
              ("request_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default "
                             f"{workloads.DEFAULT_SEED}); "
                             f"{workloads.HOLDOUT_SEED} is held out for "
                             f"checking claims")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- measurement helpers ------------------------------------------------------

# A fresh interpreter imports the package, then runs reference rounds on the
# CPU that did the import: the two CPUs of a host can run at different speeds.
SETUP_CODE = """\
import time
import leibniz_engel.cli
end = time.perf_counter()
import json, sys
sys.path.insert(0, {bench!r})
from refclock import ReferenceClock, to_reference
clock = ReferenceClock()
clock.sample({rounds})
print(json.dumps([end, clock.mean_round_s()]))
"""


def setup_sample() -> tuple:
    """Fresh interpreter until ``import leibniz_engel.cli`` returns, in
    reference seconds and in wall seconds (``perf_counter`` reads the same
    clock in both processes).

    Bytecode caching is on, whatever the caller's environment says, as for
    an installed package; a first, discarded sample fills the cache.
    """
    code = SETUP_CODE.format(bench=str(BENCH), rounds=SETUP_ROUNDS)
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import the "
                           f"package: {proc.stderr.strip()}")
    end, round_s = json.loads(proc.stdout)
    return to_reference(end - start, round_s), end - start


def percentile(samples: list, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def spread(samples: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = percentile(samples, q)
            break
    return out


def run_pass(cli, calls: list) -> tuple:
    """One closed-loop pass: every call waits for the previous one.

    Returns the ``perf_counter`` readings before the first call and after
    each call, and the exit codes.
    """
    for _, path in calls:
        path.unlink(missing_ok=True)
    gc.collect()
    marks, codes = [time.perf_counter()], []
    for argv, _ in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a raising request is a failed request
            code = f"raised {type(exc).__name__}: {exc}"
        marks.append(time.perf_counter())
        codes.append(code)
    return marks, codes


def check_pass(requests: list, calls: list, codes: list, mismatches) -> tuple:
    """Report bytes per request, and one problem line per failed request."""
    blobs, problems = [], []
    for req, (_, path), code in zip(requests, calls, codes):
        blob = path.read_bytes() if path.exists() else None
        blobs.append(blob)
        report = json.loads(blob) if blob is not None else None
        found = mismatches(req, code, report)
        if found:
            problems.append(f"{req.label}: " + "; ".join(found))
    return blobs, problems


def metadata(args, passes: int, requests: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "passes": passes, "requests_per_pass": requests,
            "platform": platform.platform()}


def git_commit():
    """HEAD of the repository holding this file, or None outside git."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


# -- the two kinds of run ----------------------------------------------------

def untraced_run(args, cli, requests, calls, mismatches) -> dict:
    """End-to-end metrics, in reference seconds (see refclock.py); the wall
    times go to the detail record."""
    clock = ReferenceClock()
    setup_sample()  # fills the bytecode cache
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    begin = time.perf_counter()
    passes, problems = [], []
    with clock:
        while True:
            marks, codes = run_pass(cli, calls)
            _, found = check_pass(requests, calls, codes, mismatches)
            passes.append(marks)
            problems += found
            if (time.perf_counter() - begin
                    + statistics.median(m[-1] - m[0] for m in passes)
                    > args.seconds):
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [setup_sample() for _ in range(SETUP_SAMPLES)]

    def pass_times(convert):
        return [convert(m[0], m[-1]) for m in passes]

    def request_ms(convert):
        # Percentiles are taken over the request list, one value per
        # request: its median over the passes. Pooling every sample instead
        # would let the number of passes decide which requests a percentile
        # falls on.
        per_pass = [[1000 * convert(a, b) for a, b in zip(m, m[1:])]
                    for m in passes]
        return [statistics.median(x) for x in zip(*per_pass)], per_pass

    def wall(a, b):
        return b - a

    ref = clock.reference_seconds
    per_request, per_pass = request_ms(ref)
    values = {
        "setup_s": statistics.median(x for x, _ in setup),
        "pass_s": statistics.median(pass_times(ref)),
        "request_p50_ms": statistics.median(per_request),
        "request_p90_ms": percentile(per_request, 90),
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    wall_request, _ = request_ms(wall)
    detail = {
        "setup_s": spread([x for x, _ in setup]),
        "pass_s": spread(pass_times(ref)),
        "request_ms": spread([x for lat in per_pass for x in lat]),
        "wall": {"setup_s": spread([x for _, x in setup]),
                 "pass_s": spread(pass_times(wall)),
                 "request_p50_ms": statistics.median(wall_request),
                 "request_p90_ms": percentile(wall_request, 90)},
        "reference": {"round_s": clock.mean_round_s(),
                      "rounds": len(clock.starts)},
    }
    return {"metrics": metrics, "detail": detail, "passes": len(passes),
            "attempted": len(passes) * len(calls), "problems": problems}


def traced_run(args, cli, requests, calls, mismatches) -> dict:
    from tracing import Tracer, count_signature, layer_metrics

    # Untraced and traced passes alternate, so that a change in host speed
    # during the run does not land on one side of the overhead only.
    begin = time.perf_counter()
    tracer = Tracer()
    reference, problems, attempted = None, [], 0
    untraced_times, traced_times, aggs = [], [], []
    while True:
        for traced in (False, True):
            if traced:
                tracer.clear()
                tracer.install()
            try:
                marks, codes = run_pass(cli, calls)
            finally:
                tracer.uninstall()
            pass_s = marks[-1] - marks[0]
            blobs, found = check_pass(requests, calls, codes, mismatches)
            attempted += len(codes)
            problems += found
            if reference is None:
                reference = blobs
            problems += [f"{req.label}: traced report differs from untraced"
                         for req, a, b in zip(requests, reference, blobs)
                         if a != b]
            if traced:
                traced_times.append(pass_s)
                aggs.append(tracer.aggregate())
            else:
                untraced_times.append(pass_s)
        if len(aggs) >= 2 and (time.perf_counter() - begin
                               + statistics.median(traced_times)
                               + statistics.median(untraced_times)
                               > args.seconds):
            break
    signature = count_signature(aggs[0])
    problems += [f"traced pass {i + 1}: counts differ from traced pass 1"
                 for i, agg in enumerate(aggs)
                 if count_signature(agg) != signature]
    overhead = statistics.median(traced_times) \
        - statistics.median(untraced_times)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as f:
        f.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans()):
            f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    return {"metrics": layer_metrics(aggs, overhead),
            "detail": {"untraced_pass_s": spread(untraced_times),
                       "traced_pass_s": spread(traced_times),
                       "spans_per_pass": aggs[0]["spans"],
                       "spans_file": str(spans_path.relative_to(ROOT))},
            "passes": len(untraced_times) + len(traced_times),
            "attempted": attempted,
            "problems": problems}


# -- entry points -------------------------------------------------------------

def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        cli = importlib.import_module("leibniz_engel.cli")
    except ImportError as exc:
        print(f"cannot import leibniz_engel from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"leibniz_engel was imported from outside {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        requests = workloads.WORKLOADS[args.workload](work, args.seed)
        (work / "reports").mkdir()
        calls = []
        for i, req in enumerate(requests):
            path = work / "reports" / f"r{i:03d}.json"
            calls.append(([*req.argv, "--json", str(path), "--quiet"], path))
        run = traced_run if args.trace else untraced_run
        result = run(args, cli, requests, calls, workloads.mismatches)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["problems"])
    meta = metadata(args, result["passes"], len(requests))
    meta["failed_ratio"] = failed / result["attempted"]
    for line in result["problems"][:20]:
        print(f"FAILED {line}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12s} {name:48s} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:12s} {'failed_ratio':48s} "
          f"{meta['failed_ratio']:.6g} 1")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    line = {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": result["metrics"]}
    record = OUT / (f"result-{args.workload}-s{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps({**line, "meta": meta,
                                  "detail": result["detail"],
                                  "problems": result["problems"]},
                                 indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(json.dumps(line, sort_keys=True))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another, then a table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print()
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:12s} {metric:48s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:12s} {'failed_ratio':48s} "
              f"{res['failed'] / res['attempted']:>14.6g} 1")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
