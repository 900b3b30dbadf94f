"""The benchmark's per-layer tracer still finds every hook it reads.

``bench/tracing.py`` wraps package functions by name from outside the
package, and ``layer_metrics`` stops with a KeyError when a function one of
its metrics hooks has gone. This runs it on a few commands, one of them
failing validation at load, so that a change in ``src/`` that breaks the
traced benchmark fails here.
"""

import importlib.util
import json
from pathlib import Path

from leibniz_engel import cyclic
from leibniz_engel.cli import main
from leibniz_engel.formats import save_algebra

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_per_layer_metric(tmp_path):
    tracing = _load_tracing()
    algebra = tmp_path / "c2.json"
    save_algebra(cyclic(2), algebra)
    # e1 e1 = e1 breaks the defining identity: loading it sends an
    # InvalidAlgebra out through the traced formats.load_algebra span
    corrupted = tmp_path / "square.json"
    corrupted.write_text(json.dumps({"field": "Q", "dim": 2,
                                     "products": [[1, 1, 1, 1]]}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main(["analyze", str(algebra), "--quiet"]),
                 main(["engel", str(algebra), "--quiet"]),
                 main(["fuzz", "--seed", "1", "--count", "4",
                       "--max-dim", "3", "--quiet"]),
                 main(["validate", str(corrupted), "--quiet"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 1]
    metrics = tracing.layer_metrics([tracer.aggregate()], 0.0)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer"]
    assert list(metrics) == [metric["name"] for metric in per_layer]
