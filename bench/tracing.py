"""Per-layer tracing by wrapping the package's public functions from outside.

Nothing in ``src/`` is edited. ``Tracer.install`` replaces every public
function of every package module with a span-recording wrapper, in every
module namespace that bound the same function object (``from .linalg import
rref`` copies the name), and wraps the public and arithmetic methods of the
package's classes. The two field classes get count-only wrappers, and so does
``fractions.Fraction.__new__``, because a span per scalar operation would
swamp the trace. ``uninstall`` puts every original back.

A span is (name, start, end, parent); spans live in flat arrays until the
run ends. A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import inspect
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PACKAGE = "leibniz_engel"
LAYERS = ("fields", "linalg", "algebra", "bimodule", "engel", "corollaries",
          "families", "formats", "reports", "cli")
ARITHMETIC = {"__matmul__", "__mul__", "__add__", "__sub__", "__neg__",
              "__pow__"}
SCALAR_OPS = ("add", "sub", "mul", "neg", "inv", "div")

# span names that metrics know by a shorter name
ALIASES = {
    "linalg.Matrix.__matmul__": "linalg.matmul",
    "linalg.Subspace.span": "linalg.span",
    "linalg.Subspace.contains": "linalg.contains",
    "linalg.Subspace.quotient_data": "linalg.quotient_data",
    "algebra.LeibnizAlgebra.create": "algebra.create",
    "algebra.Element.__mul__": "algebra.element_mul",
    "bimodule.t_matrix": "bimodule.action_matrix",
    "bimodule.s_matrix": "bimodule.action_matrix",
}


class Tracer:
    """Installs the wrappers and turns the spans of one pass into metrics."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._cells: dict = {}
        self._restore: list = []
        self._series_args: dict = {}
        self.clear()

    def clear(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        for cell in self._cells.values():
            cell[0] = 0
        self._series_args.clear()

    # -- installation -------------------------------------------------------

    def _cell(self, metric: str) -> list:
        return self._cells.setdefault(metric, [0])

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS]
        namespaces = [package] + modules
        fields = importlib.import_module(f"{PACKAGE}.fields")
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                own = getattr(obj, "__module__", None) == module.__name__
                if inspect.isfunction(obj) and own:
                    wrapper = self._span(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            self._set(ns, name, wrapper)
                elif (inspect.isclass(obj) and own
                      and not issubclass(obj, BaseException)):
                    if obj in (fields.RationalField, fields.PrimeField):
                        self._count_field(obj)
                    else:
                        self._wrap_class(layer, obj)
        cell = self._cell("fields.fraction_new")
        new = vars(fractions.Fraction)["__new__"].__func__

        def counted_new(cls, *args, **kwargs):
            cell[0] += 1
            return new(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _count_field(self, cls) -> None:
        for attr in SCALAR_OPS + ("normalize",):
            metric = "fields.normalize_calls" if attr == "normalize" \
                else "fields.scalar_ops"
            self._set(cls, attr, _counted(vars(cls)[attr], self._cell(metric)))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapper = self._span(name, raw.__func__)
                self._set(cls, attr, staticmethod(wrapper))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span(name, raw))

    def _span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span."""
        metric = ALIASES.get(name, name)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, after = self._hooks(metric)
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            starts = tracer.start
            idx = len(starts)
            stack = tracer._stack
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, metric: str) -> tuple:
        """Per-call counts read from arguments and results."""
        cell = self._cell
        if metric == "linalg.span":
            vectors_in, rank_out = cell("linalg.span.vectors_in"), \
                cell("linalg.span.rank_out")

            def materialize(args):
                # the vectors may arrive as a one-shot iterable
                field, ambient, vectors = args
                vectors = list(vectors)
                vectors_in[0] += len(vectors)
                return field, ambient, vectors

            def rank(args, result):
                rank_out[0] += result.dim

            return materialize, rank
        simple = {
            "linalg.rref": ("linalg.rref.entries_in",
                            lambda a, r: a[0].rows * a[0].cols),
            "algebra.lie_set_closure": ("algebra.lie_set_closure.members_out",
                                        lambda a, r: len(r.members)),
            "engel.generated_operator_algebra": (
                "engel.generated_operator_algebra.basis_out",
                lambda a, r: len(r.basis)),
            "engel.engel_flag": ("engel.engel_flag.levels",
                                 lambda a, r: r.length),
        }
        if metric in simple:
            target, measure = simple[metric]
            c = cell(target)

            def add(args, result):
                c[0] += measure(args, result)

            return None, add
        if metric == "algebra.lower_central_series":
            seen = self._series_args

            def remember(args, result):
                # keep the algebra alive so that its id is not reused
                seen.setdefault(id(args[0]), args[0])

            return None, remember
        return None, None

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls and self time per metric name, per layer, plus hook counts."""
        n = len(self.start)
        start, end, parent, nid = self.start, self.end, self.span_parent, \
            self.span_name
        child = [0.0] * n
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls = Counter()
        self_s, layer_s = defaultdict(float), defaultdict(float)
        metric_of = [ALIASES.get(name, name) for name in self.names]
        matmul = self._ids.get("linalg.Matrix.__matmul__", -1)
        closure = self._ids.get("engel.generated_operator_algebra", -1)
        tried = 0
        for i in range(n):
            metric = metric_of[nid[i]]
            own = end[i] - start[i] - child[i]
            calls[metric] += 1
            self_s[metric] += own
            layer_s[metric.split(".", 1)[0]] += own
            par = parent[i]
            if nid[i] == matmul and par >= 0 and nid[par] == closure:
                tried += 1
        counts = {k: c[0] for k, c in self._cells.items()}
        counts["engel.generated_operator_algebra.products_tried"] = tried
        counts["algebra.lower_central_series.distinct"] = \
            len(self._series_args)
        return {"calls": calls, "self_s": self_s, "layer_s": layer_s,
                "counts": counts, "spans": n}

    def spans(self):
        """The recorded spans as (name, start, end, parent index) rows."""
        for i in range(len(self.start)):
            yield (self.names[self.span_name[i]], self.start[i], self.end[i],
                   self.span_parent[i])


def _counted(fn, cell):
    def counted(*args):
        cell[0] += 1
        return fn(*args)

    return functools.wraps(fn)(counted)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(aggs: list, overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from the aggregates of the
    traced passes.

    Counts come from the first pass (the runner checks that all passes agree
    on them); times are medians over the passes.
    """
    first = aggs[0]
    calls, counts = first["calls"], first["counts"]

    def time_of(kind, key):
        return statistics.median(a[kind][key] for a in aggs)

    out = {}
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        if name == "trace.overhead_s":
            value = overhead_s
        elif name in counts:
            value = counts[name]
        elif name == "linalg.span.kept_ratio":
            value = _ratio(counts["linalg.span.rank_out"],
                           counts["linalg.span.vectors_in"])
        elif name == "engel.generated_operator_algebra.kept_ratio":
            closure = "engel.generated_operator_algebra"
            value = _ratio(counts[f"{closure}.basis_out"],
                           counts[f"{closure}.products_tried"])
        elif name == "algebra.lower_central_series.repeat_ratio":
            value = _ratio(calls["algebra.lower_central_series"],
                           counts["algebra.lower_central_series.distinct"])
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        elif name.count(".") == 1:
            value = time_of("layer_s", name.split(".")[0])
        else:
            value = time_of("self_s", name[:-len(".self_s")])
        out[name] = {"value": value, "unit": unit}
    return out


def count_signature(agg: dict) -> dict:
    """Everything in one pass's aggregate that must repeat exactly."""
    return {"calls": dict(agg["calls"]), "counts": dict(agg["counts"]),
            "spans": agg["spans"]}
