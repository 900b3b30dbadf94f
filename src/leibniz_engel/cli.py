"""Command-line front end.

Subcommands: validate, analyze, engel, lemma-bound, corollary, generate,
fuzz. Every command can emit the machine-readable report with ``--json`` and
silence the human text with ``--quiet``. Exit codes are a function of the
report verdict alone: 0 pass, 1 premises failed, 2 input/parse error, 3
reserved for THEOREM_VIOLATION.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebra import (DEFAULT_CLOSURE_CAP, Element, LeibnizAlgebra, LieSet,
                      lie_set_closure, lower_central_series,
                      series_nilpotency, verify_operator_identities)
from .bimodule import annihilator_ideal, regular_bimodule, submodule_generated
from .corollaries import (_nilpotency_report, corollary3_check,
                          corollary4_check, corollary5_check,
                          nilradical_from_family, sum_of_nilpotent_ideals)
from .engel import (check_engel_premises, lemma_word_bound_check,
                    theorem2_verify)
from .errors import CapExceeded, FormatError, InvalidAlgebra, LeibnizError
from .families import build, fuzz_corpus, parse_family_spec
from .formats import (load_algebra, load_bimodule, load_elements, load_ideals,
                      load_map, parse_field_name, save_algebra)
from .reports import PASS, THEOREM_VIOLATION, Check, Report, error_report


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except FormatError as exc:
        report = error_report(str(exc))
    except (ValueError, LeibnizError) as exc:
        report = error_report(f"{type(exc).__name__}: {exc}")
    envelope = report.to_json_dict(args.command, _input_desc(args))
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(envelope, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if not args.quiet:
        print(report.render())
    return report.exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built at the first :func:`main` call and reused by later ones; each
    ``parse_args`` returns a fresh namespace, so no state carries over."""
    parser = argparse.ArgumentParser(
        prog="leibniz-engel",
        description="Exact checks for Leibniz algebras: identities, "
                    "annihilator flags, nilpotency consequences.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the machine-readable report here")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="defining identity plus operator identities")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("analyze", parents=[common],
                       help="nilpotency, lower central series, annihilator")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("engel", parents=[common],
                       help="premises, flag, annihilator, operator algebras")
    p.add_argument("algebra")
    p.add_argument("--module", help="bimodule JSON (default: regular)")
    p.add_argument("--lieset", help="element list JSON (default: closure of basis)")
    p.set_defaults(handler=_cmd_engel)

    p = sub.add_parser("lemma-bound", parents=[common],
                       help="single-element word-length bound")
    p.add_argument("algebra")
    p.add_argument("--element", required=True,
                   help="comma-separated coordinates, e.g. 1,0 or 1/2,3")
    p.add_argument("--module", help="bimodule JSON (default: regular)")
    p.set_defaults(handler=_cmd_lemma_bound)

    p = sub.add_parser("corollary", parents=[common],
                       help="run one of the four consequence checkers")
    p.add_argument("which", type=int, choices=(3, 4, 5, 6))
    p.add_argument("algebra")
    p.add_argument("--map", dest="map_path", help="self-map JSON (4 and 5)")
    p.add_argument("--order", type=int, help="automorphism order p (4)")
    p.add_argument("--ideals", help="ideal family JSON (6)")
    p.set_defaults(handler=_cmd_corollary)

    p = sub.add_parser("generate", parents=[common],
                       help="write a family algebra to JSON")
    p.add_argument("--family", required=True,
                   help="e.g. cyclic(3), heisenberg3, basis_change(cyclic(3),42)")
    p.add_argument("--field", default="Q", help="Q (default) or F<p>")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("fuzz", parents=[common],
                       help="end-to-end verification over a seeded corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-dim", dest="max_dim", type=int, required=True)
    p.set_defaults(handler=_cmd_fuzz)
    return parser


def _input_desc(args) -> dict:
    desc = {}
    for key in ("algebra", "module", "lieset", "map_path", "ideals",
                "element", "order", "which", "family", "field", "out",
                "seed", "count", "max_dim"):
        value = getattr(args, key, None)
        if value is not None:
            desc[key] = value
    return desc


def _default_lie_set(algebra: LeibnizAlgebra) -> LieSet:
    return lie_set_closure(algebra.basis())


def _cmd_validate(args):
    try:
        algebra = load_algebra(args.algebra)
    except InvalidAlgebra as exc:
        violations = exc.report.violations
        premise = Check("defining_identity", False, witness=violations[:5],
                        data={"violations": len(violations)})
        return Report(premises=[premise], conclusions=[])
    identities = verify_operator_identities(algebra)
    premise = Check("defining_identity", True, data={"violations": 0})
    conclusion = Check(
        "multiplication_operator_identities", identities.ok,
        witness=None if identities.ok else
        [{"identity": v.identity, **v.witness}
         for v in identities.violations[:5]])
    return Report(premises=[premise], conclusions=[conclusion])


def _cmd_analyze(args):
    algebra = load_algebra(args.algebra)
    series = lower_central_series(algebra)
    verdict, cls = series_nilpotency(series)
    ann = annihilator_ideal(regular_bimodule(algebra))
    data = {
        "dim": algebra.dim,
        "field": str(algebra.field),
        "nilpotent": verdict,
        "class": cls,
        "series_dims": [s.dim for s in series],
        "regular_annihilator_dim": ann.dim,
        "regular_annihilator_basis": ann.to_str_rows(),
    }
    return Report(premises=[], conclusions=[], data=data)


def _cmd_engel(args):
    algebra = load_algebra(args.algebra)
    module = load_bimodule(args.module, algebra) if args.module \
        else regular_bimodule(algebra)
    if args.lieset:
        members = load_elements(args.lieset, algebra)
        distinct = len({x.coords for x in members})  # the check is quadratic
        if distinct > DEFAULT_CLOSURE_CAP:
            raise FormatError(f"--lieset has {distinct} distinct members, "
                              f"more than the cap of {DEFAULT_CLOSURE_CAP}")
        lie_set = LieSet(algebra, tuple(members))
    else:
        lie_set = _default_lie_set(algebra)
    return theorem2_verify(module, lie_set)


def _cmd_lemma_bound(args):
    algebra = load_algebra(args.algebra)
    module = load_bimodule(args.module, algebra) if args.module \
        else regular_bimodule(algebra)
    coords = [part.strip() for part in args.element.split(",")]
    if len(coords) != algebra.dim:
        raise FormatError(f"--element needs {algebra.dim} coordinates")
    element = Element(algebra, tuple(map(algebra.field.parse, coords)))
    return lemma_word_bound_check(module, element)


def _cmd_corollary(args):
    algebra = load_algebra(args.algebra)
    if args.which == 3:
        return corollary3_check(algebra, _default_lie_set(algebra))
    if args.which == 4:
        if not args.map_path or args.order is None:
            raise FormatError("corollary 4 needs --map and --order")
        return corollary4_check(algebra, load_map(args.map_path, algebra),
                                args.order)
    if args.which == 5:
        if not args.map_path:
            raise FormatError("corollary 5 needs --map")
        return corollary5_check(algebra, load_map(args.map_path, algebra))
    if not args.ideals:
        raise FormatError("corollary 6 needs --ideals")
    ideals = load_ideals(args.ideals, algebra)
    if len(ideals) == 2:
        return sum_of_nilpotent_ideals(algebra, ideals[0], ideals[1])
    return nilradical_from_family(algebra, ideals)


def _cmd_generate(args):
    field = parse_field_name(args.field)
    spec = parse_family_spec(args.family, field)
    algebra = build(spec)
    save_algebra(algebra, args.out)
    data = {"family": args.family, "field": str(field), "dim": algebra.dim,
            "out": str(args.out)}
    return Report(premises=[], conclusions=[], data=data)


def _cmd_fuzz(args):
    """Each distinct algebra and module of the corpus, which hands out
    equal items as one object, is verified once. Pass 1 closes each basis
    (None past the cap) and runs theorem 2 once per module, keeping the
    verdict, and the premises when the module is the regular one: corollary
    3 is theorem 2 there. Pass 2 decides each algebra's own verdicts once
    and assembles the items. The dicts live for this call only."""
    corpus = fuzz_corpus(args.seed, args.count, args.max_dim)
    closures, module_verdicts, regular_premises = {}, {}, {}
    for algebra, module in corpus:
        if algebra not in closures:
            try:
                closures[algebra] = _default_lie_set(algebra)
            except CapExceeded:
                closures[algebra] = None
        closure = closures[algebra]
        if closure is None or module in module_verdicts:
            continue
        report = theorem2_verify(module, closure)
        module_verdicts[module] = report.verdict
        if module == regular_bimodule(algebra):
            regular_premises[algebra] = report.premises
    algebra_verdicts = {}
    items = []
    violations = []
    premises_failed = 0
    passes = 0
    for idx, (algebra, module) in enumerate(corpus):
        closure = closures[algebra]
        if closure is None:
            premises_failed += 1
            items.append({"index": idx, "verdict": "premises_failed",
                          "note": "basis closure exceeded the closure cap"})
            continue
        if algebra not in algebra_verdicts:
            algebra_verdicts[algebra] = _algebra_verdicts(
                algebra, closure, regular_premises.get(algebra))
        verdicts = [module_verdicts[module], *algebra_verdicts[algebra]]
        if THEOREM_VIOLATION in verdicts:
            violations.append(idx)
            items.append({"index": idx, "verdict": THEOREM_VIOLATION})
        elif all(v == PASS for v in verdicts):
            passes += 1
            items.append({"index": idx, "verdict": PASS})
        else:
            premises_failed += 1
            items.append({"index": idx, "verdict": "premises_failed"})
    conclusions = [Check("no_theorem_violations", not violations,
                         witness=violations or None,
                         data={"items": len(corpus), "passes": passes,
                               "premises_failed": premises_failed})]
    data = {"items": items, "passes": passes,
            "premises_failed": premises_failed,
            "violations": violations}
    return Report(premises=[], conclusions=conclusions, data=data)


def _algebra_verdicts(algebra: LeibnizAlgebra, closure: LieSet,
                      premises: list | None) -> tuple:
    """Corollary 3, on theorem 2's premises for the regular bimodule
    (checked here when not given), and corollary 6 on the ideals generated
    by e_1 and by e_n (their submodules of the regular bimodule), for a
    nilpotent algebra; nothing otherwise."""
    if not series_nilpotency(lower_central_series(algebra))[0]:
        return ()
    regular, basis = regular_bimodule(algebra), algebra.basis()
    if premises is None:
        premises = check_engel_premises(regular, closure).premises
    ideals = [submodule_generated(regular, basis[i].coords) for i in (0, -1)]
    return (_nilpotency_report(algebra, premises).verdict,
            nilradical_from_family(algebra, ideals).verdict)


if __name__ == "__main__":
    sys.exit(main())
