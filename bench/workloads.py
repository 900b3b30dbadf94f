"""The four workloads: seeded request lists with their known answers.

Each workload function writes its input files into a work directory and
returns the list of requests one pass sends, in order. A request is the
argument list of one command-line call (the runner adds ``--json`` and
``--quiet``) plus the exit code and the report fields it must produce. No
answer is taken from the program: ``fuzz-corpus`` answers come from the
brute-force oracle, the others from how each input was built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import known
import oracle

PASS, FAILED = "pass", "premises_failed"
Q, F5, F7 = 0, 5, 7
DEFAULT_SEED = 2024
HOLDOUT_SEED = 31337  # held out for checking claims: tune nothing on it


@dataclass(frozen=True)
class Request:
    """One call. ``expect`` maps a report path (see ``lookup``) to a value."""

    label: str
    argv: tuple
    exit_code: int
    expect: tuple  # ((path, value), ...)


def lookup(report, path: str):
    """Follow a dotted path: ints index lists, ``#`` takes a length and
    ``*`` maps the rest of the path over a list."""
    parts = path.split(".")
    for pos, part in enumerate(parts):
        if part == "#":
            report = len(report)
        elif part == "*":
            rest = ".".join(parts[pos + 1:])
            return [lookup(x, rest) if rest else x for x in report]
        elif isinstance(report, list):
            report = report[int(part)]
        else:
            report = report[part]
    return report


def mismatches(req: Request, exit_code, report) -> list:
    """Differences between one call's outcome and its known answer."""
    out = []
    if exit_code != req.exit_code:
        out.append(f"exit code {exit_code}, want {req.exit_code}")
    if report is None:
        return out + ["no report written"]
    for path, want in req.expect:
        try:
            got = lookup(report, path)
        except (KeyError, IndexError, TypeError, ValueError):
            got = "<missing>"
        if got != want:
            out.append(f"{path} = {got!r}, want {want!r}")
    return out


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def _field(p: int) -> str:
    return f"F{p}" if p else "Q"


def heis_cyclic(n: int, p: int) -> known.Family:
    """direct_sum(heisenberg3, cyclic(n - 3))."""
    return known.direct_sum(known.heisenberg3(p), known.cyclic(n - 3, p))


def _engel_request(label, path, fam) -> Request:
    return Request(label, ("engel", path), 0, (
        ("verdict", PASS), ("data.joint_index", fam.cls),
        ("data.flag_dims", list(fam.upper))))


# -- fuzz-corpus ----------------------------------------------------------

FUZZ_COUNT, FUZZ_MAX_DIM = 200, 8
# The time of a fuzz call over 200 items varies by +-20% from one fuzz seed
# to the next (reference seconds over fuzz seeds 300-340), which would let
# the seed, not the program, set the pass time. These fuzz seeds took within
# 2.5% of 5.7 reference seconds each, in three runs apiece.
FUZZ_SEEDS = (320, 323, 329, 330, 331, 332, 336, 337, 340)


def fuzz_seed_of(seed: int) -> int:
    """The fuzz seed that a workload seed runs, drawn from FUZZ_SEEDS."""
    return _rng("fuzz-corpus", seed).choice(FUZZ_SEEDS)


# the holdout seed must not run the default seed's corpus
assert fuzz_seed_of(DEFAULT_SEED) != fuzz_seed_of(HOLDOUT_SEED)


def fuzz_corpus(work, seed: int) -> list:
    """One ``fuzz`` call; each item's verdict is decided by brute force.

    The workload seed picks the fuzz seed (``fuzz_seed_of``). The corpus is
    rebuilt here with the package's own generator, because the program
    builds it inside the call from the fuzz seed alone. An item must
    pass exactly when every word of module_dim actions kills the module,
    and a nilpotent algebra (every product of dim + 1 basis elements zero)
    must give such a module.
    """
    from leibniz_engel.families import fuzz_corpus as corpus_of

    fuzz_seed = fuzz_seed_of(seed)
    verdicts = []
    for algebra, module in corpus_of(fuzz_seed, FUZZ_COUNT, FUZZ_MAX_DIM):
        p = getattr(algebra.field, "p", 0)
        actions = [m.entries
                   for m in module.left_actions + module.right_actions]
        nil_action = oracle.action_is_nilpotent(actions, module.module_dim, p)
        nilpotent = oracle.algebra_is_nilpotent(algebra.structure, p)
        if nilpotent and not nil_action:
            raise RuntimeError("oracle: nilpotent algebra acts "
                               "non-nilpotently")
        verdicts.append(PASS if nil_action else FAILED)
    argv = ("fuzz", "--seed", str(fuzz_seed), "--count", str(FUZZ_COUNT),
            "--max-dim", str(FUZZ_MAX_DIM))
    return [Request("fuzz", argv, 0, (
        ("verdict", PASS), ("data.violations", []),
        ("data.passes", verdicts.count(PASS)),
        ("data.premises_failed", verdicts.count(FAILED)),
        ("data.items.*.verdict", verdicts)))]


# -- engel-q / engel-fp -----------------------------------------------------

def engel_q(work, seed: int) -> list:
    """heisenberg3 + cyclic(n-3) over Q at n = 10, 14, 18, basis reordered
    by the seed (a reordering keeps constants sparse and the basis closure
    finite)."""
    out = []
    for n in (10, 14, 18):
        fam = heis_cyclic(n, Q)
        order = known.permutation(n, Q, _rng("engel-q", seed, n))
        based = known.rebase(fam, order)
        path = known.write_json(work / f"q{n}.json",
                                known.algebra_json(based.c, Q))
        out.append(_engel_request(f"engel Q n={n}", path, fam))
    return out


# Dense bases, fixed per size: the basis closure of a dense basis has from
# 40 to 430 members depending on the matrix, and the pass cost grows with
# its square, so a seeded choice of matrix would make the seed, not the
# program, set the pass time. These give closures of 84 and 104 members at
# n = 14 and of 96 and 150 at n = 18.
ENGEL_FP_BASES = {14: (5, 6), 18: (0, 4)}


def engel_fp(work, seed: int) -> list:
    """The same family over F_7 in the fixed dense bases at n = 14 and 18,
    plus the natural basis at n = 18, each reordered by the seed."""
    out = []
    for n, keys in ENGEL_FP_BASES.items():
        fam = heis_cyclic(n, F7)
        for key in keys + ((None,) if n == 18 else ()):
            base = known.unimodular(n, F7, _rng("engel-fp", n, key)) \
                if key is not None else known.identity(n, F7)
            order = known.permutation(n, F7, _rng("engel-fp", seed, n, key))
            based = known.rebase(fam, known.matmul(base, order, F7))
            path = known.write_json(work / f"f{n}_{key}.json",
                                 known.algebra_json(based.c, F7))
            kind = "natural" if key is None else "dense"
            out.append(_engel_request(f"engel F7 n={n} {kind}", path, fam))
    return out


# -- cli-mix ----------------------------------------------------------------

def _mix_bases() -> list:
    """Nilpotent files of dims 3-12 over Q, F5 and F7."""
    return [
        known.cyclic(5, Q), known.cyclic(8, F5), known.cyclic(12, F7),
        heis_cyclic(6, Q), heis_cyclic(9, F7), heis_cyclic(12, F7),
        known.direct_sum(known.cyclic(4, F5), known.abelian(3, F5)),
        known.direct_sum(known.cyclic(6, Q), known.abelian(4, Q)),
        known.heisenberg3(F7), known.cyclic(3, F5),
    ]


def _controls() -> list:
    """Solvable, non-nilpotent: every Engel-type premise must fail."""
    return [known.direct_sum(known.sol2(Q), known.abelian(1, Q)),
            known.direct_sum(known.sol2(F5), known.abelian(3, F5))]


class _Files:
    """Writes numbered input files into the work directory."""

    def __init__(self, work):
        self.work, self.count = work, 0

    def write(self, obj) -> str:
        self.count += 1
        return known.write_json(self.work / f"m{self.count:03d}.json", obj)


def _corrupt(based: known.Based, rng: random.Random) -> tuple:
    """Change one constant so that the defining identity fails; return the
    tensor and the oracle's count of violating basis triples."""
    p, n = based.p, based.dim
    while True:
        c = [[list(cij) for cij in ci] for ci in based.c]
        i, j, k = (rng.randrange(n) for _ in range(3))
        c[i][j][k] = oracle.reduce(c[i][j][k] + rng.choice((1, 2, -1)), p)
        bad = oracle.leibniz_violations(c, p)
        if bad:
            return c, bad


def cli_mix(work, seed: int) -> list:
    """Short requests of every subcommand that reads files, shuffled.

    The multiset of (subcommand, family, field) is fixed, and so are the
    dense bases and the series terms used as quotient modules and ideals, so
    the cost of a pass barely depends on the seed; the seed reorders the
    bases and picks the corrupted constants and the order of the requests.
    """
    rng = _rng("cli-mix", seed)
    files = _Files(work)
    bases, controls = _mix_bases(), _controls()
    out = []

    slots = itertools.count()

    def dense(fam):
        # a fixed dense basis per slot, reordered by the seed: how much the
        # constants grow depends on the basis, and the seed should not set
        # the cost of a pass
        base = known.unimodular(fam.dim, fam.p, _rng("cli-mix", next(slots)))
        order = known.permutation(fam.dim, fam.p, rng)
        return known.rebase(fam, known.matmul(base, order, fam.p))

    def reordered(fam):
        return known.rebase(fam, known.permutation(fam.dim, fam.p, rng))

    def algebra_file(based, **kw):
        return files.write(known.algebra_json(based.c, based.p, **kw))

    def validate(fam):
        path = algebra_file(dense(fam))
        return Request(f"validate {fam.name}", ("validate", path), 0, (
            ("verdict", PASS), ("premises.0.data.violations", 0)))

    def analyze(fam):
        path = algebra_file(dense(fam))
        return Request(f"analyze {fam.name}", ("analyze", path), 0, (
            ("data.nilpotent", fam.nilpotent), ("data.class", fam.cls),
            ("data.series_dims", fam.series_dims),
            ("data.regular_annihilator_dim", fam.ann_dim)))

    for fam in bases + controls:
        out += [validate(fam), analyze(fam)]
        based = dense(fam)
        path = algebra_file(based)
        element = known.element_arg(based.natural(fam.generator), fam.p)
        if fam.nilpotent:
            e = fam.exponent
            out.append(Request(
                f"lemma-bound {fam.name}",
                ("lemma-bound", path, f"--element={element}"), 0, (
                    ("verdict", PASS), ("data.left_exponent", e),
                    ("data.word_bound", 2 * e + 1))))
        else:
            out.append(Request(
                f"lemma-bound {fam.name}",
                ("lemma-bound", path, f"--element={element}"), 1,
                (("verdict", FAILED),)))

    for fam in bases[:8] + controls:
        path = algebra_file(reordered(fam))
        if fam.nilpotent:
            out.append(_engel_request(f"engel {fam.name}", path, fam))
        else:
            out.append(Request(f"engel {fam.name}", ("engel", path), 1,
                               (("verdict", FAILED),)))

    for fam in bases[:5] + controls[:1]:
        path = algebra_file(reordered(fam))
        want = (("verdict", PASS), ("data.class", fam.cls)) if fam.nilpotent \
            else (("verdict", FAILED),)
        out.append(Request(f"corollary 3 {fam.name}", ("corollary", "3", path),
                           0 if fam.nilpotent else 1, want))

    for fam in (bases[1], bases[3], bases[4], bases[5], bases[7]):
        based = reordered(fam)
        j = fam.cls // 2
        path = algebra_file(based)
        module = files.write(known.regular_quotient_json(based, j))
        out.append(Request(
            f"engel {fam.name} / term {j + 1}",
            ("engel", path, "--module", module), 0, (
                ("verdict", PASS), ("data.joint_index", j),
                ("data.flag_dims.#", j + 1),
                ("data.flag_dims.-1", fam.dim - len(fam.terms[j])))))

    for fam in (bases[0], bases[1], bases[4], bases[7], bases[8], bases[9]):
        based = dense(fam)
        c, bad = _corrupt(based, rng)
        path = files.write(known.algebra_json(c, fam.p, unvalidated=True))
        out.append(Request(f"validate corrupted {fam.name}",
                           ("validate", path), 1, (("verdict", FAILED),
                               ("premises.0.data.violations", bad))))

    for n, p in ((3, Q), (6, F7), (4, F5)):
        fam = known.abelian(n, p)
        based = dense(fam)
        minus = [[oracle.reduce(-1 if i == j else 0, p) for j in range(n)]
                 for i in range(n)]
        path = algebra_file(based)
        mpath = files.write({"matrix": known.matrix_json(minus, p),
                             "kind": "automorphism"})
        out.append(Request(
            f"corollary 4 {fam.name}",
            ("corollary", "4", path, "--map", mpath, "--order", "2"), 0,
            (("verdict", PASS), ("data.class", 1))))
    fam = known.cyclic(5, Q)
    path = algebra_file(dense(fam))
    mpath = files.write({"matrix": known.matrix_json(
        [[-1 if i == j else 0 for j in range(5)] for i in range(5)], Q),
        "kind": "automorphism"})
    out.append(Request(
        "corollary 4 -I on cyclic(5)",
        ("corollary", "4", path, "--map", mpath, "--order", "2"), 1,
        (("verdict", FAILED), ("premises.0.pass", False))))

    for n, p in ((5, Q), (8, Q), (10, Q), (8, F5)):
        fam = known.cyclic(n, p)
        based = dense(fam)
        diag = [[oracle.reduce(i + 1 if i == j else 0, p) for j in range(n)]
                for i in range(n)]
        path = algebra_file(based)
        mpath = files.write({
            "matrix": known.matrix_json(based.conjugate(diag), p),
            "kind": "derivation"})
        want = (("verdict", PASS), ("data.class", n)) if p == Q else \
            (("verdict", FAILED), ("premises.0.pass", False))
        out.append(Request(f"corollary 5 {fam.name} over {_field(p)}",
                           ("corollary", "5", path, "--map", mpath),
                           0 if p == Q else 1, want))

    for fam, size in ((bases[0], 2), (bases[2], 2), (bases[5], 2),
                      (bases[7], 2), (bases[1], 3), (bases[4], 3)):
        based = dense(fam)
        j = (fam.cls - size) // 2
        path = algebra_file(based)
        ideals = [known.vectors_json(based.term_basis(j + t), fam.p)
                  for t in range(size)]
        ipath = files.write({"ideals": ideals})
        key = "data.sum_dim" if size == 2 else "data.radical_dim"
        out.append(Request(f"corollary 6 {fam.name} x{size}",
                           ("corollary", "6", path, "--ideals", ipath), 0,
                           (("verdict", PASS), (key, len(fam.terms[j])))))

    # a second round in other dense bases, so that the list leaves more
    # than ten requests beyond its 90th percentile
    for fam in bases + controls:
        out += [validate(fam), analyze(fam)]

    rng.shuffle(out)
    return out


WORKLOADS = {
    "fuzz-corpus": fuzz_corpus,
    "engel-q": engel_q,
    "engel-fp": engel_fp,
    "cli-mix": cli_mix,
}
