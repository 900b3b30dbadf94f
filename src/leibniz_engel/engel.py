"""Image filtrations, the word bound, annihilator flags.

The computational content of the nilpotency machinery: the image filtration
of the module under a set of operators, whose length is the nilpotency index
of the associative (non-unital) algebra they generate, the 2n-1 word-length
bound for the pair of actions of a single element, premise checking over
Lie sets, the annihilator flag, and the joint annihilator vector, assembled
into an end-to-end verifier.

Both are one image walk, ``linalg._walk``: the image filtration walks the
module under the actions, and the flag is the annihilator of the dual
walk, the images of the whole dual space under the transposed actions
(Jacobson's duality between the two), each level read off an echelon basis
by ``linalg._annihilator``.

Theorem 2 reads two of its own steps off these walks. If the image
filtration under all 2n basis actions reaches 0 in J steps, every word of
length J in them vanishes; T_c is a combination of the T_i, so T_c^J is a
sum of such words and every member acts nilpotently. And once the members
generate the algebra, the flag's first level is the joint kernel of every
action: a vector killed by T_x, S_x, T_y and S_y is killed by
T_{xy} = T_x T_y - T_y T_x and S_{xy} = S_y S_x + T_x S_y, so the
elements that kill it form a subalgebra, which holds the members.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import (Element, LieSet, LieSetCheck, is_lie_set,
                      subalgebra_generated)
from .bimodule import Bimodule, s_matrix, t_matrix
from .errors import (AlgebraMismatch, DimensionMismatch, FieldMismatch,
                     FlagStalled, NoAnnihilator)
from .fields import Frozen
from .linalg import (Matrix, Subspace, _annihilator, _walk,
                     is_nilpotent_matrix, kernel_basis)
from .reports import Check, Report


class ImageFiltration(NamedTuple):
    """Image filtration V = V_0 > V_1 > ... of a module under some operators.

    V_j is spanned by g v for the generators g and the basis vectors v of
    V_{j-1}, so V_j = W^j V for the algebra W the generators span-close to.
    ``dims`` runs from dim V_0 to the first zero or repeated dimension;
    ``index`` is the least j >= 1 with V_j = 0, which is the nilpotency index
    of W, or None when the filtration stalls at a nonzero term.
    """

    dims: tuple
    index: int | None


def image_filtration(generators: Sequence[Matrix]) -> ImageFiltration:
    """Apply the generators to the module until the image vanishes or stalls.

    The terms are the walk ``linalg._walk`` of the whole module under the
    generators, passed as the transposes built once here. V_j lies in
    V_{j-1}, so the walk ends at the first term the generators map onto
    itself: a zero term, or a nonzero one that never reaches zero, whose
    dimension ``dims`` repeats. V_1 is always taken, so the zero module
    gives dims (0, 0) and index 1.
    """
    gens = list(generators)
    if not gens:
        raise DimensionMismatch("need at least one generator")
    field = gens[0].field
    size = gens[0].rows
    for g in gens:
        if g.field != field:
            raise FieldMismatch("generators over different fields")
        if g.rows != size or g.cols != size:
            raise DimensionMismatch("generators must be square and equal-sized")

    walk = _walk(Subspace.full(field, size), [g.transpose() for g in gens])
    dims = [t.dim for t in walk]
    stalled = bool(walk[-1].basis)
    if stalled or len(dims) == 1:
        dims.append(dims[-1])
    return ImageFiltration(tuple(dims), None if stalled else len(dims) - 1)


def generated_operator_algebra(generators: Sequence[Matrix]):
    """Removed: the m*m-dim closure gave way to :func:`image_filtration`.

    Only the name is left, because bench/tracing.py builds its
    ``engel.generated_operator_algebra.*`` metrics from a function of this
    name and stops with a KeyError when there is none; with nothing calling
    it, those metrics read 0.
    """
    raise NotImplementedError(
        "generated_operator_algebra was removed; use image_filtration")


def lemma_word_bound_check(module: Bimodule, a: Element) -> Report:
    """Single-element nilpotency transfer and the word-length bound.

    With e the least exponent killing the left action of ``a`` and
    n = e + 1, the right action must satisfy S^n = 0 and every product of
    2n - 1 factors drawn from the two actions must vanish (equivalently the
    generated operator algebra has index at most 2n - 1). A left action
    that is not nilpotent fails the premise ``left_action_nilpotent``, with
    the element as witness and no conclusion attempted.
    """
    T = t_matrix(module, a)
    S = s_matrix(module, a)
    t_nil = is_nilpotent_matrix(T)
    if not t_nil.verdict:
        return Report(premises=[Check("left_action_nilpotent", False,
                                      witness=a.to_str())],
                      conclusions=[])
    e = t_nil.index
    n = e + 1
    s_ok = (S ** n).is_zero()
    op = image_filtration([T, S])
    bound = 2 * n - 1
    words_ok = op.index is not None and op.index <= bound
    premises = [Check("left_action_nilpotent", True,
                      data={"exponent": e})]
    conclusions = [
        Check("right_action_power_vanishes", s_ok, data={"power": n}),
        Check("word_length_bound_holds", words_ok,
              data={"bound": bound, "operator_index": op.index}),
    ]
    return Report(premises=premises, conclusions=conclusions,
                  data={"element": a.to_str(), "left_exponent": e,
                        "n": n, "word_bound": bound,
                        "operator_index": op.index,
                        "image_dims": list(op.dims)})


def _whole_table(lie_set: LieSet) -> bool:
    """Whether the set has a multiplication table that is whole: all k**2
    cells present, each a member index or -1 for a zero product."""
    table, k = lie_set.table, len(lie_set.members)
    return table is not None and len(table) == k and all(
        len(row) == k and min(row) >= -1 and max(row) < k for row in table)


def _first_non_nilpotent(module: Bimodule, lie_set: LieSet, whole: bool):
    """The first member whose T_c is not nilpotent, or None.

    With a whole table, a member x named as y z there, with y = z or with
    T_y = 0 or T_z = 0 known, has T_x = T_y T_z - T_z T_y = 0 and is passed
    without building T_x; the pairs are read off the rows that hold a
    product. Zero actions are known from the module's own T, never from
    a row of -1s, since L_c = 0 does not make T_c = 0.
    """
    factors = {}
    if whole:
        for y, row in enumerate(lie_set.table):
            if max(row) >= 0:
                for z, x in enumerate(row):
                    if x >= 0:
                        factors.setdefault(x, []).append((y, z))
    zero = set()
    for i, c in enumerate(lie_set.members):
        if any(y == z or y in zero or z in zero
               for y, z in factors.get(i, ())):
            zero.add(i)
            continue
        t = t_matrix(module, c)
        if t.is_zero():
            zero.add(i)
        elif not is_nilpotent_matrix(t).verdict:
            return c
    return None


def check_engel_premises(module: Bimodule, lie_set: LieSet) -> Report:
    """The three hypotheses: closure, generation, nilpotent left actions.

    All three clauses are evaluated and recorded independently, each with
    its first failing witness. Closure is read off the whole table of a set
    from ``lie_set_closure``, which takes no product; any other set has
    every product checked by :func:`is_lie_set`. The left actions are
    checked member by member in order; with a whole table, a product that
    the axiom left_action_of_product, T_{yz} = T_y T_z - T_z T_y, forces to
    act as zero is passed without its T_c (see :func:`_first_non_nilpotent`).
    That axiom holds for every module that reaches here: ``load_bimodule``
    validates it, and the regular and quotient bimodules satisfy it by
    construction.
    """
    return _engel_premises(module, lie_set, None)


def _engel_premises(module: Bimodule, lie_set: LieSet,
                    joint: ImageFiltration | None) -> Report:
    """:func:`check_engel_premises`, with the left-action clause certified
    by ``joint``, the image filtration under all 2n actions, when that
    reaches 0: each T_c^J is then a sum of vanishing words of length J.
    Without it, or on a stalled walk, the members go one by one."""
    members = list(lie_set.members)
    A = module.algebra
    if any(c.algebra != A for c in members):
        raise AlgebraMismatch("element does not belong to the module's algebra")
    whole = _whole_table(lie_set)
    closed = LieSetCheck(True, None) if whole else is_lie_set(members)
    witness_pair = None
    if not closed.ok:
        x, y = closed.witness
        witness_pair = [x.to_str(), y.to_str()]
    generated = subalgebra_generated(members)
    generates = generated.is_full()
    bad = None if joint is not None and joint.index is not None \
        else _first_non_nilpotent(module, lie_set, whole)
    premises = [
        Check("closed_under_products", closed.ok, witness=witness_pair),
        Check("members_generate_algebra", generates,
              witness=None if generates else
              {"generated_dim": generated.dim, "algebra_dim": A.dim}),
        Check("left_actions_nilpotent", bad is None,
              witness=None if bad is None else bad.to_str()),
    ]
    return Report(premises=premises, conclusions=[],
                  data={"members": len(members)})


class Flag(Frozen):
    """Strictly increasing chain of subspaces from zero to the full module."""

    __slots__ = ("chain",)
    chain: tuple  # Subspaces, chain[0] = 0

    def __init__(self, chain: tuple):
        object.__setattr__(self, "chain", chain)

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    def dims(self) -> list:
        return [s.dim for s in self.chain]


def engel_flag(module: Bimodule, generators: Sequence) -> Flag:
    """Iterate the joint-preimage filtration until it fills the module.

    Level i+1 is {v : T_c v and S_c v lie in level i for every generator c}.
    Invariance under the supplied generators already forces invariance under
    everything they span and generate, so closures add no constraints. The
    condition is linear in c, so it is imposed for a basis of the
    generators' span, which gives the same level as imposing it member by
    member. Raises FlagStalled when a level fails to grow before reaching
    the top.

    The flag is the annihilator of a walk in the dual: with W_0 the whole
    space of row vectors and W_{i+1} spanned by g^T w for the actions g and
    w in W_i, level i is the annihilator of W_i (w (g v) = (g^T w) v),
    read off its echelon basis. The walk is ``linalg._walk`` with the
    actions passed untransposed, since row w of W @ g is g^T w; the terms
    shrink, so it ends at a zero term, where the flag is full, or at the
    first W_{i+1} = W_i, where level i + 1 stalls.
    """
    A = module.algebra
    field = A.field
    m = module.module_dim
    if any(c.algebra != A for c in generators):
        raise AlgebraMismatch("element does not belong to the module's algebra")
    span = Subspace._span(field, A.dim, [c.coords for c in generators])
    basis = [Element(A, v) for v in span.basis]
    actions = [g for c in basis
               for g in (t_matrix(module, c), s_matrix(module, c))]
    walk = _walk(Subspace.full(field, m), actions)
    if walk[-1].basis:
        raise FlagStalled(len(walk), m - walk[-1].dim, m)
    return Flag(tuple(Subspace._span(field, m, _annihilator(field, m, w.basis))
                      for w in walk))


def joint_annihilator(module: Bimodule) -> tuple:
    """First canonical basis vector of the joint kernel of all actions."""
    m = module.module_dim
    if m < 1:
        raise NoAnnihilator("module is zero dimensional")
    rows = tuple(row for mat in module.left_actions + module.right_actions
                 for row in mat.entries)
    level = kernel_basis(Matrix(module.algebra.field, len(rows), m, rows))
    if level.is_zero():
        raise NoAnnihilator("no nonzero vector is killed by all actions")
    return level.basis[0]


def theorem2_verify(module: Bimodule, lie_set: LieSet) -> Report:
    """Premises, then every conclusion of the nilpotent-action theorem.

    When the premises hold: each basis element's action pair generates a
    nilpotent operator algebra; the flag over the Lie set members fills the
    module; a nonzero joint annihilator exists (re-verified by direct
    application of every action); the operator algebra generated by all
    actions together is nilpotent with index at most module_dim + 1; and
    that index, the length of the image filtration under all actions, equals
    the length of the flag, which is built the other way up from the Lie
    set members alone. Premise failure short-circuits with no conclusions
    attempted. The theorem is about a nonzero module: a zero one raises
    DimensionMismatch.

    The image filtration under all 2n actions is walked once, first, and
    serves twice. If it reaches 0 in J steps, every word of length J in the
    T_i and S_i vanishes, and T_c^J, a sum of such words, vanishes for every
    c in A: the left-action premise holds without any T_c being built or
    powered. A stalled walk leaves that premise to the member-by-member
    check of :func:`check_engel_premises`, which names the first
    non-nilpotent member. The same walk then decides
    joint_operator_algebra_nilpotent.

    The joint annihilator is read off the flag: level 1 is the kernel of
    T_c and S_c over a basis of the members' span, in canonical echelon
    form. The members generate A, and a vector v killed by T_x, S_x, T_y
    and S_y is killed by T_{xy} = T_x T_y - T_y T_x and by
    S_{xy} = S_y S_x + T_x S_y (the axioms left_action_of_product and
    right_action_of_product), so the elements that kill v form a
    subalgebra holding the members, which is A: level 1 is the joint
    kernel of every action, the subspace :func:`joint_annihilator` takes
    its vector from. Only a stalled flag calls that function.
    """
    A = module.algebra
    if module.module_dim < 1:
        raise DimensionMismatch("the module must be nonzero")
    actions = list(module.left_actions) + list(module.right_actions)
    joint = image_filtration(actions)
    premises_report = _engel_premises(module, lie_set, joint)
    if not all(c.passed for c in premises_report.premises):
        return Report(premises=premises_report.premises, conclusions=[],
                      data={"note": "premises failed; conclusions not attempted"})

    conclusions = []
    data = {}

    indices = []
    per_element_ok, witness = True, None
    for i in range(A.dim):
        pair = image_filtration(
            [module.left_actions[i], module.right_actions[i]])
        indices.append(pair.index)
        if pair.index is None:
            per_element_ok, witness = False, {"basis": i + 1}
            break
    conclusions.append(Check("per_element_operator_algebras_nilpotent",
                             per_element_ok, witness=witness,
                             data={"indices": indices}))
    data["per_element_indices"] = indices

    flag = None
    try:
        flag = engel_flag(module, lie_set.members)
        conclusions.append(Check("flag_reaches_module", True,
                                 data={"dims": flag.dims()}))
        data["flag_dims"] = flag.dims()
    except FlagStalled as exc:
        conclusions.append(Check("flag_reaches_module", False,
                                 witness={"stalled_level": exc.level,
                                          "dim": exc.stalled_dim}))

    try:
        v = flag.chain[1].basis[0] if flag is not None \
            else joint_annihilator(module)
        zero = tuple([A.field.zero()] * module.module_dim)
        killed = all(mat.apply(v) == zero for mat in actions)
        vec_str = [A.field.to_str(x) for x in v]
        conclusions.append(Check("joint_annihilator_exists", killed,
                                 witness=None if killed else vec_str,
                                 data={"vector": vec_str}))
        data["annihilator"] = vec_str
    except NoAnnihilator:
        conclusions.append(Check("joint_annihilator_exists", False,
                                 witness="joint kernel is zero"))

    bound = module.module_dim + 1
    joint_ok = joint.index is not None and joint.index <= bound
    conclusions.append(Check("joint_operator_algebra_nilpotent", joint_ok,
                             witness=None if joint_ok else
                             {"index": joint.index, "bound": bound},
                             data={"index": joint.index, "bound": bound}))
    data["joint_index"] = joint.index

    if flag is not None and joint.index is not None:
        equal = joint.index == flag.length
        conclusions.append(Check("joint_index_equals_flag_length", equal,
                                 witness=None if equal else
                                 {"index": joint.index,
                                  "flag_length": flag.length},
                                 data={"flag_length": flag.length}))

    return Report(premises=premises_report.premises, conclusions=conclusions,
                  data=data)
