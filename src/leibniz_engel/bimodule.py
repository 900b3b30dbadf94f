"""Leibniz bimodules as paired families of action matrices.

A bimodule over an algebra of dimension n on an m-dimensional space is a
pair of families ``T_1..T_n`` (left actions, ``T_i : x -> e_i x``) and
``S_1..S_n`` (right actions, ``S_i : x -> x e_i``) of m x m matrices. The
defining axioms are the three product-compatibility identities; the
right-right reduction follows from them and is checked separately as a
consistency guard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .algebra import (Element, Ideal, LeibnizAlgebra, _add_combination,
                      _pair_identity_violations, is_ideal, left_mult_matrix,
                      mult_coords, right_mult_matrix)
from .errors import AlgebraMismatch, ShapeMismatch
from .linalg import Matrix, Subspace, kernel_basis

_CHAIN_SEED = 0x1eaf


@dataclass(frozen=True)
class Bimodule:
    """Immutable action-matrix realization of a bimodule."""

    algebra: LeibnizAlgebra
    module_dim: int
    left_actions: tuple   # T_i, one m x m matrix per basis element
    right_actions: tuple  # S_i

    def __post_init__(self):
        n, m = self.algebra.dim, self.module_dim
        if len(self.left_actions) != n or len(self.right_actions) != n:
            raise ShapeMismatch("need one action matrix per basis element on each side")
        for mat in list(self.left_actions) + list(self.right_actions):
            if mat.rows != m or mat.cols != m:
                raise ShapeMismatch(f"action matrices must be {m}x{m}")
            if mat.field != self.algebra.field:
                raise ShapeMismatch("action matrices over a different field")

    @staticmethod
    def create(algebra: LeibnizAlgebra, module_dim: int,
               left_actions: Sequence[Matrix],
               right_actions: Sequence[Matrix]) -> "Bimodule":
        return Bimodule(algebra, module_dim, tuple(left_actions),
                        tuple(right_actions))

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.algebra.field, self.module_dim)

    def full_space(self) -> Subspace:
        return Subspace.full(self.algebra.field, self.module_dim)


def regular_bimodule(algebra: LeibnizAlgebra) -> Bimodule:
    """The algebra acting on itself: T = left, S = right multiplication."""
    basis = algebra.basis()
    return Bimodule.create(algebra, algebra.dim,
                           [left_mult_matrix(a) for a in basis],
                           [right_mult_matrix(a) for a in basis])


def t_matrix(module: Bimodule, a: Element) -> Matrix:
    """Left action of an arbitrary element, by linearity."""
    if a.algebra != module.algebra:
        raise AlgebraMismatch("element does not belong to the module's algebra")
    m = module.module_dim
    return _add_combination(Matrix.zero(module.algebra.field, m, m), a.coords,
                            module.left_actions)


def s_matrix(module: Bimodule, a: Element) -> Matrix:
    """Right action of an arbitrary element."""
    if a.algebra != module.algebra:
        raise AlgebraMismatch("element does not belong to the module's algebra")
    m = module.module_dim
    return _add_combination(Matrix.zero(module.algebra.field, m, m), a.coords,
                            module.right_actions)


@dataclass
class BimoduleValidation:
    """Axioms and the derived identity are reported separately."""

    ok: bool                  # the three defining identities
    violations: list
    derived_ok: bool          # right-right reduction, a consequence
    derived_violations: list

    def all_ok(self) -> bool:
        return self.ok and self.derived_ok


def validate_bimodule(module: Bimodule) -> BimoduleValidation:
    """Check, for all basis pairs (b, c) with bc the product element:

    - right_action_of_product:   S_{bc} = S_c S_b + T_b S_c
    - mixed_action_commutation:  T_b S_c = S_c T_b + S_{bc}
    - left_action_of_product:    T_c T_b = T_{cb} + T_b T_c

    and separately the derived right_right_action_reduction
    S_c S_b = -(S_c T_b); its failure while the axioms hold would mean an
    implementation bug.
    """
    derived_name = "right_right_action_reduction"
    found = _pair_identity_violations(
        module.algebra, module.left_actions, module.right_actions,
        module.module_dim,
        ("right_action_of_product", "mixed_action_commutation",
         "left_action_of_product", derived_name))
    violations = [v for v in found if v.identity != derived_name]
    derived = [v for v in found if v.identity == derived_name]
    return BimoduleValidation(not violations, violations, not derived, derived)


def annihilator_ideal(module: Bimodule) -> Ideal:
    """{a : T_a = 0 and S_a = 0}, the joint kernel of a -> (T_a, S_a)."""
    A = module.algebra
    columns = []
    for i in range(A.dim):
        flat = [x for row in module.left_actions[i].entries for x in row]
        flat += [x for row in module.right_actions[i].entries for x in row]
        columns.append(tuple(flat))
    carrier = kernel_basis(Matrix.from_columns(A.field, columns))
    assert is_ideal(A, carrier), "annihilator failed the ideal check"
    return Ideal(A, carrier)


def faithful_quotient(module: Bimodule) -> tuple:
    """Quotient the algebra by the annihilator; induce actions of the cosets.

    Returns ``(quotient_algebra, induced_bimodule)`` on the same module
    space. The induced bimodule always has zero annihilator. Well-definedness
    of the quotient structure constants is asserted via the ideal check
    inside :func:`annihilator_ideal`.
    """
    A = module.algebra
    ann = annihilator_ideal(module).carrier
    q, lifts = ann.quotient_data()
    new_dim = A.dim - ann.dim
    structure = []
    for u in lifts:
        row = []
        for v in lifts:
            row.append(q.apply(mult_coords(A, u, v)))
        structure.append(row)
    quotient = LeibnizAlgebra.create(A.field, structure)
    left = [t_matrix(module, Element(A, u)) for u in lifts]
    right = [s_matrix(module, Element(A, u)) for u in lifts]
    induced = Bimodule.create(quotient, module.module_dim, left, right)
    assert new_dim == quotient.dim
    return quotient, induced


@dataclass(frozen=True)
class Submodule:
    """A subspace invariant under every action matrix."""

    module: Bimodule
    carrier: Subspace


def _spin(field, actions: Sequence[Matrix], ambient: int, vectors) -> Subspace:
    """Smallest subspace containing the vectors and invariant under actions."""
    current = Subspace.span(field, ambient, vectors)
    while True:
        images = [m.apply(v) for m in actions for v in current.basis]
        grown = current + Subspace.span(field, ambient, images)
        if grown == current:
            return current
        current = grown


def submodule_generated(module: Bimodule, vector: Sequence) -> Submodule:
    """Spin a vector under all left and right actions."""
    field = module.algebra.field
    v = tuple(field.normalize(x) for x in vector)
    if len(v) != module.module_dim:
        raise ShapeMismatch("vector length differs from module dimension")
    actions = list(module.left_actions) + list(module.right_actions)
    return Submodule(module, _spin(field, actions, module.module_dim, [v]))


def is_submodule(module: Bimodule, carrier: Subspace) -> bool:
    for m in list(module.left_actions) + list(module.right_actions):
        if not carrier.contains_subspace(carrier.image_under(m)):
            return False
    return True


def quotient_bimodule(module: Bimodule, sub: Subspace) -> Bimodule:
    """Induced actions on module / sub, for an invariant subspace."""
    field = module.algebra.field
    if sub.ambient_dim != module.module_dim or sub.field != field:
        raise ShapeMismatch("subspace does not sit inside the module")
    if not is_submodule(module, sub):
        raise ShapeMismatch("subspace is not invariant under the actions")
    q, lifts = sub.quotient_data()
    lift_mat = Matrix.from_columns(field, lifts) if lifts else \
        Matrix.zero(field, module.module_dim, 0)
    left = [q @ (m @ lift_mat) for m in module.left_actions]
    right = [q @ (m @ lift_mat) for m in module.right_actions]
    return Bimodule.create(module.algebra, module.module_dim - sub.dim,
                           left, right)


def _minimal_submodule(field, actions, dim: int, rng) -> Subspace:
    """A submodule with no strictly smaller nonzero one reachable by spinning
    any of its basis vectors or a batch of seeded random combinations."""
    first = tuple(field.one() if i == 0 else field.zero() for i in range(dim))
    current = _spin(field, actions, dim, [first])
    while True:
        candidates = [tuple(v) for v in current.basis]
        for _ in range(2 * dim):
            combo = [field.zero()] * dim
            for v in current.basis:
                c = field.from_int(rng.randrange(-2, 3))
                for idx in range(dim):
                    combo[idx] = field.add(combo[idx], field.mul(c, v[idx]))
            if any(x != 0 for x in combo):
                candidates.append(tuple(combo))
        shrunk = False
        for cand in candidates:
            spun = _spin(field, actions, dim, [cand])
            if 0 < spun.dim < current.dim:
                current = spun
                shrunk = True
                break
        if not shrunk:
            return current


def composition_chain(module: Bimodule) -> list:
    """Maximal strictly increasing chain of submodules, zero to full.

    Built greedily: at each stage a minimal submodule of the quotient is
    found by spinning candidate vectors (quotient basis vectors first, then
    seeded pseudo-random combinations) and pulled back. Consecutive factors
    admit no proper nonzero submodule reachable by spinning their basis
    vectors.
    """
    field = module.algebra.field
    m = module.module_dim
    rng = random.Random(_CHAIN_SEED)
    chain = [Submodule(module, Subspace.zero(field, m))]
    current = chain[0].carrier
    while current.dim < m:
        q, lifts = current.quotient_data()
        lift_mat = Matrix.from_columns(field, lifts)
        actions = [q @ (a @ lift_mat)
                   for a in list(module.left_actions) + list(module.right_actions)]
        minimal = _minimal_submodule(field, actions, m - current.dim, rng)
        lifted = [lift_mat.apply(v) for v in minimal.basis]
        current = current + Subspace.span(field, m, lifted)
        chain.append(Submodule(module, current))
    return chain
