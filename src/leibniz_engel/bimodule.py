"""Leibniz bimodules as paired families of action matrices.

A bimodule over an algebra of dimension n on an m-dimensional space is a
pair of families ``T_1..T_n`` (left actions, ``T_i : x -> e_i x``) and
``S_1..S_n`` (right actions, ``S_i : x -> x e_i``) of m x m matrices. The
defining axioms are the three product-compatibility identities; the
right-right reduction follows from them and is checked separately as a
consistency guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (Element, IdentityViolation, LeibnizAlgebra,
                      _combination, _pair_identity_violations, is_ideal)
from .errors import AlgebraMismatch, ShapeMismatch
from .linalg import Matrix, Subspace, _image, _spin, kernel_basis


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


def regular_bimodule(algebra: LeibnizAlgebra) -> Bimodule:
    """The algebra acting on itself: T = left, S = right multiplication."""
    _, _, lefts, rights = algebra._operators()
    return Bimodule.create(algebra, algebra.dim, lefts, rights)


def t_matrix(module: Bimodule, a: Element) -> Matrix:
    """Left action of an arbitrary element, by linearity."""
    if a.algebra != module.algebra:
        raise AlgebraMismatch("element does not belong to the module's algebra")
    return _combination(module.algebra.field, module.module_dim, a.coords,
                        module.left_actions)


def s_matrix(module: Bimodule, a: Element) -> Matrix:
    """Right action of an arbitrary element."""
    if a.algebra != module.algebra:
        raise AlgebraMismatch("element does not belong to the module's algebra")
    return _combination(module.algebra.field, module.module_dim, a.coords,
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
    names = ("right_action_of_product", "mixed_action_commutation",
             "left_action_of_product", "right_right_action_reduction")
    A = module.algebra
    found = [IdentityViolation(names[t], {"pair": (b + 1, c + 1)})
             for b, c, t, _ in _pair_identity_violations(
                 A.field, A._operators()[2], module.left_actions,
                 module.right_actions, module.module_dim)]
    violations = [v for v in found if v.identity != names[3]]
    derived = [v for v in found if v.identity == names[3]]
    return BimoduleValidation(not violations, violations, not derived, derived)


def annihilator_ideal(module: Bimodule) -> Subspace:
    """{a : T_a = 0 and S_a = 0}, the joint kernel of a -> (T_a, S_a), an
    ideal of the algebra."""
    A = module.algebra
    m = module.module_dim
    # row i is the canonical entries of T_i then S_i, so the map is the
    # transpose
    rows = tuple(tuple(x for mat in pair for row in mat.entries for x in row)
                 for pair in zip(module.left_actions, module.right_actions))
    carrier = kernel_basis(Matrix(A.field, A.dim, 2 * m * m, rows).transpose())
    assert is_ideal(A, carrier), "annihilator failed the ideal check"
    return carrier


def submodule_generated(module: Bimodule, vector: Sequence) -> Subspace:
    """The smallest submodule containing the vector: its spin under all
    left and right actions."""
    field = module.algebra.field
    v = tuple(field.normalize(x) for x in vector)
    if len(v) != module.module_dim:
        raise ShapeMismatch("vector length differs from module dimension")
    return _spin(Subspace.span(field, module.module_dim, [v]),
                 [m.transpose()
                  for m in module.left_actions + module.right_actions])


def is_submodule(module: Bimodule, carrier: Subspace) -> bool:
    """Whether every left and right action maps the carrier into itself."""
    transposes = [m.transpose()
                  for m in module.left_actions + module.right_actions]
    return carrier.contains_subspace(_image(carrier, transposes))


def quotient_bimodule(module: Bimodule, sub: Subspace) -> Bimodule:
    """Induced actions on module / sub, for an invariant subspace."""
    field = module.algebra.field
    if sub.ambient_dim != module.module_dim or sub.field != field:
        raise ShapeMismatch("subspace does not sit inside the module")
    if not is_submodule(module, sub):
        raise ShapeMismatch("subspace is not invariant under the actions")
    q, lifts = sub.quotient_data()
    # the lifts are the columns of the lift matrix
    lift_mat = Matrix(field, len(lifts), module.module_dim,
                      tuple(lifts)).transpose()
    left = [q @ (m @ lift_mat) for m in module.left_actions]
    right = [q @ (m @ lift_mat) for m in module.right_actions]
    return Bimodule.create(module.algebra, module.module_dim - sub.dim,
                           left, right)
