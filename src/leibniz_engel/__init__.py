"""Exact-arithmetic toolkit for finite dimensional Leibniz algebras.

Structure-constant algebras and their bimodules over the rationals or a
prime field, multiplication-operator identities, image filtrations with the
nilpotency indices of generated operator algebras, annihilator flags and
joint annihilator vectors, and checkers for the standard nilpotency
consequences. All arithmetic is exact; every comparison is equality, never
tolerance.
"""

from .algebra import (DEFAULT_CLOSURE_CAP, Element, LeibnizAlgebra,
                      LieSet, is_ideal, is_lie_set, is_nilpotent_algebra,
                      left_mult_matrix, lie_set_closure, lower_central_series,
                      power, right_mult_matrix,
                      subalgebra_generated, validate_leibniz,
                      verify_operator_identities)
from .bimodule import (Bimodule, annihilator_ideal, quotient_bimodule,
                       regular_bimodule, s_matrix, submodule_generated,
                       t_matrix, validate_bimodule)
from .corollaries import (LinearSelfMap, corollary3_check, corollary4_check,
                          corollary5_check, is_automorphism, is_derivation,
                          nilradical_from_family, sum_of_nilpotent_ideals)
from .engel import (Flag, ImageFiltration, check_engel_premises, engel_flag,
                    image_filtration, joint_annihilator,
                    lemma_word_bound_check, theorem2_verify)
from .families import (FamilySpec, abelian, basis_change, build, cyclic,
                       direct_sum, fuzz_corpus, heisenberg3,
                       parse_family_spec, sol2)
from .fields import GF, QQ, PrimeField, RationalField
from .linalg import (Matrix, Subspace, invert, is_nilpotent_matrix,
                     kernel_basis, matrix_rank, rref)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
