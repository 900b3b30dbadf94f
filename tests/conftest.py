"""Shared fixtures: the acceptance corpus, the dense F7 family and their
basis closures."""

from __future__ import annotations

import pytest

from leibniz_engel import (basis_change, cyclic, direct_sum, fuzz_corpus,
                           heisenberg3, lie_set_closure)
from leibniz_engel.errors import CapExceeded
from leibniz_engel.fields import GF

ACCEPTANCE_SEED = 2024
ACCEPTANCE_COUNT = 200
ACCEPTANCE_MAX_DIM = 8
GENEROUS_CAP = 100_000


@pytest.fixture(scope="session")
def corpus2024():
    return fuzz_corpus(ACCEPTANCE_SEED, ACCEPTANCE_COUNT, ACCEPTANCE_MAX_DIM)


@pytest.fixture(scope="session")
def closures2024(corpus2024):
    """Basis closure per corpus item; None when the cap was exceeded."""
    out = []
    for algebra, _ in corpus2024:
        try:
            out.append(lie_set_closure(algebra.basis(), cap=GENEROUS_CAP))
        except CapExceeded:
            out.append(None)
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return fuzz_corpus(5, 40, 6)


@pytest.fixture(scope="session")
def dense_f7_closures():
    """(algebra, basis closure) for dense F7 bases of heisenberg3 +
    cyclic(n - 3), n = 8..12, as in the engel-fp benchmark workload: Lie
    sets of 16 to 147 members."""
    F7 = GF(7)
    out = []
    for n, seed in ((8, 1), (9, 2), (10, 3), (11, 4), (12, 5)):
        A = basis_change(direct_sum(heisenberg3(F7), cyclic(n - 3, F7)), seed)
        out.append((A, lie_set_closure(A.basis())))
    return out
