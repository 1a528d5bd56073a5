"""Shared fixtures. Session-scoped so per-group caches (subgroup lists,
class tables, hom sets) are reused across tests, and ``traced_peak``, the
one way the memory tests measure."""

import tracemalloc

import numpy as np
import pytest

from fibered_burnside import thevenaz
from fibered_burnside.abelian_fiber import AbelianFiber
from fibered_burnside.group_core import (abelian_group, cyclic_group,
                                         dihedral_group, enumerate_subgroups,
                                         symmetric_group, trivial_group)
from fibered_burnside.monomial import _HomLayout, gamma_rows


def traced_peak(fn):
    """``(fn(), peak)``: what ``fn`` returns and the peak size in bytes of
    the Python allocations traced by ``tracemalloc`` while it runs, which
    numpy's array data is among."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def pair_gamma():
    """``pair_gamma(group, fiber)[i, j]`` is gamma of the i-th against the
    j-th monomial pair, in ``oracles.all_monomial_pairs`` order: the rows
    of one gamma kernel over all subgroups, laid end to end."""
    def matrix(group, fiber):
        subs = enumerate_subgroups(group)
        kernel = gamma_rows(_HomLayout(subs, fiber))
        return np.concatenate([kernel(a) for a in range(len(subs))])
    return matrix


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def d4():
    """Dihedral group of order 8."""
    return dihedral_group(4)


@pytest.fixture(scope="session")
def small_groups():
    """A spread of small groups used by property-style loops."""
    return [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(4),
        cyclic_group(6),
        abelian_group((2, 2)),
        abelian_group((2, 4)),
        symmetric_group(3),
        dihedral_group(4),
        cyclic_group(12),
    ]


@pytest.fixture(scope="session")
def fiber_c1():
    return AbelianFiber((1,))


@pytest.fixture(scope="session")
def fiber_c2():
    return AbelianFiber((2,))


@pytest.fixture(scope="session")
def fiber_c5():
    return AbelianFiber((5,))


@pytest.fixture(scope="session")
def fiber_c6():
    return AbelianFiber((6,))


@pytest.fixture(scope="session")
def tg_7_3():
    """The order-147 family member G(2,4) at p=7, q=3."""
    return thevenaz.build(thevenaz.ThevenazSpec(7, 3, 2, 4))


@pytest.fixture(scope="session")
def tg_11_5_a():
    """G(3,9) at p=11, q=5 (order 605)."""
    return thevenaz.build(thevenaz.ThevenazSpec(11, 5, 3, 9))


@pytest.fixture(scope="session")
def tg_11_5_b():
    """G(3,4) at p=11, q=5 (order 605); not isomorphic to G(3,9)."""
    return thevenaz.build(thevenaz.ThevenazSpec(11, 5, 3, 4))
