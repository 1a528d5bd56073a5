"""Slow, independent oracles that the fast paths of the library are
tested against. They share no search logic with it: subgroups are closed
with the full |S|x|S| product instead of the frontier search, enumerated
by sweeps that use no normalizer reasoning, and gamma coefficients are
counted one coset at a time instead of by blocks of characters."""

import itertools
from typing import Iterable

import numpy as np

from fibered_burnside.group_core import (FiniteGroup, Subgroup,
                                         _left_coset_data)
from fibered_burnside.monomial import MonomialPair


def reference_closure(group: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing ``gens``, as a sorted member tuple."""
    cur = {0}
    cur.update(int(g) for g in gens)
    arr = np.fromiter(cur, dtype=np.int64)
    while True:
        prods = np.unique(group.mul[np.ix_(arr, arr)])
        if prods.size == arr.size:
            return tuple(int(v) for v in prods)
        arr = prods


def _mask_of(members: Iterable[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << int(v)
    return m


def _sorted_subgroups(group: FiniteGroup, seen) -> list[Subgroup]:
    return [Subgroup(group, mem, verify=False)
            for mem in sorted(seen, key=lambda m: (len(m), m))]


def join_closure_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Subset-closure sweep over cyclic joins.

    Seeds with every cyclic subgroup and repeatedly closes the join of a
    known subgroup with a cyclic subgroup not contained in it; complete
    because H = <S, g> for S maximal in H and any g in H outside S. Slower
    than ``enumerate_subgroups`` but with no normalizer reasoning.
    """
    cyclic: set[tuple[int, ...]] = set()
    for g in range(group.order):
        cyclic.add(reference_closure(group, (g,)))
    seen: set[tuple[int, ...]] = {(0,)}
    seen.update(cyclic)
    frontier = list(seen)
    cyc_list = [(mem, _mask_of(mem)) for mem in cyclic if len(mem) > 1]
    while frontier:
        fresh = []
        for mem in frontier:
            mask = _mask_of(mem)
            base = set(mem)
            for cmem, cmask in cyc_list:
                if cmask & mask == cmask:
                    continue
                joined = reference_closure(group, base.union(cmem))
                if joined not in seen:
                    seen.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return _sorted_subgroups(group, seen)


def brute_force_subgroups(group: FiniteGroup, max_gens: int = 4) -> list[Subgroup]:
    """Closures of all generator subsets up to ``max_gens``.

    Complete whenever every subgroup needs at most ``max_gens`` generators;
    4 suffices through order 24 (the worst case is an elementary abelian
    2-group of rank 4, order 16).
    """
    seen: set[tuple[int, ...]] = {(0,)}
    elems = list(range(1, group.order))
    for k in range(1, max_gens + 1):
        for combo in itertools.combinations(elems, k):
            seen.add(reference_closure(group, combo))
    return _sorted_subgroups(group, seen)


def reference_gamma(pair_k: MonomialPair, pair_l: MonomialPair) -> int:
    """Number of cosets sL whose conjugated pair lies above (K, phi).

    Counts s with K <= sLs^-1 and the conjugate of psi restricting to phi
    on K. Both pairs must live over the same group and fiber.
    """
    group = pair_k.subgroup.group
    if pair_l.subgroup.group is not group:
        raise ValueError("pairs live over different groups")
    k_sub, phi = pair_k.subgroup, pair_k.char
    l_sub, psi = pair_l.subgroup, pair_l.char
    reps, masks = _left_coset_data(group, l_sub)
    gens = k_sub.generators()
    kmask = k_sub.mask
    conj = group.conj
    inv = group.inv
    count = 0
    for s, lmask in zip(reps, masks):
        if kmask & lmask != kmask:
            continue
        sinv = int(inv[s])
        # (^s psi)(x) = psi(s^-1 x s); agreement on generators of K suffices.
        if all(psi.value_index(int(conj[sinv, k])) == phi.value_index(k)
               for k in gens):
            count += 1
    return count
