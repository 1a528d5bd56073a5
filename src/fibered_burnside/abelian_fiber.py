"""Finite abelian fiber groups and homomorphism sets Hom(K, A).

Fiber elements are residue tuples. Hom(K, A) is a ``CharIndex``: one row
per character, holding its values as indices into the fiber's
lexicographic element list, so pointwise products and comparisons are
integer-table lookups.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, prod
from typing import Sequence

import numpy as np

from .group_core import (AbelianDecomposition, Subgroup, _prime_factors,
                         abelian_invariant_decomposition, abelianization)


class AbelianFiber:
    """A finite abelian group given as a tuple of cyclic orders.

    Elements are residue tuples, enumerated lexicographically; the all-zeros
    tuple (index 0) is the identity.
    """

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 1 for d in factors):
            raise ValueError("fiber factors must be positive integers")
        self.factors = factors
        self.order = prod(factors)
        self.elements: list[tuple[int, ...]] = list(
            itertools.product(*(range(d) for d in factors)))
        self.coords = np.array(self.elements, dtype=np.int64).reshape(
            self.order, len(factors))
        mods = np.array(factors, dtype=np.int64)
        sums = (self.coords[:, None, :] + self.coords[None, :, :]) % mods
        self.add_table = self._encode(sums)

    def _encode(self, coords: np.ndarray) -> np.ndarray:
        weights = np.ones(len(self.factors), dtype=np.int64)
        for i in range(len(self.factors) - 2, -1, -1):
            weights[i] = weights[i + 1] * self.factors[i + 1]
        return (coords * weights).sum(axis=-1)

    @classmethod
    def parse(cls, text: str) -> "AbelianFiber":
        """Parse a comma list of cyclic orders, e.g. "5" or "2,4"."""
        try:
            factors = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad fiber spec {text!r}") from exc
        return cls(factors)

    def torsion_indices(self, n: int) -> list[int]:
        if n < 1:
            raise ValueError("torsion exponent must be positive")
        return np.flatnonzero(
            (n * self.coords % self.factors == 0).all(axis=1)).tolist()

    def has_trivial_torsion(self, n: int) -> bool:
        return len(self.torsion_indices(n)) == 1

    def __repr__(self) -> str:
        return f"AbelianFiber{self.factors}"


def _check_homs(domain: Subgroup, fiber: AbelianFiber, rows) -> None:
    """Raise ValueError unless every row of ``rows`` (fiber element indices,
    one per member of K) is a homomorphism K -> A.

    Each row is checked on the edges m -> m g, for m in K and g among the
    generators of K: every element of K is a word in the generators, so
    phi(m g) = phi(m) + phi(g) on the edges gives it on all pairs."""
    group = domain.group
    members = np.asarray(domain.members, dtype=np.int64)
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[members] = np.arange(domain.order)
    if pos[0] < 0:
        raise ValueError("a domain must contain the identity")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != domain.order:
        raise ValueError("need one value per domain member")
    if rows[:, pos[0]].any():
        raise ValueError("character must send the identity to 0")
    gens = np.asarray(domain.generators(), dtype=np.int64)
    ends = pos[group.mul[members[:, None], gens]]
    if (ends < 0).any():
        raise ValueError("domain is not closed")
    if not (rows[:, ends] == fiber.add_table[
            rows[:, :, None], rows[:, None, pos[gens]]]).all():
        raise ValueError("value map is not a homomorphism")


class CharIndex:
    """Hom(K, A) as arrays.

    K is abelianized; a homomorphism is a choice of one d-torsion image per
    invariant factor C_d, and the characters are in lexicographic order of
    that image tuple, so the trivial character is index 0. ``values`` has
    one row per character and one column per member of K; ``pos`` is the
    position of each group element in K, or -1 outside it. ``gens`` holds
    the member of K with each unit coordinate of K^ab (the identity for a
    perfect K, whose one character is told by its value 0 there), and a
    character's index is the sum of ``rank[k, v] * stride[k]`` over its
    values v on them: ``rank[k]`` is each fiber element's position in the
    k-th factor's torsion, or -1 outside it, and ``stride`` is the
    mixed radix of those torsions. ``hom_factors`` are the invariant
    factors of Hom(K, A), by arithmetic: Hom(C_d, C_e) is C_gcd(d, e).
    """

    def __init__(self, domain: Subgroup, fiber: AbelianFiber):
        dec = abelianization(domain)
        torsion = [fiber.torsion_indices(d) for d in dec.factors]
        # one row per character, one column per invariant factor (none for
        # a perfect K), so these arrays are (1, 0) and (|K|, 0) in rank 0
        images = np.asarray(list(itertools.product(*torsion)),
                            dtype=np.int64)
        # a member's image: its exponents times the fiber coordinates of
        # the images of the invariant factors' generators
        self.values = fiber._encode(
            (dec.coords @ fiber.coords[images]) % np.asarray(fiber.factors))
        _check_homs(domain, fiber, self.values)
        self.pos = np.full(domain.group.order, -1, dtype=np.int64)
        self.pos[list(domain.members)] = np.arange(domain.order)
        units = [prod(dec.factors[k + 1:]) for k in range(len(dec.factors))]
        self.gens = np.asarray(dec.span[units] if units else [0],
                               dtype=np.int64)
        torsion = torsion or [[0]]
        self.rank = np.full((len(torsion), fiber.order), -1, dtype=np.int64)
        for k, members in enumerate(torsion):
            self.rank[k, members] = np.arange(len(members))
        self.stride = np.asarray([prod(map(len, torsion[k + 1:]))
                                  for k in range(len(torsion))],
                                 dtype=np.int64)
        self.hom_factors = _invariant_factors(
            [gcd(d, e) for d in dec.factors for e in fiber.factors])
        self._add = fiber.add_table

    @cached_property
    def table(self) -> np.ndarray:
        """Entry [i, j] is the hom-set index of the product of the i-th and
        j-th characters: the rank and stride sum of the fiber sums of their
        values on ``gens``."""
        # built on first use: only the products and the species checks
        # read it, and it has |Hom(K, A)|^2 entries
        on_gens = self.values[:, self.pos[self.gens]]
        table = np.zeros((len(on_gens),) * 2, dtype=np.int64)
        for k, v in enumerate(on_gens.T):
            table += self.rank[k, self._add[v[:, None], v]] * self.stride[k]
        return table

    @cached_property
    def decomposition(self) -> AbelianDecomposition:
        """Invariant-factor basis of Hom(K, A) itself, from ``table``."""
        return abelian_invariant_decomposition(self.table)


def _invariant_factors(orders: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of the direct sum of cyclic
    groups of these orders, as ``abelian_invariant_decomposition`` orders
    them: the t-th largest p-parts of every prime p multiply into the t-th
    slot from the top, and no factor is 1."""
    slots: list[int] = []
    for p, a in _prime_factors(prod(orders)):
        parts = sorted((gcd(m, p ** a) for m in orders), reverse=True)
        for t, q in enumerate(q for q in parts if q > 1):
            if t == len(slots):
                slots.append(1)
            slots[t] *= q
    return tuple(reversed(slots))


def char_index(domain: Subgroup, fiber: AbelianFiber) -> CharIndex:
    """The ``CharIndex`` of Hom(K, A), built once per member set of K and
    fiber, and kept in the group's cache."""
    key = ("chars", domain.members, fiber.factors)
    cache = domain.group._cache
    if key not in cache:
        cache[key] = CharIndex(domain, fiber)
    return cache[key]


__all__ = ["AbelianFiber", "CharIndex", "char_index"]
