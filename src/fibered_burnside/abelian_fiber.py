"""Finite abelian fiber groups and homomorphism sets Hom(K, A).

Fiber elements are residue tuples; characters store their values as indices
into the fiber's lexicographic element list, so pointwise products and
comparisons are integer-table lookups.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Optional, Sequence

import numpy as np

from .errors import DomainMismatch
from .group_core import (AbelianDecomposition, Subgroup,
                         abelian_invariant_decomposition, abelianization,
                         conjugate_members)


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
        self.neg_table = self._encode((-self.coords) % mods)

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

    def add(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def neg(self, i: int) -> int:
        return int(self.neg_table[i])

    def torsion_indices(self, n: int) -> list[int]:
        if n < 1:
            raise ValueError("torsion exponent must be positive")
        return np.flatnonzero(
            (n * self.coords % self.factors == 0).all(axis=1)).tolist()

    def torsion_elements(self, n: int) -> list[tuple[int, ...]]:
        """All a with n*a = 0, in lexicographic order."""
        return [self.elements[i] for i in self.torsion_indices(n)]

    def has_trivial_torsion(self, n: int) -> bool:
        return len(self.torsion_indices(n)) == 1

    def __repr__(self) -> str:
        return f"AbelianFiber{self.factors}"


class Character:
    """A homomorphism from a subgroup K into the fiber.

    ``values[i]`` is the fiber element index of the image of the i-th member
    of K (members sorted ascending).
    """

    __slots__ = ("domain", "fiber", "values", "_hash")

    def __init__(self, domain: Subgroup, fiber: AbelianFiber,
                 values: Sequence[int], *, verify: bool = True):
        values = tuple(int(v) for v in values)
        if len(values) != domain.order:
            raise ValueError("need one value per domain member")
        self.domain = domain
        self.fiber = fiber
        self.values = values
        self._hash = hash((id(domain.group), domain.members, fiber.factors,
                           values))
        if verify:
            _check_homs(domain, fiber, [values])

    def value_index(self, g: int) -> int:
        return self.values[self.domain.position(g)]

    def value(self, g: int) -> tuple[int, ...]:
        return self.fiber.elements[self.value_index(g)]

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def __mul__(self, other: "Character") -> "Character":
        if (self.domain != other.domain
                or self.fiber.factors != other.fiber.factors):
            raise DomainMismatch("characters live on different domains")
        vals = self.fiber.add_table[np.asarray(self.values),
                                    np.asarray(other.values)]
        return Character(self.domain, self.fiber, vals, verify=False)

    def inverse(self) -> "Character":
        vals = self.fiber.neg_table[np.asarray(self.values)]
        return Character(self.domain, self.fiber, vals, verify=False)

    def restrict(self, sub: Subgroup) -> "Character":
        if not sub.is_subset_of(self.domain):
            raise DomainMismatch("restriction target is not a subgroup of the domain")
        vals = [self.value_index(m) for m in sub.members]
        return Character(sub, self.fiber, vals, verify=False)

    def conjugate(self, g: int) -> "Character":
        """The conjugate character on ^gK, x -> value(g^-1 x g)."""
        group = self.domain.group
        new_members = conjugate_members(group, g, self.domain.members)
        new_domain = Subgroup(group, new_members, verify=False)
        ginv = group.inverse(g)
        vals = [self.value_index(int(group.conj[ginv, x])) for x in new_members]
        return Character(new_domain, self.fiber, vals, verify=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Character)
                and self.domain == other.domain
                and self.fiber.factors == other.fiber.factors
                and self.values == other.values)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Character(domain={self.domain.members}, values={self.values})"


def trivial_character(domain: Subgroup, fiber: AbelianFiber) -> Character:
    return Character(domain, fiber, [0] * domain.order, verify=False)


def _check_homs(domain: Subgroup, fiber: AbelianFiber, rows) -> None:
    """Raise ValueError unless every row of ``rows`` (fiber element indices,
    one per member of K) is a homomorphism K -> A.

    Each row is checked on the edges m -> m g, for m in K and g among the
    generators of K: every element of K is a word in the generators, so
    phi(m g) = phi(m) + phi(g) on the edges gives it on all pairs."""
    group = domain.group
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[list(domain.members)] = np.arange(domain.order)
    if pos[0] < 0:
        raise ValueError("a domain must contain the identity")
    rows = np.asarray(rows, dtype=np.int64)
    if rows[:, pos[0]].any():
        raise ValueError("character must send the identity to 0")
    gens = list(domain.generators())
    ends = pos[group.mul[np.ix_(domain.members, gens)]]
    if (ends < 0).any():
        raise ValueError("domain is not closed")
    if not np.array_equal(rows[:, ends], fiber.add_table[
            rows[:, :, None], rows[:, None, pos[gens]]]):
        raise ValueError("value map is not a homomorphism")


def hom_set(domain: Subgroup, fiber: AbelianFiber) -> list[Character]:
    """Every homomorphism K -> A, in ``CharIndex`` order."""
    return [Character(domain, fiber, row, verify=False)
            for row in char_index(domain, fiber).values.tolist()]


class CharIndex:
    """Hom(K, A) as arrays, with a lookup from values to hom-set index.

    K is abelianized; a homomorphism is a choice of one d-torsion image per
    invariant factor C_d, and the characters are in lexicographic order of
    that image tuple, so the trivial character is index 0. ``values`` has
    one row per character and one column per member of K; ``pos`` is the
    position of each group element in K, or -1 outside it. A character is
    determined by its values on ``gens``, the generators of K (the identity
    for the trivial group), and ``index`` finds it from them.
    """

    def __init__(self, domain: Subgroup, fiber: AbelianFiber):
        dec = abelianization(domain)
        # one row per character, one column per invariant factor (none for
        # a perfect K), so these arrays are (1, 0) and (|K|, 0) in rank 0
        images = np.asarray(list(itertools.product(
            *(fiber.torsion_indices(d) for d in dec.factors))), dtype=np.int64)
        # a member's image: its exponents times the fiber coordinates of
        # the images of the invariant factors' generators
        self.values = fiber._encode(
            (dec.coords @ fiber.coords[images]) % np.asarray(fiber.factors))
        _check_homs(domain, fiber, self.values)
        self.pos = np.full(domain.group.order, -1, dtype=np.int64)
        self.pos[list(domain.members)] = np.arange(domain.order)
        self.gens = np.asarray(domain.generators() or (0,), dtype=np.int64)
        self._add = fiber.add_table
        # a character's key: its values on the generators in mixed radix,
        # exact Python integers once they would overflow int64
        radix = fiber.order
        dtype = np.int64 if radix ** self.gens.size < 2 ** 63 else object
        self._weights = np.asarray(
            [radix ** k for k in range(self.gens.size)], dtype=dtype)
        keys = self._key(self.values[:, self.pos[self.gens]])
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        self._table: Optional[np.ndarray] = None
        self._decomposition: Optional[AbelianDecomposition] = None

    def _key(self, vals: np.ndarray) -> np.ndarray:
        return (vals * self._weights).sum(axis=-1)

    def index(self, vals: np.ndarray) -> np.ndarray:
        """Hom-set index of each character given by its values on ``gens``
        (the last axis of ``vals``)."""
        want = self._key(vals)
        at = np.minimum(np.searchsorted(self._keys, want), self._keys.size - 1)
        if not np.array_equal(self._keys[at], want):
            raise ValueError("a value row matches no character of the hom set")
        return self._order[at]

    @property
    def table(self) -> np.ndarray:
        """Entry [i, j] is the hom-set index of the product of the i-th and
        j-th characters."""
        # built on first use: only the species checks and the ghost ring
        # read it, and it has |Hom(K, A)|^2 entries
        if self._table is None:
            on_gens = self.values[:, self.pos[self.gens]]
            self._table = self.index(
                self._add[on_gens[:, None], on_gens[None]])
        return self._table

    @property
    def decomposition(self) -> AbelianDecomposition:
        """Invariant-factor basis of Hom(K, A) itself, from ``table``."""
        if self._decomposition is None:
            self._decomposition = abelian_invariant_decomposition(self.table)
        return self._decomposition


def char_index(domain: Subgroup, fiber: AbelianFiber) -> CharIndex:
    """The ``CharIndex`` of Hom(K, A), built once per member set of K and
    fiber, and kept in the group's cache."""
    key = ("chars", domain.members, fiber.factors)
    cache = domain.group._cache
    if key not in cache:
        cache[key] = CharIndex(domain, fiber)
    return cache[key]


__all__ = ["AbelianFiber", "Character", "CharIndex", "trivial_character",
           "hom_set", "char_index"]
