"""Monomial pairs, the orbit basis of the fibered Burnside ring, gamma
coefficients, the reduced ghost ring, and the mark morphism.

The basis is ordered by subgroup class (class-table order), then by the
character value vector of each orbit representative. All coefficients are
exact Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .abelian_fiber import (AbelianFiber, Character, char_group_table,
                            hom_set, trivial_character)
from .errors import ComponentMismatch
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable,
                         _left_coset_data, conjugacy_classes_of_subgroups,
                         double_coset_reps, normalizer)


@dataclass(frozen=True)
class MonomialPair:
    """A subgroup together with a character on it."""

    subgroup: Subgroup
    char: Character

    def __post_init__(self):
        if self.char.domain != self.subgroup:
            raise ValueError("character domain must equal the subgroup")

    def conjugate(self, g: int) -> "MonomialPair":
        chi = self.char.conjugate(g)
        return MonomialPair(chi.domain, chi)

    def key(self):
        return (self.subgroup.members, self.char.values)


def gamma_block(k_sub: Subgroup, l_sub: Subgroup,
                fiber: AbelianFiber) -> np.ndarray:
    """Gamma coefficients of every (K, phi) against every (L, psi).

    Entry [a, b] counts the cosets sL with K <= sLs^-1 on which the
    conjugate of the b-th character of Hom(L, A) restricts to the a-th
    character of Hom(K, A); rows and columns follow ``hom_set`` order.
    Both subgroups must live over the same group.
    """
    group = k_sub.group
    if l_sub.group is not group:
        raise ValueError("subgroups live over different groups")
    homs_k, homs_l = hom_set(k_sub, fiber), hom_set(l_sub, fiber)
    n_k, n_l = len(homs_k), len(homs_l)
    reps, masks = _left_coset_data(group, l_sub)
    kmask = k_sub.mask
    fixed = [s for s, lmask in zip(reps, masks) if kmask & lmask == kmask]
    if not fixed:
        return np.zeros((n_k, n_l), dtype=np.int64)
    # Characters agree iff they agree on generators of K (the identity
    # stands in for the empty generating set of the trivial group).
    gens = np.asarray(k_sub.generators() or (0,), dtype=np.int64)
    phi_on = _values(homs_k)[:, [k_sub.position(int(k)) for k in gens]]
    l_pos = np.full(group.order, -1, dtype=np.int64)
    l_pos[list(l_sub.members)] = np.arange(l_sub.order)
    # (^s psi)(k) = psi(s^-1 k s): one row per (psi, s), one column per k
    sinv = group.inv[np.asarray(fixed, dtype=np.int64)]
    psi_on = _values(homs_l)[:, l_pos[group.conj[np.ix_(sinv, gens)]]]
    rows = np.concatenate([phi_on, psi_on.reshape(-1, gens.size)])
    # Every row restricts a character to K, so it equals one phi row.
    ids = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    phi_of = np.empty(n_k, dtype=np.int64)
    phi_of[ids[:n_k]] = np.arange(n_k)
    a = phi_of[ids[n_k:]]
    b = np.repeat(np.arange(n_l), len(fixed))
    return np.bincount(a * n_l + b, minlength=n_k * n_l).reshape(n_k, n_l)


def _values(homs: Sequence[Character]) -> np.ndarray:
    return np.asarray([h.values for h in homs], dtype=np.int64)


class MonomialBasis:
    """Orbit representatives of monomial pairs, with canonical lookup."""

    def __init__(self, group: FiniteGroup, fiber: AbelianFiber,
                 class_table: Optional[SubgroupClassTable] = None):
        if class_table is None:
            class_table = conjugacy_classes_of_subgroups(group)
        self.group = group
        self.fiber = fiber
        self.class_table = class_table
        self.reps: list[MonomialPair] = []
        self.stabilizers: list[Subgroup] = []
        self.rep_class: list[int] = []          # basis index -> class index
        self.rep_hom_index: list[int] = []      # basis index -> index in hom_set
        self.class_homs: list[list[Character]] = []
        self.class_block: list[tuple[int, int]] = []
        # per class: hom index -> basis index of its orbit representative
        self._char_to_basis: list[list[int]] = []
        self._chars_cache: dict = {}
        self._block_cache: dict = {}
        self._ghost_image_cache: dict = {}
        for ci, k_sub in enumerate(class_table.reps):
            homs = hom_set(k_sub, fiber)
            self.class_homs.append(homs)
            norm = normalizer(group, k_sub)
            perms = _normalizer_char_action(k_sub, homs, norm)
            n_h = len(homs)
            orbit_rep = list(range(n_h))
            # union-find style sweep over the full normalizer action
            for perm in perms.values():
                for i in range(n_h):
                    j = perm[i]
                    a, b = _find(orbit_rep, i), _find(orbit_rep, j)
                    if a != b:
                        orbit_rep[max(a, b)] = min(a, b)
            roots = sorted({_find(orbit_rep, i) for i in range(n_h)},
                           key=lambda r: homs[r].values)
            start = len(self.reps)
            basis_of_root: dict[int, int] = {}
            for r in roots:
                basis_of_root[r] = len(self.reps)
                chi = homs[r]
                stab_members = [n for n, perm in perms.items() if perm[r] == r]
                self.reps.append(MonomialPair(k_sub, chi))
                self.stabilizers.append(
                    Subgroup(group, stab_members, verify=False))
                self.rep_class.append(ci)
                self.rep_hom_index.append(r)
            self._char_to_basis.append(
                [basis_of_root[_find(orbit_rep, i)] for i in range(n_h)])
            self.class_block.append((start, len(self.reps)))
        self.size = len(self.reps)

    # -- ring structure

    def basis_element(self, i: int) -> "BurnsideElement":
        coeffs = [0] * self.size
        coeffs[i] = 1
        return BurnsideElement(self, coeffs)

    def identity_index(self) -> int:
        full = self.class_table.class_of(
            Subgroup(self.group, range(self.group.order), verify=False))
        homs = self.class_homs[full]
        for hi in range(len(homs)):
            if homs[hi].is_trivial():
                return self._char_to_basis[full][hi]
        raise AssertionError("trivial character missing")

    def identity_element(self) -> "BurnsideElement":
        return self.basis_element(self.identity_index())

    def product(self, i: int, j: int) -> list[tuple[int, int]]:
        """Structure constants of reps[i] * reps[j] as (index, coeff) pairs."""
        ci, cj = self.rep_class[i], self.rep_class[j]
        row = self.product_block(ci, cj)[i - self.class_block[ci][0],
                                          j - self.class_block[cj][0]]
        idx, counts = np.unique(row, return_counts=True)
        return list(zip(idx.tolist(), counts.tolist()))

    def product_block(self, ci: int, cj: int) -> np.ndarray:
        """Products of every orbit representative of class ci with every one
        of class cj.

        Entry [a, b] lists the basis index of each double-coset term of the
        a-th representative of class ci times the b-th of class cj, sorted;
        the last axis has one entry per double coset K\\G/L. For each coset
        KsL the term is the orbit of (M, phi * psi^s) with M = K n sLs^-1.
        """
        block = self._block_cache.get((ci, cj))
        if block is not None:
            return block
        group, table = self.group, self.class_table
        k_sub, l_sub = table.reps[ci], table.reps[cj]
        k_chars, l_chars = self._class_chars(ci), self._class_chars(cj)
        kmem = np.asarray(k_sub.members, dtype=np.int64)
        lmem = np.asarray(l_sub.members, dtype=np.int64)
        terms = []
        for s in double_coset_reps(group, k_sub, l_sub):
            in_conj_l = np.zeros(group.order, dtype=bool)
            in_conj_l[group.conj[s, lmem]] = True
            m_sub = Subgroup(group, kmem[in_conj_l[kmem]].tolist(),
                             verify=False)
            m_chars = self._class_chars(table.class_of(m_sub))
            # generators of M, carried over from those of its class rep
            g_inv = group.inv[table.transporter_to_rep(m_sub)]
            gens = group.conj[g_inv, m_chars.gens]
            # (phi * psi^s)(m) = phi(m) + psi(s^-1 m s), one row per (a, b)
            vals = self.fiber.add_table[
                k_chars.rep_values[:, k_chars.pos[gens]][:, None, :],
                l_chars.rep_values[
                    :, l_chars.pos[group.conj[group.inv[s], gens]]][None]]
            terms.append(m_chars.basis_of_values(vals))
        block = np.sort(np.stack(terms, axis=-1), axis=-1)
        self._block_cache[ci, cj] = block
        return block

    def _class_chars(self, ci: int) -> "_ClassChars":
        cached = self._chars_cache.get(ci)
        if cached is None:
            cached = self._chars_cache[ci] = _ClassChars(self, ci)
        return cached

    def to_json(self) -> dict:
        return {
            "fiber": list(self.fiber.factors),
            "pairs": [
                {"subgroup": list(p.subgroup.members),
                 "character": [list(p.char.value(m))
                               for m in p.subgroup.members]}
                for p in self.reps
            ],
        }


class _ClassChars:
    """What the product kernel reads of one subgroup class's characters:
    positions in its representative R, the values of the orbit
    representatives, and a lookup from values on the generators of R to
    basis indices."""

    def __init__(self, basis: MonomialBasis, ci: int):
        rep, homs = basis.class_table.reps[ci], basis.class_homs[ci]
        i0, i1 = basis.class_block[ci]
        self.pos = np.full(basis.group.order, -1, dtype=np.int64)
        self.pos[list(rep.members)] = np.arange(rep.order)
        values = _values(homs)
        self.rep_values = values[basis.rep_hom_index[i0:i1]]
        self.gens = np.asarray(rep.generators() or (0,), dtype=np.int64)
        # a character's key: its values on the generators in mixed radix,
        # exact Python integers once they would overflow int64
        radix = basis.fiber.order
        dtype = np.int64 if radix ** self.gens.size < 2 ** 63 else object
        self.weights = np.asarray(
            [radix ** k for k in range(self.gens.size)], dtype=dtype)
        keys = (values[:, self.pos[self.gens]] * self.weights).sum(axis=-1)
        order = np.argsort(keys)
        self.keys = keys[order]
        self.basis_index = np.asarray(basis._char_to_basis[ci],
                                      dtype=np.int64)[order]
        self.ci = ci

    def basis_of_values(self, vals: np.ndarray) -> np.ndarray:
        """Basis index of each character of R given by its values on the
        generators of R (the last axis of ``vals``)."""
        want = (vals * self.weights).sum(axis=-1)
        at = np.minimum(np.searchsorted(self.keys, want), self.keys.size - 1)
        if not np.array_equal(self.keys[at], want):
            raise ValueError(f"a character product on class {self.ci} "
                             f"matches no character of its hom set")
        return self.basis_index[at]


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _normalizer_char_action(k_sub: Subgroup, homs: Sequence[Character],
                            norm: Subgroup) -> dict[int, list[int]]:
    """For each n in the normalizer, the permutation of hom-set indices."""
    group = k_sub.group
    mem = np.asarray(k_sub.members, dtype=np.int64)
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[mem] = np.arange(mem.size)
    vals = _values(homs)
    lookup = {h.values: i for i, h in enumerate(homs)}
    perms: dict[int, list[int]] = {}
    for n in norm.members:
        ninv = group.inverse(n)
        perm_pos = pos[group.conj[ninv, mem]]
        permuted = vals[:, perm_pos]
        perms[n] = [lookup[tuple(int(v) for v in row)] for row in permuted]
    return perms


def monomial_basis(group: FiniteGroup, fiber: AbelianFiber,
                   class_table: Optional[SubgroupClassTable] = None
                   ) -> MonomialBasis:
    """The orbit basis over ``class_table`` (default: the group's default
    class table), built once per fiber and transversal and kept in the
    group's cache."""
    if class_table is None:
        class_table = conjugacy_classes_of_subgroups(group)
    key = ("basis", fiber.factors,
           tuple(s.members for s in class_table.reps))
    basis = group._cache.get(key)
    if basis is None:
        basis = group._cache[key] = MonomialBasis(group, fiber, class_table)
    return basis


def all_monomial_pairs(group: FiniteGroup,
                       fiber: AbelianFiber) -> list[MonomialPair]:
    """Every monomial pair (not just orbit representatives)."""
    from .group_core import enumerate_subgroups
    pairs = []
    for sub in enumerate_subgroups(group):
        for chi in hom_set(sub, fiber):
            pairs.append(MonomialPair(sub, chi))
    return pairs


def gamma_table(basis: MonomialBasis) -> list[list[int]]:
    """Gamma coefficients of every basis pair against every basis pair."""
    # Rows grow block by block. Freeing one table-sized array would raise
    # glibc's dynamic mmap threshold, and serializing the table afterwards
    # then peaks higher: by 26 MB for (C2)^4 over C2 x C2.
    table: list[list[int]] = [[] for _ in range(basis.size)]
    reps, hom_index = basis.class_table.reps, basis.rep_hom_index
    for ci, (i0, i1) in enumerate(basis.class_block):
        for cj, (j0, j1) in enumerate(basis.class_block):
            block = gamma_block(reps[ci], reps[cj], basis.fiber)
            rows = block[np.ix_(hom_index[i0:i1], hom_index[j0:j1])]
            for row, values in zip(table[i0:i1], rows.tolist()):
                row.extend(values)
    return table


# ---------------------------------------------------------------------------
# Ring elements


class BurnsideElement:
    """Integer vector over the monomial orbit basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: MonomialBasis, coeffs: Sequence[int]):
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) != basis.size:
            raise ValueError("coefficient vector has the wrong length")
        self.basis = basis
        self.coeffs = coeffs

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(self.basis,
                               [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        return BurnsideElement(self.basis,
                               [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def _check(self, other: "BurnsideElement") -> None:
        if self.basis is not other.basis:
            raise ComponentMismatch("elements over different bases")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BurnsideElement)
                and self.basis is other.basis and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.basis), tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"BurnsideElement({self.coeffs})"


def multiply(x: BurnsideElement, y: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the double-coset product of basis orbits."""
    if x.basis is not y.basis:
        raise ComponentMismatch("elements over different bases")
    basis = x.basis
    out = [0] * basis.size
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if not b:
                continue
            for idx, c in basis.product(i, j):
                out[idx] += a * b * c
    return BurnsideElement(basis, out)


# ---------------------------------------------------------------------------
# Ghost ring


class GhostRing:
    """Product over subgroup classes of the group rings of Hom(K, A),
    restricted (by construction of its elements) to normalizer-fixed points."""

    def __init__(self, basis: MonomialBasis):
        self.basis = basis
        self.class_homs = basis.class_homs
        self.mul_tables = [char_group_table(homs) for homs in self.class_homs]
        self.trivial_index = [next(i for i, h in enumerate(homs)
                                   if h.is_trivial())
                              for homs in self.class_homs]

    def zero(self) -> "GhostElement":
        return GhostElement(self, [[0] * len(h) for h in self.class_homs])

    def identity(self) -> "GhostElement":
        comps = [[0] * len(h) for h in self.class_homs]
        for ci, ti in enumerate(self.trivial_index):
            comps[ci][ti] = 1
        return GhostElement(self, comps)


class GhostElement:
    """Per subgroup class, an integer vector over Hom(K, A)."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: GhostRing, comps: Sequence[Sequence[int]]):
        comps = [[int(c) for c in comp] for comp in comps]
        if len(comps) != len(ring.class_homs) or any(
                len(comp) != len(h) for comp, h in zip(comps, ring.class_homs)):
            raise ComponentMismatch("component shapes do not match the ring")
        self.ring = ring
        self.comps = comps

    def __add__(self, other: "GhostElement") -> "GhostElement":
        if other.ring is not self.ring:
            raise ComponentMismatch("ghost elements over different rings")
        return GhostElement(self.ring,
                            [[a + b for a, b in zip(x, y)]
                             for x, y in zip(self.comps, other.comps)])

    def scaled(self, c: int) -> "GhostElement":
        return GhostElement(self.ring,
                            [[c * a for a in comp] for comp in self.comps])

    def is_orbit_closed(self) -> bool:
        """Each component constant on normalizer orbits of characters."""
        basis = self.ring.basis
        for ci, comp in enumerate(self.comps):
            orbit_of = basis._char_to_basis[ci]
            seen: dict[int, int] = {}
            for hi, c in enumerate(comp):
                root = orbit_of[hi]
                if root in seen:
                    if seen[root] != c:
                        return False
                else:
                    seen[root] = c
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, GhostElement)
                and self.ring is other.ring and self.comps == other.comps)

    def __hash__(self):
        return hash((id(self.ring), tuple(tuple(c) for c in self.comps)))

    def __repr__(self) -> str:
        return f"GhostElement({self.comps})"


def ghost_multiply(a: GhostElement, b: GhostElement) -> GhostElement:
    """Componentwise group-ring convolution."""
    if a.ring is not b.ring:
        raise ComponentMismatch("ghost elements over different rings")
    ring = a.ring
    out = []
    for table, x, y in zip(ring.mul_tables, a.comps, b.comps):
        comp = [0] * len(x)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                comp[table[i][j]] += xi * yj
        out.append(comp)
    return GhostElement(ring, out)


def ghost_ring(basis: MonomialBasis) -> GhostRing:
    cached = basis._ghost_image_cache.get("ring")
    if cached is None:
        cached = GhostRing(basis)
        basis._ghost_image_cache["ring"] = cached
    return cached


def mark_morphism(basis: MonomialBasis, x: BurnsideElement) -> GhostElement:
    """Image of x under the mark morphism into the reduced ghost ring.

    The K-component of the image of a basis orbit [L, psi] is the vector of
    gamma coefficients over Hom(K, A), extended linearly.
    """
    if x.basis is not basis:
        raise ComponentMismatch("element over a different basis")
    ring = ghost_ring(basis)
    result = ring.zero()
    for j, c in enumerate(x.coeffs):
        if not c:
            continue
        img = basis._ghost_image_cache.get(j)
        if img is None:
            l_sub = basis.reps[j].subgroup
            b = basis.rep_hom_index[j]
            img = GhostElement(ring, [
                gamma_block(k_sub, l_sub, basis.fiber)[:, b]
                for k_sub in basis.class_table.reps])
            basis._ghost_image_cache[j] = img
        result = result + img.scaled(c)
    return result


# ---------------------------------------------------------------------------
# Exact linear algebra helper


def integer_matrix_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [[int(v) for v in row] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


__all__ = [
    "MonomialPair", "MonomialBasis", "BurnsideElement", "GhostRing",
    "GhostElement", "monomial_basis", "all_monomial_pairs",
    "gamma_block", "gamma_table", "multiply", "mark_morphism",
    "ghost_multiply", "ghost_ring", "trivial_character",
    "integer_matrix_determinant",
]
