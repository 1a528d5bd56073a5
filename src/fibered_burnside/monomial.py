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

from .abelian_fiber import AbelianFiber, Character, char_index, hom_set
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
    chars_k, chars_l = char_index(k_sub, fiber), char_index(l_sub, fiber)
    n_k, n_l = len(chars_k.values), len(chars_l.values)
    reps, masks = _left_coset_data(group, l_sub)
    kmask = k_sub.mask
    fixed = [s for s, lmask in zip(reps, masks) if kmask & lmask == kmask]
    if not fixed:
        return np.zeros((n_k, n_l), dtype=np.int64)
    # (^s psi)(k) = psi(s^-1 k s) on the generators of K, which determine
    # a character of K: one row per (psi, s)
    sinv = group.inv[np.asarray(fixed, dtype=np.int64)]
    psi_on = chars_l.values[
        :, chars_l.pos[group.conj[np.ix_(sinv, chars_k.gens)]]]
    a = chars_k.index(psi_on).ravel()
    b = np.repeat(np.arange(n_l), len(fixed))
    return np.bincount(a * n_l + b, minlength=n_k * n_l).reshape(n_k, n_l)


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
        self._char_to_basis: list[np.ndarray] = []
        self._block_cache: dict = {}
        self._ghost_image_cache: dict = {}
        conj, inv = group.conj, group.inv
        for ci, k_sub in enumerate(class_table.reps):
            homs = hom_set(k_sub, fiber)
            self.class_homs.append(homs)
            chars = char_index(k_sub, fiber)
            norm = np.asarray(normalizer(group, k_sub).members, dtype=np.int64)
            # perm[n, i] is the index of x -> chi_i(n^-1 x n); N is a group,
            # so column i runs over the whole orbit of chi_i
            perm = chars.index(chars.values[
                :, chars.pos[conj[np.ix_(inv[norm], chars.gens)]]]).T
            root = perm.min(axis=0)
            roots = sorted(set(root.tolist()), key=lambda r: homs[r].values)
            start = len(self.reps)
            basis_of_root = np.empty(len(homs), dtype=np.int64)
            for r in roots:
                basis_of_root[r] = len(self.reps)
                self.reps.append(MonomialPair(k_sub, homs[r]))
                self.stabilizers.append(Subgroup(
                    group, norm[perm[:, r] == r].tolist(), verify=False))
                self.rep_class.append(ci)
                self.rep_hom_index.append(r)
            self._char_to_basis.append(basis_of_root[root])
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
        trivial = char_index(self.class_table.reps[full], self.fiber).trivial
        return int(self._char_to_basis[full][trivial])

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
        group, table, fiber = self.group, self.class_table, self.fiber
        k_sub, l_sub = table.reps[ci], table.reps[cj]
        k_chars, l_chars = char_index(k_sub, fiber), char_index(l_sub, fiber)
        (i0, i1), (j0, j1) = self.class_block[ci], self.class_block[cj]
        k_vals = k_chars.values[self.rep_hom_index[i0:i1]]
        l_vals = l_chars.values[self.rep_hom_index[j0:j1]]
        kmem = np.asarray(k_sub.members, dtype=np.int64)
        lmem = np.asarray(l_sub.members, dtype=np.int64)
        terms = []
        for s in double_coset_reps(group, k_sub, l_sub):
            in_conj_l = np.zeros(group.order, dtype=bool)
            in_conj_l[group.conj[s, lmem]] = True
            m_sub = Subgroup(group, kmem[in_conj_l[kmem]].tolist(),
                             verify=False)
            cm = table.class_of(m_sub)
            m_chars = char_index(table.reps[cm], fiber)
            # generators of M, carried over from those of its class rep
            g_inv = group.inv[table.transporter_to_rep(m_sub)]
            gens = group.conj[g_inv, m_chars.gens]
            # (phi * psi^s)(m) = phi(m) + psi(s^-1 m s), one row per (a, b)
            vals = fiber.add_table[
                k_vals[:, k_chars.pos[gens]][:, None, :],
                l_vals[:, l_chars.pos[group.conj[group.inv[s], gens]]][None]]
            terms.append(self._char_to_basis[cm][m_chars.index(vals)])
        block = np.sort(np.stack(terms, axis=-1), axis=-1)
        self._block_cache[ci, cj] = block
        return block

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
    # Rows grow block by block, so no table-sized array lives beside the
    # rows. The CLI streams the report row by row, so these rows set the
    # peak memory of `gamma`; one such array would add 23 MB to it for
    # (C2)^4 over C2 x C2.
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
        chars = [char_index(k_sub, basis.fiber)
                 for k_sub in basis.class_table.reps]
        self.mul_tables = [c.table for c in chars]
        self.trivial_index = [c.trivial for c in chars]

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
    images = basis._ghost_image_cache
    result = ring.zero()
    for j, c in enumerate(x.coeffs):
        if not c:
            continue
        if j not in images:
            # one gamma block per class K gives the images of the whole
            # class of reps[j]
            cj = basis.rep_class[j]
            reps = basis.class_table.reps
            blocks = [gamma_block(k_sub, reps[cj], basis.fiber)
                      for k_sub in reps]
            j0, j1 = basis.class_block[cj]
            for i in range(j0, j1):
                b = basis.rep_hom_index[i]
                images[i] = GhostElement(ring, [blk[:, b] for blk in blocks])
        result = result + images[j].scaled(c)
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
    "ghost_multiply", "ghost_ring", "integer_matrix_determinant",
]
