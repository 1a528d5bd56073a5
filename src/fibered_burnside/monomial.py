"""Monomial pairs, the orbit basis of the fibered Burnside ring, gamma
coefficients, the reduced ghost ring, and the mark morphism.

The basis is ordered by subgroup class (class-table order), then by the
character value vector of each orbit representative. All coefficients are
exact integers: Python ints, or numpy arrays whose dtype holds every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .abelian_fiber import AbelianFiber, Character, char_index, hom_set
from .errors import ComponentMismatch, NotAGroup
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable,
                         conjugacy_classes_of_subgroups, double_coset_reps,
                         fixed_cosets, normalizer)


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


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each run starts when runs of these lengths are laid end to
    end."""
    return np.cumsum(counts) - counts


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
    fixed = fixed_cosets(group, k_sub, l_sub)
    if not fixed.size:
        return np.zeros((n_k, n_l), dtype=np.int64)
    # (^s psi)(k) = psi(s^-1 k s) on the generators of K, which determine
    # a character of K: one row per (psi, s)
    sinv = group.inv[fixed]
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
        self._gamma_cache: dict = {}
        self._ghost_ring: Optional[GhostRing] = None
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
        return int(self._char_to_basis[full][0])   # the trivial character

    def identity_element(self) -> "BurnsideElement":
        return self.basis_element(self.identity_index())

    def gamma_block(self, ci: int, cj: int) -> np.ndarray:
        """``gamma_block`` of the class reps ci and cj, computed once per
        basis; the species search and verification both read it."""
        try:
            return self._gamma_cache[ci, cj]
        except KeyError:
            block = self._nonzero_gamma_block(ci, cj)
            if block is None:
                block = np.zeros((len(self.class_homs[ci]),
                                  len(self.class_homs[cj])), dtype=np.int64)
            self._gamma_cache[ci, cj] = block
            return block

    def _nonzero_gamma_block(self, ci: int, cj: int) -> Optional[np.ndarray]:
        """``gamma_block`` of the class reps ci and cj, not cached, or None
        when their mark is 0: then no coset is fixed, so the block is zero."""
        if not self.class_table.marks[ci][cj]:
            return None
        reps = self.class_table.reps
        return gamma_block(reps[ci], reps[cj], self.fiber)

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

        The blocks are computed one class row at a time: the first call
        with class ci computes every block (ci, cj) with cj >= ci in one
        pass over the double cosets of all those pairs (``_mackey_row``).
        The block (cj, ci) is the transpose of (ci, cj) in its first two
        axes. That is Mackey symmetry: KsL -> Ls^-1K is a bijection
        K\\G/L -> L\\G/K, and the term (L n s^-1Ks, psi * phi^(s^-1)) of
        Ls^-1K is the conjugate by s^-1 of the term (K n sLs^-1,
        phi * psi^s) of KsL, so both lie in one orbit and have the same
        basis index. Any representative of a double coset gives a term in
        that orbit, so the sorted lists agree.
        """
        block = self._block_cache.get((ci, cj))
        if block is None:
            if ci > cj:
                block = self.product_block(cj, ci).transpose(1, 0, 2)
                self._block_cache[ci, cj] = block
            else:
                for c, row_block in enumerate(self._mackey_row(ci), ci):
                    self._block_cache[ci, c] = row_block
                block = self._block_cache[ci, cj]
        return block

    def _mackey_row(self, ci: int) -> list[np.ndarray]:
        """The product blocks (ci, cj) for cj = ci, ci + 1, ..., in one pass
        over the double cosets of all those class pairs at once.

        Arrays over the double cosets are ragged: coset t of the pair
        (ci, cj) carries the |L| members of L = reps[cj], or one term per
        orbit representative of class cj, with no padding."""
        group, table, fiber = self.group, self.class_table, self.fiber
        k_sub = table.reps[ci]
        k_chars = char_index(k_sub, fiber)
        i0, i1 = self.class_block[ci]
        k_vals = k_chars.values[self.rep_hom_index[i0:i1]]
        cols = range(ci, len(table.reps))
        l_subs = [table.reps[cj] for cj in cols]
        # the double cosets of every pair (ci, ci + p), concatenated: coset
        # t has rep s[t] and is the d[t]-th coset of the pair p = pair[t]
        reps_of = [double_coset_reps(group, k_sub, l_sub) for l_sub in l_subs]
        n_cosets = np.asarray([len(r) for r in reps_of], dtype=np.int64)
        s = np.asarray([x for r in reps_of for x in r], dtype=np.int64)
        pair = np.repeat(np.arange(len(cols)), n_cosets)
        d = np.arange(s.size) - np.repeat(_starts(n_cosets), n_cosets)
        # ^sL, ragged: entry e is s[seg[e]] l s[seg[e]]^-1 for the member l
        # at position at_l[e] of L = reps[ci + pair[seg[e]]]
        l_orders = np.asarray([l_sub.order for l_sub in l_subs],
                              dtype=np.int64)
        lens = l_orders[pair]
        seg = np.repeat(np.arange(s.size), lens)
        at_l = np.arange(seg.size) - np.repeat(_starts(lens), lens)
        l_members = np.concatenate([np.asarray(l_sub.members, dtype=np.int64)
                                    for l_sub in l_subs])
        conj_l = group.conj[s[seg],
                            l_members[_starts(l_orders)[pair][seg] + at_l]]
        # the members of M = K n ^sL
        in_k = k_chars.pos[conj_l] >= 0
        sizes = np.bincount(seg[in_k], minlength=s.size)
        # |KsL| = |K| |L| / |M|, and the double cosets of each pair
        # partition G; the sums are exact in float64 far beyond any |G|
        covered = np.bincount(pair, weights=k_sub.order * lens // sizes,
                              minlength=len(cols))
        bad = np.flatnonzero(covered != group.order)
        if bad.size:
            raise NotAGroup(f"double cosets of classes {ci} and "
                            f"{cols[bad[0]]} do not partition the group")
        # sorted members of each M, coset by coset, from one sort
        n = group.order
        members = (np.sort(seg[in_k] * n + conj_l[in_k]) % n).tolist()
        ends = np.cumsum(sizes).tolist()
        cosets_of: dict[int, list[int]] = {}    # class of M -> its cosets
        transporters = []
        start = 0
        for t, end in enumerate(ends):
            cm, g = table.locate(tuple(members[start:end]))
            cosets_of.setdefault(cm, []).append(t)
            transporters.append(g)
            start = end
        g_inv = group.inv[np.asarray(transporters, dtype=np.int64)]
        s_inv = group.inv[s]
        # the orbit representatives of each class cj: their characters'
        # values, ravelled one class after another, and each element's
        # position in reps[cj]
        n_reps = np.asarray([self.class_block[cj][1] - self.class_block[cj][0]
                             for cj in cols], dtype=np.int64)
        l_vals = np.concatenate([
            char_index(l_sub, fiber).values[
                self.rep_hom_index[slice(*self.class_block[cj])]].ravel()
            for cj, l_sub in zip(cols, l_subs)])
        l_vals_start = _starts(n_reps * l_orders)
        l_pos = np.stack([char_index(l_sub, fiber).pos for l_sub in l_subs])
        # the row's terms: the block of pair p fills the columns from
        # col_start[p] on, as an (n_reps[p], n_cosets[p]) array
        widths = n_reps * n_cosets
        col_start = _starts(widths)
        terms = np.empty((i1 - i0, int(widths.sum())), dtype=np.int64)
        for cm, at in cosets_of.items():
            at = np.asarray(at, dtype=np.int64)
            m_chars = char_index(table.reps[cm], fiber)
            # generators of each M, carried over from those of its class rep
            gens = group.conj[g_inv[at, None], m_chars.gens]
            # one entry per (coset, b): b runs over the orbit reps of the
            # coset's class cj
            p = pair[at]
            nb = n_reps[p]
            u = np.repeat(np.arange(at.size), nb)
            b = np.arange(u.size) - np.repeat(_starts(nb), nb)
            pu = p[u]
            # (phi * psi^s)(m) = phi(m) + psi(s^-1 m s), on the axes
            # (a, (coset, b), generator)
            x = group.conj[s_inv[at, None], gens]
            psi = l_vals[(l_vals_start[pu] + b * l_orders[pu])[:, None]
                         + l_pos[p[:, None], x][u]]
            vals = fiber.add_table[k_vals[:, k_chars.pos[gens]][:, u],
                                   psi[None]]
            cols_at = col_start[pu] + b * n_cosets[pu] + d[at][u]
            terms[:, cols_at] = self._char_to_basis[cm][m_chars.index(vals)]
        # sort each block's last axis at once: the columns of one (pair, b)
        # get one key offset, above every basis index
        group_id = np.repeat(np.arange(int(n_reps.sum())),
                             np.repeat(n_cosets, n_reps))
        offset = group_id * self.size
        terms = np.sort(terms + offset, axis=1) - offset
        return [terms[:, c0:c0 + w].reshape(i1 - i0, nr, nc)
                for c0, w, nr, nc in zip(col_start.tolist(), widths.tolist(),
                                         n_reps.tolist(), n_cosets.tolist())]

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


def gamma_table(basis: MonomialBasis) -> np.ndarray:
    """Gamma coefficients of every basis pair against every basis pair.

    Entry [i, j] counts cosets of the subgroup L of pair j, so it is at
    most |G : L| <= |G|; the dtype is the smallest signed integer type
    whose max is at least |G|. Only class pairs with a nonzero mark are
    computed; the other blocks stay zero.
    """
    # One small-int array: the CLI streams the report row by row, so this
    # table sets the peak memory of `gamma`, 3.4 MB for (C2)^4 over C2 x C2
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= basis.group.order)
    table = np.zeros((basis.size, basis.size), dtype=dtype)
    hom_index = np.asarray(basis.rep_hom_index, dtype=np.int64)
    for ci, (i0, i1) in enumerate(basis.class_block):
        for cj, (j0, j1) in enumerate(basis.class_block):
            block = basis._nonzero_gamma_block(ci, cj)
            if block is not None:
                table[i0:i1, j0:j1] = block[np.ix_(hom_index[i0:i1],
                                                   hom_index[j0:j1])]
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

    def zero(self) -> "GhostElement":
        return GhostElement(self, [[0] * len(h) for h in self.class_homs])

    def identity(self) -> "GhostElement":
        # the trivial character of each class is its index 0
        return GhostElement(self, [[1] + [0] * (len(h) - 1)
                                   for h in self.class_homs])


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
    if basis._ghost_ring is None:
        basis._ghost_ring = GhostRing(basis)
    return basis._ghost_ring


def mark_morphism(basis: MonomialBasis, x: BurnsideElement) -> GhostElement:
    """Image of x under the mark morphism into the reduced ghost ring.

    The K-component of the image of a basis orbit [L, psi] is the vector of
    gamma coefficients over Hom(K, A), extended linearly. The blocks come
    from the basis, so each class pair is computed once.
    """
    if x.basis is not basis:
        raise ComponentMismatch("element over a different basis")
    ring = ghost_ring(basis)
    comps = ring.zero().comps
    for j, c in enumerate(x.coeffs):
        if not c:
            continue
        cj, b = basis.rep_class[j], basis.rep_hom_index[j]
        for ci, comp in enumerate(comps):
            column = basis.gamma_block(ci, cj)[:, b].tolist()
            comps[ci] = [a + c * v for a, v in zip(comp, column)]
    return GhostElement(ring, comps)


__all__ = [
    "MonomialPair", "MonomialBasis", "BurnsideElement", "GhostRing",
    "GhostElement", "monomial_basis", "gamma_block", "gamma_table",
    "multiply", "mark_morphism", "ghost_multiply", "ghost_ring",
]
