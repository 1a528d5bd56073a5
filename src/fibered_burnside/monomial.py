"""Monomial pairs, the orbit basis of the fibered Burnside ring, gamma
coefficients, the reduced ghost ring, and the mark morphism.

The basis is ordered by subgroup class (class-table order), then by the
character value vector of each orbit representative. All coefficients are
exact integers: Python ints, or numpy arrays whose dtype holds every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .abelian_fiber import AbelianFiber, Character, CharIndex, char_index
from .errors import ComponentMismatch, NotAGroup
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable,
                         _fixed_by, _sorted_unique, _starts,
                         conjugacy_classes_of_subgroups,
                         double_cosets, left_coset_reps, normalizer)


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


class _HomLayout:
    """Hom(S, A) for every S in a list of subgroups of one group, ravelled
    into one array: the |S| values of the r-th character of the c-th S
    start at ``start[c] + r * orders[c]``, and ``pos[c]`` is each group
    element's position in that S, or -1 outside it."""

    def __init__(self, subs: Sequence[Subgroup], fiber: AbelianFiber):
        self.group = subs[0].group
        self.chars = [char_index(sub, fiber) for sub in subs]
        self.n_homs = np.asarray([len(c.values) for c in self.chars],
                                 dtype=np.int64)
        self.orders = np.asarray([sub.order for sub in subs], dtype=np.int64)
        self.vals = np.concatenate([c.values.ravel() for c in self.chars])
        self.start = _starts(self.n_homs * self.orders)
        self.pos = np.stack([c.pos for c in self.chars])

    def restrict(self, c, r, t, target: CharIndex) -> np.ndarray:
        """The restriction map: the index in ``target``, the ``CharIndex``
        of a subgroup T with tTt^-1 in the c-th S, of x -> chi(t x t^-1)
        on T, for chi the r-th character of that S. One gather of chi at
        the points t x t^-1, x among the generators of T; the arrays c, r
        and t broadcast, and the result has their shape."""
        c, r, t = (np.asarray(v)[..., None] for v in (c, r, t))
        x = self.group.conj[t, target.gens]
        return target.index(
            self.vals[self.start[c] + r * self.orders[c] + self.pos[c, x]])


def _hom_layout(subs: Sequence[Subgroup], fiber: AbelianFiber) -> _HomLayout:
    """The ``_HomLayout`` of ``subs``, built once per list of member sets
    and fiber and kept in the group's cache, so that a basis and its gamma
    kernel share one."""
    key = ("homs", tuple(sub.members for sub in subs), fiber.factors)
    cache = subs[0].group._cache
    if key not in cache:
        cache[key] = _HomLayout(subs, fiber)
    return cache[key]


def gamma_rows(k_subs: Sequence[Subgroup], l_subs: Sequence[Subgroup],
               fiber: AbelianFiber
               ) -> Callable[[int], dict[int, np.ndarray]]:
    """The gamma blocks of K = k_subs[a] against every L in ``l_subs``, as
    a function of a: a dict from b to ``gamma_block(K, l_subs[b])`` for
    every L of which K fixes a coset. The other blocks are zero.

    The fixed cosets of every pair come first, from one gather per L
    (``_fixed_by``); when there are none, no character is looked at. Then
    each K costs one restriction (``_HomLayout.restrict``) over all its
    rows (L, s, psi): s a fixed coset rep of L and psi in Hom(L, A). The
    blocks of one K are views of one count array that holds only them.
    All subgroups must live over the same group.
    """
    group = (k_subs[0] if k_subs else l_subs[0]).group
    if any(sub.group is not group for sub in (*k_subs, *l_subs)):
        raise ValueError("subgroups live over different groups")
    # every fixed coset, as (K index, L index, coset rep), sorted by K
    fixed_k, fixed_l, fixed_s = [], [], []
    for b, (l_sub, fixed) in enumerate(zip(l_subs,
                                           _fixed_by(group, k_subs, l_subs))):
        c, a = np.nonzero(fixed)
        fixed_k.append(a)
        fixed_l.append(np.full(a.size, b, dtype=np.int64))
        fixed_s.append(left_coset_reps(group, l_sub)[c])
    fixed_k = np.concatenate(fixed_k)
    if not fixed_k.size:
        return lambda a: {}
    by_k = np.argsort(fixed_k, kind="stable")
    row = _starts(np.bincount(fixed_k, minlength=len(k_subs) + 1))
    fixed_l = np.concatenate(fixed_l)[by_k]
    fixed_sinv = group.inv[np.concatenate(fixed_s)[by_k]]
    homs = _hom_layout(l_subs, fiber)

    def blocks_of(a: int) -> dict[int, np.ndarray]:
        e = slice(row[a], row[a + 1])
        ls, sinv = fixed_l[e], fixed_sinv[e]
        if not ls.size:
            return {}
        # one row per (coset, psi): (^s psi)(k) = psi(s^-1 k s) on K
        nl = homs.n_homs[ls]
        u = np.repeat(np.arange(ls.size), nl)
        psi = np.arange(u.size) - np.repeat(_starts(nl), nl)
        lu = ls[u]
        chars_k = char_index(k_subs[a], fiber)
        hit = homs.restrict(lu, psi, sinv[u], chars_k)
        # the blocks of the L that K fixes a coset of, side by side
        present = _sorted_unique(ls)
        col = np.zeros(len(l_subs), dtype=np.int64)
        col[present] = _starts(homs.n_homs[present])
        width = int(homs.n_homs[present].sum())
        counts = np.bincount(hit * width + col[lu] + psi,
                             minlength=len(chars_k.values) * width
                             ).reshape(-1, width)
        return {b: counts[:, c0:c0 + nb] for b, c0, nb in zip(
            present.tolist(), col[present].tolist(),
            homs.n_homs[present].tolist())}
    return blocks_of


def gamma_block(k_sub: Subgroup, l_sub: Subgroup,
                fiber: AbelianFiber) -> np.ndarray:
    """Gamma coefficients of every (K, phi) against every (L, psi).

    Entry [a, b] counts the cosets sL with K <= sLs^-1 on which the
    conjugate of the b-th character of Hom(L, A) restricts to the a-th
    character of Hom(K, A); rows and columns follow ``hom_set`` order.
    Both subgroups must live over the same group. This is the one-pair
    case of ``gamma_rows``.
    """
    block = gamma_rows([k_sub], [l_sub], fiber)(0).get(0)
    if block is None:
        block = np.zeros((len(char_index(k_sub, fiber).values),
                          len(char_index(l_sub, fiber).values)),
                         dtype=np.int64)
    return block


@dataclass
class _MackeyGeometry:
    """The double cosets of every class pair ci <= cj of a basis, in
    row-major pair order.

    Coset t of row ci (``row[ci] <= t < row[ci + 1]``) is the d[t]-th of
    the pair (ci, cj[t]), with rep s; cm[t] is the class of M = K n sLs^-1,
    g_inv[t] the inverse of a transporter g of M to that class's rep, and
    gs_inv[t] the inverse of the product g s."""

    row: np.ndarray
    cj: np.ndarray
    d: np.ndarray
    g_inv: np.ndarray
    gs_inv: np.ndarray
    cm: np.ndarray
    n_cosets: np.ndarray       # (k, k), upper triangle
    col_start: np.ndarray      # (k, k): where block (ci, cj) starts in row ci
    n_reps: np.ndarray         # per class: its number of orbit reps


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
        self.class_block: list[tuple[int, int]] = []
        # per class: hom index -> basis index of its orbit representative
        self._char_to_basis: list[np.ndarray] = []
        self._block_cache: dict = {}
        self._gamma_cache: dict[int, dict[int, np.ndarray]] = {}
        # Hom(K, A) of every class rep K, which every restriction reads
        self._homs = _hom_layout(class_table.reps, fiber)
        for ci, k_sub in enumerate(class_table.reps):
            chars = self._homs.chars[ci]
            norm = np.asarray(normalizer(group, k_sub).members, dtype=np.int64)
            # perm[n, i] is the index of x -> chi_i(n^-1 x n); N is a group,
            # so column i runs over the whole orbit of chi_i
            perm = self._homs.restrict(ci, np.arange(len(chars.values)),
                                       group.inv[norm][:, None], chars)
            root = perm.min(axis=0)
            vals = chars.values.tolist()
            start = len(self.reps)
            basis_of_root = np.empty(len(vals), dtype=np.int64)
            for r in sorted(set(root.tolist()), key=vals.__getitem__):
                basis_of_root[r] = len(self.reps)
                self.reps.append(MonomialPair(
                    k_sub, Character(k_sub, fiber, vals[r], verify=False)))
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
        basis; the species search and verification both read it. The
        first call with class ci computes every nonzero block of its row
        in one batch (``gamma_rows``)."""
        row = self._gamma_cache.get(ci)
        if row is None:
            row = self._gamma_cache[ci] = self._gamma_kernel(ci)
        block = row.get(cj)
        if block is None:
            block = row[cj] = np.zeros((self._homs.n_homs[ci],
                                        self._homs.n_homs[cj]),
                                       dtype=np.int64)
        return block

    @cached_property
    def _gamma_kernel(self) -> Callable[[int], dict[int, np.ndarray]]:
        """``gamma_rows`` over the class reps, prepared once per basis."""
        reps = self.class_table.reps
        return gamma_rows(reps, reps, self.fiber)

    @cached_property
    def _ghost_ring(self) -> "GhostRing":
        return GhostRing(self)

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

        The first call computes the double cosets, the intersections M and
        their classes for every pair ci <= cj at once (``_mackey_geometry``).
        The terms are then computed one class row at a time: the first call
        with class ci computes every block (ci, cj) with cj >= ci
        (``_mackey_terms``), and each block is a view of that row.
        The block (cj, ci) is the transpose of (ci, cj) in its first two
        axes. That is Mackey symmetry: KsL -> Ls^-1K is a bijection
        K\\G/L -> L\\G/K, and the term (L n s^-1Ks, psi * phi^(s^-1)) of
        Ls^-1K is the conjugate by s^-1 of the term (K n sLs^-1,
        phi * psi^s) of KsL, so both lie in one orbit and have the same
        basis index. Any representative of a double coset gives a term in
        that orbit, so the sorted lists agree.
        """
        if (ci, cj) not in self._block_cache:
            if ci > cj:
                self._block_cache[ci, cj] = self.product_block(
                    cj, ci).transpose(1, 0, 2)
            else:
                self._mackey_terms(ci)
        return self._block_cache[ci, cj]

    @cached_property
    def _geometry(self) -> _MackeyGeometry:
        """The double cosets KsL of every class pair ci <= cj, with K =
        reps[ci] and L = reps[cj], and for each the class of M = K n sLs^-1
        and a transporter of M to its class rep, from one pass over all
        pairs. Arrays over the double cosets are ragged: coset t carries
        the |L| members of its L, with no padding."""
        group, table, homs = self.group, self.class_table, self._homs
        reps, orders = table.reps, homs.orders
        k, n = len(reps), group.order
        pair, s = double_cosets(group, reps, reps)
        ci, cj = np.divmod(pair, k)
        upper = ci <= cj
        pair, s, ci, cj = pair[upper], s[upper], ci[upper], cj[upper]
        n_cosets = np.bincount(pair, minlength=k * k)
        d = np.arange(s.size) - _starts(n_cosets)[pair]
        # ^sL, ragged: entry e is s l s^-1 for the member l at position
        # at_l[e] of the L of coset seg[e]
        lens = orders[cj]
        seg = np.repeat(np.arange(s.size), lens)
        at_l = np.arange(seg.size) - np.repeat(_starts(lens), lens)
        members = np.concatenate([np.asarray(r.members, dtype=np.int64)
                                  for r in reps])
        conj_l = group.conj[s[seg], members[_starts(orders)[cj][seg] + at_l]]
        # the members of M = K n ^sL
        in_k = homs.pos[ci[seg], conj_l] >= 0
        sizes = np.bincount(seg[in_k], minlength=s.size)
        # |KsL| = |K| |L| / |M|, and the double cosets of each pair
        # partition G; the sums are exact in float64 far beyond any |G|
        covered = np.bincount(pair, weights=orders[ci] * lens // sizes,
                              minlength=k * k).reshape(k, k)
        bad = np.argwhere(np.triu(covered != n))
        if bad.size:
            raise NotAGroup(f"double cosets of classes {bad[0, 0]} and "
                            f"{bad[0, 1]} do not partition the group")
        # sorted members of each M, coset by coset, from one sort; the key
        # is int64 because seg is, whatever the dtype of the table
        m_members = (np.sort(seg[in_k] * n + conj_l[in_k]) % n).tolist()
        cm = np.empty(s.size, dtype=np.int64)
        transporters = np.empty(s.size, dtype=np.int64)
        start = 0
        for t, end in enumerate(np.cumsum(sizes).tolist()):
            cm[t], transporters[t] = table.locate(
                tuple(m_members[start:end]))
            start = end
        # row ci lays its blocks (ci, cj), cj >= ci, side by side
        n_reps = np.asarray([i1 - i0 for i0, i1 in self.class_block],
                            dtype=np.int64)
        n_cosets = n_cosets.reshape(k, k)
        widths = np.triu(n_reps[None, :] * n_cosets)
        return _MackeyGeometry(
            row=_starts(np.bincount(ci, minlength=k + 1)), cj=cj, d=d,
            g_inv=group.inv[transporters],
            gs_inv=group.inv[group.mul[transporters, s]], cm=cm,
            n_cosets=n_cosets, col_start=np.cumsum(widths, axis=1) - widths,
            n_reps=n_reps)

    def _mackey_terms(self, ci: int) -> np.ndarray:
        """The terms of every block (ci, cj) with cj >= ci, side by side,
        each block also kept in ``_block_cache`` as a view: block (ci, cj)
        is the columns from ``col_start[ci, cj]`` on, as an (orbit reps of
        ci, orbit reps of cj, double cosets) array.

        By restriction: for the coset KsL with M = K n sLs^-1 carried to
        its class rep, each orbit rep phi of K restricts to a character rho
        of M and each orbit rep psi of L to sigma = psi^s on M, one
        ``_HomLayout.restrict`` per class of M; the term of (phi, psi) is
        the orbit of rho * sigma, one lookup in ``CharIndex.table``."""
        homs, geo = self._homs, self._geometry
        t0, t1 = int(geo.row[ci]), int(geo.row[ci + 1])
        i0, i1 = self.class_block[ci]
        hom = np.asarray(self.rep_hom_index, dtype=np.int64)
        n_reps, rep0 = geo.n_reps, _starts(geo.n_reps)
        n_cosets, col_start = geo.n_cosets[ci], geo.col_start[ci]
        terms = np.empty((i1 - i0, int(n_cosets[ci:] @ n_reps[ci:])),
                         dtype=np.int64)
        # the cosets of the row, grouped by the class of M
        cm = geo.cm[t0:t1]
        by_cm = np.argsort(cm, kind="stable")
        classes, first = np.unique(cm[by_cm], return_index=True)
        for c, at in zip(classes.tolist(), np.split(t0 + by_cm, first[1:])):
            m_chars = homs.chars[c]
            # M is g^-1 M' g for its class rep M', so phi(g^-1 x g) on M'
            rho = homs.restrict(ci, hom[i0:i1, None], geo.g_inv[at], m_chars)
            # one entry per (coset, b): b runs over the orbit reps of the
            # coset's class cj, and psi^s(g^-1 x g) = psi(s^-1 g^-1 x g s)
            lj = geo.cj[at]
            nb = n_reps[lj]
            u = np.repeat(np.arange(at.size), nb)
            b = np.arange(u.size) - np.repeat(_starts(nb), nb)
            lu = lj[u]
            sigma = homs.restrict(lu, hom[rep0[lu] + b], geo.gs_inv[at][u],
                                  m_chars)
            cols = col_start[lu] + b * n_cosets[lu] + geo.d[at][u]
            terms[:, cols] = self._char_to_basis[c][
                m_chars.table[rho[:, u], sigma]]
        # sort each block's last axis at once: the columns of one (cj, b)
        # get one key offset, above every basis index
        nb = n_reps[ci:]
        group_id = np.repeat(np.arange(int(nb.sum())),
                             np.repeat(n_cosets[ci:], nb))
        offset = group_id * self.size
        terms = np.sort(terms + offset, axis=1) - offset
        for cj, c0, nr, nc in zip(range(ci, len(n_reps)), *(
                v[ci:].tolist() for v in (col_start, n_reps, n_cosets))):
            self._block_cache[ci, cj] = terms[:, c0:c0 + nr * nc].reshape(
                -1, nr, nc)
        return terms

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
    computed, one class row at a time, and no block outlives its row; the
    other blocks stay zero.
    """
    # One small-int array: the CLI streams the report row by row, so this
    # table sets the peak memory of `gamma`, 3.4 MB for (C2)^4 over C2 x C2
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= basis.group.order)
    table = np.zeros((basis.size, basis.size), dtype=dtype)
    hom_index = np.asarray(basis.rep_hom_index, dtype=np.int64)
    kernel = basis._gamma_kernel
    for ci, (i0, i1) in enumerate(basis.class_block):
        for cj, block in kernel(ci).items():
            j0, j1 = basis.class_block[cj]
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
        self.mul_tables = [c.table for c in basis._homs.chars]
        self.sizes = basis._homs.n_homs.tolist()   # |Hom(K, A)| per class

    def zero(self) -> "GhostElement":
        return GhostElement(self, [[0] * n for n in self.sizes])

    def identity(self) -> "GhostElement":
        # the trivial character of each class is its index 0
        return GhostElement(self, [[1] + [0] * (n - 1) for n in self.sizes])


class GhostElement:
    """Per subgroup class, an integer vector over Hom(K, A)."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: GhostRing, comps: Sequence[Sequence[int]]):
        comps = [[int(c) for c in comp] for comp in comps]
        if [len(comp) for comp in comps] != ring.sizes:
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
    "GhostElement", "monomial_basis", "gamma_block", "gamma_rows",
    "gamma_table",
    "multiply", "mark_morphism", "ghost_multiply", "ghost_ring",
]
