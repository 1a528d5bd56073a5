"""The orbit basis of the fibered Burnside ring, its gamma coefficients
and its structure constants.

A basis element is the orbit of a monomial pair (K, phi), held as indices:
the class of K in the class table and the index of phi in the
``CharIndex`` of that class's rep. The basis is ordered by subgroup class
(class-table order), then by the character value vector of each orbit
representative. All coefficients are exact integers: Python ints, or numpy
arrays whose dtype holds every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .abelian_fiber import AbelianFiber, char_index
from .errors import NotAGroup
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable,
                         _conjugate, _fixed_by, _index_dtype, _sorted_unique,
                         _starts, abelianization,
                         conjugacy_classes_of_subgroups,
                         double_cosets, enumerate_subgroups, left_coset_reps,
                         normalizer)


class _HomLayout:
    """Hom(S, A) for every S in a list of subgroups of one group, ravelled
    into one array: the |S| values of the r-th character of the c-th S
    start at ``start[c] + r * orders[c]``, and ``pos[c]`` is each group
    element's position in that S, or -1 outside it.

    A character of the c-th S is found by its ``CharIndex`` position, the
    sum of ``rank[c, k, v] * stride[c, k]`` over its values v on the
    points ``gens[c, k]``: the ``CharIndex.gens`` of S, then, for a
    nonabelian S, which those need not generate (S3, A4 and S4 do not),
    the generators of S, so that a restriction sees whether all of S lies
    where it is read. Those and the padding, the identity, have rank 0 at
    every value and stride 0."""

    def __init__(self, subs: Sequence[Subgroup], fiber: AbelianFiber):
        self.subs = subs
        self.group = subs[0].group
        self.chars = [char_index(sub, fiber) for sub in subs]
        self.n_homs = np.asarray([len(c.values) for c in self.chars],
                                 dtype=np.int64)
        self.orders = np.asarray([sub.order for sub in subs], dtype=np.int64)
        self.vals = np.concatenate([c.values.ravel() for c in self.chars])
        self.start = _starts(self.n_homs * self.orders)
        self.pos = np.stack([c.pos for c in self.chars])
        points = [c.gens if abelianization(sub).span.size == sub.order
                  else np.append(c.gens, sub.generators())
                  for c, sub in zip(self.chars, subs)]
        self.width = np.asarray([p.size for p in points], dtype=np.int64)
        self.gens = np.zeros((len(subs), self.width.max()), dtype=np.int64)
        self.rank = np.zeros(self.gens.shape + (fiber.order,), dtype=np.int64)
        self.stride = np.zeros(self.gens.shape, dtype=np.int64)
        for i, (chars, p) in enumerate(zip(self.chars, points)):
            self.gens[i, :p.size] = p
            hom = chars.hom_type
            self.rank[i, :len(hom.rank)] = hom.rank
            self.stride[i, :hom.stride.size] = hom.stride
        self.table_start = _starts(self.n_homs ** 2)

    def restrict(self, c, r, t, target) -> np.ndarray:
        """The restriction map: the hom index in the target-th S, call it T,
        with tTt^-1 in the c-th S, of x -> chi(t x t^-1) on T, for chi the
        r-th character of the c-th S. One gather of chi at the points
        t x t^-1, x among the ``gens`` of T, up to the most any target has;
        a point outside the c-th S, or a value outside its torsion, raises.
        The arrays c, r, t and target broadcast, and the result has their
        shape."""
        target = np.asarray(target)
        width = int(self.width[target].max(initial=1))
        c, r, t = (np.asarray(v)[..., None] for v in (c, r, t))
        x = _conjugate(self.group, t, self.gens[:, :width][target])
        at = self.pos[c, x]
        vals = self.vals[self.start[c] + r * self.orders[c] + at]
        rank = self.rank[target[..., None], np.arange(width), vals]
        if (at < 0).any() or (rank < 0).any():
            raise ValueError("a restriction matches no character of its "
                             "target")
        return (rank * self.stride[:, :width][target]).sum(axis=-1)

    @cached_property
    def table(self) -> np.ndarray:
        """The product tables of every Hom(S, A) end to end: the hom index
        of the product of the i-th and j-th characters of the c-th S is at
        ``table_start[c] + i * n_homs[c] + j``, in the smallest integer
        dtype that holds every index. Made on first use, by the first row
        of products; the gamma kernel never reads it."""
        return np.concatenate([c.hom_type.table.ravel() for c in self.chars],
                              dtype=_gamma_dtype(int(self.n_homs.max())))


def gamma_rows(homs: _HomLayout) -> Callable[[int], np.ndarray]:
    """The gamma coefficients of K = subs[a] against every L in ``subs``,
    the subgroups of the layout ``homs``, as a function of a: one row per
    character of K, in ``CharIndex`` order, and the characters of every L
    side by side, in the order of ``subs`` and in ``CharIndex`` order
    within each, in ``_gamma_dtype(|G|)``. Entry [phi, psi] counts the
    cosets sL with K <= sLs^-1 on which the conjugate of psi restricts to
    phi. The columns of an L of which K fixes no coset are zero.

    The fixed cosets of every pair come first, from one gather per L
    (``_fixed_by``), sorted by K, so only they are looked at: row a takes
    the entries of K = subs[a], its (L, s, psi), s a fixed coset rep of L
    and psi in Hom(L, A), restricts them in one ``_HomLayout.restrict``
    and counts them into a new array, on every read. All subgroups must
    live over the same group.
    """
    group, subs = homs.group, homs.subs
    if any(sub.group is not group for sub in subs):
        raise ValueError("subgroups live over different groups")
    # every fixed coset, as (K index, L index, coset rep), sorted by K
    fixed_k, fixed_l, fixed_s = [], [], []
    for b, (l_sub, fixed) in enumerate(zip(subs,
                                           _fixed_by(group, subs, subs))):
        c, a = np.nonzero(fixed)
        fixed_k.append(a)
        fixed_l.append(np.full(a.size, b, dtype=np.int64))
        fixed_s.append(left_coset_reps(group, l_sub)[c])
    fixed_k = np.concatenate(fixed_k)
    by_k = np.argsort(fixed_k, kind="stable")
    row = _starts(np.bincount(fixed_k, minlength=len(subs) + 1))
    fixed_l = np.concatenate(fixed_l)[by_k]
    fixed_sinv = group.inv[np.concatenate(fixed_s)[by_k]]
    col = _starts(homs.n_homs)
    width = int(homs.n_homs.sum())
    dtype = _gamma_dtype(group.order)

    def row_of(a: int) -> np.ndarray:
        # one entry per (coset, psi): (^s psi)(k) = psi(s^-1 k s) on K
        e = slice(row[a], row[a + 1])
        ls, sinv = fixed_l[e], fixed_sinv[e]
        nl = homs.n_homs[ls]
        u = np.repeat(np.arange(ls.size), nl)
        psi = np.arange(u.size) - np.repeat(_starts(nl), nl)
        lu = ls[u]
        hit = homs.restrict(lu, psi, sinv[u], a)
        out = np.zeros((homs.n_homs[a], width), dtype=dtype)
        # a count of the output's dtype keeps ufunc.at on its fast path
        np.add.at(out.reshape(-1), hit * width + col[lu] + psi,
                  out.dtype.type(1))
        return out
    return row_of


def _sort_runs(terms: np.ndarray, lens: np.ndarray, bound: int):
    """``terms``, entries below ``bound``, with each run of columns (of the
    lengths ``lens``) sorted in each row, by one sort of offset keys."""
    offset = np.repeat(np.arange(lens.size) * bound, lens)
    return np.sort(terms + offset, axis=1) - offset


def _locate(table: SubgroupClassTable, members: np.ndarray,
            sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class index in ``table`` and the transporter to the class rep of
    each subgroup whose sorted members lie end to end in ``members``,
    ``sizes[t]`` of them for the t-th: per order m, one sorted search of
    their int64 bytes among those of every subgroup of order m."""
    by_order: dict[int, list[Subgroup]] = {}
    for sub in enumerate_subgroups(table.group):
        by_order.setdefault(sub.order, []).append(sub)
    found = np.empty((sizes.size, 2), dtype=np.int64)
    start = _starts(sizes)
    for m in set(sizes.tolist()):
        subs = by_order.get(m)
        if not subs:
            raise KeyError(f"no subgroup of order {m}")
        keys = np.asarray([s.members for s in subs], dtype=np.int64).view(
            f"V{8 * m}").ravel()
        at = np.flatnonzero(sizes == m)
        want = members[start[at, None] + np.arange(m)].astype(
            np.int64, copy=False).view(f"V{8 * m}").ravel()
        by = np.argsort(keys)
        hit = np.searchsorted(keys, want, sorter=by)
        i = by[hit.clip(max=by.size - 1)]
        if (keys[i] != want).any():
            raise KeyError("members of no subgroup")
        found[at] = np.asarray([[table.class_of(s) for s in subs],
                                [table.transporter_to_rep(s) for s in subs]],
                               dtype=np.int64).T[i]
    return found[:, 0], found[:, 1]


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
    rep0: np.ndarray           # per class: its first basis index
    rep_class: np.ndarray      # per basis index: its class
    hom: np.ndarray            # per basis index: its hom index
    orbit: np.ndarray          # per (class, hom index), at hom_start: the
                               # basis index of the character's orbit
    width: np.ndarray          # per class: the number of columns of its row
    offset: np.ndarray         # (k + 1,): where each row starts in terms
    terms: np.ndarray          # the class rows, end to end, once computed,
                               # in the index dtype of the basis size
    done: np.ndarray           # per class: whether its row is computed


class MonomialBasis:
    """Orbit representatives of monomial pairs, with canonical lookup."""

    def __init__(self, group: FiniteGroup, fiber: AbelianFiber,
                 class_table: Optional[SubgroupClassTable] = None):
        if class_table is None:
            class_table = conjugacy_classes_of_subgroups(group)
        self.group = group
        self.fiber = fiber
        self.class_table = class_table
        # the basis keeps indices only
        self.rep_class: list[int] = []          # basis index -> class index
        self.rep_hom_index: list[int] = []      # basis index -> hom index
        self.class_block: list[tuple[int, int]] = []
        # per class: hom index -> basis index of its orbit representative
        self.char_to_basis: list[np.ndarray] = []
        # the gamma rows computed so far
        self._gamma: dict[int, np.ndarray] = {}
        # Hom(K, A) of every class rep K, which the gamma kernel reads too
        self._homs = _HomLayout(class_table.reps, fiber)
        for ci, chars in enumerate(self._homs.chars):
            # the hom index of x -> chi_i(n^-1 x n), row n over N = N_G(K)
            # and column i; N is a group, so column i runs over the whole
            # orbit of chi_i, and its least entry names the orbit
            norm = np.asarray(normalizer(group, class_table.reps[ci]).members,
                              dtype=np.int64)
            root = self._homs.restrict(ci, np.arange(len(chars.values)),
                                       group.inv[norm][:, None],
                                       ci).min(axis=0)
            # the orbit reps, in lexicographic order of their values: the
            # values are fiber indices, so not negative, and each row is
            # one key, its big-endian bytes, as in ``_locate``
            roots = _sorted_unique(root)
            keys = chars.values[roots].astype(">i8")
            roots = roots[np.argsort(keys.view(f"V{keys[0].nbytes}").ravel())]
            start = len(self.rep_class)
            basis_of_root = np.empty(len(chars.values), dtype=np.int64)
            basis_of_root[roots] = start + np.arange(roots.size)
            self.rep_class += [ci] * roots.size
            self.rep_hom_index += roots.tolist()
            self.char_to_basis.append(basis_of_root[root])
            self.class_block.append((start, len(self.rep_class)))
        self.size = len(self.rep_class)
        # the characters of class cj are the columns hom_start[cj] to
        # hom_start[cj + 1] of every gamma row, in ``CharIndex`` order
        self.hom_start = _starts(np.append(self._homs.n_homs, 0))

    # -- gamma coefficients and structure constants

    def gamma_block(self, ci: int, cj: int) -> np.ndarray:
        """The gamma coefficients of the characters of class rep ci against
        those of class rep cj (``gamma_rows``), as a view of the columns of
        class cj in ``gamma_row(ci)``."""
        return self.gamma_row(ci)[:, self.hom_start[cj]:self.hom_start[cj + 1]]

    def gamma_row(self, ci: int) -> np.ndarray:
        """The gamma coefficients of every character of class ci (one row
        each, in ``CharIndex`` order) against every character of every
        class (``hom_start``), in ``_gamma_dtype``: kernel row ci, made on
        first use and kept; the species search and verification both read
        it."""
        row = self._gamma.get(ci)
        if row is None:
            row = self._gamma[ci] = self._gamma_kernel(ci)
        return row

    @cached_property
    def _gamma_kernel(self) -> Callable[[int], np.ndarray]:
        """``gamma_rows`` over the class reps, prepared once per basis."""
        return gamma_rows(self._homs)

    def product(self, i: int, j: int) -> list[tuple[int, int]]:
        """Structure constants of basis elements i times j as (index, coeff)
        pairs."""
        start, n = self.runs(i, j)
        idx, counts = np.unique(self.terms[start:start + n],
                                return_counts=True)
        return list(zip(idx.tolist(), counts.tolist()))

    def runs(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Where the product of basis elements i and j lies in ``terms``, for
        arrays of basis indices i and j that broadcast: the start of its
        run and the run's length, one term per double coset K\\G/L, sorted.
        For each coset KsL the term is the basis index of the orbit of
        (M, phi * psi^s) with M = K n sLs^-1. The class rows that the runs
        lie in are computed first (``_mackey_terms``), once each.

        A pair is read at (min(i, j), max(i, j)), which lies in the row of
        the lower class, as basis indices ascend with the class. The runs
        of (i, j) and (j, i) agree by Mackey symmetry: KsL -> Ls^-1K is a
        bijection K\\G/L -> L\\G/K, and the term (L n s^-1Ks, psi *
        phi^(s^-1)) of Ls^-1K is the conjugate by s^-1 of the term (K n
        sLs^-1, phi * psi^s) of KsL, so both lie in one orbit and have the
        same basis index. Any representative of a double coset gives a term
        in that orbit, so the sorted runs agree.
        """
        geo = self._geometry
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        ci, cj = geo.rep_class[lo], geo.rep_class[hi]
        for c in _sorted_unique(ci[~geo.done[ci]]).tolist():
            self._mackey_terms(c)
        n = geo.n_cosets[ci, cj]
        return (geo.offset[ci] + (lo - geo.rep0[ci]) * geo.width[ci]
                + geo.col_start[ci, cj] + (hi - geo.rep0[cj]) * n), n

    @property
    def terms(self) -> np.ndarray:
        """The class rows of the product table end to end, where ``runs``
        points; a row holds its terms once it has been computed."""
        return self._geometry.terms

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
        # ^sL, ragged: entry e is s l s^-1 for a member l of the L of coset
        # seg[e], and at[e] is the position of l in ``members``, where the
        # members of every rep lie end to end; the ragged arrays are int32
        # or intp, or in the table's dtype, and each goes at its last use
        lens = orders[cj]
        seg = np.repeat(np.arange(s.size, dtype=np.int32), lens)
        at = np.repeat(_starts(orders)[cj] - _starts(lens), lens)
        at += np.arange(at.size)
        members = np.concatenate([np.asarray(r.members, dtype=group.mul.dtype)
                                  for r in reps])
        mem = members[at]
        del at
        # s l s^-1 by the gathers of ``_conjugate``, each operand dropped as
        # soon as it is read
        g = s.astype(group.mul.dtype)[seg]
        gl = group.mul[g, mem]
        del mem
        g = group.inv[g]
        conj_l = group.mul[gl, g]
        del gl, g
        # the members of M = K n ^sL
        in_k = homs.pos[ci.astype(np.int32)[seg], conj_l] >= 0
        seg, conj_l = seg[in_k], conj_l[in_k]
        del in_k
        sizes = np.bincount(seg, minlength=s.size)
        # |KsL| = |K| |L| / |M|, and the double cosets of each pair
        # partition G; the sums are exact in float64 far beyond any |G|
        covered = np.bincount(pair, weights=orders[ci] * lens // sizes,
                              minlength=k * k).reshape(k, k)
        bad = np.argwhere(np.triu(covered != n))
        if bad.size:
            raise NotAGroup(f"double cosets of classes {bad[0, 0]} and "
                            f"{bad[0, 1]} do not partition the group")
        # sorted members of each M, coset by coset, from one sort of int64
        # keys, whatever the dtype of seg and of the table, all located in
        # the class table at once
        key = seg.astype(np.int64) * n
        del seg
        key += conj_l
        del conj_l
        key.sort()
        key %= n
        cm, transporters = _locate(table, key, sizes)
        del key
        # row ci lays its blocks (ci, cj), cj >= ci, side by side
        n_reps = np.asarray([i1 - i0 for i0, i1 in self.class_block],
                            dtype=np.int64)
        n_cosets = n_cosets.reshape(k, k)
        widths = np.triu(n_reps[None, :] * n_cosets)
        width = widths.sum(axis=1)
        offset = _starts(np.append(n_reps * width, 0))
        return _MackeyGeometry(
            row=_starts(np.bincount(ci, minlength=k + 1)), cj=cj, d=d,
            g_inv=group.inv[transporters],
            gs_inv=group.inv[group.mul[transporters, s]], cm=cm,
            n_cosets=n_cosets, col_start=np.cumsum(widths, axis=1) - widths,
            n_reps=n_reps, rep0=_starts(n_reps),
            rep_class=np.asarray(self.rep_class, dtype=np.int64),
            hom=np.asarray(self.rep_hom_index, dtype=np.int64),
            orbit=np.concatenate(self.char_to_basis),
            width=width, offset=offset,
            terms=np.empty(int(offset[-1]), dtype=_index_dtype(self.size)),
            done=np.zeros(k, dtype=bool))

    def _mackey_terms(self, ci: int) -> np.ndarray:
        """Class row ci of the product table, written to its place in
        ``terms`` and returned as a view of it.

        By restriction: for the coset KsL with M = K n sLs^-1 carried to
        its class rep, each orbit rep phi of K restricts to a character rho
        of M and each orbit rep psi of L to sigma = psi^s on M, all of them
        in one ``_HomLayout.restrict`` whatever the class of each M; the
        term of (phi, psi) is the orbit of rho * sigma, one gather through
        the layout's product tables (``_HomLayout.table``)."""
        homs, geo = self._homs, self._geometry
        t0, t1 = int(geo.row[ci]), int(geo.row[ci + 1])
        i0, i1 = self.class_block[ci]
        n_reps, rep0 = geo.n_reps, geo.rep0
        n_cosets, col_start = geo.n_cosets[ci], geo.col_start[ci]
        terms = geo.terms[geo.offset[ci]:geo.offset[ci + 1]].reshape(
            i1 - i0, -1)
        # one entry per (coset, b), b over the orbit reps of its class cj
        lj = geo.cj[t0:t1]
        nb = n_reps[lj]
        u = np.repeat(np.arange(t1 - t0), nb)
        b = np.arange(u.size) - np.repeat(_starts(nb), nb)
        lu = lj[u]
        # one restriction to each M' = g M g^-1: rho = phi(g^-1 x g) per
        # (phi, coset), then sigma = psi(s^-1 g^-1 x g s) per (coset, b)
        phi, q = np.divmod(np.arange((i1 - i0) * (t1 - t0)), t1 - t0)
        cm = geo.cm[t0:t1]
        both = homs.restrict(
            np.concatenate([np.full(q.size, ci), lu]),
            geo.hom[np.concatenate([i0 + phi, rep0[lu] + b])],
            np.concatenate([geo.g_inv[t0 + q], geo.gs_inv[t0 + u]]),
            np.concatenate([cm[q], cm[u]]))
        # rho * sigma in the product table of M: row rho, column sigma
        rho = (both[:q.size] * homs.n_homs[cm[q]]).reshape(i1 - i0, -1)
        mu = cm[u]
        at = rho[:, u] + (homs.table_start[mu] + both[q.size:])
        cols = col_start[lu] + b * n_cosets[lu] + geo.d[t0:t1][u]
        terms[:, cols] = geo.orbit[homs.table[at] + self.hom_start[mu]]
        # sort the run of each product (i, j), j over classes cj >= ci
        terms[:] = _sort_runs(terms, np.repeat(n_cosets[ci:], n_reps[ci:]),
                              self.size)
        geo.done[ci] = True
        return terms

    def class_pairs(self) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        """The orbit reps, one class at a time as each is read: the members
        of the class rep, and the values of the characters of its orbit reps
        as fiber element indices, one row each, in basis order."""
        for ci, (i0, i1) in enumerate(self.class_block):
            yield (self.class_table.reps[ci].members,
                   self._homs.chars[ci].values[self.rep_hom_index[i0:i1]])


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


def gamma_class_rows(basis: MonomialBasis) -> Iterator[np.ndarray]:
    """The gamma table of the basis, every basis pair against every basis
    pair, one class at a time: for each class ci in order, the rows of its
    orbit reps as one (reps of ci, basis size) array in ``_gamma_dtype``,
    selected from class row ci of the gamma kernel only when it is reached:
    its rows, then its columns, at the characters of the orbit reps. The
    basis keeps none of these rows."""
    hom = np.asarray(basis.rep_hom_index, dtype=np.int64)
    cols = basis.hom_start[basis.rep_class] + hom
    for ci, (i0, i1) in enumerate(basis.class_block):
        yield basis._gamma_kernel(ci).take(hom[i0:i1], 0).take(cols, 1)


def _gamma_dtype(order: int) -> type:
    """The smallest signed integer type whose max is at least ``order``: a
    gamma coefficient counts cosets of some L, at most |G : L| <= |G|."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= order)


__all__ = [
    "MonomialBasis", "monomial_basis", "gamma_rows", "gamma_class_rows",
]
