"""Verification and search of species isomorphisms between fibered
Burnside rings, via matching of gamma tables over class transversals.

A witness consists of a bijection of subgroup-class transversals together
with, per class, a bijection of the character groups Hom(K, A). The search
restricts the character bijections to group isomorphisms (the constructive
sufficient criterion); see ``EXHAUSTION_CAVEAT`` for what a failed search
does and does not rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .abelian_fiber import AbelianFiber, CharIndex, char_index
from .errors import (FiberHasPTorsion, InvalidSpec, NotABijection,
                     NotAGroupIso, SearchBudgetExceeded)
from .group_core import SubgroupClassTable, _orders, _starts
from .monomial import _sort_runs, monomial_basis
from .thevenaz import ThevenazGroup, canonical_class_table

EXHAUSTION_CAVEAT = (
    "A failed search only rules out witnesses whose character maps are all "
    "group isomorphisms of the character groups. Whether every species "
    "isomorphism must be of this form is an open question, so exhaustion "
    "does not certify that no species isomorphism exists."
)


@dataclass
class SpeciesWitness:
    """Candidate data for a species isomorphism.

    ``subgroup_map[i]`` is the index into ``h_table.reps`` of the image of
    ``g_table.reps[i]``; ``char_maps[i][a]`` is the index in the image
    class's hom set of the image of the a-th character of class i. The maps
    only mean something against these two transversals.
    """

    g_table: SubgroupClassTable
    h_table: SubgroupClassTable
    subgroup_map: list[int]
    char_maps: list[list[int]]

    def to_json(self) -> dict:
        return {"subgroup_map": list(self.subgroup_map),
                "char_maps": [list(m) for m in self.char_maps]}

    @classmethod
    def from_json(cls, data: dict, g_table: SubgroupClassTable,
                  h_table: SubgroupClassTable) -> "SpeciesWitness":
        """Parse witness JSON against two class tables; raises
        NotABijection unless both maps are integer lists with one entry per
        class of ``g_table``. Index ranges are checked by
        ``verify_species``."""
        if not isinstance(data, dict):
            raise NotABijection("witness JSON must be an object")
        smap, cmaps = data.get("subgroup_map"), data.get("char_maps")
        if not (_is_index_list(smap) and isinstance(cmaps, list)
                and all(_is_index_list(row) for row in cmaps)):
            raise NotABijection("witness needs integer lists 'subgroup_map' "
                                "and 'char_maps'")
        if not len(smap) == len(cmaps) == len(g_table.reps):
            raise NotABijection(f"witness maps need one entry per class, "
                                f"{len(g_table.reps)} here")
        return cls(g_table, h_table, smap, cmaps)


def _is_index_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value)


@dataclass
class SpeciesVerdict:
    valid: bool
    counterexample: Optional[dict] = None
    basis_bijection: Optional[list[tuple[int, int]]] = None

    def to_json(self) -> dict:
        out: dict = {"valid": self.valid}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.basis_bijection is not None:
            out["basis_bijection"] = [list(p) for p in self.basis_bijection]
        return out


# ---------------------------------------------------------------------------
# Character group structure


def char_group_isomorphisms(chars1: CharIndex, chars2: CharIndex, *,
                            accept: Optional[Callable[[np.ndarray, np.ndarray],
                                                      bool]] = None
                            ) -> Iterator[list[int]]:
    """All group isomorphisms Hom(K, A) -> Hom(K', A), given as their
    ``CharIndex``, as index maps.

    Deterministic order: the generators of Hom(K, A) are those of its
    ``CharIndex.decomposition``, and candidates for each generator image
    ascend by hom-set index; Hom(K', A) is compared by its
    ``hom_factors`` and never decomposed. Images are chosen one generator
    at a time, and a candidate whose cyclic span meets the span of the
    earlier images is skipped, since no choice of later images makes such
    a map injective.

    ``accept(dom, img)``, if given, sees every prefix: the hom-set indices
    ``dom`` of the characters spanned by the generators chosen so far and
    their images ``img``, in the same order. It is called first with the
    trivial characters alone and then after each generator image; a prefix
    it rejects is not extended.
    """
    n = len(chars1.values)
    if n != len(chars2.values):
        return
    if chars1.hom_factors != chars2.hom_factors:
        return
    dec1 = chars1.decomposition
    table2 = chars2.table
    orders2 = _orders(table2)
    # powers[k] holds c^0 .. c^(d-1) for each candidate image c of the
    # k-th generator, of order d, by ascending index of c
    powers: list[np.ndarray] = []
    for d in dec1.factors:
        cands = np.flatnonzero(orders2 == d)
        cyc = np.zeros((cands.size, d), dtype=np.int64)
        for j in range(1, d):
            cyc[:, j] = table2[cyc[:, j - 1], cands]
        powers.append(cyc)
    # span[x] is the image of the element whose coordinates on the first
    # k generators have mixed-radix index x; ``flat`` is that index of
    # every element of Hom(K, A), and spanned[k][x] is the element itself,
    # whose later coordinates are 0
    flat = np.empty(n, dtype=np.int64)
    flat[dec1.span] = np.arange(n)
    tails = np.cumprod((1,) + dec1.factors[::-1])[::-1]
    spanned = [dec1.span[::t] for t in tails]
    accept = accept or (lambda dom, img: True)

    def extend(k: int, span: np.ndarray,
               in_span: np.ndarray) -> Iterator[list[int]]:
        if k == len(dec1.factors):
            yield span[flat].tolist()
            return
        for cyc in powers[k]:
            if in_span[cyc[1:]].any():
                continue
            wider = table2[span[:, None], cyc[None, :]].ravel()
            if not accept(spanned[k + 1], wider):
                continue
            in_wider = np.zeros(n, dtype=bool)
            in_wider[wider] = True
            yield from extend(k + 1, wider, in_wider)

    start = np.zeros(1, dtype=np.int64)
    try:
        if accept(spanned[0], start):
            in_start = np.zeros(n, dtype=bool)
            in_start[0] = True
            yield from extend(0, start, in_start)
    finally:
        # extend holds itself through its closure; unbinding it frees
        # accept, and the arrays accept holds, once the maps are done with
        del extend


# ---------------------------------------------------------------------------
# Verification


def verify_species(witness: SpeciesWitness,
                   fiber: AbelianFiber) -> SpeciesVerdict:
    """Check the gamma-matching condition of a witness on every pair of
    characters of every pair of classes; on success, re-verify that the
    induced basis bijection transports every structure constant of the
    double-coset product (an independent end-to-end oracle). Both checks
    run one class row at a time."""
    g_table, h_table = witness.g_table, witness.h_table
    k = len(g_table.reps)
    if len(h_table.reps) != k or len(witness.subgroup_map) != k:
        raise NotABijection("subgroup map must cover all classes")
    if sorted(witness.subgroup_map) != list(range(k)):
        raise NotABijection("subgroup map is not a bijection of classes")
    basis_g = monomial_basis(g_table.group, fiber, g_table)
    basis_h = monomial_basis(h_table.group, fiber, h_table)
    for ci in range(k):
        cmap = witness.char_maps[ci]
        chars_g = char_index(g_table.reps[ci], fiber)
        chars_h = char_index(h_table.reps[witness.subgroup_map[ci]], fiber)
        if (len(cmap) != len(chars_g.values)
                or sorted(cmap) != list(range(len(chars_h.values)))):
            raise NotABijection(f"character map of class {ci} is not a bijection")
        m = np.asarray(cmap, dtype=np.int64)
        if not (m[chars_g.table] == chars_h.table[m[:, None], m]).all():
            raise NotAGroupIso(
                f"character map of class {ci} does not preserve products")
    bad = _gamma_check(basis_g, basis_h, witness)
    if bad is not None:
        return SpeciesVerdict(False, counterexample=bad)
    mismatch, bijection = _structure_constant_check(basis_g, basis_h, witness)
    if mismatch is not None:
        return SpeciesVerdict(False, counterexample=mismatch)
    return SpeciesVerdict(True, basis_bijection=bijection)


def _gamma_check(basis_g, basis_h, witness) -> Optional[dict]:
    """The first (ci, cj, a, b), in that order, where gamma of the a-th
    character of class ci against the b-th of class cj differs from gamma
    of their images; None if there is none. One comparison per class: G's
    gamma row ci (``gamma_row``) against H's row of its image, with rows
    taken by the character map of ci and columns by one permutation,
    (cj, b) -> (subgroup_map[cj], char_maps[cj][b])."""
    start_g, start_h = basis_g.hom_start, basis_h.hom_start
    maps = list(zip(witness.subgroup_map, witness.char_maps))
    columns = np.concatenate([start_h[t] + np.asarray(m, dtype=np.int64)
                              for t, m in maps])
    for ci, (ti, cmap) in enumerate(maps):
        gg = basis_g.gamma_row(ci)
        gh = basis_h.gamma_row(ti)[cmap].take(columns, axis=1)
        differ = gg != gh
        at = np.flatnonzero(differ.any(axis=0))
        if at.size:
            # the first differing class cj, then (a, b) in its block
            cj = int(np.searchsorted(start_g, at[0], side="right")) - 1
            a, b = (int(v) for v in np.argwhere(
                differ[:, start_g[cj]:start_g[cj + 1]])[0])
            j = start_g[cj] + b
            return {"classes": [ci, cj], "char_indices": [a, b],
                    "gamma_g": int(gg[a, j]), "gamma_h": int(gh[a, j])}
    return None


def _structure_constant_check(basis_g, basis_h, witness):
    """Transport every structure constant of ``basis_g`` through the basis
    bijection the witness induces and compare it with ``basis_h``; reports
    the first differing basis pair (i, j) in row-major order. One pass per
    class ci of ``basis_g``: the runs of its pairs (i, j), j from class ci
    on, and the runs of their images on ``basis_h`` come from the run
    locator (``MonomialBasis.runs``); G's terms are mapped through the
    bijection and each run sorted again, in one sort, and one gather reads
    H's runs. Runs of unequal length differ, whatever is read for them
    (H's buffer from its start). The pairs left out of a row are the
    mirrors of pairs of earlier rows, and (i, j) differs exactly when
    (j, i) does, so the first differing pair in row-major order lies in
    the first row with a difference."""
    if basis_g.size != basis_h.size:
        return {"reason": "basis sizes differ",
                "sizes": [basis_g.size, basis_h.size]}, None
    hom_g = np.asarray(basis_g.rep_hom_index, dtype=np.int64)
    image = np.concatenate([basis_h.char_to_basis[t][np.asarray(
        m, dtype=np.int64)[hom_g[i0:i1]]] for t, m, (i0, i1) in zip(
            witness.subgroup_map, witness.char_maps, basis_g.class_block)])
    if not np.array_equal(np.sort(image), np.arange(basis_g.size)):
        return {"reason": "induced basis map is not a bijection"}, None
    for i0, i1 in basis_g.class_block:
        i, j = np.arange(i0, i1)[:, None], np.arange(i0, basis_g.size)
        start, lens = basis_g.runs(i, j)
        start_h, lens_h = basis_h.runs(image[i], image[j])
        same = lens == lens_h
        # the run of each pair, laid out along the row; every row of the
        # class has the same lengths
        run = _starts(np.append(lens[0], 0))
        d = np.arange(run[-1]) - np.repeat(run[:-1], lens[0])
        transported = _sort_runs(
            image[basis_g.terms[np.repeat(start, lens[0], axis=1) + d]],
            lens[0], basis_g.size)
        target = basis_h.terms[np.repeat(start_h * same, lens[0], axis=1) + d]
        differ = np.logical_or.reduceat(transported != target, run[:-1],
                                        axis=1) | ~same
        if differ.any():
            a, s = (int(v) for v in np.argwhere(differ)[0])
            i, j, mapping = i0 + a, i0 + s, image.tolist()
            return {
                "reason": "structure constants differ",
                "basis_pair": [i, j],
                "transported": sorted((mapping[t], c)
                                      for t, c in basis_g.product(i, j)),
                "target": basis_h.product(mapping[i], mapping[j]),
            }, None
    return None, list(enumerate(image.tolist()))


# ---------------------------------------------------------------------------
# Search


def _class_invariants(table: SubgroupClassTable,
                      fiber: AbelianFiber) -> list[tuple]:
    """Per class: its order, class size and hom-set size, then the
    multiset over every class cj of (order, class size, mark on cj, mark
    of cj), as that class's row of one (k, k, 4) profile array with its
    4-tuples sorted."""
    k = len(table.reps)
    orders = np.asarray([rep.order for rep in table.reps], dtype=np.int64)
    sizes = np.asarray(table.class_sizes, dtype=np.int64)
    marks = np.asarray(table.marks, dtype=np.int64).reshape(k, k)
    profile = np.stack(np.broadcast_arrays(
        orders[None, :], sizes[None, :], marks, marks.T), axis=-1
    ).reshape(k * k, 4)
    # lexsort takes its primary key last: the row, then the 4-tuple
    by_row = np.lexsort((*profile.T[::-1], np.repeat(np.arange(k), k)))
    homs = [len(char_index(rep, fiber).values) for rep in table.reps]
    head = np.stack([orders, sizes, np.asarray(homs, dtype=np.int64)],
                    axis=1)
    return list(map(tuple, np.concatenate(
        [head, profile[by_row].reshape(k, 4 * k)], axis=1).tolist()))


def search_species(g_table: SubgroupClassTable,
                   h_table: SubgroupClassTable, fiber: AbelianFiber, *,
                   budget: Optional[int] = None) -> Optional[SpeciesWitness]:
    """Backtracking search for a witness over the transversals of two class
    tables, with group-isomorphism character maps; returns the first
    witness in deterministic order or None.

    Class candidates are pruned by (order, class size, hom-set size,
    mark-profile multiset). Each character map is built one generator
    image at a time, and a prefix whose span already breaks a gamma
    coefficient against the assigned classes is dropped; ``budget`` bounds
    the number of prefixes checked. A None result means exhaustion under
    the group-isomorphism restriction; see ``EXHAUSTION_CAVEAT``. Gamma
    blocks are read from the two orbit bases, which keep them for
    ``verify_species``.
    """
    k = len(g_table.reps)
    if len(h_table.reps) != k:
        return None
    inv_g = _class_invariants(g_table, fiber)
    inv_h = _class_invariants(h_table, fiber)
    if sorted(inv_g) != sorted(inv_h):
        return None
    basis_g = monomial_basis(g_table.group, fiber, g_table)
    basis_h = monomial_basis(h_table.group, fiber, h_table)
    homs_g = [char_index(rep, fiber) for rep in g_table.reps]
    homs_h = [char_index(rep, fiber) for rep in h_table.reps]
    gamma_g, gamma_h = basis_g.gamma_block, basis_h.gamma_block
    by_inv: dict[tuple, list[int]] = {}
    for j, inv in enumerate(inv_h):
        by_inv.setdefault(inv, []).append(j)
    candidates = [by_inv[inv] for inv in inv_g]
    assignment: list[Optional[int]] = [None] * k
    char_assignment: list[Optional[np.ndarray]] = [None] * k
    used = [False] * k
    marks_g, marks_h = g_table.marks, h_table.marks
    rows_g: list[Optional[tuple]] = [None] * k   # (links, kept, rows)
    nodes = 0

    def linked(marks, x: int, others) -> list[bool]:
        """Whether either gamma block of class x with each class in
        ``others`` can be nonzero. A block is zero exactly when its mark,
        the entry of the trivial characters, is 0."""
        return [bool(marks[x][y] or marks[y][x]) for y in others]

    def rows(gamma, homs, x: int, others, maps) -> np.ndarray:
        """The gamma rows of class x against each class in ``others``, and
        its gamma columns, side by side, with the characters of those
        classes permuted by ``maps``: one row per character of x."""
        blocks = [np.zeros((len(homs[x].values), 0), dtype=np.int64)]
        for y, m in zip(others, maps):
            blocks += [gamma(x, y)[:, m], gamma(y, x)[m].T]
        return np.concatenate(blocks, axis=1)

    def prefix_check(ci: int, j: int):
        """``accept`` for class ci sent to class j, every class before ci
        assigned: the characters spanned so far must have the gamma rows
        and columns of their images against the assigned classes, read
        through those classes' character maps, and against each other.
        On the full span this is the whole gamma condition of ci, so a
        rejected prefix has no consistent completion. Blocks that are zero
        on both sides are left out; a class linked to ci on one side only
        breaks the trivial characters' row, so every prefix is rejected."""
        if rows_g[ci] is None:
            links = linked(marks_g, ci, range(ci))
            kept = [c for c in range(ci) if links[c]]
            rows_g[ci] = links, kept, rows(gamma_g, homs_g, ci, kept,
                                           [slice(None)] * len(kept))
        links, kept, p_g = rows_g[ci]
        p_h = None
        if linked(marks_h, j, assignment[:ci]) == links:
            p_h = rows(gamma_h, homs_h, j, [assignment[c] for c in kept],
                       [char_assignment[c] for c in kept])
        diag_g, diag_h = gamma_g(ci, ci), gamma_h(j, j)

        def accept(dom: np.ndarray, img: np.ndarray) -> bool:
            nonlocal nodes
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded(
                    f"species search exceeded {budget} nodes")
            # dom and img have one length, and p_g and p_h one shape
            return (p_h is not None
                    and (p_g[dom] == p_h[img]).all()
                    and (diag_g[dom[:, None], dom]
                         == diag_h[img[:, None], img]).all())
        return accept

    def backtrack(ci: int) -> bool:
        if ci == k:
            return True
        for j in candidates[ci]:
            if used[j]:
                continue
            for cmap in char_group_isomorphisms(
                    homs_g[ci], homs_h[j], accept=prefix_check(ci, j)):
                assignment[ci] = j
                char_assignment[ci] = np.asarray(cmap, dtype=np.int64)
                used[j] = True
                if backtrack(ci + 1):
                    return True
                used[j] = False
                assignment[ci] = None
                char_assignment[ci] = None
        return False

    found = backtrack(0)
    # backtrack holds itself through its closure, and with it the gamma
    # rows of the search; unbinding it frees them now, not at the next
    # run of the cycle collector
    del backtrack
    if not found:
        return None
    return SpeciesWitness(g_table, h_table, [int(v) for v in assignment],
                          [m.tolist() for m in char_assignment])


# ---------------------------------------------------------------------------
# The explicit family witness


def thevenaz_witness(tg1: ThevenazGroup, tg2: ThevenazGroup,
                     fiber: AbelianFiber) -> SpeciesWitness:
    """The explicit witness between two family members over the same (p, q).

    Classes are paired by position in the canonical class tables; on
    classes containing the order-q generator z, characters are paired by
    their value on it (the z column of ``CharIndex.values``); the other
    classes have the trivial character only. Requires the fiber to have
    trivial p-torsion.
    """
    if (tg1.spec.p, tg1.spec.q) != (tg2.spec.p, tg2.spec.q):
        raise InvalidSpec("family members must share p and q")
    p = tg1.spec.p
    if not fiber.has_trivial_torsion(p):
        raise FiberHasPTorsion(f"fiber has nontrivial {p}-torsion")
    g_table = canonical_class_table(tg1)
    h_table = canonical_class_table(tg2)
    subgroup_map = list(range(len(g_table.reps)))
    char_maps: list[list[int]] = []
    for k_sub, k_img in zip(g_table.reps, h_table.reps):
        # values on z, or at the identity (column 0) for a class without z
        on_z = [c.values[:, max(c.pos[z], 0)].tolist() for c, z in (
            (char_index(k_sub, fiber), tg1.z), (char_index(k_img, fiber), tg2.z))]
        by_value = {v: j for j, v in enumerate(on_z[1])}
        if sorted(on_z[0]) != sorted(on_z[1]) or len(by_value) < len(on_z[1]):
            raise InvalidSpec("character groups unexpectedly differ")
        char_maps.append([by_value[v] for v in on_z[0]])
    return SpeciesWitness(g_table, h_table, subgroup_map, char_maps)


__all__ = [
    "SpeciesWitness", "SpeciesVerdict", "verify_species", "search_species",
    "thevenaz_witness", "char_group_isomorphisms", "EXHAUSTION_CAVEAT",
]
