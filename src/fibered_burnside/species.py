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
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .abelian_fiber import AbelianFiber, Character, char_index, hom_set
from .errors import (FiberHasPTorsion, InvalidSpec, NotABijection,
                     NotAGroupIso, SearchBudgetExceeded)
from .group_core import SubgroupClassTable, _orders
from .monomial import monomial_basis
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


def char_group_isomorphisms(homs1: Sequence[Character],
                            homs2: Sequence[Character], *,
                            accept: Optional[Callable[[np.ndarray, np.ndarray],
                                                      bool]] = None
                            ) -> Iterator[list[int]]:
    """All group isomorphisms Hom(K, A) -> Hom(K', A), as index maps.

    Deterministic order: the generators of Hom(K, A) are those of its
    ``CharIndex.decomposition``, and candidates for each generator image
    ascend by hom-set index. Images are chosen one generator at a time, and
    a candidate whose cyclic span meets the span of the earlier images is
    skipped, since no choice of later images makes such a map injective.

    ``accept(dom, img)``, if given, sees every prefix: the hom-set indices
    ``dom`` of the characters spanned by the generators chosen so far and
    their images ``img``, in the same order. It is called first with the
    trivial characters alone and then after each generator image; a prefix
    it rejects is not extended.
    """
    if len(homs1) != len(homs2):
        return
    chars2 = char_index(homs2[0].domain, homs2[0].fiber)
    dec1 = char_index(homs1[0].domain, homs1[0].fiber).decomposition
    if dec1.factors != chars2.decomposition.factors:
        return
    n = len(homs1)
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
    if accept is None:
        accept = _accept_all

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


def _accept_all(dom: np.ndarray, img: np.ndarray) -> bool:
    return True


def _is_char_group_iso(table1: np.ndarray, table2: np.ndarray,
                       mapping: Sequence[int]) -> bool:
    m = np.asarray(mapping, dtype=np.int64)
    return np.array_equal(m[table1], table2[np.ix_(m, m)])


# ---------------------------------------------------------------------------
# Verification


def verify_species(witness: SpeciesWitness,
                   fiber: AbelianFiber) -> SpeciesVerdict:
    """Check the gamma-matching condition of a witness on all quadruples.

    On success the induced basis bijection is materialized and re-verified
    to transport all structure constants of the double-coset product
    (independent end-to-end oracle).
    """
    g_table, h_table = witness.g_table, witness.h_table
    k = len(g_table.reps)
    if len(h_table.reps) != k or len(witness.subgroup_map) != k:
        raise NotABijection("subgroup map must cover all classes")
    if sorted(witness.subgroup_map) != list(range(k)):
        raise NotABijection("subgroup map is not a bijection of classes")
    basis_g = monomial_basis(g_table.group, fiber, g_table)
    basis_h = monomial_basis(h_table.group, fiber, h_table)
    homs_g, homs_h = basis_g.class_homs, basis_h.class_homs
    for ci in range(k):
        cj = witness.subgroup_map[ci]
        cmap = witness.char_maps[ci]
        if (len(cmap) != len(homs_g[ci])
                or sorted(cmap) != list(range(len(homs_h[cj])))):
            raise NotABijection(f"character map of class {ci} is not a bijection")
        if not _is_char_group_iso(
                char_index(g_table.reps[ci], fiber).table,
                char_index(h_table.reps[cj], fiber).table, cmap):
            raise NotAGroupIso(
                f"character map of class {ci} does not preserve products")
    marks_g, marks_h = g_table.marks, h_table.marks
    for ci in range(k):
        ti = witness.subgroup_map[ci]
        for cj in range(k):
            # a mark is the [0, 0] entry of its gamma block, and a block
            # whose mark is 0 is zero, so two zero marks cannot mismatch
            if not (marks_g[ci][cj] or marks_h[ti][witness.subgroup_map[cj]]):
                continue
            bad = _gamma_mismatch(basis_g, basis_h, witness, ci, cj)
            if bad is not None:
                return SpeciesVerdict(False, counterexample=bad)
    mismatch, bijection = _structure_constant_check(basis_g, basis_h, witness)
    if mismatch is not None:
        return SpeciesVerdict(False, counterexample=mismatch)
    return SpeciesVerdict(True, basis_bijection=bijection)


def _gamma_mismatch(basis_g, basis_h, witness, ci: int, cj: int):
    """First (a, b), in row-major order, where the gamma block of classes
    (ci, cj) differs from the block of their images, read through the
    character maps."""
    ti, tj = witness.subgroup_map[ci], witness.subgroup_map[cj]
    gg = basis_g.gamma_block(ci, cj)
    gh = basis_h.gamma_block(ti, tj)[
        np.ix_(witness.char_maps[ci], witness.char_maps[cj])]
    bad = np.argwhere(gg != gh)
    if not bad.size:
        return None
    a, b = (int(v) for v in bad[0])
    return {
        "classes": [ci, cj],
        "char_indices": [a, b],
        "gamma_g": int(gg[a, b]),
        "gamma_h": int(gh[a, b]),
    }


def _structure_constant_check(basis_g, basis_h, witness):
    """Transport every structure constant of ``basis_g`` through the basis
    bijection the witness induces and compare it with ``basis_h``, one
    class pair at a time; reports the first differing basis pair (i, j) in
    row-major order.

    Only the blocks with ci <= cj are compared. On both sides the block
    (cj, ci) is the exact transpose of (ci, cj) (``product_block``), and
    the bijection maps both axes alike, so the pair (j, i) differs exactly
    when (i, j) does. The first differing pair in row-major order thus
    has i <= j, and basis indices ascend with the class, so the first
    class row with a difference among its compared blocks holds it."""
    if basis_g.size != basis_h.size:
        return {"reason": "basis sizes differ",
                "sizes": [basis_g.size, basis_h.size]}, None
    mapping = []
    for idx in range(basis_g.size):
        ci = basis_g.rep_class[idx]
        hi = basis_g.rep_hom_index[idx]
        cj = witness.subgroup_map[ci]
        hj = witness.char_maps[ci][hi]
        mapping.append(int(basis_h._char_to_basis[cj][hj]))
    if len(set(mapping)) != basis_g.size:
        return {"reason": "induced basis map is not a bijection"}, None
    image = np.asarray(mapping, dtype=np.int64)
    # the rows of each class's images within their block on the H side
    at_h = [image[i0:i1] - basis_h.class_block[witness.subgroup_map[ci]][0]
            for ci, (i0, i1) in enumerate(basis_g.class_block)]
    for ci, (i0, i1) in enumerate(basis_g.class_block):
        ti = witness.subgroup_map[ci]
        # which (i, j) with i in class ci and j in a class cj >= ci differ
        differ = np.zeros((i1 - i0, basis_g.size), dtype=bool)
        for cj in range(ci, len(basis_g.class_block)):
            j0, j1 = basis_g.class_block[cj]
            block_g = basis_g.product_block(ci, cj)
            block_h = basis_h.product_block(
                ti, witness.subgroup_map[cj])[at_h[ci]][:, at_h[cj]]
            if block_g.shape != block_h.shape:
                differ[:, j0:j1] = True
            else:
                transported = np.sort(image[block_g], axis=-1)
                differ[:, j0:j1] = (transported != block_h).any(axis=-1)
        if differ.any():
            a, j = (int(v) for v in np.argwhere(differ)[0])
            i = i0 + a
            return {
                "reason": "structure constants differ",
                "basis_pair": [i, j],
                "transported": sorted((mapping[t], c)
                                      for t, c in basis_g.product(i, j)),
                "target": basis_h.product(mapping[i], mapping[j]),
            }, None
    return None, list(enumerate(mapping))


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
    homs_g, homs_h = basis_g.class_homs, basis_h.class_homs
    gamma_g, gamma_h = basis_g.gamma_block, basis_h.gamma_block
    candidates = [[j for j in range(k) if inv_h[j] == inv_g[i]]
                  for i in range(k)]
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
        blocks = [np.zeros((len(homs[x]), 0), dtype=np.int64)]
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
            return (p_h is not None
                    and np.array_equal(p_g[dom], p_h[img])
                    and np.array_equal(diag_g[np.ix_(dom, dom)],
                                       diag_h[np.ix_(img, img)]))
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
    classes containing the order-q generator, characters are paired by
    their value on it. Requires the fiber to have trivial p-torsion.
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
        homs1 = hom_set(k_sub, fiber)
        homs2 = hom_set(k_img, fiber)
        if len(homs1) == 1:
            if len(homs2) != 1:
                raise InvalidSpec("character groups unexpectedly differ")
            char_maps.append([0])
            continue
        # non-p-subgroup classes: characters are determined by the value on z
        z1, z2 = tg1.z, tg2.z
        by_value = {h.value_index(z2): j for j, h in enumerate(homs2)}
        char_maps.append([by_value[h.value_index(z1)] for h in homs1])
    return SpeciesWitness(g_table, h_table, subgroup_map, char_maps)


__all__ = [
    "SpeciesWitness", "SpeciesVerdict", "verify_species", "search_species",
    "thevenaz_witness", "char_group_isomorphisms", "EXHAUSTION_CAVEAT",
]
