"""Slow, independent oracles that the fast paths of the library are tested
against. Subgroups are closed with the full |S|x|S| product instead of the
frontier search, enumerated by sweeps that use no normalizer reasoning and
by cyclic extension of every subgroup found (not one per conjugacy class)
from perfect subgroups closed under conjugation, and gamma coefficients are
counted one coset at a time, on cosets swept one element at a time and
tested on every member of K, instead of by blocks of characters. The
isomorphism search walks the same backtrack tree as the library's, one
candidate and one element at a time in Python, so the two must return the
same map. Structure constants are computed one basis pair and one double
coset at a time, over double cosets found by a sweep over every group
element; a whole product block of one class pair also comes from one
batched pass over the double cosets of that pair alone, lower blocks
computed directly, and a whole class row from one pass over the double
cosets of that row, found one pair at a time, with every term looked up
from its full character values. Character group isomorphisms by scanning
every tuple of generator images. Characters are ``Character`` objects,
defined here apart from the package's arrays; one built from outside values
checks the homomorphism rule on all |K|^2 pairs of members. They are
identified by dictionaries of their full value tuples: normalizer orbits on
Hom(K, A) come from a union-find sweep over one permutation per normalizer
element, and character-group tables from multiplying ``Character`` objects.
Hom(K, A) itself is built one character and one member at a time, a
character is found from its values on the generators through a dictionary
of value tuples, greedy generating sequences are closed with the full
product, and the conjugates of a subgroup are found by one tuple per
conjugating element. Associativity is checked on all n^3 triples, one left
factor at a time, and inverses and conjugation tables are filled one
element at a time, and conjugacy class sizes by counting each element's
distinct conjugates. Element classes, left cosets and cyclic subgroups are
swept one element at a time, and symmetric groups are composed one pair of
permutation tuples at a time. Commutator subgroups are closed from all
|K|^2 commutators. Finite abelian groups are decomposed through per-element
Python callbacks of the group operation, K^ab over a dict of least coset
members, and element orders by stepping through powers. The species search
builds each character map whole and checks every gamma block of its class
only then, and tells classes apart by a per-class ``Counter`` of mark
profiles. A species witness is checked one class pair at a time: gamma
block against gamma block, and product block against product block. Every
monomial pair is listed subgroup by subgroup, and determinants are exact by
fraction-free elimination over Python ints.

The ring layer lives here too, as an oracle apart from the product table:
``BurnsideElement`` vectors over a basis, multiplied pair by pair through
``MonomialBasis.product``, the reduced ghost ring, and the mark morphism
into it, read off the gamma rows, so that the mark morphism and the ring
axioms check the products against gamma. The one-pair cases of the
package's batched kernels (``gamma_block``, ``fixed_cosets``, ``mark``,
``double_coset_reps``) and the one-element helpers of fibers and groups
that no command reaches are kept with it."""

import bisect
import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from fibered_burnside.abelian_fiber import AbelianFiber, CharIndex, char_index
from fibered_burnside.errors import (AlgebraError, NotAGroup,
                                     SearchBudgetExceeded)
from fibered_burnside.group_core import (FiniteGroup, Subgroup,
                                         SubgroupClassTable, _conjugates,
                                         _fixed_by, _index_dtype, _indicator,
                                         _normalizing, _permutation_table,
                                         _prime_factors, _sorted_unique,
                                         _subgroup_order_census, closure,
                                         commutator_subgroup, double_cosets,
                                         enumerate_subgroups,
                                         left_coset_reps, normalizer)
from fibered_burnside.monomial import (MonomialBasis, _HomLayout, _starts,
                                       gamma_class_rows, gamma_rows,
                                       monomial_basis)
from fibered_burnside.species import SpeciesWitness, char_group_isomorphisms


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


def conjugate_members(group: FiniteGroup, g: int,
                      members: Sequence[int]) -> tuple[int, ...]:
    """The sorted members of g S g^-1, one member at a time."""
    conj = reference_conj(group)
    return tuple(sorted(int(conj[g, m]) for m in members))


def conjugate_subgroup(group: FiniteGroup, g: int, sub: Subgroup) -> Subgroup:
    return Subgroup(group, conjugate_members(group, g, sub.members),
                    verify=False)


def group_to_json(group: FiniteGroup) -> dict:
    """Cayley JSON of a group, as ``group_from_json`` reads it."""
    return {"order": group.order, "mul": group.mul.tolist()}


def greedy_generators(sub: Subgroup) -> tuple[int, ...]:
    """Each member of ``sub``, ascending, that the earlier ones picked do
    not generate, closed with ``reference_closure``."""
    gens: list[int] = []
    reached = {0}
    for m in sub.members:
        if m not in reached:
            gens.append(m)
            reached = set(reference_closure(sub.group, gens))
            if len(reached) == sub.order:
                break
    return tuple(gens)


def char_lookup(chars: CharIndex, vals) -> np.ndarray:
    """The hom-set index of each character of ``chars`` given by its values
    on ``chars.gens`` (the last axis of ``vals``), from a dictionary of
    every character's value tuple on the generators; ValueError when a
    row is no character's."""
    on_gens = chars.values[:, chars.pos[chars.gens]].tolist()
    where = {tuple(row): i for i, row in enumerate(on_gens)}
    vals = np.asarray(vals)
    try:
        found = [where[tuple(row)]
                 for row in vals.reshape(-1, vals.shape[-1]).tolist()]
    except KeyError:
        raise ValueError("a value row matches no character of the hom set")
    return np.asarray(found, dtype=np.int64).reshape(vals.shape[:-1])


def reference_char_table(chars: CharIndex,
                         fiber: AbelianFiber) -> np.ndarray:
    """The product table of one K's characters, read off their values on
    K rather than the shared ``HomType.images``: entry [i, j] is the
    hom-set index of the product of the i-th and j-th characters, the rank
    and stride sum of the fiber sums of their values on ``gens``."""
    on_gens = chars.values[:, chars.pos[chars.gens]]
    rank, stride = chars.hom_type.rank, chars.hom_type.stride
    table = np.zeros((len(on_gens),) * 2, dtype=np.int64)
    for k, v in enumerate(on_gens.T):
        table += rank[k, fiber.add_table[v[:, None], v]] * stride[k]
    return table


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


def reference_enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, via layered cyclic extension of every subgroup found,
    not one per conjugacy class, seeded with ``reference_perfect_seeds``.

    Like ``enumerate_subgroups`` it keeps its list on the group, so a class
    table built afterwards on the same group rests on this list.

    Starting from the trivial subgroup, every known S is extended to
    <S, g> = S u Sg u ... u Sg^(p-1) for g in N_G(S) with g^p in S; each
    solvable subgroup arises this way along a composition series. Perfect
    subgroups (possible only when 60 <= |G| and 12 divides |G|) are seeded
    separately from two-generated closures, so non-solvable subgroups are
    reached as well.

    Each queued S carries a generating sequence, so N_G(S) is one gather
    of the conjugates of those generators. Once <S, g> is found, every
    member of it is skipped for this S: g normalizes S and [<S, g> : S] = p
    is prime, so for any g' in <S, g> outside S the quotient <S, g'>/S is a
    nontrivial subgroup of <S, g>/S, a group of order p; hence g'^p lies in
    S and <S, g'> = <S, g>, so g' adds nothing new.
    """
    cached = group._cache.get("subgroups")
    if cached is not None:
        return list(cached)
    n = group.order
    primes = [p for p, _ in _prime_factors(n)]
    seen: set[tuple[int, ...]] = {(0,)}
    queue: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,), ())]
    if n >= 60 and n % 12 == 0:
        for mem in reference_perfect_seeds(group):
            if mem not in seen:
                seen.add(mem)
                queue.append(
                    (mem, Subgroup(group, mem, verify=False).generators()))
    mul = group.mul
    while queue:
        mem, gens = queue.pop()
        size = len(mem)
        index = n // size
        valid_primes = [p for p in primes if index % p == 0]
        if not valid_primes:
            continue
        mem_arr = np.asarray(mem, dtype=np.int64)
        inside = _indicator(n, mem_arr)
        done = inside.copy()
        for g in _normalizing(group, inside, gens).tolist():
            if done[g]:
                continue
            for p in valid_primes:
                powers = [g]
                for _ in range(p - 2):
                    powers.append(int(mul[powers[-1], g]))
                if not inside[mul[powers[-1], g]]:
                    continue
                block = mul[np.ix_(mem_arr, np.asarray(powers, dtype=np.int64))]
                new_arr = _sorted_unique(np.concatenate((mem_arr, block.ravel())))
                if new_arr.size != p * size:
                    raise NotAGroup(
                        f"extending a subgroup of order {size} by an element "
                        f"of order {p} modulo it gave {new_arr.size} elements")
                done[new_arr] = True
                new_mem = tuple(new_arr.tolist())
                if new_mem not in seen:
                    seen.add(new_mem)
                    queue.append((new_mem, gens + (g,)))
                break   # g^p in S for two primes would force g in S
    subs = [Subgroup(group, mem, verify=False)
            for mem in sorted(seen, key=lambda m: (len(m), m))]
    group._cache["subgroups"] = subs
    return list(subs)


def _orbit_reps(conj: np.ndarray, acting: np.ndarray) -> list[int]:
    """Least element of each orbit of ``acting`` on the group by
    conjugation, ascending."""
    covered = np.zeros(conj.shape[0], dtype=bool)
    reps = []
    for x in range(conj.shape[0]):
        if not covered[x]:
            covered[conj[acting, x].astype(np.intp)] = True
            reps.append(x)
    return reps


def reference_left_coset_reps(group: FiniteGroup,
                              sub: Subgroup) -> np.ndarray:
    """The least element of each left coset sL, ascending: a sweep over
    every element."""
    mem = np.asarray(sub.members, dtype=np.int64)
    covered = np.zeros(group.order, dtype=bool)
    found: list[int] = []
    for s in range(group.order):
        if not covered[s]:
            covered[group.mul[s, mem].astype(np.intp)] = True
            found.append(s)
    return np.asarray(found, dtype=np.int64)


def reference_cyclic_class_lengths(group: FiniteGroup) -> np.ndarray:
    """For each element x, the number of conjugates of <x>: one closure
    and one normalizer column per cyclic subgroup."""
    n = group.order
    orders = group.element_orders
    lengths = np.zeros(n, dtype=np.int64)
    for x in range(n):
        if lengths[x]:
            continue
        cyc = np.asarray(closure(group, (x,)), dtype=np.int64)
        norm = _normalizing(group, _indicator(n, cyc), (x,))
        lengths[cyc[orders[cyc] == orders[x]]] = n // norm.size
    return lengths


def reference_symmetric_group(n: int) -> FiniteGroup:
    """S_n on the lexicographically sorted permutation tuples, composed
    one pair at a time."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.empty((size, size), dtype=_index_dtype(size))
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return FiniteGroup(table, name=f"S{n}")


def reference_perfect_seeds(group: FiniteGroup) -> set[tuple[int, ...]]:
    """Perfect subgroups, found as closures of pairs (a, b) and closed under
    conjugation.

    Relies on perfect groups in the supported order range (<= ~2000) being
    two-generated. Up to conjugation a nontrivial perfect P is <a, b> with
    a a class representative other than the identity, b outside <a> (else
    P is cyclic), and b taken up to conjugation by C_G(a), since
    <a, cbc^-1> = c<a, b>c^-1 for c in C_G(a).
    """
    conj = reference_conj(group)
    reps = _orbit_reps(conj, np.arange(group.order))
    found: set[tuple[int, ...]] = set()
    tried: set[tuple[int, ...]] = set()
    for a in reps[1:]:
        cyclic = set(closure(group, (a,)))
        centralizer = np.flatnonzero(conj[:, a] == a)
        for b in _orbit_reps(conj, centralizer):
            if b in cyclic:
                continue
            mem = closure(group, (a, b))
            if mem in tried:
                continue
            tried.add(mem)
            sub = Subgroup(group, mem, verify=False)
            if len(mem) >= 60 and commutator_subgroup(sub).members == mem:
                found.update(_conjugates(group, sub.members,
                                         normalizer(group, sub)))
    return found


@functools.lru_cache(maxsize=4096)
def _cosets_fixed_by_sweep(group: FiniteGroup, k_members: tuple[int, ...],
                           l_members: tuple[int, ...]) -> tuple[int, ...]:
    """The least element s of each left coset sL, ascending, found by a
    sweep over every group element, kept when every member of K lies in
    {s l s^-1 : l in L}."""
    mul, inv = group.mul, group.inv
    covered: set[int] = set()
    fixed = []
    for s in range(group.order):
        if s in covered:
            continue
        covered.update(int(mul[s, l]) for l in l_members)
        sinv = int(inv[s])
        if set(k_members) <= {int(mul[mul[s, l], sinv]) for l in l_members}:
            fixed.append(s)
    return tuple(fixed)


class Character:
    """A homomorphism from a subgroup K into the fiber.

    ``values[i]`` is the fiber element index of the image of the i-th member
    of K (members sorted ascending). Unless ``verify`` is false, the value
    map is checked to be a homomorphism on all |K|^2 pairs of members."""

    __slots__ = ("domain", "fiber", "values")

    def __init__(self, domain: Subgroup, fiber: AbelianFiber,
                 values: Sequence[int], *, verify: bool = True):
        values = tuple(map(int, values))
        if len(values) != domain.order:
            raise ValueError("need one value per domain member")
        self.domain = domain
        self.fiber = fiber
        self.values = values
        if verify:
            self._check()

    def _check(self) -> None:
        members = self.domain.members
        pos = {m: i for i, m in enumerate(members)}
        if 0 not in pos:
            raise ValueError("a domain must contain the identity")
        if self.values[pos[0]]:
            raise ValueError("character must send the identity to 0")
        add = self.fiber.add_table.tolist()
        products = self.domain.group.mul[np.ix_(members, members)].tolist()
        for vx, row in zip(self.values, products):
            for vy, xy in zip(self.values, row):
                if xy not in pos:
                    raise ValueError("domain is not closed")
                if self.values[pos[xy]] != add[vx][vy]:
                    raise ValueError("value map is not a homomorphism")

    def value_index(self, g: int) -> int:
        return self.values[bisect.bisect_left(self.domain.members, int(g))]

    def is_trivial(self) -> bool:
        return not any(self.values)

    def __mul__(self, other: "Character") -> "Character":
        add = self.fiber.add_table
        return Character(self.domain, self.fiber,
                         [add[a, b] for a, b in zip(self.values, other.values)],
                         verify=False)

    def conjugate(self, g: int) -> "Character":
        """The conjugate character on ^gK, x -> value(g^-1 x g)."""
        group, value = self.domain.group, dict(zip(self.domain.members,
                                                   self.values))
        conj = reference_conj(group)
        members = sorted(conj[g, list(self.domain.members)].tolist())
        back = conj[group.inverse(g), members].tolist()
        return Character(Subgroup(group, members, verify=False), self.fiber,
                         [value[x] for x in back], verify=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Character)
                and self.domain == other.domain
                and self.fiber.factors == other.fiber.factors
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.domain.members, self.fiber.factors, self.values))

    def __repr__(self) -> str:
        return f"Character(domain={self.domain.members}, values={self.values})"


def hom_set(domain: Subgroup, fiber: AbelianFiber) -> list[Character]:
    """Every homomorphism K -> A, in ``CharIndex`` order: the rows of
    ``char_index(K, A)`` as ``Character`` objects."""
    return [Character(domain, fiber, row, verify=False)
            for row in char_index(domain, fiber).values.tolist()]


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


def basis_pair(basis: MonomialBasis, i: int) -> MonomialPair:
    """The orbit rep (K, phi) of basis element i, read from the class and
    hom index that the basis keeps for it."""
    k_sub = basis.class_table.reps[basis.rep_class[i]]
    vals = char_index(k_sub, basis.fiber).values[basis.rep_hom_index[i]]
    return MonomialPair(k_sub, Character(k_sub, basis.fiber, vals.tolist(),
                                         verify=False))


def reference_gamma(pair_k: MonomialPair, pair_l: MonomialPair) -> int:
    """Number of cosets sL whose conjugated pair lies above (K, phi).

    Counts the cosets sL with K <= sLs^-1, found by
    ``_cosets_fixed_by_sweep``, on which the conjugate of psi equals phi on
    every member of K. Both pairs must live over the same group and fiber.
    """
    group = pair_k.subgroup.group
    if pair_l.subgroup.group is not group:
        raise ValueError("pairs live over different groups")
    k_sub, phi = pair_k.subgroup, pair_k.char
    psi = pair_l.char
    mul, inv = group.mul, group.inv
    count = 0
    for s in _cosets_fixed_by_sweep(group, k_sub.members,
                                    pair_l.subgroup.members):
        sinv = int(inv[s])
        # (^s psi)(x) = psi(s^-1 x s)
        if all(psi.value_index(int(mul[mul[sinv, k], s])) == phi.value_index(k)
               for k in k_sub.members):
            count += 1
    return count


def all_monomial_pairs(group: FiniteGroup,
                       fiber: AbelianFiber) -> list[MonomialPair]:
    """Every monomial pair (not just orbit representatives), by subgroup in
    ``enumerate_subgroups`` order, then by character in ``hom_set`` order."""
    return [MonomialPair(sub, chi) for sub in enumerate_subgroups(group)
            for chi in hom_set(sub, fiber)]


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


def permutation_group(gens, degree) -> FiniteGroup:
    """The group generated by permutations of range(degree), each a tuple
    of images, multiplied as (pq)(k) = p(q(k)), with the identity at 0 and
    the other elements in breadth-first order from ``gens``. The table
    comes from ``_permutation_table``, as that of ``symmetric_group`` does,
    so degree is at most 8.
    """
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    for p in elems:   # grows while iterated: a breadth-first closure
        for s in gens:
            q = tuple(p[k] for k in s)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    return FiniteGroup(_permutation_table(np.asarray(elems, dtype=np.int32)))


def a6_cayley_json() -> dict:
    """Cayley JSON of A6 = <(0 1 2), (1 2 3 4 5)> with its elements
    relabelled by a seeded permutation that keeps the identity at 0."""
    table = permutation_group([(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)], 6).mul
    n = table.shape[0]
    label = np.asarray([0] + random.Random(6).sample(range(1, n), n - 1))
    mul = np.empty_like(label, shape=(n, n))
    mul[label[:, None], label] = label[table]
    return {"order": n, "mul": mul.tolist()}


def reference_generating_sequence(group: FiniteGroup) -> list[int]:
    """Greedy generating sequence, each step adding the element that grows
    the generated subgroup the most."""
    gens: list[int] = []
    cur_len = 1
    while cur_len < group.order:
        best_g, best_len = None, cur_len
        for g in range(1, group.order):
            size = len(reference_closure(group, gens + [g]))
            if size > best_len:
                best_g, best_len = g, size
                if size == group.order:
                    break
        if best_g is None:
            raise NotAGroup("no element extends a proper generated subgroup")
        gens.append(best_g)
        cur_len = best_len
    return gens


def reference_are_isomorphic(g: FiniteGroup,
                             h: FiniteGroup) -> Optional[list[int]]:
    """A verified isomorphism G -> H as an index list, or None.

    Backtracks over images of a small generating sequence, one generator at
    a time. The first generator's image only ranges over element-conjugacy-
    class representatives of H (composing with inner automorphisms). Each
    deeper candidate is filtered by element order and class size, by the
    power and conjugation relations it must satisfy against the already-
    mapped subgroup, and by a breadth-first extension over the subgroup the
    prefix generates; a surviving full map is verified on all pairs.
    """
    if g.order != h.order:
        return None
    if not np.array_equal(np.sort(g.element_orders), np.sort(h.element_orders)):
        return None
    if not np.array_equal(np.sort(g.element_class_sizes),
                          np.sort(h.element_class_sizes)):
        return None
    if _subgroup_order_census(g) != _subgroup_order_census(h):
        return None
    n = g.order
    if n == 1:
        return [0]
    gens = reference_generating_sequence(g)
    k = len(gens)
    chain = [reference_closure(g, gens[:j + 1]) for j in range(k)]

    def inv_pair(grp, x):
        return (int(grp.element_orders[x]), int(grp.element_class_sizes[x]))

    h_class_reps = []
    seen = np.zeros(n, dtype=bool)
    for x in range(n):
        if not seen[x]:
            seen[np.unique(reference_conj(h)[:, x])] = True
            h_class_reps.append(x)
    cand_lists = []
    for j, gen in enumerate(gens):
        want = inv_pair(g, gen)
        pool = h_class_reps if j == 0 else range(n)
        cand_lists.append([x for x in pool if inv_pair(h, x) == want])

    # relations of gens[j] against the subgroup generated by the earlier
    # generators: minimal power landing in it, and conjugates of earlier
    # generators that land in it
    pow_rel: list[Optional[tuple[int, int]]] = [None]
    conj_rel: list[list[tuple[int, int]]] = [[]]
    for j in range(1, k):
        prev = set(chain[j - 1])
        gj = gens[j]
        m, e = 1, gj
        while e not in prev:
            e = g.m(e, gj)
            m += 1
        pow_rel.append((m, e))
        rels = []
        gj_inv = g.inverse(gj)
        for i in range(j):
            t = g.m(g.m(gj, gens[i]), gj_inv)
            if t in prev:
                rels.append((i, t))
        conj_rel.append(rels)

    images: list[int] = []

    def extend(level: int) -> Optional[list[int]]:
        members = chain[level]
        f = [-1] * n
        f[0] = 0
        used = bytearray(n)
        used[0] = 1
        queue = [0]
        count = 1
        while queue:
            e = queue.pop()
            fe = f[e]
            for gen, img in zip(gens[:level + 1], images):
                e2 = int(g.mul[e, gen])
                t = int(h.mul[fe, img])
                if f[e2] == -1:
                    if used[t]:
                        return None
                    f[e2] = t
                    used[t] = 1
                    queue.append(e2)
                    count += 1
                elif f[e2] != t:
                    return None
        if count != len(members):
            return None
        return f

    def backtrack(level: int, f_prev: Optional[list[int]]) -> Optional[list[int]]:
        for c in cand_lists[level]:
            if level > 0:
                m, target = pow_rel[level]
                e, c_pow = c, c
                for _ in range(m - 1):
                    c_pow = int(h.mul[c_pow, c])
                if c_pow != f_prev[target]:
                    continue
                c_inv = h.inverse(c)
                if any(int(h.mul[int(h.mul[c, images[i]]), c_inv])
                       != f_prev[t] for i, t in conj_rel[level]):
                    continue
            images.append(c)
            f = extend(level)
            if f is not None:
                if level == k - 1:
                    farr = np.asarray(f, dtype=np.int64)
                    if np.array_equal(farr[g.mul], h.mul[np.ix_(farr, farr)]):
                        return f
                else:
                    result = backtrack(level + 1, f)
                    if result is not None:
                        return result
            images.pop()
        return None

    return backtrack(0, None)


def hom_index(basis: MonomialBasis, ci: int, char: Character) -> int:
    homs = hom_set(basis.class_table.reps[ci], basis.fiber)
    for i, h in enumerate(homs):
        if h.values == char.values:
            return i
    raise KeyError("character not in hom set")


def canonical_index(basis: MonomialBasis, pair: MonomialPair,
                    cache: Optional[dict] = None) -> int:
    """Basis index of the orbit of an arbitrary monomial pair."""
    key = pair.key()
    cached = None if cache is None else cache.get(key)
    if cached is not None:
        return cached
    ci = basis.class_table.class_of(pair.subgroup)
    g = basis.class_table.transporter_to_rep(pair.subgroup)
    chi = pair.char if g == 0 else pair.char.conjugate(g)
    hi = hom_index(basis, ci, chi)
    idx = basis.char_to_basis[ci][hi]
    if cache is not None:
        cache[key] = idx
    return idx


def reference_double_coset_reps(group: FiniteGroup, k: Subgroup,
                                l: Subgroup) -> list[int]:
    """Least-element representatives of the double cosets K\\G/L."""
    n = group.order
    kmem = np.asarray(k.members, dtype=np.int64)
    lmem = np.asarray(l.members, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    reps = []
    for s in range(n):
        if covered[s]:
            continue
        block = group.mul[np.ix_(kmem, group.mul[s, lmem])]
        covered[block.ravel()] = True
        reps.append(s)
    return reps


def reference_commutator_subgroup(sub: Subgroup) -> Subgroup:
    """[K, K], closed from all |K|^2 commutators of K."""
    group = sub.group
    mem = np.asarray(sub.members, dtype=np.int64)
    left = group.mul[np.ix_(group.inv[mem], group.inv[mem])]   # g^-1 h^-1
    right = group.mul[np.ix_(mem, mem)]                        # g h
    comms = np.unique(group.mul[left.ravel(), right.ravel()])
    return Subgroup(group, closure(group, comms), verify=False)


@dataclass
class ReferenceDecomposition:
    """Cyclic decomposition d1 | d2 | ... | dr; ``coords`` maps each
    element to its exponent tuple."""

    factors: tuple[int, ...]
    coords: dict


def reference_abelian_invariant_decomposition(elems: Sequence, mulfn,
                                              identity
                                              ) -> ReferenceDecomposition:
    """Invariant-factor basis of a finite abelian group, by per-element
    calls of the group operation ``mulfn``.

    ``elems`` must be sortable and hashable. Works prime by prime: in each
    p-component an element of maximal order spans a direct summand, so a
    basis of the quotient lifts order-preservingly. ``coords`` is filled
    in lexicographic order of the exponent tuples.
    """
    order_memo = {e: _element_order(e, mulfn, identity) for e in elems}
    n = len(elems)
    primes = sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)})
    per_prime: dict[int, list] = {}
    for p in primes:
        comp = sorted(e for e in elems if _is_p_power(order_memo[e], p))
        basis = _p_group_basis(comp, mulfn, identity, p)
        if basis:
            per_prime[p] = basis
    slots = max((len(b) for b in per_prime.values()), default=0)
    inv: list[tuple] = []
    for t in range(slots):
        gen, d = identity, 1
        for p in primes:
            basis = per_prime.get(p, [])
            if t < len(basis):
                g, o = basis[t]
                gen = mulfn(gen, g)
                d *= o
        inv.append((gen, d))
    inv.reverse()   # ascending divisibility d1 | d2 | ...
    factors = tuple(d for _, d in inv)
    coords: dict = {}
    for expo in itertools.product(*(range(d) for d in factors)):
        e = identity
        for (g, _), k in zip(inv, expo):
            for _ in range(k):
                e = mulfn(e, g)
        coords[e] = expo
    if len(coords) != n:
        raise NotAGroup("abelian basis does not span the group")
    return ReferenceDecomposition(factors, coords)


def reference_span(coords: dict) -> list:
    """The least element with each exponent tuple of ``coords``, in
    lexicographic order of the tuples."""
    least: dict = {}
    for e in sorted(coords):
        least.setdefault(coords[e], e)
    return [least[c] for c in sorted(least)]


def reference_element_orders(group: FiniteGroup) -> list[int]:
    """The order of every element, one element and one power at a time."""
    return [_element_order(g, group.m, 0) for g in range(group.order)]


def _element_order(e, mulfn, identity) -> int:
    """The least k >= 1 with e^k = identity under ``mulfn``."""
    k, cur = 1, e
    while cur != identity:
        cur = mulfn(cur, e)
        k += 1
    return k


def _p_group_basis(elems: Sequence, mulfn, identity, p: int) -> list:
    """Basis [(gen, order), ...] of an abelian p-group, orders descending."""
    if len(elems) <= 1:
        return []
    orders = {e: _element_order(e, mulfn, identity) for e in elems}
    top = max(orders.values())
    x = min(e for e in elems if orders[e] == top)
    cyc = [identity]
    cur = x
    while cur != identity:
        cyc.append(cur)
        cur = mulfn(cur, x)
    rep_of = {}
    for e in elems:
        rep_of[e] = min(mulfn(e, c) for c in cyc)
    q_elems = sorted(set(rep_of.values()))
    q_id = rep_of[identity]

    def qmul(a, b):
        return rep_of[mulfn(a, b)]

    sub = _p_group_basis(q_elems, qmul, q_id, p)
    lifted = []
    for ybar, d in sub:
        lift = None
        for c in cyc:
            y = mulfn(ybar, c)
            if orders[y] == d:
                lift = y
                break
        if lift is None:
            raise NotAGroup(
                "a quotient basis element has no lift of its order")
        lifted.append((lift, d))
    return [(x, top)] + lifted


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def reference_abelianization(sub: Subgroup) -> ReferenceDecomposition:
    """Invariant factors of K/[K,K], with ``coords`` mapping every member
    of K to its exponent tuple; the quotient is decomposed through a
    Python callback over a dict of least coset members."""
    group = sub.group
    derived = commutator_subgroup(sub)
    d_arr = np.asarray(derived.members, dtype=np.int64)
    rep_of: dict[int, int] = {}
    for k in sub.members:
        if k in rep_of:
            continue
        coset = group.mul[k, d_arr]
        r = int(coset.min())
        for e in coset:
            rep_of[int(e)] = r
    q_elems = sorted(set(rep_of.values()))

    def qmul(a, b):
        return rep_of[group.m(a, b)]

    dec = reference_abelian_invariant_decomposition(q_elems, qmul, rep_of[0])
    project = {k: dec.coords[rep_of[k]] for k in sub.members}
    return ReferenceDecomposition(dec.factors, project)


def reference_product(basis: MonomialBasis, i: int, j: int,
                      cache: Optional[dict] = None) -> list[tuple[int, int]]:
    """Structure constants of basis elements i times j as (index, coeff)
    pairs.

    ``cache`` (shared across calls on one basis) memoizes
    ``canonical_index`` and ``basis_pair``."""
    group, fiber = basis.group, basis.fiber
    if cache is None:
        cache = {}
    for k in (i, j):
        if ("rep", k) not in cache:
            cache["rep", k] = basis_pair(basis, k)
    (k_sub, phi), (l_sub, psi) = ((p.subgroup, p.char) for p in
                                  (cache["rep", i], cache["rep", j]))
    conj, inv = reference_conj(group), group.inv
    out: Counter = Counter()
    for s in reference_double_coset_reps(group, k_sub, l_sub):
        smask = 0
        for m in l_sub.members:
            smask |= 1 << int(conj[s, m])
        inter = [m for m in k_sub.members if (smask >> m) & 1]
        m_sub = Subgroup(group, inter, verify=False)
        sinv = int(inv[s])
        vals = [fiber_add(fiber, phi.value_index(m),
                          psi.value_index(int(conj[sinv, m])))
                for m in inter]
        chi = Character(m_sub, fiber, vals, verify=False)
        out[canonical_index(basis, MonomialPair(m_sub, chi), cache)] += 1
    return sorted(out.items())


def reference_locate(table: SubgroupClassTable,
                     members: tuple[int, ...]) -> tuple[int, int]:
    """Class index and transporter to the class rep of the subgroup with
    these sorted members: one lookup in the class table's dicts, which
    ``monomial._locate`` makes for many subgroups at once."""
    return table._class_of[members], table._transporter[members]


def reference_m_classes(basis: MonomialBasis) -> tuple[list[int], list[int]]:
    """For each double coset KsL of each class pair ci <= cj, in the order
    of ``MonomialBasis._geometry``, the class of M = K n sLs^-1 and the
    transporter of M to its class rep: M's members sorted in a Python loop
    and located one coset at a time."""
    group, table = basis.group, basis.class_table
    reps, conj = table.reps, reference_conj(basis.group)
    pair, s = double_cosets(group, reps, reps)
    cm, transporters = [], []
    for p, x in zip(pair.tolist(), s.tolist()):
        ci, cj = divmod(p, len(reps))
        if ci <= cj:
            k_members = set(reps[ci].members)
            m = tuple(sorted(v for v in (int(conj[x, y])
                                         for y in reps[cj].members)
                             if v in k_members))
            c, g = reference_locate(table, m)
            cm.append(c)
            transporters.append(g)
    return cm, transporters


def reference_mackey_block(basis: MonomialBasis, ci: int,
                           cj: int) -> np.ndarray:
    """The product block of classes (ci, cj), in one pass over all
    double cosets at once."""
    group, table, fiber = basis.group, basis.class_table, basis.fiber
    k_sub, l_sub = table.reps[ci], table.reps[cj]
    k_chars, l_chars = char_index(k_sub, fiber), char_index(l_sub, fiber)
    (i0, i1), (j0, j1) = basis.class_block[ci], basis.class_block[cj]
    k_vals = k_chars.values[basis.rep_hom_index[i0:i1]]
    l_vals = l_chars.values[basis.rep_hom_index[j0:j1]]
    reps = np.asarray(double_coset_reps(group, k_sub, l_sub),
                      dtype=np.int64)
    # row r holds ^sL for s = reps[r]; its members in K are M = K n ^sL,
    # which sort first once the others are replaced by the order of G
    conj_l = reference_conj(group)[reps[:, None],
                                   np.asarray(l_sub.members, dtype=np.int64)]
    in_k = k_chars.pos[conj_l] >= 0
    sizes = in_k.sum(axis=1)
    # |KsL| = |K| |L| / |M|, and the double cosets partition G
    if (k_sub.order * l_sub.order // sizes).sum() != group.order:
        raise NotAGroup(f"double cosets of classes {ci} and {cj} do not "
                        f"partition the group")
    rows = np.sort(np.where(in_k, conj_l, group.order), axis=1).tolist()
    cosets_of: dict[int, list[int]] = {}    # class of M -> its rows
    transporters = []
    for r, (row, size) in enumerate(zip(rows, sizes.tolist())):
        cm, g = reference_locate(table, tuple(row[:size]))
        cosets_of.setdefault(cm, []).append(r)
        transporters.append(g)
    g_inv = group.inv[np.asarray(transporters, dtype=np.int64)]
    s_inv = group.inv[reps]
    terms = np.empty((i1 - i0, j1 - j0, reps.size), dtype=np.int64)
    for cm, at in cosets_of.items():
        m_chars = char_index(table.reps[cm], fiber)
        # generators of each M, carried over from those of its class rep
        gens = reference_conj(group)[g_inv[at, None], m_chars.gens]
        # (phi * psi^s)(m) = phi(m) + psi(s^-1 m s), on the axes
        # (a, b, coset, generator)
        l_pos = l_chars.pos[reference_conj(group)[s_inv[at, None], gens]]
        vals = fiber.add_table[k_vals[:, k_chars.pos[gens]][:, None],
                               l_vals[:, l_pos][None]]
        terms[:, :, at] = basis.char_to_basis[cm][char_lookup(m_chars, vals)]
    return np.sort(terms, axis=-1)


def reference_mackey_row(basis: MonomialBasis,
                         ci: int) -> list[np.ndarray]:
    """The product blocks (ci, cj) for cj = ci, ci + 1, ..., in one pass
    over the double cosets of all those class pairs at once.

    Arrays over the double cosets are ragged: coset t of the pair
    (ci, cj) carries the |L| members of L = reps[cj], or one term per
    orbit representative of class cj, with no padding."""
    group, table, fiber = basis.group, basis.class_table, basis.fiber
    k_sub = table.reps[ci]
    k_chars = char_index(k_sub, fiber)
    i0, i1 = basis.class_block[ci]
    k_vals = k_chars.values[basis.rep_hom_index[i0:i1]]
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
    conj_l = reference_conj(group)[
        s[seg], l_members[_starts(l_orders)[pair][seg] + at_l]]
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
        cm, g = reference_locate(table, tuple(members[start:end]))
        cosets_of.setdefault(cm, []).append(t)
        transporters.append(g)
        start = end
    g_inv = group.inv[np.asarray(transporters, dtype=np.int64)]
    s_inv = group.inv[s]
    # the orbit representatives of each class cj: their characters'
    # values, ravelled one class after another, and each element's
    # position in reps[cj]
    n_reps = np.asarray([basis.class_block[cj][1] - basis.class_block[cj][0]
                         for cj in cols], dtype=np.int64)
    l_vals = np.concatenate([
        char_index(l_sub, fiber).values[
            basis.rep_hom_index[slice(*basis.class_block[cj])]].ravel()
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
        gens = reference_conj(group)[g_inv[at, None], m_chars.gens]
        # one entry per (coset, b): b runs over the orbit reps of the
        # coset's class cj
        p = pair[at]
        nb = n_reps[p]
        u = np.repeat(np.arange(at.size), nb)
        b = np.arange(u.size) - np.repeat(_starts(nb), nb)
        pu = p[u]
        # (phi * psi^s)(m) = phi(m) + psi(s^-1 m s), on the axes
        # (a, (coset, b), generator)
        x = reference_conj(group)[s_inv[at, None], gens]
        psi = l_vals[(l_vals_start[pu] + b * l_orders[pu])[:, None]
                     + l_pos[p[:, None], x][u]]
        vals = fiber.add_table[k_vals[:, k_chars.pos[gens]][:, u],
                               psi[None]]
        cols_at = col_start[pu] + b * n_cosets[pu] + d[at][u]
        terms[:, cols_at] = basis.char_to_basis[cm][char_lookup(m_chars, vals)]
    # sort each block's last axis at once: the columns of one (pair, b)
    # get one key offset, above every basis index
    group_id = np.repeat(np.arange(int(n_reps.sum())),
                         np.repeat(n_cosets, n_reps))
    offset = group_id * basis.size
    terms = np.sort(terms + offset, axis=1) - offset
    return [terms[:, c0:c0 + w].reshape(i1 - i0, nr, nc)
            for c0, w, nr, nc in zip(col_start.tolist(), widths.tolist(),
                                     n_reps.tolist(), n_cosets.tolist())]


def located_block(basis: MonomialBasis, ci: int, cj: int) -> np.ndarray:
    """The product block of classes (ci, cj), as ``reference_mackey_block``
    lays it out, read from the kept rows of ``basis`` through its run
    locator (``MonomialBasis.runs``): entry [a, b] is the sorted run of the
    a-th orbit rep of class ci times the b-th of class cj."""
    (i0, i1), (j0, j1) = basis.class_block[ci], basis.class_block[cj]
    start, lens = basis.runs(np.arange(i0, i1)[:, None], np.arange(j0, j1))
    n = int(lens[0, 0])
    assert (lens == n).all()
    return basis.terms[start[..., None] + np.arange(n)]


def reference_char_group_table(homs: Sequence[Character]) -> list[list[int]]:
    """Entry [i][j] is the index in ``homs`` of homs[i] * homs[j]."""
    lookup = {h.values: i for i, h in enumerate(homs)}
    return [[lookup[(hi * hj).values] for hj in homs] for hi in homs]


def _char_group_data(homs: Sequence[Character]):
    """(product table, identity index, invariant decomposition)."""
    table = reference_char_group_table(homs)
    ident = next(i for i, h in enumerate(homs) if h.is_trivial())
    dec = reference_abelian_invariant_decomposition(
        list(range(len(homs))), lambda a, b: table[a][b], ident)
    return table, ident, dec


def _element_orders_from_table(table, ident) -> list[int]:
    orders = []
    for e in range(len(table)):
        k, cur = 1, e
        while cur != ident:
            cur = table[cur][e]
            k += 1
        orders.append(k)
    return orders


def _values(homs: Sequence[Character]) -> np.ndarray:
    return np.asarray([h.values for h in homs], dtype=np.int64)


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
        perm_pos = pos[reference_conj(group)[ninv, mem]]
        permuted = vals[:, perm_pos]
        perms[n] = [lookup[tuple(int(v) for v in row)] for row in permuted]
    return perms


def reference_char_orbits(k_sub: Subgroup, fiber: AbelianFiber, start: int):
    """Normalizer orbits on Hom(K, A), as a basis over one class with
    ``start`` as its first index: (hom-set index of each orbit
    representative, its stabilizer's members, basis index of each
    character). Orbits are merged by a union-find sweep over every
    normalizer element's permutation of the hom set."""
    group = k_sub.group
    homs = hom_set(k_sub, fiber)
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
    basis_of_root = {r: start + k for k, r in enumerate(roots)}
    stabilizers = [[n for n, perm in perms.items() if perm[r] == r]
                   for r in roots]
    return (roots, stabilizers,
            [basis_of_root[_find(orbit_rep, i)] for i in range(n_h)])


def lexsorted_orbit_reps(basis: MonomialBasis) -> list[int]:
    """The hom index of every orbit rep of the basis, in basis order: per
    class, the least index of each normalizer orbit, sorted by
    ``np.lexsort`` with one key per member of K, last member first, as the
    basis ordered them before it sorted one byte key per rep."""
    group, fiber = basis.group, basis.fiber
    order = []
    for ci, k_sub in enumerate(basis.class_table.reps):
        chars = char_index(k_sub, fiber)
        norm = np.asarray(normalizer(group, k_sub).members, dtype=np.int64)
        root = basis._homs.restrict(ci, np.arange(len(chars.values)),
                                    group.inv[norm][:, None], ci).min(axis=0)
        roots = _sorted_unique(root)
        roots = roots[np.lexsort(chars.values[roots].T[::-1])]
        order += roots.tolist()
    return order


def eager_basis_objects(basis: MonomialBasis
                        ) -> tuple[list[MonomialPair], list[Subgroup]]:
    """The orbit representatives and their stabilizers of every basis
    element, built at once: per class, the normalizer's permutation of the
    hom set by one restriction, the least index of each orbit as its root,
    and the roots in order of their value tuples."""
    group, fiber = basis.group, basis.fiber
    reps, stabilizers = [], []
    for ci, k_sub in enumerate(basis.class_table.reps):
        chars = char_index(k_sub, fiber)
        norm = np.asarray(normalizer(group, k_sub).members, dtype=np.int64)
        perm = basis._homs.restrict(ci, np.arange(len(chars.values)),
                                    group.inv[norm][:, None], ci)
        root = perm.min(axis=0)
        vals = chars.values.tolist()
        for r in sorted(set(root.tolist()), key=vals.__getitem__):
            reps.append(MonomialPair(
                k_sub, Character(k_sub, fiber, vals[r], verify=False)))
            stabilizers.append(Subgroup(
                group, norm[perm[:, r] == r].tolist(), verify=False))
    return reps, stabilizers


def reference_char_group_isomorphisms(homs1: Sequence[Character],
                                      homs2: Sequence[Character]
                                      ) -> Iterator[list[int]]:
    """All group isomorphisms Hom(K, A) -> Hom(K', A), as index maps.

    Deterministic order: candidates for each generator image ascend by
    hom-set index."""
    if len(homs1) != len(homs2):
        return
    table1, id1, dec1 = _char_group_data(homs1)
    table2, id2, dec2 = _char_group_data(homs2)
    if dec1.factors != dec2.factors:
        return
    n = len(homs1)
    gens1 = []
    for i, d in enumerate(dec1.factors):
        unit = tuple(1 if k == i else 0 for k in range(len(dec1.factors)))
        gens1.append(next(e for e, c in dec1.coords.items() if c == unit))
    orders2 = _element_orders_from_table(table2, id2)
    candidate_lists = [[e for e in range(n) if orders2[e] == d]
                       for d in dec1.factors]
    for images in itertools.product(*candidate_lists):
        mapping = [0] * n
        for e in range(n):
            expo = dec1.coords[e]
            img = id2
            for k, g_img in zip(expo, images):
                for _ in range(k):
                    img = table2[img][g_img]
            mapping[e] = img
        if len(set(mapping)) == n:
            yield mapping


def reference_hom_set(domain: Subgroup,
                      fiber: AbelianFiber) -> list[Character]:
    """Every homomorphism K -> A, one image tuple and one member at a time.

    K is abelianized; a homomorphism is a choice of one d-torsion image per
    invariant factor C_d. The order is lexicographic in that image tuple.
    """
    dec = reference_abelianization(domain)
    candidate_lists = [fiber.torsion_indices(d) for d in dec.factors]
    homs = []
    for images in itertools.product(*candidate_lists):
        vals = []
        for m in domain.members:
            expo = dec.coords[m]
            acc = 0
            for k, img in zip(expo, images):
                for _ in range(k):
                    acc = fiber_add(fiber, acc, img)
            vals.append(acc)
        homs.append(Character(domain, fiber, vals))
    return homs


def reference_class_maps(group: FiniteGroup,
                         reps: Optional[Sequence[Subgroup]] = None
                         ) -> tuple[dict, dict]:
    """(class index, transporter to the class representative) of every
    subgroup's member tuple, as ``conjugacy_classes_of_subgroups`` assigns
    them; each orbit is swept one conjugating element at a time."""
    subs = enumerate_subgroups(group)
    by_members = {s.members: s for s in subs}
    visited: set[tuple[int, ...]] = set()
    orbits: list[dict[tuple[int, ...], int]] = []   # members -> g with ^g(seed)
    for s in subs:
        if s.members in visited:
            continue
        mem = np.asarray(s.members, dtype=np.int64)
        rows = np.sort(reference_conj(group)[:, mem], axis=1)
        orbit: dict[tuple[int, ...], int] = {}
        for g in range(group.order):
            t = tuple(int(v) for v in rows[g])
            orbit.setdefault(t, g)
        visited.update(orbit)
        orbits.append(orbit)
    if reps is None:
        chosen = [by_members[min(orbit)] for orbit in orbits]
        order_key = sorted(range(len(orbits)),
                           key=lambda i: (chosen[i].order, chosen[i].members))
        orbits = [orbits[i] for i in order_key]
        chosen = [chosen[i] for i in order_key]
    else:
        chosen = list(reps)
        orbits = [next(o for o in orbits if s.members in o) for s in chosen]
    class_of: dict[tuple[int, ...], int] = {}
    transporter: dict[tuple[int, ...], int] = {}
    for ci, (rep, orbit) in enumerate(zip(chosen, orbits)):
        g_rep = orbit[rep.members]
        for mem_t, g in orbit.items():
            class_of[mem_t] = ci
            transporter[mem_t] = group.m(g_rep, group.inverse(g))
        transporter[rep.members] = 0
    return class_of, transporter


def reference_check_associativity(table: np.ndarray) -> None:
    """Every triple (a, b, c), one left factor a at a time."""
    n = table.shape[0]
    for a in range(n):
        lhs = table[table[a]]        # [b, c] -> (a*b)*c
        rhs = table[a][table]        # [b, c] -> a*(b*c)
        if not np.array_equal(lhs, rhs):
            b, c = (int(v[0]) for v in np.nonzero(lhs != rhs))
            raise NotAGroup("associativity fails", witness=(a, b, c))


def reference_check_latin_square(table: np.ndarray) -> None:
    """Rows and columns sorted and compared with 0..n-1."""
    n = table.shape[0]
    ref = np.arange(n)
    rows = np.sort(table, axis=1)
    cols = np.sort(table, axis=0)
    if not np.array_equal(rows, np.tile(ref, (n, 1))):
        bad = int(np.nonzero((rows != ref).any(axis=1))[0][0])
        raise NotAGroup(f"row {bad} is not a permutation", witness=(bad,))
    if not np.array_equal(cols, np.tile(ref.reshape(n, 1), (1, n))):
        bad = int(np.nonzero((cols != ref.reshape(n, 1)).any(axis=0))[0][0])
        raise NotAGroup(f"column {bad} is not a permutation", witness=(bad,))


def reference_light_associativity(table: np.ndarray) -> None:
    """Exact associativity check by Light's test on a generating set.

    The elements b with (a*b)*c = a*(b*c) for all a, c contain the identity
    and are closed under products, so the table is associative once every
    element of a generating set passes. The generators are picked greedily:
    each is the least element not yet reached by right multiplication. The
    reached set is then a subgroup that the next generator at least
    doubles, so at most log2(n) elements are tested, each with two n x n
    gathers. Needs the Latin-square property and identity 0.
    """
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    gens: list[int] = []
    while not seen.all():
        g = int(np.argmin(seen))
        lhs = table[table[:, g]]     # [a, c] -> (a*g)*c
        rhs = table[:, table[g]]     # [a, c] -> a*(g*c)
        if not np.array_equal(lhs, rhs):
            a, c = (int(v[0]) for v in np.nonzero(lhs != rhs))
            raise NotAGroup("associativity fails", witness=(a, g, c))
        gens.append(g)
        cols = np.array(gens)
        frontier = np.flatnonzero(seen)
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[table[frontier[:, None], cols]] = True
            fresh &= ~seen
            seen |= fresh
            frontier = np.flatnonzero(fresh)


def reference_inverses(group: FiniteGroup) -> np.ndarray:
    """inv[g]: the position of 0 in row g of the table."""
    inv = np.empty(group.order, dtype=np.int64)
    for g in range(group.order):
        hits = np.nonzero(group.mul[g] == 0)[0]
        inv[g] = hits[0]
    return inv


@functools.lru_cache(maxsize=8)
def reference_conj(group: FiniteGroup) -> np.ndarray:
    """conj[g, x] = g x g^-1, one row per conjugating element g, as a
    read-only table kept for the last few groups asked for, as the
    package stores no conjugation table."""
    n = group.order
    c = np.empty((n, n), dtype=np.int64)
    for g in range(n):
        c[g] = group.mul[group.mul[g], group.inv[g]]
    c.flags.writeable = False
    return c


def reference_element_class_sizes(group: FiniteGroup) -> np.ndarray:
    """The number of distinct conjugates g x g^-1 of each element x."""
    conj = reference_conj(group)
    return np.array([np.unique(conj[:, x]).size
                     for x in range(group.order)], dtype=np.int64)


def reference_class_invariant(table, ci: int, fiber) -> tuple:
    rep = table.reps[ci]
    cross = Counter()
    for cj, other in enumerate(table.reps):
        cross[(other.order, table.class_sizes[cj],
               table.marks[ci][cj], table.marks[cj][ci])] += 1
    return (rep.order, table.class_sizes[ci],
            len(char_index(rep, fiber).values),
            tuple(sorted(cross.items())))


def reference_search_species(g_table: SubgroupClassTable,
                             h_table: SubgroupClassTable, fiber: AbelianFiber,
                             *, budget: Optional[int] = None
                             ) -> Optional[SpeciesWitness]:
    """Backtracking search for a witness over the transversals of two class
    tables, with group-isomorphism character maps; returns the first
    witness in deterministic order or None.

    Class candidates are pruned by (order, class size, hom-set size,
    mark-profile multiset). A None result means exhaustion under the
    group-isomorphism restriction; see ``EXHAUSTION_CAVEAT``. Gamma blocks
    are read from the two orbit bases, which keep them for
    ``verify_species``.
    """
    k = len(g_table.reps)
    if len(h_table.reps) != k:
        return None
    inv_g = [reference_class_invariant(g_table, i, fiber) for i in range(k)]
    inv_h = [reference_class_invariant(h_table, i, fiber) for i in range(k)]
    if sorted(inv_g) != sorted(inv_h):
        return None
    basis_g = monomial_basis(g_table.group, fiber, g_table)
    basis_h = monomial_basis(h_table.group, fiber, h_table)
    homs_g = [char_index(r, fiber) for r in g_table.reps]
    homs_h = [char_index(r, fiber) for r in h_table.reps]
    gamma_g, gamma_h = basis_g.gamma_block, basis_h.gamma_block
    candidates = [[j for j in range(k) if inv_h[j] == inv_g[i]]
                  for i in range(k)]
    assignment: list[Optional[int]] = [None] * k
    char_assignment: list[Optional[np.ndarray]] = [None] * k
    used = [False] * k
    nodes = 0

    def matches(x: int, y: int) -> bool:
        """The gamma block of classes (x, y) equals the block of their
        images, read through the character maps (which give both blocks
        one shape)."""
        image = gamma_h(assignment[x], assignment[y])
        return bool((gamma_g(x, y) == image[
            char_assignment[x][:, None], char_assignment[y]]).all())

    def consistent(ci: int) -> bool:
        return all(matches(ci, cj) and matches(cj, ci)
                   for cj in range(ci + 1))

    def backtrack(ci: int) -> bool:
        nonlocal nodes
        if ci == k:
            return True
        for j in candidates[ci]:
            if used[j]:
                continue
            for cmap in char_group_isomorphisms(homs_g[ci], homs_h[j]):
                nodes += 1
                if budget is not None and nodes > budget:
                    raise SearchBudgetExceeded(
                        f"species search exceeded {budget} nodes")
                assignment[ci] = j
                char_assignment[ci] = np.asarray(cmap, dtype=np.int64)
                used[j] = True
                if consistent(ci) and backtrack(ci + 1):
                    return True
                used[j] = False
                assignment[ci] = None
                char_assignment[ci] = None
        return False

    if not backtrack(0):
        return None
    return SpeciesWitness(g_table, h_table, [int(v) for v in assignment],
                          [m.tolist() for m in char_assignment])


def reference_gamma_check(basis_g, basis_h, witness):
    """The gamma check of ``verify_species`` one class pair at a time: the
    first counterexample over ci, then cj, of ``reference_gamma_mismatch``,
    skipping the pairs whose mark is 0 on both sides; None if none."""
    marks_g, marks_h = witness.g_table.marks, witness.h_table.marks
    k = len(witness.g_table.reps)
    for ci in range(k):
        ti = witness.subgroup_map[ci]
        for cj in range(k):
            # a mark is the [0, 0] entry of its gamma block, and a block
            # whose mark is 0 is zero, so two zero marks cannot mismatch
            if not (marks_g[ci][cj] or marks_h[ti][witness.subgroup_map[cj]]):
                continue
            bad = reference_gamma_mismatch(basis_g, basis_h, witness, ci, cj)
            if bad is not None:
                return bad
    return None


def reference_gamma_mismatch(basis_g, basis_h, witness, ci: int, cj: int):
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


def reference_structure_constant_check(basis_g, basis_h, witness):
    """Transport every structure constant of ``basis_g`` through the basis
    bijection the witness induces and compare it with ``basis_h``, one
    class pair at a time; reports the first differing basis pair (i, j) in
    row-major order.

    Only the blocks with ci <= cj are compared. On both sides the block
    (cj, ci) is the exact transpose of (ci, cj) (``MonomialBasis.runs``),
    and the bijection maps both axes alike, so the pair (j, i) differs exactly
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
        mapping.append(int(basis_h.char_to_basis[cj][hj]))
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
            block_g = located_block(basis_g, ci, cj)
            block_h = located_block(
                basis_h, ti, witness.subgroup_map[cj])[at_h[ci]][:, at_h[cj]]
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
# One-pair cases of the package's batched kernels, and helpers that no
# command reaches


def element_order(group: FiniteGroup, g: int) -> int:
    return int(group.element_orders[g])


def fiber_add(fiber: AbelianFiber, i: int, j: int) -> int:
    return int(fiber.add_table[i, j])


def neg_table(fiber: AbelianFiber) -> np.ndarray:
    """The index of -a for every fiber element index a."""
    return fiber._encode((-fiber.coords) % np.array(fiber.factors,
                                                    dtype=np.int64))


def fiber_neg(fiber: AbelianFiber, i: int) -> int:
    return int(neg_table(fiber)[i])


def torsion_elements(fiber: AbelianFiber, n: int) -> list[tuple[int, ...]]:
    """All a with n*a = 0, in lexicographic order."""
    return [fiber.elements[i] for i in fiber.torsion_indices(n)]


def fixed_cosets(group: FiniteGroup, k: Subgroup, l: Subgroup) -> np.ndarray:
    """The left coset reps s of L, ascending, with K <= sLs^-1: the cosets
    sL that K fixes (the one-pair case of ``_fixed_by``)."""
    fixed = next(_fixed_by(group, [k], [l]))
    return left_coset_reps(group, l)[fixed[:, 0]]


def mark(group: FiniteGroup, k: Subgroup, l: Subgroup) -> int:
    """Number of cosets sL fixed by K, i.e. with K <= sLs^-1."""
    return len(fixed_cosets(group, k, l))


def double_coset_reps(group: FiniteGroup, k: Subgroup, l: Subgroup) -> list[int]:
    """Least-element representatives of the double cosets K\\G/L,
    ascending (the one-pair case of ``double_cosets``)."""
    return double_cosets(group, [k], [l])[1].tolist()


def gamma_block(k_sub: Subgroup, l_sub: Subgroup,
                fiber: AbelianFiber) -> np.ndarray:
    """Gamma coefficients of every (K, phi) against every (L, psi).

    Entry [a, b] counts the cosets sL with K <= sLs^-1 on which the
    conjugate of the b-th character of Hom(L, A) restricts to the a-th
    character of Hom(K, A); rows and columns follow ``CharIndex`` order.
    Both subgroups must live over the same group. This is the one-pair
    case of ``gamma_rows``: row 0 of the kernel over [K, L], at the
    columns of L, or over [K] alone when L is K."""
    if k_sub == l_sub:
        return gamma_rows(_HomLayout([k_sub], fiber))(0)
    return gamma_rows(_HomLayout([k_sub, l_sub], fiber))(0)[
        :, len(char_index(k_sub, fiber).values):]


def gamma_table(basis: MonomialBasis) -> np.ndarray:
    """Gamma coefficients of every basis pair against every basis pair: the
    rows of ``gamma_class_rows`` in one array. The CLI writes those rows as
    they come and never holds this table, 3.4 MB in int8 for (C2)^4 over
    C2 x C2."""
    return np.concatenate(list(gamma_class_rows(basis)))


# ---------------------------------------------------------------------------
# Ring elements


class ComponentMismatch(AlgebraError):
    """Two ghost elements over different ghost rings were combined."""


def basis_element(basis: MonomialBasis, i: int) -> "BurnsideElement":
    coeffs = [0] * basis.size
    coeffs[i] = 1
    return BurnsideElement(basis, coeffs)


def identity_index(basis: MonomialBasis) -> int:
    full = basis.class_table.class_of(
        Subgroup(basis.group, range(basis.group.order), verify=False))
    return int(basis.char_to_basis[full][0])   # the trivial character


def identity_element(basis: MonomialBasis) -> "BurnsideElement":
    return basis_element(basis, identity_index(basis))


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
    terms_y = [(j, b) for j, b in enumerate(y.coeffs) if b]
    for i, a in ((i, a) for i, a in enumerate(x.coeffs) if a):
        for j, b in terms_y:
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
        self.mul_tables = [c.hom_type.table for c in basis._homs.chars]
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
        basis = self.ring.basis   # each equals its orbit rep's entry
        return all(comp == [comp[basis.rep_hom_index[b]] for b in orb.tolist()]
                   for comp, orb in zip(self.comps, basis.char_to_basis))

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


@functools.cache
def ghost_ring(basis: MonomialBasis) -> GhostRing:
    """The ghost ring of ``basis``, one per basis, so that the images of
    one basis can be compared."""
    return GhostRing(basis)


def mark_morphism(basis: MonomialBasis, x: BurnsideElement) -> GhostElement:
    """Image of x under the mark morphism into the reduced ghost ring.

    The K-component of the image of a basis orbit [L, psi] is the vector of
    gamma coefficients over Hom(K, A), extended linearly. The gamma rows
    come from the basis, so each class row is computed once.
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
