"""Exact finite-group arithmetic on dense Cayley tables.

Elements of a group of order n are the indices 0..n-1, with 0 the identity.
All heavy scans (validation, conjugation, closures) go through numpy on the
multiplication table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import NotAGroup, NotAnAction, NotAnAutomorphism


# ---------------------------------------------------------------------------
# FiniteGroup


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is validated exactly on construction, at every order:
    Latin-square property, identity at index 0, inverses, and
    associativity by Light's test on a generating set. The stored tables
    are ``mul`` and ``inv``, in ``_index_dtype(order)``; a key or a count
    built from their values is widened to int64 first, as numpy arrays
    wrap around silently. Conjugates come from ``_conjugate``."""

    def __init__(self, mul, name: Optional[str] = None):
        table = _square_table(mul)
        n = table.shape[0]
        _check_permutations(table, "row")
        try:
            if not (np.array_equal(table[0], np.arange(n))
                    and np.array_equal(table[:, 0], np.arange(n))):
                raise NotAGroup("element 0 is not a two-sided identity")
            _check_associativity(table)
        except NotAGroup:
            # rows that are permutations, an identity and associativity
            # make a group, so the columns need a check only here, where
            # a bad column is still the error to report
            _check_permutations(table.T, "column")
            raise
        # each row is a permutation, so its one 0 is its minimum
        inv = np.argmin(table, axis=1).astype(table.dtype)
        # g * inv[g] = 0 holds by construction; check the other side too.
        bad = np.nonzero(table[inv, np.arange(n)] != 0)[0]
        if bad.size:
            g = int(bad[0])
            raise NotAGroup("inverse fails on the left", witness=(int(inv[g]), g))
        self.order: int = n
        self.mul: np.ndarray = table
        self.inv: np.ndarray = inv
        self.name: str = name if name is not None else f"group{n}"
        self._cache: dict = {}

    # -- elementary operations

    def m(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @cached_property
    def element_orders(self) -> np.ndarray:
        return _orders(self.mul)

    @cached_property
    def element_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(reps, label)`` for the conjugacy classes of elements:
        ``reps[c]`` is the least member of class c, ascending, and
        ``label[x]`` is the class of x.

        One orbit, the conjugates of x by every g, per class, x its least
        member; the next x is found by an ``argmin`` over the flags beyond
        it, so no Python step visits the other members."""
        n = self.order
        every = np.arange(n)
        label = np.empty(n, dtype=np.int64)
        labelled = np.zeros(n, dtype=bool)
        reps: list[int] = []
        x = 0
        while not labelled[x]:
            orbit = _conjugate(self, every, x).astype(np.intp)
            label[orbit] = len(reps)
            labelled[orbit] = True
            reps.append(x)
            # the least unlabelled element, or x again once all are
            x += int(np.argmin(labelled[x:]))
        return np.asarray(reps, dtype=np.int64), label

    @cached_property
    def element_class_sizes(self) -> np.ndarray:
        """The size of the conjugacy class of each element."""
        label = self.element_classes[1]
        return np.bincount(label)[label]

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _conjugate(group: FiniteGroup, g, x) -> np.ndarray:
    """g x g^-1 for index arrays g and x that broadcast, in the group's
    dtype: two gathers of ``mul``, so no n x n conjugation table is kept."""
    return group.mul[group.mul[g, x], group.inv[g]]


def _index_dtype(n: int) -> type:
    """The dtype of the tables of a group of order n: the smallest of
    int16, int32 and int64 that holds n. Hot loops widen gathered values
    to intp to index with them, as int16 indices cost 2.5 us a call."""
    return np.int16 if n < 2 ** 15 else np.int32 if n < 2 ** 31 else np.int64


def _square_table(mul) -> np.ndarray:
    """``mul`` in ``_index_dtype(n)``, checked to be a non-empty square
    table with entries in 0..n-1. An integer ndarray is checked before it
    is cast, so no entry wraps around."""
    table = (mul if isinstance(mul, np.ndarray) and mul.dtype.kind in "iu"
             else np.asarray(mul, dtype=np.int64))
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup("multiplication table must be square")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("a group has at least one element")
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries must lie in 0..n-1")
    return table.astype(_index_dtype(n), copy=False)


def _block_rows(n: int) -> int:
    """The rows per block of the validation checks on an n x n table:
    about 2^16 entries a block, so no transient is n x n."""
    return max(1, (1 << 16) // n)


def _check_permutations(lines: np.ndarray, what: str) -> None:
    """Every row of the n x n array ``lines`` (the table, or its transpose
    for the columns) is a permutation of 0..n-1, checked in blocks of
    ``_block_rows(n)`` rows, in order: row i of a block is one exactly when
    its n entries mark all n cells of row i of a boolean array of the
    block's shape. The first row that is not names the failure."""
    n = lines.shape[0]
    step = _block_rows(n)
    rows = np.arange(step)[:, None]
    for a0 in range(0, n, step):
        block = lines[a0:a0 + step]
        seen = np.zeros(block.shape, dtype=bool)
        seen[rows[:block.shape[0]], block] = True
        full = seen.all(axis=1)
        if not full.all():
            bad = a0 + int(np.argmin(full))
            raise NotAGroup(f"{what} {bad} is not a permutation",
                            witness=(bad,))


def _check_associativity(table: np.ndarray) -> None:
    """Exact associativity check by Light's test on a generating set.

    The elements b with (a*b)*c = a*(b*c) for all a, c contain the identity
    and are closed under products, so the table is associative once every
    element of a generating set passes. The generators are picked greedily:
    each is the least element not yet reached by right multiplication. The
    reached set is then a subgroup that the next generator at least
    doubles, so at most log2(n) elements are tested, each with two gathers
    in the table's dtype per block of ``_block_rows(n)`` rows a, blocks in
    order; the first (a, c) where they differ, in row-major order, is the
    witness. ``take`` keeps the column gather C-ordered, as the row gather
    is, so their difference runs at memory speed.

    Needs identity 0 and rows that are permutations, not columns. The
    reached set H is then a finite monoid with injective left
    multiplications, so a group. For g outside H that passes, h -> hg is
    injective: hg = h'g gives kg = g for k = h^-1 h' in H, so
    k(gc) = (kg)c = gc for all c; row g holds every element, so kk = k
    and k = 1. And hg lies outside H, or g = h^-1(hg) would lie in it.
    """
    n = table.shape[0]
    step = _block_rows(n)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    gens: list[int] = []
    while not seen.all():
        g = int(np.argmin(seen))
        col, row = table[:, g], table[g]
        for a0 in range(0, n, step):
            # [a, c] -> (a*g)*c - a*(g*c) for a from a0, in place; entries
            # lie in 0..n-1, so the difference fits the dtype and is 0
            # exactly where they agree
            diff = table[col[a0:a0 + step]]
            diff -= table[a0:a0 + step].take(row, axis=1)
            if diff.any():
                a, c = (int(v[0]) for v in np.nonzero(diff))
                raise NotAGroup("associativity fails", witness=(a0 + a, g, c))
        gens.append(g)
        cols = np.array(gens)
        frontier = np.flatnonzero(seen)
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[table[frontier[:, None], cols]] = True
            fresh &= ~seen
            seen |= fresh
            frontier = np.flatnonzero(fresh)


def group_from_cayley(table, name: Optional[str] = None) -> FiniteGroup:
    """Validate a raw Cayley table; relabels so the identity sits at index 0."""
    arr = _square_table(table)
    n = arr.shape[0]
    ident = None
    ref = np.arange(n)
    for e in range(n):
        if np.array_equal(arr[e], ref) and np.array_equal(arr[:, e], ref):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity element")
    if ident != 0:
        sigma = np.arange(n, dtype=arr.dtype)
        sigma[0], sigma[ident] = ident, 0
        arr = sigma[arr[np.ix_(sigma, sigma)]]
    return FiniteGroup(arr, name=name)


def group_from_json(data: dict, name: Optional[str] = None) -> FiniteGroup:
    if not (isinstance(data, dict) and type(data.get("order")) is int
            and isinstance(data.get("mul"), list)):
        raise NotAGroup("JSON group needs an object with an integer "
                        "'order' and a list 'mul'")
    table = data["mul"]
    if not all(isinstance(row, list) and set(map(type, row)) <= {int}
               for row in table):
        raise NotAGroup("'mul' must be a list of rows of integers")
    if len(table) != data["order"]:
        raise NotAGroup("'order' does not match the table size")
    return group_from_cayley(table, name=name)


# ---------------------------------------------------------------------------
# Constructors


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="1")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return abelian_group((n,))


def abelian_group(factors: Sequence[int]) -> FiniteGroup:
    """Direct sum of cyclic groups; element index is mixed-radix over factors."""
    factors = tuple(int(d) for d in factors)
    if not factors or any(d < 1 for d in factors):
        raise ValueError("factors must be positive integers")
    dtype = _index_dtype(prod(factors))
    # one factor at a time: the index of (x, c) is x * d + c
    table = np.zeros((1, 1), dtype=dtype)
    for d in factors:
        idx = np.arange(d, dtype=dtype)
        cyc = idx[:, None] - (d - idx)   # a + b - d, in -d..d-2: no overflow
        cyc[cyc < 0] += d                # so (a + b) mod d
        m = table.shape[0] * d
        table = (table[:, None, :, None] * d + cyc[:, None, :]).reshape(m, m)
    name = "x".join(f"C{d}" for d in factors)
    return FiniteGroup(table, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise ValueError("symmetric_group supports n in 1..6")
    # permutations() of a sorted range comes in lexicographic order
    perms = np.asarray(list(itertools.permutations(range(n))), dtype=np.int32)
    return FiniteGroup(_permutation_table(perms), name=f"S{n}")


def _permutation_table(perms: np.ndarray) -> np.ndarray:
    """The multiplication table of the permutations in the rows of
    ``perms``, a set closed under composition, multiplied as
    (pq)(k) = p(q(k)): entry [i, j] is the row of perms[i] perms[j].

    The key of a permutation is the number whose base-d digits are its d
    images. The keys of the products pq are summed over k from one column
    gather of the images p(q(k)) per k, and one lookup in an array of d**d
    entries, the row of each key, turns them into indices: d is at most 8
    (8**8 entries of int32 are 67 MB). Rows go in blocks of 64 p, so that
    no temporary is much larger than the table itself."""
    m, d = perms.shape
    weights = d ** np.arange(d, dtype=np.int32)
    pos = np.zeros(d ** d, dtype=_index_dtype(m))
    pos[perms @ weights] = np.arange(m)
    table = np.empty((m, m), dtype=pos.dtype)
    for start in range(0, m, 64):
        block = perms[start:start + 64]
        products = np.zeros((len(block), m), dtype=np.int32)
        for k in range(d):
            products += block[:, perms[:, k]] * weights[k]
        table[start:start + 64] = pos[products]
    return table


def semidirect_product(normal: FiniteGroup, acting: FiniteGroup,
                       action: Sequence[Sequence[int]],
                       name: Optional[str] = None) -> FiniteGroup:
    """Semidirect product N x| Q for abelian N.

    ``action[q]`` is the automorphism of N attached to q, given as a
    permutation of N's element indices. Multiplication is
    (n1, q1)(n2, q2) = (n1 * action[q1](n2), q1 q2); the index of (n, q)
    is n * |Q| + q.
    """
    if not normal.is_abelian():
        raise NotAnAction("the normal factor must be abelian")
    nN, nQ = normal.order, acting.order
    acts = np.asarray(action, dtype=np.int64)
    if acts.shape != (nQ, nN):
        raise NotAnAction(f"need one length-{nN} automorphism per element of Q")
    ref = np.arange(nN)
    for q in range(nQ):
        a = acts[q]
        if not np.array_equal(np.sort(a), ref):
            raise NotAnAutomorphism(f"action of {q} is not a bijection")
        if not np.array_equal(a[normal.mul], normal.mul[np.ix_(a, a)]):
            raise NotAnAutomorphism(f"action of {q} does not preserve products")
    for q1 in range(nQ):
        for q2 in range(nQ):
            if not np.array_equal(acts[acting.m(q1, q2)], acts[q1][acts[q2]]):
                raise NotAnAction(f"action is not a homomorphism at ({q1},{q2})")
    n = nN * nQ
    # [n1, q1, n2] -> n1 * action[q1](n2), widened to hold n1 * |Q| + q
    twisted = normal.mul.take(acts, axis=1).astype(_index_dtype(n),
                                                   copy=False)
    twisted *= nQ
    # [n1, q1, n2 * |Q| + q2], so that q1 q2 is added along whole rows
    table = np.repeat(twisted, nQ, axis=2)
    table += np.tile(acting.mul, nN)
    table = table.reshape(n, n)
    if name is None:
        name = f"{normal.name}:{acting.name}"
    return FiniteGroup(table, name=name)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n as C_n x| C_2 with the inversion action."""
    if n < 1:
        raise ValueError("dihedral_group needs n >= 1")
    cn = cyclic_group(n)
    c2 = cyclic_group(2)
    ident = list(range(n))
    invert = [(-r) % n for r in range(n)]
    return semidirect_product(cn, c2, [ident, invert], name=f"D{n}")


# ---------------------------------------------------------------------------
# Subgroups


def closure(group: FiniteGroup, gens: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing ``gens``, as a sorted member tuple.

    Breadth-first over words in the generators: each step multiplies only
    the elements first reached in the previous step by the generators. In
    a finite group the monoid so generated is the subgroup.
    """
    seen = np.zeros(group.order, dtype=bool)
    seen[0] = True
    cols = _sorted_unique(np.fromiter((int(g) for g in gens), dtype=np.intp))
    cols = cols[cols != 0]
    seen[cols] = True
    frontier = cols
    while frontier.size:
        # widened once: the next three index operations run on intp
        prods = group.mul[frontier[:, None], cols].ravel().astype(np.intp)
        frontier = _sorted_unique(prods[~seen[prods]])
        seen[frontier] = True
    return tuple(np.flatnonzero(seen).tolist())


class Subgroup:
    """An exactly represented subgroup: its sorted member tuple."""

    __slots__ = ("group", "members", "_gens")

    def __init__(self, group: FiniteGroup, members: Iterable[int],
                 *, verify: bool = True):
        mem = tuple(sorted(int(m) for m in members))
        if verify:
            if not mem or mem[0] != 0:
                raise ValueError("a subgroup must contain the identity")
            if closure(group, mem) != mem:
                raise ValueError("member set is not closed")
        if group.order % len(mem):
            raise ValueError(f"a subgroup of order {len(mem)} violates "
                             f"Lagrange in a group of order {group.order}")
        self.group = group
        self.members = mem
        self._gens: Optional[tuple[int, ...]] = None

    @classmethod
    def generated(cls, group: FiniteGroup, gens: Iterable[int]) -> "Subgroup":
        return cls(group, closure(group, gens), verify=False)

    @property
    def order(self) -> int:
        return len(self.members)

    def generators(self) -> tuple[int, ...]:
        """A generating sequence. A subgroup from ``enumerate_subgroups``
        carries the one the lattice built it from; any other gets the
        greedy one: each member, ascending, that the earlier ones do not
        generate."""
        if self._gens is None:
            gens: list[int] = []
            reached = np.zeros(self.group.order, dtype=bool)
            reached[0] = True
            for m in self.members:
                if not reached[m]:
                    gens.append(m)
                    cur = closure(self.group, gens)
                    if len(cur) == self.order:
                        break
                    reached[list(cur)] = True
            self._gens = tuple(gens)
        return self._gens

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.group is other.group
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members})"


def enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, via layered cyclic extension of one subgroup per
    conjugacy class.

    Starting from the trivial subgroup, a known S is extended to
    <S, g> = S u Sg u ... u Sg^(p-1) for g in N_G(S) with g^p in S; each
    solvable subgroup arises this way along a composition series. Perfect
    subgroups (possible only when 60 <= |G| and 12 divides |G|) are seeded
    separately from two-generated closures, so non-solvable subgroups are
    reached as well.

    Each S found keeps the sequence it was built from (``gens + (g,)``
    for an extension, ``(a, b)`` for a perfect seed, the conjugates of
    S's own for a conjugate of S) as its ``generators()``, so N_G(S) is
    one gather of the conjugates of those generators, and no generating
    set is searched for. Once <S, g> is found, every member of it is
    skipped for this S: g normalizes S and [<S, g> : S] = p
    is prime, so for any g' in <S, g> outside S the quotient <S, g'>/S is a
    nontrivial subgroup of <S, g>/S, a group of order p; hence g'^p lies in
    S and <S, g'> = <S, g>, so g' adds nothing new.

    Only one subgroup per conjugacy class is extended: when S is, all its
    conjugates (one per left coset of N_G(S)) are recorded, and a queued
    conjugate is skipped. Nothing is lost, as conjugation by c maps N_G(S)
    onto N_G(cSc^-1) and <S, g> onto <cSc^-1, cgc^-1>: the extensions of a
    conjugate of S are the conjugates of the extensions of S.
    """
    cached = group._cache.get("subgroups")
    if cached is not None:
        return list(cached)
    n = group.order
    primes = [p for p, _ in _prime_factors(n)]
    # every subgroup found: members -> the sequence it was built from
    seen: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    extended: set[tuple[int, ...]] = set()   # conjugates of those extended
    queue: list[tuple[int, ...]] = [(0,)]
    if n >= 60 and n % 12 == 0:
        seeds = _perfect_seeds(group)
        seen.update(seeds)
        queue.extend(seeds)
    mul = group.mul
    while queue:
        mem = queue.pop()
        gens = seen[mem]
        size = len(mem)
        index = n // size
        valid_primes = [p for p in primes if index % p == 0]
        if not valid_primes or mem in extended:
            continue
        mem_arr = np.asarray(mem, dtype=np.int64)
        inside = _indicator(n, mem_arr)
        norm = _normalizing(group, inside, gens)
        if norm.size < n:   # a normal S is its only conjugate
            orbit = _conjugates(group, mem_arr,
                                Subgroup(group, norm.tolist(), verify=False))
            moved = _conjugate(
                group, np.fromiter(orbit.values(), dtype=np.int64)[:, None],
                np.asarray(gens, dtype=np.int64))
            for conj_mem, conj_gens in zip(orbit, moved.tolist()):
                seen.setdefault(conj_mem, tuple(conj_gens))
            extended.update(orbit)
        done = inside.copy()
        for g in norm.tolist():
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
                    seen[new_mem] = gens + (g,)
                    queue.append(new_mem)
                break   # g^p in S for two primes would force g in S
    subs = []
    for mem in sorted(seen, key=lambda m: (len(m), m)):
        subs.append(Subgroup(group, mem, verify=False))
        subs[-1]._gens = seen[mem]
    group._cache["subgroups"] = subs
    return list(subs)


def _perfect_seeds(group: FiniteGroup) -> dict[tuple[int, ...], tuple[int, int]]:
    """Perfect subgroups of order at least 60, one per conjugacy class,
    each mapped to a pair (a, b) that generates it.

    Relies on perfect groups in the supported order range (<= ~2000) being
    two-generated. Up to conjugation a nontrivial perfect P is <a, b> with
    a a class representative other than the identity and b outside C_G(a),
    since a commuting pair spans an abelian group. b counts only up to the
    moves b -> a^i b a^j, b -> b^-1 and b -> cbc^-1 for c in C_G(a). The
    first two keep <a, b>, as a^i b a^j and b^-1 lie in it and give b back
    with a. The last gives <a, cbc^-1> = c<a, b>c^-1, as c fixes a. So one
    b per orbit <a>{cb^(+-1)c^-1}<a> reaches every class, and the moves
    keep b outside C_G(a). Deduplicating each step keeps it to n x |a|.
    """
    mul, inv = group.mul, group.inv
    every = np.arange(group.order)
    found: dict[tuple[int, ...], tuple[int, int]] = {}
    tried: set[tuple[int, ...]] = set()
    for a in group.element_classes[0][1:].tolist():
        powers = _powers(mul, a, int(group.element_orders[a]))
        centralizer = np.flatnonzero(_conjugate(group, every, a) == a)
        covered = _indicator(group.order, centralizer)
        while not covered.all():
            b = int(np.argmin(covered))   # the least b not yet reached
            moved = _sorted_unique(_conjugate(group, centralizer[:, None],
                                              np.asarray((b, inv[b]))))
            moved = _sorted_unique(mul[powers[:, None], moved])
            covered[mul[moved[:, None], powers]] = True
            mem = closure(group, (a, b))
            if mem in tried:
                continue
            tried.add(mem)
            sub = Subgroup(group, mem, verify=False)
            sub._gens = (a, b)
            if len(mem) >= 60 and commutator_subgroup(sub).members == mem:
                found[mem] = (a, b)
                # one closure per class: a conjugate of P is P again
                tried.update(_conjugates(group, mem, normalizer(group, sub)))
    return found


def _conjugates(group: FiniteGroup, members: Sequence[int],
                norm: Subgroup) -> dict[tuple[int, ...], int]:
    """Each distinct conjugate ^gS of the subgroup S with these sorted
    ``members`` and normalizer ``norm``, as a sorted member tuple, mapped
    to the least g that gives it.

    One conjugate per left coset rep s of N = N_G(S): ^gS = ^sS exactly when
    s^-1 g normalizes S, that is when g lies in sN. So the g that give ^sS
    form the coset sN, whose least element is its rep s. A normal S costs
    one coset.
    """
    reps = left_coset_reps(group, norm)
    rows = np.sort(_conjugate(group, reps[:, None],
                              np.asarray(members, dtype=np.int64)), axis=1)
    return dict(zip(map(tuple, rows.tolist()), reps.tolist()))


# ---------------------------------------------------------------------------
# Cosets, marks, conjugacy classes


def left_coset_reps(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """The least element of each left coset sL, ascending, as a read-only
    int64 array kept in the group's cache.

    When |L|^2 <= n, one n x |L| gather gives min(gL) for every g, and the
    reps are the g equal to it. Otherwise there are fewer than |L| cosets,
    and each rep is found by an ``argmin`` over the covered flags beyond
    the last one. Either way the work is at most n^1.5."""
    key = ("cosets", sub.members)
    reps = group._cache.get(key)
    if reps is None:
        n = group.order
        mem = np.asarray(sub.members, dtype=np.int64)
        if mem.size ** 2 <= n:
            least = group.mul[:, mem].min(axis=1)
            found = np.flatnonzero(least == np.arange(n))
        else:
            covered = np.zeros(n, dtype=bool)
            starts: list[int] = []
            s = 0
            while not covered[s]:
                covered[group.mul[s, mem].astype(np.intp)] = True
                starts.append(s)
                # the least uncovered element, or s again once all are
                s += int(np.argmin(covered[s:]))
            found = np.asarray(starts, dtype=np.int64)
        reps = group._cache[key] = found
        reps.flags.writeable = False
    return reps


def _coset_matrix(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """Row c lists the members of the c-th left coset of ``sub``, in the
    order of ``left_coset_reps``: one (|G:L|, |L|) gather."""
    return group.mul[left_coset_reps(group, sub)[:, None],
                     np.asarray(sub.members, dtype=np.int64)]


def _coset_labels(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """label[g] is the index of the left coset gL among the reps of
    ``left_coset_reps``."""
    key = ("coset_labels", sub.members)
    label = group._cache.get(key)
    if label is None:
        cosets = _coset_matrix(group, sub)
        label = np.empty(group.order, dtype=np.int64)
        label[cosets] = np.arange(cosets.shape[0])[:, None]
        group._cache[key] = label
    return label


def _fixed_by(group: FiniteGroup, ks: Sequence[Subgroup],
              ls: Sequence[Subgroup]) -> Iterator[np.ndarray]:
    """For each L in ``ls``, the boolean (|G:L|, len(ks)) array whose
    entry [c, a] says whether ks[a] fixes the c-th left coset sL of L.

    K fixes sL exactly when K <= sLs^-1, that is when s^-1Ks <= L. The
    subgroup s^-1Ks is generated by the conjugates s^-1xs of the
    generators x of K, and L is closed, so it lies in L once those
    conjugates do. So one gather per L, of the conjugates by each left
    coset rep of L of the generators of every K at once, reduced per K,
    decides every pair. Each K's generators follow the identity, which
    lies in every L, so no K has an empty run.
    """
    runs = [(0, *k.generators()) for k in ks]
    gens = np.concatenate(runs)
    starts = _starts(np.asarray([len(run) for run in runs]))
    for l in ls:
        reps = left_coset_reps(group, l)
        inside_l = _indicator(group.order, l.members)
        moved = _conjugate(group, group.inv[reps][:, None], gens)
        yield np.logical_and.reduceat(inside_l[moved], starts, axis=1)


def _marks(group: FiniteGroup, subs: Sequence[Subgroup]) -> list[list[int]]:
    """The marks of every K in ``subs`` on every L in ``subs``, one gather
    per L (``_fixed_by``)."""
    return np.stack([fixed.sum(axis=0)
                     for fixed in _fixed_by(group, subs, subs)],
                    axis=1).tolist()


def double_cosets(group: FiniteGroup, ks: Sequence[Subgroup],
                  ls: Sequence[Subgroup]) -> tuple[np.ndarray, np.ndarray]:
    """Least-element representatives of the double cosets K\\G/L of every
    K in ``ks`` and L in ``ls``, as ``(pair, reps)``.

    The reps of the pair (ks[a], ls[b]) are the entries with
    pair == a * len(ls) + b, ascending, and pairs come in row-major order.

    KgL is the union of the right cosets Kh for h in gL, so its least
    element is the least min(Kh) over h in gL. Kh is the set of inverses
    of the left coset h^-1K, so one gather per K through its left cosets
    gives min(Kh) for every h. One gather of those minima per L, through
    the left cosets of L, and a minimum per coset give the least element
    of the double coset through each left coset of L; distinct double
    cosets have distinct least elements, so a sort and a unique per pair
    give the reps. This is O(|G|) work per pair and no Python loop over
    cosets or pairs.
    """
    inv = group.inv
    right = np.empty((len(ks), group.order), dtype=np.int64)
    for a, k in enumerate(ks):
        right[a] = inv[_coset_matrix(group, k)].min(axis=1)[
            _coset_labels(group, k)[inv]]
    pairs, reps = [], []
    for b, l in enumerate(ls):
        least = np.sort(right[:, _coset_matrix(group, l)].min(axis=2),
                        axis=1)
        first = np.ones(least.shape, dtype=bool)
        first[:, 1:] = least[:, 1:] != least[:, :-1]
        pairs.append(np.nonzero(first)[0] * len(ls) + b)
        reps.append(least[first])
    pair = np.concatenate(pairs)
    by_pair = np.argsort(pair, kind="stable")
    return pair[by_pair], np.concatenate(reps)[by_pair]


def _sorted_unique(values) -> np.ndarray:
    """``np.unique(values)``, which imports ``numpy.ma`` on first use (about
    15 ms and 1.3 MB per process), as ``np.union1d`` does."""
    flat = np.sort(values, axis=None)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each run starts when runs of these lengths are laid end to
    end."""
    return np.cumsum(counts) - counts


def _indicator(n: int, members) -> np.ndarray:
    """Boolean array of length n, True exactly on ``members``."""
    inside = np.zeros(n, dtype=bool)
    inside[np.asarray(members, dtype=np.int64)] = True
    return inside


def _normalizing(group: FiniteGroup, inside: np.ndarray,
                 gens: Sequence[int]) -> np.ndarray:
    """The elements g, ascending, that conjugate every one of ``gens`` into
    the subgroup S they generate (given by its indicator ``inside``).

    That is N_G(S): gSg^-1 is generated by the conjugates of ``gens``, so
    it lies in S, and it has the order of S, so it equals S.
    """
    block = _conjugate(group, np.arange(group.order)[:, None],
                       np.asarray(gens, dtype=np.int64))
    return np.flatnonzero(inside[block.astype(np.intp)].all(axis=1))


def normalizer(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    inside = _indicator(group.order, sub.members)
    return Subgroup(group, _normalizing(group, inside, sub.generators()),
                    verify=False)


@dataclass
class SubgroupClassTable:
    """Conjugacy classes of subgroups with the table of marks.

    ``marks[i][j]`` counts the cosets of ``reps[j]`` fixed by ``reps[i]``.
    """

    group: FiniteGroup
    reps: list[Subgroup]
    marks: list[list[int]]
    class_sizes: list[int]
    _class_of: dict
    _transporter: dict

    def class_of(self, sub: Subgroup) -> int:
        return self._class_of[sub.members]

    def transporter_to_rep(self, sub: Subgroup) -> int:
        """Element g with ^g(sub) equal to the class representative."""
        return self._transporter[sub.members]

    def to_json(self) -> dict:
        return {
            "reps": [list(s.members) for s in self.reps],
            "orders": [s.order for s in self.reps],
            "class_sizes": list(self.class_sizes),
            "marks": [list(row) for row in self.marks],
        }


def conjugacy_classes_of_subgroups(
        group: FiniteGroup,
        reps: Optional[Sequence[Subgroup]] = None) -> SubgroupClassTable:
    """Class table over all subgroups.

    With ``reps`` omitted, the representative of each class is the
    lexicographically least member set, and classes are sorted by
    (order, members). A custom transversal may be supplied; it is verified
    to hit every class exactly once and fixes the class order.
    """
    cache_key = ("class_table", None if reps is None
                 else tuple(s.members for s in reps))
    cached = group._cache.get(cache_key)
    if cached is not None:
        return cached
    subs = enumerate_subgroups(group)
    by_members = {s.members: s for s in subs}
    visited: set[tuple[int, ...]] = set()
    orbits: list[dict[tuple[int, ...], int]] = []   # members -> g with ^g(seed)
    for s in subs:
        if s.members in visited:
            continue
        orbit = _conjugates(group, s.members, normalizer(group, s))
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
        if len(chosen) != len(orbits):
            raise ValueError(
                f"transversal has {len(chosen)} subgroups, expected {len(orbits)}")
        orbit_of = {mem: i for i, orbit in enumerate(orbits) for mem in orbit}
        hits = [orbit_of.get(s.members) for s in chosen]
        if None in hits or len(set(hits)) != len(hits):
            raise ValueError("supplied subgroups are not a transversal")
        orbits = [orbits[i] for i in hits]
    class_of: dict[tuple[int, ...], int] = {}
    transporter: dict[tuple[int, ...], int] = {}
    for ci, (rep, orbit) in enumerate(zip(chosen, orbits)):
        g_rep = orbit[rep.members]
        for mem_t, g in orbit.items():
            class_of[mem_t] = ci
            # rep = ^(g_rep) seed and mem = ^g seed, so rep = ^(g_rep g^-1) mem
            transporter[mem_t] = group.m(g_rep, group.inverse(g))
        transporter[rep.members] = 0
    table = SubgroupClassTable(group, chosen, _marks(group, chosen),
                               [len(o) for o in orbits], class_of, transporter)
    # the default table also answers for its own transversal
    group._cache[cache_key] = table
    group._cache["class_table", tuple(s.members for s in chosen)] = table
    return table


# ---------------------------------------------------------------------------
# Abelian structure


@dataclass
class AbelianDecomposition:
    """Cyclic decomposition d1 | d2 | ... | dr with explicit coordinates:
    ``coords[e]`` is the exponent row of element e, and ``span`` lists the
    elements in lexicographic order of their rows."""

    factors: tuple[int, ...]
    coords: np.ndarray   # (n, r) int64
    span: np.ndarray     # (n,) int64


def abelian_invariant_decomposition(table) -> AbelianDecomposition:
    """Invariant-factor basis of a finite abelian group, given by its n x n
    multiplication table with identity 0.

    Works prime by prime: in each p-component an element of maximal order
    spans a direct summand, so a basis of the quotient lifts
    order-preservingly. Elements compare by index. This rule picks the
    generators, and so fixes the order of hom sets, every gamma digest and
    the witness that a species search reports:

    - in the p-component, the least element x of largest order;
    - in the quotient by <x>, each coset is labelled by its least element,
      and the quotient's generators are picked by the same rule;
    - each of those, y, lifts to the first element y x^j, j = 0, 1, ...,
      whose order is the order of the coset y<x>;
    - the t-th generators of all primes, p ascending, multiply into the
      t-th slot, and the slots are put in ascending order.
    """
    table = np.asarray(table)
    n = table.shape[0]
    orders = _orders(table)
    gens: list[int] = []
    factors: list[int] = []
    for p, a in _prime_factors(n):
        comp = np.flatnonzero(p ** a % orders == 0)   # the p-part, ascending
        part = table if comp.size == n else np.searchsorted(
            comp, table[comp[:, None], comp])
        for t, (g, d) in enumerate(_p_basis(part, orders[comp], a)):
            if t == len(gens):
                gens.append(0)
                factors.append(1)
            gens[t], factors[t] = int(table[gens[t], comp[g]]), factors[t] * d
    gens.reverse()   # ascending divisibility d1 | d2 | ...
    factors.reverse()
    span = np.zeros(1, dtype=np.int64)
    if prod(factors) == n:   # else the factors cannot span the group
        for g, d in zip(gens, factors):
            span = table[span[:, None], _powers(table, g, d)].ravel()
    if _sorted_unique(span).size != n:
        raise NotAGroup("abelian basis does not span the group")
    coords = np.empty((n, len(factors)), dtype=np.int64)
    coords[span] = np.indices(factors).reshape(len(factors), n).T
    return AbelianDecomposition(tuple(factors), coords,
                                span.astype(np.int64, copy=False))


def _p_basis(table: np.ndarray, orders: np.ndarray,
             a: int) -> list[tuple[int, int]]:
    """Basis [(gen, order), ...], orders descending, of the p-group of
    order at most p^a with this multiplication table and these element
    orders, so of rank at most a. The quotient by <x> has the least member
    of each coset of <x> as its element, in ascending order, so it
    compares elements as the group does."""
    if table.shape[0] == 1 or not a:
        return []
    x = int(np.argmax(orders))   # the first of largest order
    top = int(orders[x])
    cyc = _powers(table, x, top)
    least = table[:, cyc].min(axis=1)
    quot = np.flatnonzero(least == np.arange(least.size))
    sub = np.searchsorted(quot, least[table[quot[:, None], quot]])
    basis = [(x, top)]
    for y, d in _p_basis(sub, _orders(sub), a - 1):
        lifts = table[quot[y], cyc]
        first = np.flatnonzero(orders[lifts] == d)
        if not first.size:
            raise NotAGroup(
                "a quotient basis element has no lift of its order")
        basis.append((int(lifts[first[0]]), d))
    return basis


def _powers(table: np.ndarray, x, d: int) -> np.ndarray:
    """x^0, x^1, ..., x^(d-1) along a new last axis, for an index or an
    array of them: by doubling, x^(k+i) = x^k x^i, in log2(d) gathers."""
    step = np.asarray(x)[..., None]   # x^known
    out = np.zeros(step.shape[:-1] + (d,), dtype=np.int64)
    known = 1
    while known < d:
        take = min(known, d - known)
        out[..., known:known + take] = table[step, out[..., :take]]
        known += take
        step = table[step, step]
    return out


def _orders(table: np.ndarray) -> np.ndarray:
    """The order of every element, all n at once: for each prime power p^a
    exactly dividing n, y = x^(n/p^a) has the p-part of the order of x,
    which is the least p^i with y^(p^i) = 1."""
    n = table.shape[0]
    orders = np.ones(n, dtype=np.int64)
    for p, a in _prime_factors(n):
        y = _power(table, np.arange(n), n // p ** a)
        for _ in range(a):
            live = y != 0
            if not live.any():
                break
            orders[live] *= p
            y = _power(table, y, p)
    return orders


def _power(table: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for each entry of x, k >= 1, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else table[out, x]
        k >>= 1
        if not k:
            return out
        x = table[x, x]


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, a) for each prime power p^a exactly dividing n, p ascending."""
    out, p = [], 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n, a = n // p, a + 1
        if a:
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [(n, 1)]


def commutator_subgroup(sub: Subgroup) -> Subgroup:
    """[K, K], as the normal closure in K of the commutators of the
    generators of K.

    K modulo that closure is generated by pairwise commuting images, so it
    is abelian, and the closure lies in [K, K]. A subgroup is normal in K
    once the generators of K conjugate its generators into it.
    """
    group = sub.group
    gens = np.asarray(sub.generators(), dtype=np.int64)
    inv = group.inv[gens]
    # [a, b] = a^-1 b^-1 a b over all pairs of generators
    normal_gens = _sorted_unique(
        group.mul[group.mul[inv[:, None], inv[None]],
                  group.mul[gens[:, None], gens[None]]])
    if normal_gens.size <= 1:   # no commutator but 1: K is abelian
        return Subgroup(group, (0,), verify=False)
    while True:
        members = closure(group, normal_gens)
        conjugates = _conjugate(group, gens[:, None], normal_gens).ravel()
        missing = conjugates[~_indicator(group.order, members)[conjugates]]
        if not missing.size:
            return Subgroup(group, members, verify=False)
        normal_gens = _sorted_unique(np.concatenate((normal_gens, missing)))


def abelianization(sub: Subgroup) -> AbelianDecomposition:
    """Invariant factors of K/[K,K] with the projection as a coordinate map.

    The quotient's elements are the least members of the cosets of [K,K]
    in K, and its table comes from one gather through the coset labels.
    ``coords`` has one row per member of K, in member order, and ``span``
    lists the least members of the cosets.
    """
    key = ("abelianization", sub.members)
    cached = sub.group._cache.get(key)
    if cached is not None:
        return cached
    group = sub.group
    derived = commutator_subgroup(sub)
    reps = left_coset_reps(group, derived)
    label = _coset_labels(group, derived)
    quot = reps[_indicator(group.order, sub.members)[reps]]
    at = np.empty(reps.size, dtype=np.int64)
    at[label[quot]] = np.arange(quot.size)
    dec = abelian_invariant_decomposition(
        at[label[group.mul[np.ix_(quot, quot)]]])
    result = AbelianDecomposition(
        dec.factors, dec.coords[at[label[np.asarray(sub.members)]]],
        quot[dec.span])
    group._cache[key] = result
    return result


# ---------------------------------------------------------------------------
# Isomorphism testing


def _generating_sequence(group: FiniteGroup) -> list[int]:
    """Greedy generating sequence, each step adding the least element that
    grows the generated subgroup the most.

    The first step's subgroups are the cyclic <g>, of order the order of
    g, so it takes the least element of largest order without a closure.
    A later step skips every element of a subgroup it has already
    generated: if g lies in <gens, g'>, then <gens, g> is no larger than
    <gens, g'>.
    """
    gens: list[int] = []
    cur: tuple[int, ...] = (0,)
    if group.order > 1:
        gens.append(int(np.argmax(group.element_orders)))
        cur = closure(group, gens)
    while len(cur) < group.order:
        best_g, best = None, cur
        covered = np.zeros(group.order, dtype=bool)
        covered[list(cur)] = True
        for g in range(1, group.order):
            if covered[g]:
                continue
            sub = closure(group, gens + [g])
            covered[list(sub)] = True
            if len(sub) > len(best):
                best_g, best = g, sub
                if len(sub) == group.order:
                    break
        if best_g is None:
            raise NotAGroup("no element extends a proper generated subgroup")
        gens.append(best_g)
        cur = best
    return gens


def _subgroup_order_census(group: FiniteGroup) -> list[int]:
    return sorted(s.order for s in enumerate_subgroups(group))


def _spanning_tree(group: FiniteGroup, roots: Sequence[int],
                   gens: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """Breadth-first layers of the Cayley graph of <gens>, grown from
    ``roots`` (members of <gens>) by right multiplication with ``gens``.

    Each layer is (children, parents, generator indices) with
    child = parent * gens[index]; every element outside ``roots`` appears
    as a child exactly once, so the layers form a spanning forest.
    """
    gen_arr = np.asarray(gens, dtype=np.int64)
    reached = np.zeros(group.order, dtype=bool)
    frontier = np.asarray(roots, dtype=np.int64)
    reached[frontier] = True
    layers = []
    while frontier.size:
        prods = group.mul[np.ix_(frontier, gen_arr)].ravel()
        fresh = np.nonzero(~reached[prods])[0]
        children, first = np.unique(prods[fresh], return_index=True)
        pos = fresh[first]
        reached[children] = True
        layers.append((children, frontier[pos // gen_arr.size],
                       pos % gen_arr.size))
        frontier = children
    return layers


def _cyclic_class_lengths(group: FiniteGroup) -> np.ndarray:
    """For each element x, the number of conjugates of the subgroup <x>.

    <x> has |G : N_G(<x>)| conjugates, and N_G(<x>) is the set of g with
    gxg^-1 in <x>. The map g -> gxg^-1 sends each coset of C_G(x) to one
    member of the class of x, so |N_G(<x>)| = |C_G(x)| * m, with m the
    number of powers of x in that class, and <x> has |class of x| / m
    conjugates. The generators of <x> and all their conjugates give
    conjugate subgroups, so one x per class of cyclic subgroups is
    counted: the least class rep whose class is not reached yet.
    """
    reps, label = group.element_classes
    orders = group.element_orders
    lengths = np.zeros(reps.size, dtype=np.int64)   # per element class
    for c, x in enumerate(reps.tolist()):
        if lengths[c]:
            continue
        powers = _powers(group.mul, x, int(orders[x]))
        classes = label[powers]
        lengths[classes[orders[powers] == powers.size]] = (
            group.element_class_sizes[x] // np.count_nonzero(classes == c))
    return lengths[label]


def _candidate_pools(g: FiniteGroup, h: FiniteGroup,
                     gens: Sequence[int]) -> list[np.ndarray]:
    """Per generator of G, the ascending elements of H it may map to.

    An isomorphism keeps each element's order, the size of its conjugacy
    class and the number of conjugates of the cyclic subgroup it
    generates, so every other element of H is left out. The first pool
    holds only conjugacy-class representatives of H.
    """
    n = h.order
    g_cyc, h_cyc = _cyclic_class_lengths(g), _cyclic_class_lengths(h)
    pools = []
    for j, gen in enumerate(gens):
        fits = ((h.element_orders == g.element_orders[gen])
                & (h.element_class_sizes == g.element_class_sizes[gen])
                & (h_cyc == g_cyc[gen]))
        pool = h.element_classes[0] if j == 0 else np.arange(n)
        pools.append(pool[fits[pool]])
    return pools


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Optional[list[int]]:
    """A verified isomorphism G -> H as an index list, or None.

    Backtracks over images of a greedy generating sequence g_0, ..., g_{k-1}
    of G, one generator per level; level j maps the chain subgroup
    C_j = <g_0, ..., g_j>. The first generator's image only ranges over
    element-conjugacy-class representatives of H (composing with inner
    automorphisms); deeper candidate pools hold the elements of H with the
    generator's element order, class size and number of conjugates of the
    cyclic subgroup it generates. At each node the whole pool is
    filtered at once with numpy: the minimal power of g_j that lands in
    C_{j-1}, and the conjugates of earlier generators by g_j that land in
    it, must map to the images the prefix gives them. Each surviving
    candidate, in pool order, extends the map along a spanning tree of C_j
    (computed once on the G side and rooted at C_{j-1}); the extension is
    kept only if it respects every Cayley-graph edge of C_j and is
    injective. A full map is then verified on all pairs. A None answer
    means the whole tree was searched.

    The three pool invariants are kept by every isomorphism, since it maps
    <x> and its conjugates onto <f(x)> and its conjugates. A candidate left
    out of a pool therefore roots a subtree that holds no isomorphism, and
    the pools keep ascending order, so the search returns the same first
    map as one over the unpruned pools.
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
    gens = _generating_sequence(g)
    k = len(gens)
    chain = [closure(g, gens[:j + 1]) for j in range(k)]

    cand_pools = _candidate_pools(g, h, gens)

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
        conj_rel.append([(i, t) for i, t in
                         enumerate(_conjugate(g, gj, gens[:j]).tolist())
                         if t in prev])

    trees = [_spanning_tree(g, [0] if j == 0 else chain[j - 1], gens[:j + 1])
             for j in range(k)]
    members = [np.asarray(c, dtype=np.int64) for c in chain]
    edges = [g.mul[np.ix_(members[j], gens[:j + 1])] for j in range(k)]
    images: list[int] = []

    def extend(level: int, f_prev: np.ndarray) -> Optional[np.ndarray]:
        imgs = np.asarray(images, dtype=np.int64)
        f = f_prev.copy()
        for children, parents, idx in trees[level]:
            f[children] = h.mul[f[parents], imgs[idx]]
        fm = f[members[level]]
        if not (f[edges[level]] == h.mul[fm[:, None], imgs]).all():
            return None
        hit = np.zeros(n, dtype=bool)
        hit[fm] = True
        if np.count_nonzero(hit) != fm.size:
            return None
        return f

    def backtrack(level: int, f_prev: np.ndarray) -> Optional[list[int]]:
        cands = cand_pools[level]
        if level > 0:
            m, target = pow_rel[level]
            c_pow = cands
            for _ in range(m - 1):
                c_pow = h.mul[c_pow, cands]
            cands = cands[c_pow == f_prev[target]]
            # c x c^-1 = t exactly when c x = t c, so no inverse is read
            for i, t in conj_rel[level]:
                cands = cands[h.mul[cands, images[i]]
                              == h.mul[f_prev[t], cands]]
        for c in cands.tolist():
            images.append(c)
            f = extend(level, f_prev)
            if f is not None:
                if level == k - 1:
                    f = f.astype(h.mul.dtype)   # gathers in that dtype
                    # f(xy) = f(x)f(y) for all pairs, in row order, in
                    # blocks of about 2^20 pairs: no transient is n x n
                    step = max(1, 2 ** 20 // n)
                    if all(np.array_equal(f[g.mul[x:x + step]],
                                          h.mul[f[x:x + step, None], f])
                           for x in range(0, n, step)):
                        return f.tolist()
                else:
                    result = backtrack(level + 1, f)
                    if result is not None:
                        return result
            images.pop()
        return None

    identity_only = np.full(n, -1, dtype=np.int64)
    identity_only[0] = 0
    return backtrack(0, identity_only)


# ---------------------------------------------------------------------------

__all__ = [
    "FiniteGroup", "Subgroup", "SubgroupClassTable", "AbelianDecomposition",
    "group_from_cayley", "group_from_json",
    "trivial_group", "cyclic_group", "abelian_group", "dihedral_group",
    "symmetric_group", "semidirect_product",
    "closure", "enumerate_subgroups",
    "conjugacy_classes_of_subgroups", "normalizer",
    "left_coset_reps", "double_cosets",
    "abelianization", "commutator_subgroup",
    "abelian_invariant_decomposition", "are_isomorphic",
]
