"""Exact finite-group arithmetic on dense Cayley tables.

Elements of a group of order n are the indices 0..n-1, with 0 the identity.
All heavy scans (validation, conjugation, closures) go through numpy on the
multiplication table; member sets of subgroups double as Python-int bitmasks
so containment tests are O(1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import NotAGroup, NotAnAction, NotAnAutomorphism


# ---------------------------------------------------------------------------
# FiniteGroup


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is validated exactly on construction, at every order:
    Latin-square property, identity at index 0, inverses, and
    associativity by Light's test on a generating set.
    """

    def __init__(self, mul, name: Optional[str] = None):
        table = _square_table(mul)
        n = table.shape[0]
        _check_latin_square(table)
        if not (np.array_equal(table[0], np.arange(n))
                and np.array_equal(table[:, 0], np.arange(n))):
            raise NotAGroup("element 0 is not a two-sided identity")
        # each row is a permutation, so its one 0 is its minimum
        inv = np.argmin(table, axis=1)
        _check_associativity(table)
        # g * inv[g] = 0 holds by construction; check the other side too.
        bad = np.nonzero(table[inv, np.arange(n)] != 0)[0]
        if bad.size:
            g = int(bad[0])
            raise NotAGroup("inverse fails on the left", witness=(int(inv[g]), g))
        self.order: int = n
        self.mul: np.ndarray = table
        self.inv: np.ndarray = inv
        self.name: str = name if name is not None else f"group{n}"
        self._conj: Optional[np.ndarray] = None
        self._element_orders: Optional[np.ndarray] = None
        self._element_class_sizes: Optional[np.ndarray] = None
        self._cache: dict = {}

    # -- elementary operations

    def m(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @property
    def conj(self) -> np.ndarray:
        """Table conj[g, x] = g x g^-1."""
        if self._conj is None:
            self._conj = self.mul[self.mul, self.inv[:, None]]
        return self._conj

    def element_order(self, g: int) -> int:
        return int(self.element_orders[g])

    @property
    def element_orders(self) -> np.ndarray:
        if self._element_orders is None:
            self._element_orders = np.asarray(
                [_element_order(g, self.m, 0) for g in range(self.order)],
                dtype=np.int64)
        return self._element_orders

    @property
    def element_class_sizes(self) -> np.ndarray:
        if self._element_class_sizes is None:
            n = self.order
            sizes = np.empty(n, dtype=np.int64)
            for g in range(n):
                sizes[g] = np.unique(self.conj[:, g]).size
            self._element_class_sizes = sizes
        return self._element_class_sizes

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _square_table(mul) -> np.ndarray:
    """``mul`` as an int64 array, checked to be a non-empty square table
    with entries in 0..n-1."""
    table = np.asarray(mul, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup("multiplication table must be square")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("a group has at least one element")
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries must lie in 0..n-1")
    return table


def _check_latin_square(table: np.ndarray) -> None:
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


def _check_associativity(table: np.ndarray) -> None:
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
        sigma = np.arange(n)
        sigma[0], sigma[ident] = ident, 0
        arr = sigma[arr[np.ix_(sigma, sigma)]]
    return FiniteGroup(arr, name=name)


def group_to_json(group: FiniteGroup) -> dict:
    return {"order": group.order, "mul": group.mul.tolist()}


def group_from_json(data: dict, name: Optional[str] = None) -> FiniteGroup:
    if not (isinstance(data, dict) and type(data.get("order")) is int
            and isinstance(data.get("mul"), list)):
        raise NotAGroup("JSON group needs an object with an integer "
                        "'order' and a list 'mul'")
    table = data["mul"]
    if not all(isinstance(row, list) and all(type(v) is int for v in row)
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
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"C{n}")


def abelian_group(factors: Sequence[int]) -> FiniteGroup:
    """Direct sum of cyclic groups; element index is mixed-radix over factors."""
    factors = tuple(int(d) for d in factors)
    if not factors or any(d < 1 for d in factors):
        raise ValueError("factors must be positive integers")
    n = prod(factors)
    coords = np.array(list(itertools.product(*(range(d) for d in factors))),
                      dtype=np.int64).reshape(n, len(factors))
    weights = np.ones(len(factors), dtype=np.int64)
    for i in range(len(factors) - 2, -1, -1):
        weights[i] = weights[i + 1] * factors[i + 1]
    mods = np.array(factors, dtype=np.int64)
    sums = (coords[:, None, :] + coords[None, :, :]) % mods
    table = (sums * weights).sum(axis=2)
    name = "x".join(f"C{d}" for d in factors)
    return FiniteGroup(table, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise ValueError("symmetric_group supports n in 1..6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.empty((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return FiniteGroup(table, name=f"S{n}")


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
    table = np.empty((nN * nQ, nN * nQ), dtype=np.int64)
    for q1 in range(nQ):
        twisted = normal.mul[:, acts[q1]]   # [n1, n2] -> n1 * action[q1](n2)
        for q2 in range(nQ):
            table[q1::nQ, q2::nQ] = twisted * nQ + acting.m(q1, q2)
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
    cols = np.unique(np.fromiter((int(g) for g in gens), dtype=np.int64))
    cols = cols[cols != 0]
    seen[cols] = True
    frontier = cols
    while frontier.size:
        prods = group.mul[frontier[:, None], cols].ravel()
        frontier = np.unique(prods[~seen[prods]])
        seen[frontier] = True
    return tuple(np.flatnonzero(seen).tolist())


def _mask_of(members: Iterable[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << int(v)
    return m


class Subgroup:
    """An exactly represented subgroup: sorted member tuple plus bitmask."""

    __slots__ = ("group", "members", "mask", "_gens", "_pos")

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
        self.mask = _mask_of(mem)
        self._gens: Optional[tuple[int, ...]] = None
        self._pos: Optional[dict[int, int]] = None

    @classmethod
    def generated(cls, group: FiniteGroup, gens: Iterable[int]) -> "Subgroup":
        return cls(group, closure(group, gens), verify=False)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return bool((self.mask >> int(g)) & 1)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    def position(self, g: int) -> int:
        """Index of g inside the sorted member tuple."""
        if self._pos is None:
            self._pos = {m: i for i, m in enumerate(self.members)}
        return self._pos[int(g)]

    def generators(self) -> tuple[int, ...]:
        """A small (greedy) generating sequence."""
        if self._gens is None:
            gens: list[int] = []
            cur: tuple[int, ...] = (0,)
            cur_mask = 1
            for m in self.members:
                if not (cur_mask >> m) & 1:
                    gens.append(m)
                    cur = closure(self.group, gens)
                    cur_mask = _mask_of(cur)
                    if len(cur) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.group is other.group
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members})"


def conjugate_members(group: FiniteGroup, g: int,
                      members: Sequence[int]) -> tuple[int, ...]:
    arr = group.conj[g, np.asarray(members, dtype=np.int64)]
    return tuple(int(v) for v in np.sort(arr))


def conjugate_subgroup(group: FiniteGroup, g: int, sub: Subgroup) -> Subgroup:
    return Subgroup(group, conjugate_members(group, g, sub.members), verify=False)


def enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, via layered cyclic extension.

    Starting from the trivial subgroup, every known S is extended to
    <S, g> = S u Sg u ... u Sg^(p-1) for g in N_G(S) with g^p in S; each
    solvable subgroup arises this way along a composition series. Perfect
    subgroups (possible only when 60 <= |G| and 12 divides |G|) are seeded
    separately from two-generated closures, so non-solvable subgroups are
    reached as well.
    """
    cached = group._cache.get("subgroups")
    if cached is not None:
        return list(cached)
    n = group.order
    primes = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
    seen: set[tuple[int, ...]] = {(0,)}
    queue: list[tuple[int, ...]] = [(0,)]
    if n >= 60 and n % 12 == 0:
        for mem in _perfect_seeds(group):
            if mem not in seen:
                seen.add(mem)
                queue.append(mem)
    mul = group.mul
    while queue:
        mem = queue.pop()
        size = len(mem)
        index = n // size
        valid_primes = [p for p in primes if index % p == 0]
        if not valid_primes:
            continue
        mask = _mask_of(mem)
        mem_arr = np.asarray(mem, dtype=np.int64)
        rows = np.sort(group.conj[:, mem_arr], axis=1)
        norm = np.nonzero((rows == mem_arr).all(axis=1))[0]
        base = set(mem)
        for g in norm:
            g = int(g)
            if (mask >> g) & 1:
                continue
            for p in valid_primes:
                e = g
                for _ in range(p - 1):
                    e = int(mul[e, g])
                if not (mask >> e) & 1:
                    continue
                powers = [g]
                cur = g
                for _ in range(p - 2):
                    cur = int(mul[cur, g])
                    powers.append(cur)
                block = mul[np.ix_(mem_arr, np.asarray(powers, dtype=np.int64))]
                new_mem = tuple(sorted(base.union(
                    int(v) for v in block.ravel())))
                if len(new_mem) != p * size:
                    raise NotAGroup(
                        f"extending a subgroup of order {size} by an element "
                        f"of order {p} modulo it gave {len(new_mem)} elements")
                if new_mem not in seen:
                    seen.add(new_mem)
                    queue.append(new_mem)
                break   # g^p in S for two primes would force g in S
    subs = [Subgroup(group, mem, verify=False)
            for mem in sorted(seen, key=lambda m: (len(m), m))]
    group._cache["subgroups"] = subs
    return list(subs)


def _perfect_seeds(group: FiniteGroup) -> set[tuple[int, ...]]:
    """Perfect subgroups, found as closures of pairs (a, b) and closed under
    conjugation.

    Relies on perfect groups in the supported order range (<= ~2000) being
    two-generated. Up to conjugation a nontrivial perfect P is <a, b> with
    a a class representative other than the identity, b outside <a> (else
    P is cyclic), and b taken up to conjugation by C_G(a), since
    <a, cbc^-1> = c<a, b>c^-1 for c in C_G(a).
    """
    conj = group.conj
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
            if len(mem) >= 60 and commutator_subgroup(
                    Subgroup(group, mem, verify=False)).members == mem:
                found.update(_conjugates(group, mem))
    return found


def _conjugates(group: FiniteGroup,
                members: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Each distinct conjugate ^g(members), as a sorted member tuple, mapped
    to the least g that gives it."""
    rows, first = np.unique(
        np.sort(group.conj[:, np.asarray(members, dtype=np.int64)], axis=1),
        axis=0, return_index=True)
    return dict(zip(map(tuple, rows.tolist()), first.tolist()))


def _orbit_reps(conj: np.ndarray, acting: np.ndarray) -> list[int]:
    """Least element of each orbit of ``acting`` on the group by
    conjugation, ascending."""
    covered = np.zeros(conj.shape[0], dtype=bool)
    reps = []
    for x in range(conj.shape[0]):
        if not covered[x]:
            covered[conj[acting, x]] = True
            reps.append(x)
    return reps


# ---------------------------------------------------------------------------
# Cosets, marks, conjugacy classes


def _left_coset_data(group: FiniteGroup, sub: Subgroup):
    """Per left coset sL: (rep s, bitmask of the conjugate ^sL).

    Reps are the least element of each coset, in increasing order.
    """
    key = ("cosets", sub.members)
    cached = group._cache.get(key)
    if cached is not None:
        return cached
    n = group.order
    mem = np.asarray(sub.members, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    reps: list[int] = []
    masks: list[int] = []
    for s in range(n):
        if covered[s]:
            continue
        covered[group.mul[s, mem]] = True
        reps.append(s)
        masks.append(_mask_of(group.conj[s, mem]))
    data = (reps, masks)
    group._cache[key] = data
    return data


def left_coset_reps(group: FiniteGroup, sub: Subgroup) -> list[int]:
    return list(_left_coset_data(group, sub)[0])


def mark(group: FiniteGroup, k: Subgroup, l: Subgroup) -> int:
    """Number of cosets sL fixed by K, i.e. with K <= sLs^-1."""
    reps, masks = _left_coset_data(group, l)
    kmask = k.mask
    return sum(1 for m in masks if kmask & m == kmask)


def double_coset_reps(group: FiniteGroup, k: Subgroup, l: Subgroup) -> list[int]:
    """Least-element representatives of the double cosets K\\G/L."""
    key = ("dcosets", k.members, l.members)
    cached = group._cache.get(key)
    if cached is not None:
        return list(cached)
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
    group._cache[key] = reps
    return list(reps)


def normalizer(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    mem = np.asarray(sub.members, dtype=np.int64)
    rows = np.sort(group.conj[:, mem], axis=1)
    fixed = np.nonzero((rows == mem).all(axis=1))[0]
    return Subgroup(group, fixed, verify=False)


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
        orbit = _conjugates(group, s.members)
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
        reordered = []
        used = [False] * len(orbits)
        for s in chosen:
            hit = None
            for i, orbit in enumerate(orbits):
                if s.members in orbit:
                    hit = i
                    break
            if hit is None or used[hit]:
                raise ValueError("supplied subgroups are not a transversal")
            used[hit] = True
            reordered.append(orbits[hit])
        orbits = reordered
    class_of: dict[tuple[int, ...], int] = {}
    transporter: dict[tuple[int, ...], int] = {}
    for ci, (rep, orbit) in enumerate(zip(chosen, orbits)):
        g_rep = orbit[rep.members]
        for mem_t, g in orbit.items():
            class_of[mem_t] = ci
            # rep = ^(g_rep) seed and mem = ^g seed, so rep = ^(g_rep g^-1) mem
            transporter[mem_t] = group.m(g_rep, group.inverse(g))
        transporter[rep.members] = 0
    marks_matrix = [[mark(group, ki, lj) for lj in chosen] for ki in chosen]
    table = SubgroupClassTable(group, chosen, marks_matrix,
                               [len(o) for o in orbits], class_of, transporter)
    # the default table also answers for its own transversal
    group._cache[cache_key] = table
    group._cache["class_table", tuple(s.members for s in chosen)] = table
    return table


# ---------------------------------------------------------------------------
# Abelian structure


@dataclass
class AbelianDecomposition:
    """Cyclic decomposition d1 | d2 | ... | dr with explicit coordinates."""

    factors: tuple[int, ...]
    coords: dict  # element -> exponent tuple


def abelian_invariant_decomposition(elems: Sequence, mulfn: Callable,
                                    identity) -> AbelianDecomposition:
    """Invariant-factor basis of a finite abelian group.

    ``elems`` must be sortable and hashable; ``mulfn`` is the (commutative)
    group operation. Works prime by prime: in each p-component an element of
    maximal order spans a direct summand, so a basis of the quotient lifts
    order-preservingly.
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
    return AbelianDecomposition(factors, coords)


def _element_order(e, mulfn: Callable, identity) -> int:
    """The least k >= 1 with e^k = identity under ``mulfn``."""
    k, cur = 1, e
    while cur != identity:
        cur = mulfn(cur, e)
        k += 1
    return k


def _p_group_basis(elems: Sequence, mulfn: Callable, identity, p: int) -> list:
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


def commutator_subgroup(sub: Subgroup) -> Subgroup:
    group = sub.group
    mem = np.asarray(sub.members, dtype=np.int64)
    left = group.mul[np.ix_(group.inv[mem], group.inv[mem])]   # g^-1 h^-1
    right = group.mul[np.ix_(mem, mem)]                        # g h
    comms = np.unique(group.mul[left.ravel(), right.ravel()])
    return Subgroup(group, closure(group, comms), verify=False)


def abelianization(sub: Subgroup) -> AbelianDecomposition:
    """Invariant factors of K/[K,K] with the projection as a coordinate map.

    ``coords`` maps every member of K to its exponent tuple.
    """
    key = ("abelianization", sub.members)
    cached = sub.group._cache.get(key)
    if cached is not None:
        return cached
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

    dec = abelian_invariant_decomposition(q_elems, qmul, rep_of[0])
    project = {k: dec.coords[rep_of[k]] for k in sub.members}
    result = AbelianDecomposition(dec.factors, project)
    sub.group._cache[key] = result
    return result


# ---------------------------------------------------------------------------
# Isomorphism testing


def _generating_sequence(group: FiniteGroup) -> list[int]:
    """Greedy generating sequence, each step adding the least element that
    grows the generated subgroup the most.

    A step skips every element of a subgroup it has already generated: if
    g lies in <gens, g'>, then <gens, g> is no larger than <gens, g'>.
    """
    gens: list[int] = []
    cur: tuple[int, ...] = (0,)
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


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Optional[list[int]]:
    """A verified isomorphism G -> H as an index list, or None.

    Backtracks over images of a greedy generating sequence g_0, ..., g_{k-1}
    of G, one generator per level; level j maps the chain subgroup
    C_j = <g_0, ..., g_j>. The first generator's image only ranges over
    element-conjugacy-class representatives of H (composing with inner
    automorphisms); deeper candidate pools hold the elements of H with the
    generator's element order and class size. At each node the whole pool is
    filtered at once with numpy: the minimal power of g_j that lands in
    C_{j-1}, and the conjugates of earlier generators by g_j that land in
    it, must map to the images the prefix gives them. Each surviving
    candidate, in pool order, extends the map along a spanning tree of C_j
    (computed once on the G side and rooted at C_{j-1}); the extension is
    kept only if it respects every Cayley-graph edge of C_j and is
    injective. A full map is then verified on all pairs. A None answer
    means the whole tree was searched.
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

    h_class_reps = _orbit_reps(h.conj, np.arange(n))
    cand_pools = []
    for j, gen in enumerate(gens):
        fits = ((h.element_orders == g.element_orders[gen])
                & (h.element_class_sizes == g.element_class_sizes[gen]))
        pool = np.asarray(h_class_reps) if j == 0 else np.arange(n)
        cand_pools.append(pool[fits[pool]])

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
                         enumerate(g.conj[gj, gens[:j]].tolist()) if t in prev])

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
            for i, t in conj_rel[level]:
                cands = cands[h.conj[cands, images[i]] == f_prev[t]]
        for c in cands.tolist():
            images.append(c)
            f = extend(level, f_prev)
            if f is not None:
                if level == k - 1:
                    if np.array_equal(f[g.mul], h.mul[np.ix_(f, f)]):
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
    "group_from_cayley", "group_to_json", "group_from_json",
    "trivial_group", "cyclic_group", "abelian_group", "dihedral_group",
    "symmetric_group", "semidirect_product",
    "closure", "conjugate_members", "conjugate_subgroup",
    "enumerate_subgroups",
    "conjugacy_classes_of_subgroups", "normalizer",
    "left_coset_reps", "double_coset_reps", "mark",
    "abelianization", "commutator_subgroup",
    "abelian_invariant_decomposition", "are_isomorphic",
]
