"""The order-p^2*q family (C_p x C_p) x| C_q with diagonal action (a, b).

The generator of C_q scales the first C_p factor by a and the second by b,
where a != b have multiplicative order q mod p. These groups share their
table of marks across choices of {a, b} but fall into (q-1)/2 isomorphism
classes, which makes them the counterexample family for the fibered
Burnside ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidSpec
from .group_core import (FiniteGroup, Subgroup, SubgroupClassTable, _is_prime,
                         abelian_group, conjugacy_classes_of_subgroups,
                         cyclic_group, semidirect_product)


def _mult_order(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    k, cur = 1, a
    while cur != 1:
        cur = (cur * a) % p
        k += 1
    return k


@dataclass(frozen=True)
class ThevenazSpec:
    """Parameters (p, q, a, b) of one family member."""

    p: int
    q: int
    a: int
    b: int

    def validate(self) -> None:
        if not _is_prime(self.p):
            raise InvalidSpec(f"p={self.p} is not prime")
        if not _is_prime(self.q) or self.q < 3:
            raise InvalidSpec(f"q={self.q} must be a prime >= 3")
        if (self.p - 1) % self.q != 0:
            raise InvalidSpec(f"q={self.q} does not divide p-1={self.p - 1}")
        for name, v in (("a", self.a), ("b", self.b)):
            if _mult_order(v, self.p) != self.q:
                raise InvalidSpec(
                    f"{name}={v} does not have order {self.q} mod {self.p}")
        if self.a % self.p == self.b % self.p:
            raise InvalidSpec("a and b must be distinct mod p")


@dataclass
class ThevenazGroup:
    """A built family member with its labeled generators.

    x and y generate the two order-p factors of the normal subgroup and z
    the order-q complement. Element (i*x + j*y, z^k) has index (i*p + j)*q + k.
    """

    spec: ThevenazSpec
    group: FiniteGroup
    x: int
    y: int
    z: int

    def _named_subgroups(self) -> dict[str, Subgroup]:
        g = self.group
        named = {
            "1": Subgroup(g, [0], verify=False),
            "Pa": Subgroup.generated(g, [self.x]),
            "Pb": Subgroup.generated(g, [self.y]),
            "P": Subgroup.generated(g, [self.x, self.y]),
            "Q": Subgroup.generated(g, [self.z]),
            "PaQ": Subgroup.generated(g, [self.x, self.z]),
            "PbQ": Subgroup.generated(g, [self.y, self.z]),
            "G": Subgroup(g, range(g.order), verify=False),
        }
        return named

    def diagonal_subgroup(self, j: int) -> Subgroup:
        """The order-p subgroup generated by x + j*y."""
        p, q = self.spec.p, self.spec.q
        return Subgroup.generated(self.group, [(p + (j % p)) * q])

    def diagonal_transversal(self) -> list[int]:
        """Least representatives of the cosets of <a> in (Z/p)^*, ascending.

        Indexes the pairwise non-conjugate diagonal subgroups."""
        p, q, a = self.spec.p, self.spec.q, self.spec.a
        powers = set()
        cur = 1
        for _ in range(q):
            powers.add(cur)
            cur = (cur * a) % p
        reps = []
        seen: set[int] = set()
        for j in range(1, p):
            if j in seen:
                continue
            reps.append(j)
            seen.update((j * w) % p for w in powers)
        return reps


def build(spec: ThevenazSpec) -> ThevenazGroup:
    """Construct the semidirect product for a validated spec."""
    spec.validate()
    p, q, a, b = spec.p, spec.q, spec.a % spec.p, spec.b % spec.p
    normal = abelian_group((p, p))
    acting = cyclic_group(q)
    action = []
    sa, sb = 1, 1
    for _ in range(q):
        # z^k scales x-coordinates by a^k and y-coordinates by b^k
        action.append([(sa * (n // p) % p) * p + (sb * (n % p) % p)
                       for n in range(p * p)])
        sa, sb = (sa * a) % p, (sb * b) % p
    group = semidirect_product(normal, acting, action,
                               name=f"G({a},{b})@p{p}q{q}")
    return ThevenazGroup(spec, group, x=p * q, y=q, z=1)


def canonical_class_table(tg: ThevenazGroup) -> SubgroupClassTable:
    """The class table over the named transversal in its standard order.

    Order: 1, Pa, Pb, the diagonal order-p subgroups, Pa+Pb, Q, Pa:Q, Pb:Q,
    and the whole group. Building the table checks that these subgroups
    hit every class exactly once."""
    named = tg._named_subgroups()
    reps = [named["1"], named["Pa"], named["Pb"]]
    reps.extend(tg.diagonal_subgroup(j) for j in tg.diagonal_transversal())
    reps.extend([named["P"], named["Q"], named["PaQ"], named["PbQ"],
                 named["G"]])
    return conjugacy_classes_of_subgroups(tg.group, reps=reps)


def family_isomorphic(spec1: ThevenazSpec, spec2: ThevenazSpec) -> bool:
    """Number-theoretic isomorphism test within the family.

    G(a,b) and G(c,d) are isomorphic iff {c,d} = {a^n, b^n} mod p for some
    n in 1..q-1."""
    spec1.validate()
    spec2.validate()
    if (spec1.p, spec1.q) != (spec2.p, spec2.q):
        raise InvalidSpec("family members must share p and q")
    p, q = spec1.p, spec1.q
    target = {spec2.a % p, spec2.b % p}
    for n in range(1, q):
        if {pow(spec1.a, n, p), pow(spec1.b, n, p)} == target:
            return True
    return False


def valid_pairs(p: int, q: int) -> list[tuple[int, int]]:
    """All unordered pairs {a, b} of order-q elements mod p, as sorted tuples."""
    elems = [v for v in range(1, p) if _mult_order(v, p) == q]
    return [(a, b) for a, b in itertools.combinations(sorted(elems), 2)]


def isomorphism_class_partition(p: int, q: int) -> list[list[tuple[int, int]]]:
    """Partition of the valid (a, b) pairs under family isomorphism."""
    pairs = valid_pairs(p, q)
    classes: list[list[tuple[int, int]]] = []
    for pair in pairs:
        spec = ThevenazSpec(p, q, *pair)
        for cls in classes:
            if family_isomorphic(ThevenazSpec(p, q, *cls[0]), spec):
                cls.append(pair)
                break
        else:
            classes.append([pair])
    return classes


def class_count(p: int, q: int) -> int:
    """Number of isomorphism classes in the family for fixed p, q."""
    if not _is_prime(p) or not _is_prime(q) or q < 3 or (p - 1) % q != 0:
        raise InvalidSpec(f"invalid family parameters p={p}, q={q}")
    return (q - 1) // 2


__all__ = [
    "ThevenazSpec", "ThevenazGroup", "build", "canonical_class_table",
    "family_isomorphic", "valid_pairs", "isomorphism_class_partition",
    "class_count",
]
