"""Fiber groups and character sets Hom(K, A).

Oracles: direct scans over all fiber elements, the torsion-product count
formula, exhaustive checks of the group laws on hom sets, and
``reference_hom_set``, which builds Hom(K, A) one member at a time.
"""

from math import gcd

import pytest
from oracles import reference_hom_set

from fibered_burnside import thevenaz
from fibered_burnside.abelian_fiber import (AbelianFiber, Character,
                                            char_index, hom_set,
                                            trivial_character)
from fibered_burnside.errors import DomainMismatch
from fibered_burnside.group_core import (Subgroup, abelian_group,
                                         abelianization, cyclic_group,
                                         enumerate_subgroups)

# ---------------------------------------------------------------------------
# Fiber arithmetic


def test_fiber_basics():
    a = AbelianFiber((2, 4))
    assert a.order == 8
    assert a.elements[0] == (0, 0)
    zero = a.index[(0, 0)]
    for i in range(a.order):
        assert a.add(i, a.neg(i)) == zero


def test_fiber_parse():
    assert AbelianFiber.parse("5").factors == (5,)
    assert AbelianFiber.parse("2,4").factors == (2, 4)
    with pytest.raises(ValueError):
        AbelianFiber.parse("2,x")
    with pytest.raises(ValueError):
        AbelianFiber((0,))


def test_torsion_c5():
    c5 = AbelianFiber((5,))
    assert c5.torsion_elements(5) == [(i,) for i in range(5)]
    assert c5.torsion_elements(11) == [(0,)]
    assert c5.has_trivial_torsion(11)
    assert not c5.has_trivial_torsion(5)


def test_torsion_c6():
    c6 = AbelianFiber((6,))
    assert c6.torsion_elements(4) == [(0,), (3,)]


def test_torsion_matches_scan():
    a = AbelianFiber((2, 6))
    for n in range(1, 8):
        expect = [e for e in a.elements
                  if all((n * x) % d == 0 for x, d in zip(e, a.factors))]
        assert a.torsion_elements(n) == expect


def test_element_order():
    a = AbelianFiber((2, 6))
    for i, e in enumerate(a.elements):
        o = a.element_order(i)
        assert a.scale(o, i) == 0
        assert all(a.scale(k, i) != 0 for k in range(1, o))


# ---------------------------------------------------------------------------
# Characters


def _full(group):
    return Subgroup(group, range(group.order))


def test_character_must_be_homomorphism():
    c4 = cyclic_group(4)
    c2 = AbelianFiber((2,))
    with pytest.raises(ValueError):
        Character(_full(c4), c2, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        Character(_full(c4), c2, [1, 0, 0, 0])
    # the two genuine homomorphisms C4 -> C2
    Character(_full(c4), c2, [0, 0, 0, 0])
    Character(_full(c4), c2, [0, 1, 0, 1])


def test_character_domain_must_be_a_subgroup():
    c4, fiber = cyclic_group(4), AbelianFiber((2,))
    with pytest.raises(ValueError, match="domain is not closed"):
        Character(Subgroup(c4, [0, 1], verify=False), fiber, [0, 0])
    with pytest.raises(ValueError, match="contain the identity"):
        Character(Subgroup(c4, [1, 3], verify=False), fiber, [0, 0])


def test_hom_set_c2_c2():
    c2 = cyclic_group(2)
    homs = hom_set(_full(c2), AbelianFiber((2,)))
    assert [h.values for h in homs] == [(0, 0), (0, 1)]


def test_hom_set_coprime_is_trivial():
    c4 = cyclic_group(4)
    for sub in enumerate_subgroups(c4):
        homs = hom_set(sub, AbelianFiber((3,)))
        assert len(homs) == 1 and homs[0].is_trivial()


def test_hom_set_count_formula(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            for sub in enumerate_subgroups(g):
                dec = abelianization(sub)
                expect = 1
                for d in dec.factors:
                    expect *= len(fiber.torsion_indices(d))
                assert len(hom_set(sub, fiber)) == expect


def test_hom_set_deterministic_and_distinct(s4, fiber_c6):
    for sub in enumerate_subgroups(s4):
        homs1 = hom_set(sub, fiber_c6)
        homs2 = hom_set(sub, fiber_c6)
        assert [h.values for h in homs1] == [h.values for h in homs2]
        assert len({h.values for h in homs1}) == len(homs1)


def test_hom_set_is_abelian_group(s3, fiber_c6):
    for sub in enumerate_subgroups(s3):
        homs = hom_set(sub, fiber_c6)
        values = {h.values for h in homs}
        for h1 in homs:
            assert h1.inverse().values in values
            assert (h1 * h1.inverse()).is_trivial()
            for h2 in homs:
                assert (h1 * h2).values in values
                assert (h1 * h2).values == (h2 * h1).values


def test_thevenaz_full_group_characters(tg_7_3):
    g = tg_7_3.group
    homs = hom_set(_full(g), AbelianFiber((3,)))
    assert len(homs) == 3
    # each character is pinned down by its value on the order-q generator
    assert sorted(h.value_index(tg_7_3.z) for h in homs) == [0, 1, 2]
    for h in homs:
        assert h.value_index(tg_7_3.x) == 0
        assert h.value_index(tg_7_3.y) == 0


def test_char_mul_domain_mismatch(s3, fiber_c2):
    subs = [s for s in enumerate_subgroups(s3) if s.order == 2]
    with pytest.raises(DomainMismatch):
        trivial_character(subs[0], fiber_c2) * \
            trivial_character(subs[1], fiber_c2)


def test_trivial_is_identity(s3, fiber_c6):
    full = _full(s3)
    for h in hom_set(full, fiber_c6):
        assert (h * trivial_character(full, fiber_c6)).values == h.values


def test_restriction(s3, fiber_c6):
    full = _full(s3)
    for h in hom_set(full, fiber_c6):
        for sub in enumerate_subgroups(s3):
            r = h.restrict(sub)
            assert all(r.value_index(m) == h.value_index(m)
                       for m in sub.members)


def test_conjugation_is_action(s3, d4, fiber_c6):
    for g in (s3, d4):
        for sub in enumerate_subgroups(g):
            for h in hom_set(sub, fiber_c6):
                for a in g.elements():
                    for b in g.elements():
                        lhs = h.conjugate(b).conjugate(a)
                        rhs = h.conjugate(g.m(a, b))
                        assert lhs.domain.members == rhs.domain.members
                        assert lhs.values == rhs.values


def test_conjugate_is_verified_homomorphism(d4, fiber_c6):
    for sub in enumerate_subgroups(d4):
        for h in hom_set(sub, fiber_c6):
            for a in d4.elements():
                chi = h.conjugate(a)
                # re-run verification on the conjugated value map
                Character(chi.domain, chi.fiber, chi.values)


def test_central_conjugation_fixes_characters(d4, fiber_c2):
    center = [x for x in d4.elements()
              if all(d4.m(x, y) == d4.m(y, x) for y in d4.elements())]
    assert len(center) == 2
    for sub in enumerate_subgroups(d4):
        for h in hom_set(sub, fiber_c2):
            for z in center:
                chi = h.conjugate(z)
                assert chi.domain.members == sub.members
                assert chi.values == h.values


def test_conjugation_moves_domains(tg_7_3, fiber_c5):
    # conjugating a character on <z> by an order-p element moves the domain
    g = tg_7_3.group
    q_sub = Subgroup.generated(g, [tg_7_3.z])
    fiber = AbelianFiber((3,))
    chi = hom_set(q_sub, fiber)[1]
    moved = chi.conjugate(tg_7_3.x)
    assert moved.domain.members != q_sub.members


def test_coprime_hom_sets_are_trivial(small_groups):
    for g in small_groups:
        for sub in enumerate_subgroups(g):
            for d in (5, 7):
                if gcd(sub.order, d) == 1:
                    assert len(hom_set(sub, AbelianFiber((d,)))) == 1


# ---------------------------------------------------------------------------
# The array builder against the member-by-member oracle


def _values(homs):
    return [h.values for h in homs]


def test_hom_set_matches_member_loop(small_groups, fiber_c5):
    assert small_groups[0].order == 1   # rank-0 abelianization
    cases = [(g, AbelianFiber(factors)) for g in small_groups
             for factors in ((1,), (2,), (6,), (2, 4))]
    # built here, not taken from the session fixtures, so that their caches
    # are freed when the test ends
    cases += [(abelian_group((2, 2, 2, 2)), AbelianFiber((2, 2)))]
    cases += [(thevenaz.build(thevenaz.ThevenazSpec(11, 5, a, b)).group,
               fiber_c5) for a, b in ((3, 9), (3, 4))]
    for g, fiber in cases:
        for sub in enumerate_subgroups(g):
            assert _values(hom_set(sub, fiber)) == \
                _values(reference_hom_set(sub, fiber)), (g, fiber, sub)


def test_char_index_shared_by_equal_member_sets(s3, fiber_c6):
    for sub in enumerate_subgroups(s3):
        twin = Subgroup(s3, sub.members, verify=False)
        assert twin is not sub
        assert char_index(twin, fiber_c6) is char_index(sub, fiber_c6)
        # the characters are views on the subgroup object asked for
        assert all(h.domain is twin for h in hom_set(twin, fiber_c6))
