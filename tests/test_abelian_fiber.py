"""Fiber groups and character sets Hom(K, A).

Oracles: direct scans over all fiber elements, the torsion-product count
formula, exhaustive checks of the group laws on hom sets,
``reference_hom_set``, which builds Hom(K, A) one member at a time, the
oracles' ``Character``, which checks the homomorphism rule on all pairs of
members and conjugates one member at a time, and
``reference_abelian_invariant_decomposition``, which decomposes each
character group through per-element callbacks.
"""

from math import gcd

import numpy as np
import pytest
from oracles import (Character, char_lookup, fiber_add, fiber_neg, hom_set,
                     neg_table, reference_abelian_invariant_decomposition,
                     reference_hom_set, reference_span, torsion_elements)

from fibered_burnside import thevenaz
from fibered_burnside.abelian_fiber import (AbelianFiber, CharIndex,
                                            _check_homs, char_index)
from fibered_burnside.group_core import (Subgroup, abelian_group,
                                         abelianization,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group, enumerate_subgroups)

# ---------------------------------------------------------------------------
# Fiber arithmetic


def test_fiber_basics():
    a = AbelianFiber((2, 4))
    assert a.order == 8
    assert a.elements[0] == (0, 0)
    zero = a.elements.index((0, 0))
    for i in range(a.order):
        assert fiber_add(a, i, fiber_neg(a, i)) == zero


def test_fiber_parse():
    assert AbelianFiber.parse("5").factors == (5,)
    assert AbelianFiber.parse("2,4").factors == (2, 4)
    with pytest.raises(ValueError):
        AbelianFiber.parse("2,x")
    with pytest.raises(ValueError):
        AbelianFiber((0,))


def test_torsion_c5():
    c5 = AbelianFiber((5,))
    assert torsion_elements(c5, 5) == [(i,) for i in range(5)]
    assert torsion_elements(c5, 11) == [(0,)]
    assert c5.has_trivial_torsion(11)
    assert not c5.has_trivial_torsion(5)


def test_torsion_c6():
    c6 = AbelianFiber((6,))
    assert torsion_elements(c6, 4) == [(0,), (3,)]


def test_torsion_matches_scan():
    a = AbelianFiber((2, 6))
    for n in range(1, 8):
        expect = [e for e in a.elements
                  if all((n * x) % d == 0 for x, d in zip(e, a.factors))]
        assert torsion_elements(a, n) == expect


# ---------------------------------------------------------------------------
# Characters


def _full(group):
    return Subgroup(group, range(group.order))


def _checks(domain, fiber):
    """The package's check of value rows on a domain, and the oracles'."""
    return [lambda rows: _check_homs(domain, fiber, rows),
            lambda rows: [Character(domain, fiber, row) for row in rows]]


def test_character_must_be_homomorphism():
    c4 = cyclic_group(4)
    c2 = AbelianFiber((2,))
    for check in _checks(_full(c4), c2):
        with pytest.raises(ValueError, match="not a homomorphism"):
            check([[0, 1, 1, 0]])
        with pytest.raises(ValueError, match="identity to 0"):
            check([[1, 0, 0, 0]])
        # the two genuine homomorphisms C4 -> C2
        check([[0, 0, 0, 0], [0, 1, 0, 1]])
    assert char_index(_full(c4), c2).values.tolist() == [[0, 0, 0, 0],
                                                          [0, 1, 0, 1]]


def test_character_domain_must_be_a_subgroup():
    c4, fiber = cyclic_group(4), AbelianFiber((2,))
    for members, message in (([0, 1], "domain is not closed"),
                             ([1, 3], "contain the identity")):
        domain = Subgroup(c4, members, verify=False)
        for check in _checks(domain, fiber):
            with pytest.raises(ValueError, match=message):
                check([[0, 0]])


def test_hom_set_c2_c2():
    c2 = cyclic_group(2)
    chars = char_index(_full(c2), AbelianFiber((2,)))
    assert chars.values.tolist() == [[0, 0], [0, 1]]


def test_hom_set_coprime_is_trivial():
    c4 = cyclic_group(4)
    for sub in enumerate_subgroups(c4):
        values = char_index(sub, AbelianFiber((3,))).values
        assert values.shape == (1, sub.order) and not values.any()


def test_hom_set_count_formula(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            for sub in enumerate_subgroups(g):
                dec = abelianization(sub)
                expect = 1
                for d in dec.factors:
                    expect *= len(fiber.torsion_indices(d))
                assert len(char_index(sub, fiber).values) == expect


def test_hom_set_deterministic_and_distinct(s4, fiber_c6):
    for sub in enumerate_subgroups(s4):
        values = CharIndex(sub, fiber_c6).values
        assert np.array_equal(CharIndex(sub, fiber_c6).values, values)
        assert len(np.unique(values, axis=0)) == len(values)


def test_hom_set_is_abelian_group(s3, fiber_c6):
    add, neg = fiber_c6.add_table, neg_table(fiber_c6)
    for sub in enumerate_subgroups(s3):
        homs = char_index(sub, fiber_c6).values
        values = set(map(tuple, homs.tolist()))
        for h1 in homs:
            assert tuple(neg[h1].tolist()) in values
            assert not add[h1, neg[h1]].any()
            for h2 in homs:
                assert tuple(add[h1, h2].tolist()) in values
                assert np.array_equal(add[h1, h2], add[h2, h1])


def test_thevenaz_full_group_characters(tg_7_3):
    g = tg_7_3.group
    chars = char_index(_full(g), AbelianFiber((3,)))
    assert len(chars.values) == 3
    # each character is pinned down by its value on the order-q generator
    values_at = chars.values.T[chars.pos]
    assert sorted(values_at[tg_7_3.z].tolist()) == [0, 1, 2]
    assert not values_at[tg_7_3.x].any()
    assert not values_at[tg_7_3.y].any()


def test_char_mul_domain_mismatch(s3, fiber_c2):
    # characters are multiplied only within one hom set (``CharIndex.table``),
    # so values from another domain can only reach the one check as rows of
    # the wrong length for its domain
    subs = [s for s in enumerate_subgroups(s3) if s.order in (2, 3)]
    order_2, order_3 = subs[0], subs[-1]
    assert (order_2.order, order_3.order) == (2, 3)
    rows = char_index(order_3, fiber_c2).values
    for check in _checks(order_2, fiber_c2):
        with pytest.raises(ValueError, match="one value per domain member"):
            check(rows)


def test_trivial_is_identity(s3, fiber_c6):
    chars = char_index(_full(s3), fiber_c6)
    assert not chars.values[0].any()
    assert np.array_equal(
        fiber_c6.add_table[chars.values, chars.values[0]], chars.values)
    n = len(chars.values)
    assert chars.table[:, 0].tolist() == chars.table[0].tolist() == \
        list(range(n))


def test_restriction(s3, fiber_c6):
    # a character of S3 restricted to a subgroup is a character of it
    full = char_index(_full(s3), fiber_c6)
    for sub in enumerate_subgroups(s3):
        chars = char_index(sub, fiber_c6)
        restricted = full.values[:, full.pos[list(sub.members)]]
        assert np.array_equal(chars.values[char_lookup(
            chars, restricted[:, chars.pos[chars.gens]])], restricted)


def test_conjugation_is_action(s3, d4, fiber_c6):
    for g in (s3, d4):
        for sub in enumerate_subgroups(g):
            for h in hom_set(sub, fiber_c6):
                for a in range(g.order):
                    for b in range(g.order):
                        lhs = h.conjugate(b).conjugate(a)
                        rhs = h.conjugate(g.m(a, b))
                        assert lhs.domain.members == rhs.domain.members
                        assert lhs.values == rhs.values


def test_conjugate_is_verified_homomorphism(d4, fiber_c6):
    for sub in enumerate_subgroups(d4):
        for h in hom_set(sub, fiber_c6):
            for a in range(d4.order):
                chi = h.conjugate(a)
                # re-run verification on the conjugated value map
                Character(chi.domain, chi.fiber, chi.values)


def test_central_conjugation_fixes_characters(d4, fiber_c2):
    center = [x for x in range(d4.order)
              if all(d4.m(x, y) == d4.m(y, x) for y in range(d4.order))]
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
                    assert len(char_index(sub, AbelianFiber((d,))).values) == 1


# ---------------------------------------------------------------------------
# The array builder against the member-by-member oracle


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
            assert char_index(sub, fiber).values.tolist() == \
                [list(h.values) for h in reference_hom_set(sub, fiber)], \
                (g, fiber, sub)


def test_char_group_decomposition_matches_reference(small_groups):
    # the table kernel on every Hom(K, A) against per-element callbacks:
    # the same factors, coordinates and order of the span
    for g in small_groups:
        for factors in ((1,), (2,), (6,), (2, 4), (2, 2)):
            fiber = AbelianFiber(factors)
            for sub in enumerate_subgroups(g):
                chars = char_index(sub, fiber)
                rows = chars.table.tolist()
                assert not chars.values[0].any()   # the identity is row 0
                dec = chars.decomposition
                ref = reference_abelian_invariant_decomposition(
                    list(range(len(rows))), lambda a, b: rows[a][b], 0)
                assert dec.factors == ref.factors, (g, factors, sub)
                assert dec.coords.tolist() == \
                    [list(ref.coords[e]) for e in range(len(rows))]
                assert dec.span.tolist() == reference_span(ref.coords)


def test_char_index_shared_by_equal_member_sets(s3, fiber_c6):
    for sub in enumerate_subgroups(s3):
        twin = Subgroup(s3, sub.members, verify=False)
        assert twin is not sub
        assert char_index(twin, fiber_c6) is char_index(sub, fiber_c6)


@pytest.mark.parametrize("factors", [(1,), (2,), (5,), (6,), (2, 2), (2, 4),
                                     (3, 9)])
def test_hom_factors_match_decomposition(small_groups, tg_11_5_a, tg_11_5_b,
                                         factors):
    # Hom(K, A) = sum of C_gcd(d, e) over the invariant factors d of K^ab
    # and e of A, in invariant-factor form, against the decomposition of
    # the character group's own table: every class rep of the small groups
    # and of the order-605 pair
    fiber = AbelianFiber(factors)
    for g in (*small_groups, tg_11_5_a.group, tg_11_5_b.group):
        for rep in conjugacy_classes_of_subgroups(g).reps:
            chars = char_index(rep, fiber)
            assert chars.hom_factors == chars.decomposition.factors, \
                (g, factors, rep)


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4), (3, 9)])
def test_char_table_matches_lookup_of_products(small_groups, tg_7_3,
                                               factors):
    # entry [r, s] of the table, read off the image tuples, is the
    # character whose values on the generators are the fiber sums of
    # those of r and s, found by the oracles' dictionary lookup
    fiber = AbelianFiber(factors)
    for g in (*small_groups, tg_7_3.group):
        for sub in enumerate_subgroups(g):
            chars = char_index(sub, fiber)
            on_gens = chars.values[:, chars.pos[chars.gens]]
            assert chars.table.tolist() == char_lookup(
                chars, fiber.add_table[on_gens[:, None], on_gens[None]]
            ).tolist(), (g, factors, sub)
