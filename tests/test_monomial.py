"""The orbit basis, gamma coefficients, double-coset products, the ghost
ring, and the mark morphism.

Central oracle: the mark morphism is a ring homomorphism — checked pair by
pair against the double-coset product. Gamma blocks, the gamma table and
the mark morphism are checked against the scalar ``reference_gamma`` of
``oracles.py``. The tiny worked example over C2 is verified against
hand-computed tables. Every product block of the geometry pass and its
row terms is checked against ``reference_mackey_block``, which computes
one class pair at a time, and ``reference_mackey_row``, which computes
one class row at a time from per-pair double cosets. Seeded hypothesis tests check, on random products
of cyclic groups, products against ``reference_product`` and the Mackey
symmetry of product blocks, gamma blocks and marks against the oracle
and a count of the cosets K fixes, and the mark morphism as a ring
homomorphism on sums of a few basis elements.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from fibered_burnside import monomial
from fibered_burnside.abelian_fiber import AbelianFiber, char_index, hom_set
from fibered_burnside.errors import ComponentMismatch, NotAGroup
from fibered_burnside.group_core import (Subgroup, abelian_group,
                                         conjugate_subgroup,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group, double_cosets,
                                         double_coset_reps,
                                         enumerate_subgroups, fixed_cosets,
                                         mark, normalizer, symmetric_group)
from fibered_burnside.monomial import (BurnsideElement, MonomialBasis,
                                       MonomialPair, gamma_block, gamma_rows,
                                       gamma_table,
                                       ghost_multiply, ghost_ring,
                                       mark_morphism, monomial_basis, multiply)
from fibered_burnside.thevenaz import canonical_class_table
from oracles import (all_monomial_pairs, canonical_index,
                     integer_matrix_determinant, reference_char_group_table,
                     reference_char_orbits, reference_double_coset_reps,
                     reference_gamma, reference_mackey_block,
                     reference_mackey_row, reference_product)
from test_group_core import product_group, product_params


def _basis(group, fiber):
    return monomial_basis(group, fiber)


# ---------------------------------------------------------------------------
# The worked example: G = C2, A = C2


@pytest.fixture(scope="module")
def c2_basis():
    return _basis(cyclic_group(2), AbelianFiber((2,)))


def test_c2_basis_reps(c2_basis):
    # (1,1), (C2,1), (C2,sigma) in that order
    keys = [(p.subgroup.members, p.char.values) for p in c2_basis.reps]
    assert keys == [((0,), (0,)), ((0, 1), (0, 0)), ((0, 1), (0, 1))]


def test_c2_gamma_table(c2_basis):
    assert gamma_table(c2_basis).tolist() == [[2, 1, 1], [0, 1, 0],
                                              [0, 0, 1]]


def test_c2_products(c2_basis):
    e0, e1, e2 = (c2_basis.basis_element(i) for i in range(3))
    assert multiply(e0, e0).coeffs == [2, 0, 0]
    assert multiply(e0, e2).coeffs == [1, 0, 0]
    assert multiply(e2, e2).coeffs == [0, 1, 0]
    assert c2_basis.identity_index() == 1


def test_c2_mark_morphism(c2_basis):
    img = mark_morphism(c2_basis, c2_basis.basis_element(2))
    assert img.comps == [[1], [0, 1]]
    ident = mark_morphism(c2_basis, c2_basis.identity_element())
    assert ident == ghost_ring(c2_basis).identity()


def test_c2_ring_homomorphism(c2_basis):
    for i in range(3):
        for j in range(3):
            x = c2_basis.basis_element(i)
            y = c2_basis.basis_element(j)
            lhs = mark_morphism(c2_basis, multiply(x, y))
            rhs = ghost_multiply(mark_morphism(c2_basis, x),
                                 mark_morphism(c2_basis, y))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Gamma coefficients


def test_gamma_trivial_pair_is_index(s3, fiber_c6, pair_gamma):
    pairs = all_monomial_pairs(s3, fiber_c6)
    gamma = pair_gamma(s3, fiber_c6)
    assert pairs[0].subgroup.order == 1   # the trivial subgroup comes first
    for j, pl in enumerate(pairs):
        assert gamma[0, j] == s3.order // pl.subgroup.order


def test_gamma_with_trivial_characters_is_mark(s3, d4, fiber_c6, pair_gamma):
    for g in (s3, d4):
        pairs = all_monomial_pairs(g, fiber_c6)
        gamma = pair_gamma(g, fiber_c6)
        trivial = [i for i, p in enumerate(pairs) if p.char.is_trivial()]
        for i in trivial:
            for j in trivial:
                assert gamma[i, j] == mark(g, pairs[i].subgroup,
                                           pairs[j].subgroup)


def test_gamma_diagonal_positive(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            basis = _basis(g, fiber)
            table = gamma_table(basis)
            for i in range(basis.size):
                assert table[i][i] >= 1


def test_gamma_zero_unless_subconjugate(d4, fiber_c6):
    from fibered_burnside.group_core import conjugate_subgroup
    basis = _basis(d4, fiber_c6)
    table = gamma_table(basis)
    for i, pk in enumerate(basis.reps):
        for j, pl in enumerate(basis.reps):
            if table[i][j]:
                k_mem = set(pk.subgroup.members)
                assert any(
                    k_mem <= set(conjugate_subgroup(d4, s, pl.subgroup).members)
                    for s in d4.elements())


def test_gamma_orbit_invariance(s3, fiber_c6, pair_gamma):
    pairs = all_monomial_pairs(s3, fiber_c6)
    index = {p.key(): i for i, p in enumerate(pairs)}
    gamma = pair_gamma(s3, fiber_c6)
    for i, pair in enumerate(pairs):
        for g in s3.elements():
            conj = index[pair.conjugate(g).key()]
            assert (gamma[conj] == gamma[i]).all()
            assert (gamma[:, conj] == gamma[:, i]).all()


def test_conjugacy_detection_small(d4, fiber_c2, pair_gamma):
    # nonzero gamma both ways is exactly G-conjugacy of the pairs
    pairs = all_monomial_pairs(d4, fiber_c2)
    keys = [{pair.conjugate(g).key() for g in d4.elements()}
            for pair in pairs]
    gamma = pair_gamma(d4, fiber_c2)
    both = (gamma != 0) & (gamma.T != 0)
    for i in range(len(pairs)):
        for j, pl in enumerate(pairs):
            assert both[i, j] == (pl.key() in keys[i])


def _assert_gamma_matches_reference(group, fiber):
    """Blocks on every pair of class representatives, the gamma table and
    every mark-morphism image agree with the scalar oracle."""
    reps = conjugacy_classes_of_subgroups(group).reps
    homs = [hom_set(s, fiber) for s in reps]
    for k_sub, homs_k in zip(reps, homs):
        for l_sub, homs_l in zip(reps, homs):
            expect = [[reference_gamma(MonomialPair(k_sub, phi),
                                       MonomialPair(l_sub, psi))
                       for psi in homs_l] for phi in homs_k]
            assert gamma_block(k_sub, l_sub, fiber).tolist() == expect
    basis = monomial_basis(group, fiber)
    assert gamma_table(basis).tolist() == [[reference_gamma(pk, pl)
                                            for pl in basis.reps]
                                           for pk in basis.reps]
    for j, pl in enumerate(basis.reps):
        image = mark_morphism(basis, basis.basis_element(j))
        assert image.comps == [[reference_gamma(MonomialPair(k_sub, phi), pl)
                                for phi in homs_k]
                               for k_sub, homs_k in zip(reps, homs)]


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4)])
def test_gamma_block_matches_reference(small_groups, factors):
    for g in small_groups:
        _assert_gamma_matches_reference(g, AbelianFiber(factors))


def test_gamma_block_matches_reference_s4_and_order_605(s4, tg_11_5_a,
                                                        tg_11_5_b, fiber_c5,
                                                        fiber_c6):
    # S4 over C6: normalizers merge hom-set orbits, so the basis is smaller
    # than the set of (class, character) pairs
    assert monomial_basis(s4, fiber_c6).size < sum(
        len(hom_set(s, fiber_c6))
        for s in conjugacy_classes_of_subgroups(s4).reps)
    _assert_gamma_matches_reference(s4, fiber_c6)
    for tg in (tg_11_5_a, tg_11_5_b):
        _assert_gamma_matches_reference(tg.group, fiber_c5)


def _brute_force_mark(group, k_sub, l_sub):
    """Cosets sL, as sets, that every k in K maps onto themselves."""
    l_mem = list(l_sub.members)
    cosets = {frozenset(group.mul[s, l_mem].tolist())
              for s in range(group.order)}
    return sum(all(frozenset(group.mul[k, list(c)].tolist()) == c
                   for k in k_sub.members) for c in cosets)


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(product_params().filter(lambda p: p[0] * p[1] * p[3] <= 36),
       st.sampled_from([(1,), (2,), (6,), (2, 4)]))
def test_gamma_blocks_and_marks_on_products(params, factors):
    # (C_m x| C_k) x C_c up to order 36: on every pair of class reps, the
    # gamma block against the oracle and the mark against the cosets K
    # fixes; the reps run from K = 1 to K = G
    g = product_group(params)
    _assert_gamma_matches_reference(g, AbelianFiber(factors))
    reps = conjugacy_classes_of_subgroups(g).reps
    assert reps[0].order == 1 and reps[-1].order == g.order
    for k_sub in reps:
        for l_sub in reps:
            assert mark(g, k_sub, l_sub) == _brute_force_mark(g, k_sub, l_sub)


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(product_params())
def test_class_table_marks_on_products(params):
    # (C_m x| C_k) x C_c up to order 60: the class table builds its marks
    # one gather per column class; each must equal the mark of that pair,
    # which the test above counts by brute force
    g = product_group(params)
    table = conjugacy_classes_of_subgroups(g)
    assert table.marks == [[mark(g, k_sub, l_sub) for l_sub in table.reps]
                           for k_sub in table.reps]


def test_gamma_block_rejects_subgroups_of_different_groups(s3, fiber_c2):
    other = symmetric_group(3)
    with pytest.raises(ValueError):
        gamma_block(conjugacy_classes_of_subgroups(s3).reps[0],
                    conjugacy_classes_of_subgroups(other).reps[0], fiber_c2)


def test_monomial_basis_memoized_per_fiber_and_transversal(s3, fiber_c2,
                                                           fiber_c6):
    basis = monomial_basis(s3, fiber_c2)
    table = conjugacy_classes_of_subgroups(s3)
    assert monomial_basis(s3, AbelianFiber((2,)), table) is basis
    reps = table.reps
    assert monomial_basis(
        s3, fiber_c2, conjugacy_classes_of_subgroups(s3, reps=reps)) is basis
    assert monomial_basis(s3, fiber_c6) is not basis


def _assert_products_match_reference(basis):
    cache: dict = {}
    for i in range(basis.size):
        for j in range(basis.size):
            assert basis.product(i, j) == reference_product(basis, i, j,
                                                            cache), (i, j)


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4)])
def test_product_matches_reference(small_groups, factors):
    fiber = AbelianFiber(factors)
    for g in small_groups:
        _assert_products_match_reference(monomial_basis(g, fiber))


def test_product_matches_reference_e16_and_order_605(tg_11_5_a, tg_11_5_b,
                                                     fiber_c2, fiber_c5):
    _assert_products_match_reference(
        monomial_basis(abelian_group((2, 2, 2, 2)), fiber_c2))
    for tg in (tg_11_5_a, tg_11_5_b):
        _assert_products_match_reference(monomial_basis(tg.group, fiber_c5))


def test_product_matches_reference_other_transversals(tg_7_3, s4, fiber_c6):
    # the family's canonical transversal reorders the default classes; a
    # transversal conjugated away from the default changes the reps, so
    # the transporters to them differ too
    table = canonical_class_table(tg_7_3)
    _assert_products_match_reference(
        monomial_basis(tg_7_3.group, AbelianFiber((3,)), table))
    default = conjugacy_classes_of_subgroups(s4).reps
    moved = [conjugate_subgroup(s4, s4.order - 1, r) for r in default]
    assert any(a != b for a, b in zip(moved, default))
    _assert_products_match_reference(monomial_basis(
        s4, fiber_c6, conjugacy_classes_of_subgroups(s4, reps=moved)))


def test_product_block_shape_and_order(d4, fiber_c2):
    basis = monomial_basis(d4, fiber_c2)
    table = basis.class_table
    for ci, (i0, i1) in enumerate(basis.class_block):
        for cj, (j0, j1) in enumerate(basis.class_block):
            block = basis.product_block(ci, cj)
            cosets = double_coset_reps(d4, table.reps[ci], table.reps[cj])
            assert block.shape == (i1 - i0, j1 - j0, len(cosets))
            assert (np.diff(block, axis=-1) >= 0).all()
            assert basis.product_block(ci, cj) is block


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(product_params().filter(lambda p: p[0] * p[1] * p[3] <= 36),
       st.sampled_from([(1,), (2,), (6,), (2, 4)]))
def test_product_blocks_on_products(params, factors):
    # (C_m x| C_k) x C_c up to order 36: the batched double cosets of every
    # ordered class pair against the sweep, every product against the
    # oracle, and every lower block, computed directly, against the
    # transposed upper one that product_block returns in its place; the
    # oracle's cost grows with the square of the basis, so large bases are
    # left out
    g = product_group(params)
    fiber = AbelianFiber(factors)
    basis = monomial_basis(g, fiber)
    assume(basis.size <= 100)
    reps = basis.class_table.reps
    k = len(reps)
    pair, found = double_cosets(g, reps, reps)
    for a, k_sub in enumerate(reps):
        for b, l_sub in enumerate(reps):
            assert found[pair == a * k + b].tolist() == \
                reference_double_coset_reps(g, k_sub, l_sub)
    _assert_products_match_reference(basis)
    for ci in range(k):
        for cj in range(ci):
            lower = reference_mackey_block(basis, ci, cj)
            assert np.array_equal(
                lower, basis.product_block(cj, ci).transpose(1, 0, 2))
            assert np.array_equal(lower, basis.product_block(ci, cj))


def _assert_blocks_match_reference(basis):
    k = len(basis.class_block)
    for ci in range(k):
        row = reference_mackey_row(basis, ci)
        for cj in range(k):
            block = basis.product_block(ci, cj)
            expects = [reference_mackey_block(basis, ci, cj)]
            if cj >= ci:
                expects.append(row[cj - ci])
            for expect in expects:
                assert block.dtype == expect.dtype, (ci, cj)
                assert block.shape == expect.shape, (ci, cj)
                assert np.array_equal(block, expect), (ci, cj)


def test_product_rows_match_reference_blocks(small_groups, tg_11_5_a,
                                             tg_11_5_b):
    # every block of the geometry pass and its row terms, upper ones as
    # computed and lower ones as transposed views, against the per-pair
    # pass and the per-row pass computed directly
    for factors in [(1,), (2,), (6,), (2, 4)]:
        for g in small_groups:
            _assert_blocks_match_reference(
                MonomialBasis(g, AbelianFiber(factors)))
    _assert_blocks_match_reference(
        MonomialBasis(symmetric_group(5), AbelianFiber((2,))))
    e16 = abelian_group((2, 2, 2, 2))
    for factors in [(2,), (2, 2)]:
        _assert_blocks_match_reference(
            MonomialBasis(e16, AbelianFiber(factors)))
    for tg in (tg_11_5_a, tg_11_5_b):
        _assert_blocks_match_reference(MonomialBasis(
            tg.group, AbelianFiber((5,)), canonical_class_table(tg)))


def test_product_block_rejects_missing_double_coset(monkeypatch, s4,
                                                    fiber_c2):
    # the sizes |K||L|/|K n sLs^-1| of the double cosets must add up to |G|
    # for every pair; with the last coset of the pairs (2, 7) and (3, 5)
    # dropped from the batched kernel, the first bad pair is named
    basis = MonomialBasis(s4, fiber_c2)
    k = len(basis.class_table.reps)
    assert k > 7

    def dropping(g, ks, ls):
        pair, reps = double_cosets(g, ks, ls)
        last = [np.flatnonzero(pair == p)[-1] for p in (2 * k + 7, 3 * k + 5)]
        keep = np.ones(pair.size, dtype=bool)
        keep[last] = False
        return pair[keep], reps[keep]

    monkeypatch.setattr(monomial, "double_cosets", dropping)
    with pytest.raises(NotAGroup,
                       match="classes 2 and 7 do not partition the group"):
        basis.product_block(k - 1, k - 1)


def test_product_block_rejects_values_of_no_character():
    # over C4, characters of C2 x C2 take values in {0, 2} only
    basis = monomial_basis(abelian_group((2, 2)), AbelianFiber((4,)))
    full = len(basis.class_block) - 1
    chars = char_index(basis.class_table.reps[full], basis.fiber)
    assert chars.gens.size == 2
    i0, i1 = basis.class_block[full]
    hi = chars.index(np.array([2, 0]))
    assert i0 <= int(basis._char_to_basis[full][hi]) < i1
    with pytest.raises(ValueError, match="matches no character"):
        chars.index(np.array([[1, 0]]))


# ---------------------------------------------------------------------------
# The character index against the union-find sweep and Character products


def _assert_char_data_matches_reference(basis):
    for ci, k_sub in enumerate(basis.class_table.reps):
        i0, i1 = basis.class_block[ci]
        roots, stabilizers, to_basis = reference_char_orbits(
            k_sub, basis.fiber, i0)
        assert basis.rep_hom_index[i0:i1] == roots
        assert [list(s.members)
                for s in basis.stabilizers[i0:i1]] == stabilizers
        assert basis._char_to_basis[ci].tolist() == to_basis
        assert char_index(k_sub, basis.fiber).table.tolist() == \
            reference_char_group_table(hom_set(k_sub, basis.fiber))


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4)])
def test_char_orbits_and_tables_match_reference(small_groups, factors):
    fiber = AbelianFiber(factors)
    for g in small_groups:
        _assert_char_data_matches_reference(monomial_basis(g, fiber))


def test_char_orbits_and_tables_match_reference_larger(tg_11_5_a, tg_11_5_b,
                                                       s4, fiber_c5,
                                                       fiber_c6):
    _assert_char_data_matches_reference(
        monomial_basis(abelian_group((2, 2, 2, 2)), AbelianFiber((2, 2))))
    for tg in (tg_11_5_a, tg_11_5_b):
        _assert_char_data_matches_reference(monomial_basis(tg.group,
                                                           fiber_c5))
    default = conjugacy_classes_of_subgroups(s4).reps
    moved = [conjugate_subgroup(s4, s4.order - 1, r) for r in default]
    _assert_char_data_matches_reference(monomial_basis(
        s4, fiber_c6, conjugacy_classes_of_subgroups(s4, reps=moved)))


def test_char_index_keys_beyond_int64():
    # 1458^6 > 2^63: the keys of the 64 characters of (C2)^6 over C1458
    # are exact Python integers
    e64 = abelian_group((2,) * 6)
    full = Subgroup(e64, range(e64.order))
    fiber = AbelianFiber((1458,))
    chars = char_index(full, fiber)
    assert chars.gens.size == 6 and 1458 ** 6 > 2 ** 63
    assert chars.index(chars.values[:, chars.pos[chars.gens]]).tolist() == \
        list(range(64))
    assert chars.table.tolist() == reference_char_group_table(
        hom_set(full, fiber))
    with pytest.raises(ValueError, match="matches no character"):
        chars.index(np.ones(6, dtype=np.int64))


@pytest.mark.parametrize("factors", [(2,), (6,), (2, 4)])
def test_restriction_matches_character_conjugation(small_groups, factors):
    # the one restriction gather, against Character.conjugate and
    # Character.restrict read back through hom_set: for every pair (K, L)
    # of subgroups and every s in a coset sL that K fixes, ^s psi
    # restricted to K, and for every n in N_G(K), ^n chi. Pairs of class
    # reps alone would not tell s from s^-1 here: in S3 and D4 they only
    # meet cosets on which conjugation by s and by s^-1 agree
    fiber = AbelianFiber(factors)
    for g in small_groups:
        subs = enumerate_subgroups(g)
        layout = monomial._HomLayout(subs, fiber)
        homs = [hom_set(sub, fiber) for sub in subs]
        for a, k_sub in enumerate(subs):
            chars = char_index(k_sub, fiber)
            where = {chi.values: i for i, chi in enumerate(homs[a])}
            for b, l_sub in enumerate(subs):
                fixed = fixed_cosets(g, k_sub, l_sub)
                for s in g.mul[fixed[:, None], l_sub.members].ravel().tolist():
                    got = layout.restrict(b, np.arange(len(homs[b])),
                                          g.inverse(s), chars)
                    assert got.tolist() == [
                        where[psi.conjugate(s).restrict(k_sub).values]
                        for psi in homs[b]]
            for n in normalizer(g, k_sub).members:
                got = layout.restrict(a, np.arange(len(homs[a])),
                                      g.inverse(n), chars)
                assert got.tolist() == [where[chi.conjugate(n).values]
                                        for chi in homs[a]]


# ---------------------------------------------------------------------------
# Basis structure


def test_orbit_count_formula(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            basis = _basis(g, fiber)
            total = sum(g.order // stab.order for stab in basis.stabilizers)
            assert total == len(all_monomial_pairs(g, fiber))


def test_canonical_index_constant_on_orbits(s3, fiber_c6):
    basis = _basis(s3, fiber_c6)
    for pair in all_monomial_pairs(s3, fiber_c6):
        idx = canonical_index(basis, pair)
        for g in s3.elements():
            assert canonical_index(basis, pair.conjugate(g)) == idx


def test_basis_grouped_by_class_table_order(d4, fiber_c6):
    basis = _basis(d4, fiber_c6)
    table = conjugacy_classes_of_subgroups(d4)
    for ci, (start, stop) in enumerate(basis.class_block):
        for i in range(start, stop):
            assert basis.reps[i].subgroup.members == table.reps[ci].members
    assert basis.class_block[-1][1] == basis.size


def test_coprime_fiber_degeneration(s3, d4, fiber_c5):
    # gcd(|A|, |G|) = 1: only trivial characters, so the basis collapses
    # to the subgroup classes and gamma to the table of marks
    c3 = AbelianFiber((3,))
    for g, fiber in ((s3, fiber_c5), (d4, fiber_c5), (d4, c3)):
        assert gcd(g.order, fiber.order) == 1
        basis = _basis(g, fiber)
        table = conjugacy_classes_of_subgroups(g)
        assert basis.size == len(table.reps)
        assert gamma_table(basis).tolist() == table.marks


def test_identity_element(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            basis = _basis(g, fiber)
            e = basis.identity_element()
            for i in range(basis.size):
                x = basis.basis_element(i)
                assert multiply(e, x) == x
                assert multiply(x, e) == x


def test_multiply_commutative_associative_small(s3, fiber_c6):
    basis = _basis(s3, fiber_c6)
    elems = [basis.basis_element(i) for i in range(basis.size)]
    for x in elems:
        for y in elems:
            assert multiply(x, y) == multiply(y, x)
    for x in elems:
        for y in elems:
            for z in elems:
                assert multiply(multiply(x, y), z) == \
                    multiply(x, multiply(y, z))


def test_basis_mismatch_rejected(s3, fiber_c2, fiber_c6):
    b1 = _basis(s3, fiber_c2)
    b2 = _basis(s3, fiber_c6)
    with pytest.raises(ComponentMismatch):
        multiply(b1.basis_element(0), b2.basis_element(0))


# ---------------------------------------------------------------------------
# Ghost ring and mark morphism


def test_ghost_identity(d4, fiber_c6):
    basis = _basis(d4, fiber_c6)
    ring = ghost_ring(basis)
    ident = ring.identity()
    for i in range(basis.size):
        img = mark_morphism(basis, basis.basis_element(i))
        assert ghost_multiply(ident, img) == img


def test_ghost_images_orbit_closed(d4, fiber_c6):
    basis = _basis(d4, fiber_c6)
    for i in range(basis.size):
        assert mark_morphism(basis, basis.basis_element(i)).is_orbit_closed()


def test_own_component_is_orbit_sum(d4, fiber_c6):
    # the K-component of the ghost image of [K, phi] is supported on the
    # normalizer orbit of phi, with constant value |N_G(K, phi)| / |K|
    basis = _basis(d4, fiber_c6)
    for i, pair in enumerate(basis.reps):
        ci = basis.rep_class[i]
        comp = mark_morphism(basis, basis.basis_element(i)).comps[ci]
        orbit_of = basis._char_to_basis[ci]
        weight = basis.stabilizers[i].order // pair.subgroup.order
        expect = [weight if orbit_of[hi] == i else 0
                  for hi in range(len(hom_set(pair.subgroup, basis.fiber)))]
        assert comp == expect


def test_mark_morphism_linear(s3, fiber_c6):
    basis = _basis(s3, fiber_c6)
    x = BurnsideElement(basis, [2] + [0] * (basis.size - 1))
    y = basis.basis_element(1)
    assert mark_morphism(basis, x + y) == \
        mark_morphism(basis, x) + mark_morphism(basis, y)


def _count_gamma_rows(monkeypatch):
    """Record, for each ``gamma_rows`` kernel prepared from now on, the K
    index of every row it computes and the L indices of its blocks."""
    calls = []

    def counted(*args):
        kernel = gamma_rows(*args)

        def row(a):
            blocks = kernel(a)
            calls.append((a, sorted(blocks)))
            return blocks
        return row

    monkeypatch.setattr(monomial, "gamma_rows", counted)
    return calls


def test_ghost_images_take_one_gamma_block_per_class_pair(monkeypatch,
                                                        fiber_c2):
    # (C2)^4 over C2: 67 subgroup classes, 307 basis elements; the ghost
    # images read the blocks the basis keeps: one kernel row per class, so
    # each block of a class pair is computed once
    group = abelian_group([2, 2, 2, 2])
    table = gamma_table(MonomialBasis(group, fiber_c2))
    calls = _count_gamma_rows(monkeypatch)
    basis = MonomialBasis(group, fiber_c2)
    images = [mark_morphism(basis, basis.basis_element(j))
              for j in range(basis.size)]
    n_classes = len(basis.class_table.reps)
    assert sorted(a for a, _ in calls) == list(range(n_classes))
    for a, (ca, ha) in enumerate(zip(basis.rep_class, basis.rep_hom_index)):
        assert [img.comps[ca][ha] for img in images] == table[a].tolist()


def test_gamma_table_computes_only_nonzero_mark_blocks(monkeypatch):
    # (C2)^4 over C2 x C2: 513 of the 67 x 67 class pairs have a nonzero
    # mark; the gamma table computes their blocks, one kernel row per
    # class, and the other blocks stay zero without being computed
    basis = MonomialBasis(abelian_group([2, 2, 2, 2]), AbelianFiber((2, 2)))
    calls = _count_gamma_rows(monkeypatch)
    table = gamma_table(basis)
    marks = np.asarray(basis.class_table.marks)
    assert [a for a, _ in calls] == list(range(len(marks)))
    assert [b for _, b in calls] == [np.flatnonzero(row).tolist()
                                     for row in marks]
    assert np.count_nonzero(marks) == 513
    assert table.shape == (1837, 1837) and table.dtype == np.int8
    assert not basis._gamma_cache


def test_gamma_table_dtype_holds_the_group_order(tg_11_5_a, fiber_c1):
    # the (trivial, trivial) entry is |G|, the largest a table can hold
    for n, dtype in ((127, np.int8), (128, np.int16)):
        table = gamma_table(_basis(cyclic_group(n), fiber_c1))
        assert table.dtype == dtype and table[0, 0] == n
    basis = monomial_basis(tg_11_5_a.group, AbelianFiber((5,)),
                           canonical_class_table(tg_11_5_a))
    table = gamma_table(basis)
    assert table.dtype == np.int16
    expect = [[basis.gamma_block(ci, cj)[hi, hj]
               for cj, hj in zip(basis.rep_class, basis.rep_hom_index)]
              for ci, hi in zip(basis.rep_class, basis.rep_hom_index)]
    assert table.tolist() == expect


def test_ring_homomorphism_suite(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            basis = _basis(g, fiber)
            images = [mark_morphism(basis, basis.basis_element(i))
                      for i in range(basis.size)]
            for i in range(basis.size):
                for j in range(basis.size):
                    prod = multiply(basis.basis_element(i),
                                    basis.basis_element(j))
                    assert mark_morphism(basis, prod) == \
                        ghost_multiply(images[i], images[j])


def _element(basis, terms):
    """The element with coefficient c on basis index i % size for each
    (i, c) in ``terms``, summed."""
    coeffs = [0] * basis.size
    for i, c in terms:
        coeffs[i % basis.size] += c
    return BurnsideElement(basis, coeffs)


_TERMS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(-3, 3)),
                  min_size=1, max_size=4)


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(product_params().filter(lambda p: p[0] * p[1] * p[3] <= 36),
       st.sampled_from([(1,), (2,), (6,), (2, 4)]), _TERMS, _TERMS)
def test_mark_morphism_is_ring_homomorphism_on_products(params, factors,
                                                        x_terms, y_terms):
    # (C_m x| C_k) x C_c up to order 36: the mark morphism of x * y is the
    # ghost product of the images, on sums of a few basis elements
    basis = monomial_basis(product_group(params), AbelianFiber(factors))
    x, y = _element(basis, x_terms), _element(basis, y_terms)
    assert mark_morphism(basis, multiply(x, y)) == ghost_multiply(
        mark_morphism(basis, x), mark_morphism(basis, y))


def test_gamma_matrix_nonsingular(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            assert integer_matrix_determinant(
                gamma_table(_basis(g, fiber))) != 0


# ---------------------------------------------------------------------------
# Exact determinant


def test_determinant_known_values():
    assert integer_matrix_determinant([]) == 1
    assert integer_matrix_determinant([[7]]) == 7
    assert integer_matrix_determinant([[1, 2], [3, 4]]) == -2
    assert integer_matrix_determinant([[2, 0, 1],
                                       [1, 3, 2],
                                       [0, 1, 4]]) == 21
    assert integer_matrix_determinant([[1, 2], [2, 4]]) == 0
    assert integer_matrix_determinant([[0, 1], [1, 0]]) == -1


def test_determinant_matches_cofactor_expansion():
    import itertools
    import random
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        expect = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            expect += term
        assert integer_matrix_determinant(m) == expect
