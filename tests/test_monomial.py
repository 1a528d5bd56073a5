"""The orbit basis, gamma coefficients and double-coset products, checked
through the ring layer of ``oracles.py``: ring elements, the ghost ring,
and the mark morphism.

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

import random
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from fibered_burnside import monomial, thevenaz
from fibered_burnside.abelian_fiber import AbelianFiber, char_index
from fibered_burnside.errors import NotAGroup
from fibered_burnside.group_core import (Subgroup, _index_dtype,
                                         abelian_group,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group, dihedral_group,
                                         double_cosets,
                                         enumerate_subgroups,
                                         normalizer, symmetric_group)
from fibered_burnside.monomial import (MonomialBasis, gamma_class_rows,
                                       gamma_rows, monomial_basis)
from fibered_burnside.thevenaz import canonical_class_table
from conftest import traced_peak
from oracles import (BurnsideElement, ComponentMismatch, MonomialPair,
                     all_monomial_pairs, basis_element, basis_pair,
                     canonical_index, char_lookup, conjugate_subgroup,
                     double_coset_reps, eager_basis_objects, fixed_cosets,
                     gamma_block, gamma_table, ghost_multiply, ghost_ring,
                     hom_set, identity_element, identity_index,
                     integer_matrix_determinant, lexsorted_orbit_reps,
                     located_block, mark, mark_morphism, multiply,
                     reference_char_group_table,
                     reference_char_orbits, reference_conj,
                     reference_double_coset_reps,
                     reference_gamma, reference_mackey_block,
                     reference_m_classes, reference_mackey_row,
                     reference_product)
from test_group_core import (_a6_from_cayley_json, product_group,
                             product_params, relabelled)


def _basis(group, fiber):
    return monomial_basis(group, fiber)


def _pairs(basis):
    """The orbit rep (K, phi) of every basis element, from its indices."""
    return [basis_pair(basis, i) for i in range(basis.size)]


# ---------------------------------------------------------------------------
# The worked example: G = C2, A = C2


@pytest.fixture(scope="module")
def c2_basis():
    return _basis(cyclic_group(2), AbelianFiber((2,)))


def test_c2_basis_reps(c2_basis):
    # (1,1), (C2,1), (C2,sigma) in that order
    keys = [(p.subgroup.members, p.char.values) for p in _pairs(c2_basis)]
    assert keys == [((0,), (0,)), ((0, 1), (0, 0)), ((0, 1), (0, 1))]


def test_c2_gamma_table(c2_basis):
    assert gamma_table(c2_basis).tolist() == [[2, 1, 1], [0, 1, 0],
                                              [0, 0, 1]]


def test_c2_products(c2_basis):
    e0, e1, e2 = (basis_element(c2_basis, i) for i in range(3))
    assert multiply(e0, e0).coeffs == [2, 0, 0]
    assert multiply(e0, e2).coeffs == [1, 0, 0]
    assert multiply(e2, e2).coeffs == [0, 1, 0]
    assert identity_index(c2_basis) == 1


def test_c2_mark_morphism(c2_basis):
    img = mark_morphism(c2_basis, basis_element(c2_basis, 2))
    assert img.comps == [[1], [0, 1]]
    ident = mark_morphism(c2_basis, identity_element(c2_basis))
    assert ident == ghost_ring(c2_basis).identity()


def test_c2_ring_homomorphism(c2_basis):
    for i in range(3):
        for j in range(3):
            x = basis_element(c2_basis, i)
            y = basis_element(c2_basis, j)
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
    basis = _basis(d4, fiber_c6)
    table = gamma_table(basis)
    pairs = _pairs(basis)
    for i, pk in enumerate(pairs):
        for j, pl in enumerate(pairs):
            if table[i][j]:
                k_mem = set(pk.subgroup.members)
                assert any(
                    k_mem <= set(conjugate_subgroup(d4, s, pl.subgroup).members)
                    for s in range(d4.order))


def test_gamma_orbit_invariance(s3, fiber_c6, pair_gamma):
    pairs = all_monomial_pairs(s3, fiber_c6)
    index = {p.key(): i for i, p in enumerate(pairs)}
    gamma = pair_gamma(s3, fiber_c6)
    for i, pair in enumerate(pairs):
        for g in range(s3.order):
            conj = index[pair.conjugate(g).key()]
            assert (gamma[conj] == gamma[i]).all()
            assert (gamma[:, conj] == gamma[:, i]).all()


def test_conjugacy_detection_small(d4, fiber_c2, pair_gamma):
    # nonzero gamma both ways is exactly G-conjugacy of the pairs
    pairs = all_monomial_pairs(d4, fiber_c2)
    keys = [{pair.conjugate(g).key() for g in range(d4.order)}
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
    pairs = _pairs(basis)
    assert gamma_table(basis).tolist() == [[reference_gamma(pk, pl)
                                            for pl in pairs]
                                           for pk in pairs]
    for j, pl in enumerate(pairs):
        image = mark_morphism(basis, basis_element(basis, j))
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
    # the runs of a class pair, read through the locator: one term per
    # double coset, sorted
    basis = monomial_basis(d4, fiber_c2)
    table = basis.class_table
    for ci, (i0, i1) in enumerate(basis.class_block):
        for cj, (j0, j1) in enumerate(basis.class_block):
            block = located_block(basis, ci, cj)
            cosets = double_coset_reps(d4, table.reps[ci], table.reps[cj])
            assert block.shape == (i1 - i0, j1 - j0, len(cosets))
            assert (np.diff(block, axis=-1) >= 0).all()


@seed(20261018)
@settings(max_examples=25, deadline=None, database=None)
@given(product_params().filter(lambda p: p[0] * p[1] * p[3] <= 36),
       st.sampled_from([(1,), (2,), (6,), (2, 4)]))
def test_product_blocks_on_products(params, factors):
    # (C_m x| C_k) x C_c up to order 36: the batched double cosets of every
    # ordered class pair against the sweep, every product against the
    # oracle, and every block, lower ones included, as the run locator
    # reads it against the block computed directly; the oracle's cost
    # grows with the square of the basis, so large bases are left out
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
        for cj in range(k):
            assert np.array_equal(located_block(basis, ci, cj),
                                  reference_mackey_block(basis, ci, cj))


def _assert_blocks_match_reference(basis):
    # the references count in int64; the kept rows hold basis indices in
    # the smallest index dtype of the basis size
    k = len(basis.class_block)
    for ci in range(k):
        row = reference_mackey_row(basis, ci)
        for cj in range(k):
            block = located_block(basis, ci, cj)
            expects = [reference_mackey_block(basis, ci, cj)]
            if cj >= ci:
                expects.append(row[cj - ci])
            for expect in expects:
                assert expect.dtype == np.int64, (ci, cj)
                assert block.dtype == _index_dtype(basis.size), (ci, cj)
                assert block.shape == expect.shape, (ci, cj)
                assert np.array_equal(block, expect), (ci, cj)


def test_product_rows_match_reference_blocks(small_groups, tg_11_5_a,
                                             tg_11_5_b):
    # every block of the geometry pass and its row terms, lower ones
    # included, as the run locator reads them from the kept rows, against
    # the per-pair pass and the per-row pass computed directly
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
        basis.product(basis.size - 1, basis.size - 1)


def test_product_block_rejects_values_of_no_character():
    # over C4, characters of C2 x C2 take values in {0, 2} only
    basis = monomial_basis(abelian_group((2, 2)), AbelianFiber((4,)))
    full = len(basis.class_block) - 1
    chars = char_index(basis.class_table.reps[full], basis.fiber)
    assert chars.gens.size == 2
    i0, i1 = basis.class_block[full]
    hi = char_lookup(chars, np.array([2, 0]))
    assert i0 <= int(basis.char_to_basis[full][hi]) < i1
    with pytest.raises(ValueError, match="matches no character"):
        char_lookup(chars, np.array([[1, 0]]))


# ---------------------------------------------------------------------------
# The character index against the union-find sweep and Character products


def _assert_char_data_matches_reference(basis):
    # the reps of each class come in the order of a lexsort of their values
    assert basis.rep_hom_index == lexsorted_orbit_reps(basis)
    eager_stabilizers = eager_basis_objects(basis)[1]
    for ci, k_sub in enumerate(basis.class_table.reps):
        i0, i1 = basis.class_block[ci]
        roots, stabilizers, to_basis = reference_char_orbits(
            k_sub, basis.fiber, i0)
        assert basis.rep_hom_index[i0:i1] == roots
        assert [list(s.members)
                for s in eager_stabilizers[i0:i1]] == stabilizers
        assert basis.char_to_basis[ci].tolist() == to_basis
        assert char_index(k_sub, basis.fiber).hom_type.table.tolist() == \
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


def test_char_orbits_match_reference_past_one_byte():
    # over C2 x C256 the characters of order 2 take fiber indices 128, 256
    # and 384, so the byte keys of the reps order them as a lexsort only if
    # each value is big-endian
    fiber = AbelianFiber((2, 256))
    for g in (cyclic_group(2), symmetric_group(3)):
        basis = monomial_basis(g, fiber)
        assert basis.size == {2: 5, 6: 10}[g.order]
        _assert_char_data_matches_reference(basis)


def _assert_lazy_objects_match_eager(basis):
    # the basis keeps indices only: each orbit rep read on demand from its
    # class and hom index, and its stabilizer in N_G(K), the n with
    # phi(n^-1 x n) = phi(x) on every x in K, one n at a time, against the
    # eager construction
    reps, stabilizers = eager_basis_objects(basis)
    pairs = _pairs(basis)
    assert pairs == reps
    assert [p.key() for p in pairs] == [p.key() for p in reps]
    group = basis.group
    for pair, stabilizer in zip(pairs, stabilizers):
        members, values = list(pair.subgroup.members), list(pair.char.values)
        value = dict(zip(members, values))
        assert [n for n in normalizer(group, pair.subgroup).members
                if [value[x] for x in reference_conj(group)[
                    group.inverse(n), members].tolist()]
                == values] == list(stabilizer.members)


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4)])
def test_lazy_reps_and_stabilizers_match_eager_construction(small_groups,
                                                            factors):
    fiber = AbelianFiber(factors)
    for g in small_groups:
        _assert_lazy_objects_match_eager(MonomialBasis(g, fiber))


def test_lazy_reps_and_stabilizers_match_eager_construction_larger(
        tg_11_5_a, fiber_c5):
    _assert_lazy_objects_match_eager(
        MonomialBasis(abelian_group((2, 2, 2, 2)), AbelianFiber((2, 2))))
    _assert_lazy_objects_match_eager(MonomialBasis(
        tg_11_5_a.group, fiber_c5, canonical_class_table(tg_11_5_a)))


def test_char_index_keys_beyond_int64():
    # (C2)^6 over C1458, where values on the 6 generators in mixed radix
    # 1458 would pass 2^63: the product table is read off the image
    # tuples, with no key, and every character is told by its values
    e64 = abelian_group((2,) * 6)
    full = Subgroup(e64, range(e64.order))
    fiber = AbelianFiber((1458,))
    chars = char_index(full, fiber)
    assert chars.gens.size == 6 and 1458 ** 6 > 2 ** 63
    assert char_lookup(chars, chars.values[:, chars.pos[chars.gens]]
                       ).tolist() == list(range(64))
    assert chars.hom_type.table.tolist() == reference_char_group_table(
        hom_set(full, fiber))
    with pytest.raises(ValueError, match="matches no character"):
        char_lookup(chars, np.ones(6, dtype=np.int64))


@pytest.mark.parametrize("factors", [(2,), (6,), (2, 4)])
def test_restriction_matches_character_conjugation(small_groups, factors):
    # the one restriction gather, against the oracles' Character.conjugate
    # read back on K through hom_set: for every pair (K, L)
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
            where = {chi.values: i for i, chi in enumerate(homs[a])}
            for b, l_sub in enumerate(subs):
                fixed = fixed_cosets(g, k_sub, l_sub)
                for s in g.mul[fixed[:, None], l_sub.members].ravel().tolist():
                    got = layout.restrict(b, np.arange(len(homs[b])),
                                          g.inverse(s), a)
                    assert got.tolist() == [
                        where[tuple(psi.conjugate(s).value_index(k)
                                    for k in k_sub.members)]
                        for psi in homs[b]]
            for n in normalizer(g, k_sub).members:
                got = layout.restrict(a, np.arange(len(homs[a])),
                                      g.inverse(n), a)
                assert got.tolist() == [where[chi.conjugate(n).values]
                                        for chi in homs[a]]


def _lookups_against_char_index(layout, cases):
    """``layout.restrict`` of every case (c, t, d) at once, for all the
    characters r of the c-th subgroup S, against the oracles' lookup
    (``char_lookup``) in the d-th subgroup T, one case at a time:
    x -> chi_r(t x t^-1) on T, where tTt^-1 lies in S."""
    conj = reference_conj(layout.group)
    c, t, d = (np.repeat([case[k] for case in cases],
                         [layout.n_homs[case[0]] for case in cases])
               for k in range(3))
    r = np.concatenate([np.arange(layout.n_homs[case[0]])
                        for case in cases])
    got = layout.restrict(c, r, t, d)
    want = np.concatenate([
        char_lookup(layout.chars[d], layout.chars[c].values[
            :, layout.chars[c].pos[conj[t, layout.chars[d].gens]]])
        for c, t, d in cases])
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("factors", [(2,), (6,), (2, 4), (55,)])
def test_layout_lookup_matches_char_index(s4, tg_11_5_a, factors):
    # every class rep T inside another S (the identity carries it there),
    # and every class rep onto itself through each member of its
    # normalizer, as one restriction of mixed targets: the CharIndex
    # position is exact on every class, whatever its number of generators,
    # and on the perfect A5 < S5, whose one generator is the identity
    fiber = AbelianFiber(factors)
    for g in (s4, dihedral_group(6), abelian_group((2, 2, 2, 2)),
              tg_11_5_a.group, symmetric_group(5)):
        reps = conjugacy_classes_of_subgroups(g).reps
        layout = monomial._HomLayout(reps, fiber)
        inside = [(c, 0, d) for c, s_sub in enumerate(reps)
                  for d, t_sub in enumerate(reps)
                  if set(t_sub.members) <= set(s_sub.members)]
        onto = [(c, n, c) for c, s_sub in enumerate(reps)
                for n in normalizer(g, s_sub).members]
        _lookups_against_char_index(layout, inside + onto)
        # and each character of each class is found as itself
        for c in range(len(reps)):
            assert layout.restrict(c, np.arange(layout.n_homs[c]), 0,
                                   c).tolist() == list(range(
                                       layout.n_homs[c]))


def test_restrict_rejects_target_outside_source(s4, d4):
    # with the identity transporter, a T that is not inside S has no
    # restriction of any character of S: every such (S, chi, T), over all
    # subgroups, raises. On S4 the CharIndex generators of S3, A4 and S4
    # do not generate them, so the generators of T are read as well
    cases = 0
    for g, factors in ((s4, (2,)), (d4, (2, 4)),
                       (abelian_group((2, 4)), (4,)), (s4, (6,))):
        subs = enumerate_subgroups(g)
        layout = monomial._HomLayout(subs, AbelianFiber(factors))
        for c, s_sub in enumerate(subs):
            for d, t_sub in enumerate(subs):
                if set(t_sub.members) <= set(s_sub.members):
                    continue
                for r in range(layout.n_homs[c]):
                    cases += 1
                    with pytest.raises(ValueError,
                                       match="matches no character"):
                        layout.restrict(c, r, 0, d)
    assert cases == 4062


def test_layout_lookup_beyond_int64():
    # 2048^6 > 2^63: values of (C2)^6 over C2048 and of two of its
    # subgroups, of 3 generators and of 1, read in radix 2048 would pass
    # int64, while their CharIndex positions stay below |Hom(S, A)|
    e64 = abelian_group((2,) * 6)
    subs = [Subgroup(e64, range(e64.order)), Subgroup(e64, range(8)),
            Subgroup(e64, [0, 5])]
    layout = monomial._HomLayout(subs, AbelianFiber((2048,)))
    assert 2048 ** 6 > 2 ** 63 and layout.width.tolist() == [6, 3, 1]
    assert layout.n_homs.tolist() == [64, 8, 2]
    _lookups_against_char_index(layout, [
        (c, t, d) for c in range(3) for d in range(c, 3)
        for t in range(e64.order)])
    # a value of 1 on a generator is no character of (C2)^6 over C2048
    layout.vals = layout.vals.copy()
    layout.vals[layout.start[0] + layout.pos[0, layout.gens[0, 0]]] = 1
    with pytest.raises(ValueError, match="matches no character"):
        layout.restrict(0, 0, 0, 0)


def test_mackey_row_is_one_restriction(monkeypatch, fiber_c2, fiber_c5):
    # each class row of the product table restricts all its rho and sigma
    # at once, whatever the classes of its M = K n sLs^-1; the product
    # table of the layout is made by the first row and never by gamma
    tg = thevenaz.build(thevenaz.ThevenazSpec(11, 5, 3, 9))
    calls = []
    restrict = monomial._HomLayout.restrict

    def counted(self, *args):
        calls.append(args[3])
        return restrict(self, *args)

    for group, fiber, table in (
            (abelian_group((2, 2, 2, 2)), fiber_c2, None),
            (tg.group, fiber_c5, canonical_class_table(tg))):
        basis = MonomialBasis(group, fiber, table)
        gamma_table(basis)
        assert "table" not in vars(basis._homs)
        monkeypatch.setattr(monomial._HomLayout, "restrict", counted)
        calls.clear()
        k = len(basis.class_table.reps)
        for ci in range(k):
            basis._mackey_terms(ci)
        monkeypatch.undo()
        assert len(calls) == k
        assert "table" in vars(basis._homs)
        # the rows mix targets: some row restricts to several classes of M
        assert max(np.unique(target).size for target in calls) > 1


# ---------------------------------------------------------------------------
# Basis structure


def test_orbit_count_formula(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            stabilizers = eager_basis_objects(_basis(g, fiber))[1]
            total = sum(g.order // stab.order for stab in stabilizers)
            assert total == len(all_monomial_pairs(g, fiber))


def test_canonical_index_constant_on_orbits(s3, fiber_c6):
    basis = _basis(s3, fiber_c6)
    for pair in all_monomial_pairs(s3, fiber_c6):
        idx = canonical_index(basis, pair)
        for g in range(s3.order):
            assert canonical_index(basis, pair.conjugate(g)) == idx


def test_basis_grouped_by_class_table_order(d4, fiber_c6):
    basis = _basis(d4, fiber_c6)
    table = conjugacy_classes_of_subgroups(d4)
    for ci, (start, stop) in enumerate(basis.class_block):
        for i in range(start, stop):
            assert basis_pair(basis, i).subgroup.members == \
                table.reps[ci].members
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
            e = identity_element(basis)
            for i in range(basis.size):
                x = basis_element(basis, i)
                assert multiply(e, x) == x
                assert multiply(x, e) == x


def test_multiply_commutative_associative_small(s3, fiber_c6):
    basis = _basis(s3, fiber_c6)
    elems = [basis_element(basis, i) for i in range(basis.size)]
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
        multiply(basis_element(b1, 0), basis_element(b2, 0))


# ---------------------------------------------------------------------------
# Ghost ring and mark morphism


def test_ghost_identity(d4, fiber_c6):
    basis = _basis(d4, fiber_c6)
    ring = ghost_ring(basis)
    ident = ring.identity()
    for i in range(basis.size):
        img = mark_morphism(basis, basis_element(basis, i))
        assert ghost_multiply(ident, img) == img


def test_ghost_images_orbit_closed(d4, fiber_c6):
    basis = _basis(d4, fiber_c6)
    for i in range(basis.size):
        assert mark_morphism(basis, basis_element(basis, i)).is_orbit_closed()


def test_own_component_is_orbit_sum(d4, fiber_c6):
    # the K-component of the ghost image of [K, phi] is supported on the
    # normalizer orbit of phi, with constant value |N_G(K, phi)| / |K|
    basis = _basis(d4, fiber_c6)
    reps, stabilizers = eager_basis_objects(basis)
    for i, pair in enumerate(reps):
        ci = basis.rep_class[i]
        comp = mark_morphism(basis, basis_element(basis, i)).comps[ci]
        orbit_of = basis.char_to_basis[ci]
        weight = stabilizers[i].order // pair.subgroup.order
        expect = [weight if orbit_of[hi] == i else 0
                  for hi in range(len(hom_set(pair.subgroup, basis.fiber)))]
        assert comp == expect


def test_mark_morphism_linear(s3, fiber_c6):
    basis = _basis(s3, fiber_c6)
    x = BurnsideElement(basis, [2] + [0] * (basis.size - 1))
    y = basis_element(basis, 1)
    assert mark_morphism(basis, x + y) == \
        mark_morphism(basis, x) + mark_morphism(basis, y)


def count_gamma_rows(monkeypatch, blocks=None):
    """Record each row that a ``gamma_rows`` kernel prepared from now on
    computes, as (id of the kernel, K index, entries, row): entries is the
    number of characters that the restrictions (``_HomLayout.restrict``)
    hand back while the row is computed, and row the array returned. A
    list ``blocks``, if given, gets one (id of the kernel, K indices,
    entries) per such restriction: the Ks its characters restrict to,
    ascending, and their number."""
    calls, active = [], []
    restrict = monomial._HomLayout.restrict

    def counted_restrict(self, c, r, t, target):
        hit = restrict(self, c, r, t, target)
        if active:
            active[-1][1] += hit.size
            if blocks is not None:
                blocks.append((active[-1][0], np.unique(target).tolist(),
                               hit.size))
        return hit

    def counted(*args):
        kernel = gamma_rows(*args)

        def row(a):
            active.append([id(kernel), 0])
            out = kernel(a)
            calls.append((id(kernel), a, active.pop()[1], out))
            return out
        return row

    monkeypatch.setattr(monomial._HomLayout, "restrict", counted_restrict)
    monkeypatch.setattr(monomial, "gamma_rows", counted)
    return calls


def restricted_entries(basis):
    """Per class a, the characters the gamma kernel restricts for row a
    when it looks at fixed cosets only: sum over b of mark(a, b) times
    |Hom(L_b, A)|, where a zero mark costs nothing."""
    return (np.asarray(basis.class_table.marks)
            @ basis._homs.n_homs).tolist()


def assert_one_restriction_per_row(basis, kernel, calls, blocks):
    """The rows and restrictions of the gamma kernel with id ``kernel``
    over the class reps of ``basis``, as ``count_gamma_rows`` records them:
    each class row is made once; the restrictions hand back
    sum(restricted_entries(basis)) characters in all, so no pair with a
    zero mark is looked at; and each row is one restriction of its own
    entries to its K, so no row is restricted twice or with another."""
    entries = restricted_entries(basis)
    rows = [a for kid, a, _, _ in calls if kid == kernel]
    assert sorted(rows) == list(range(len(entries)))
    mine = [(ks, n) for kid, ks, n in blocks if kid == kernel]
    assert sum(n for _, n in mine) == sum(entries)
    assert sorted(ks for ks, _ in mine) == [[a] for a in range(len(entries))]
    for ks, n in mine:
        assert n == entries[ks[0]]
    return mine


def test_ghost_images_take_one_gamma_block_per_class_pair(monkeypatch,
                                                        fiber_c2):
    # (C2)^4 over C2: 67 subgroup classes, 307 basis elements; the ghost
    # images read the rows the basis keeps: one kernel row per class, so
    # each block of a class pair is computed once
    group = abelian_group([2, 2, 2, 2])
    table = gamma_table(MonomialBasis(group, fiber_c2))
    calls = count_gamma_rows(monkeypatch)
    basis = MonomialBasis(group, fiber_c2)
    images = [mark_morphism(basis, basis_element(basis, j))
              for j in range(basis.size)]
    n_classes = len(basis.class_table.reps)
    assert sorted(a for _, a, _, _ in calls) == list(range(n_classes))
    for _, a, _, row in calls:
        assert basis.gamma_row(a) is row
    for a, (ca, ha) in enumerate(zip(basis.rep_class, basis.rep_hom_index)):
        assert [img.comps[ca][ha] for img in images] == table[a].tolist()


def test_gamma_table_computes_only_nonzero_mark_blocks(monkeypatch):
    # (C2)^4 over C2 x C2: 513 of the 67 x 67 class pairs have a nonzero
    # mark; the gamma table computes one kernel row per class, and the
    # kernel restricts the characters of the fixed cosets alone, one row
    # at a time: a kernel that looked at a pair with a zero mark would
    # restrict more. Each row is exactly one restriction
    basis = MonomialBasis(abelian_group([2, 2, 2, 2]), AbelianFiber((2, 2)))
    blocks = []
    calls = count_gamma_rows(monkeypatch, blocks)
    table = gamma_table(basis)
    marks = np.asarray(basis.class_table.marks)
    assert [a for _, a, _, _ in calls] == list(range(len(marks)))
    mine = assert_one_restriction_per_row(basis, calls[0][0], calls, blocks)
    assert len(mine) == len(blocks) == len(marks)
    assert np.count_nonzero(marks) == 513
    assert table.shape == (1837, 1837) and table.dtype == np.int8
    # and keeps no gamma row
    assert not basis._gamma
    assert len(list(gamma_class_rows(basis))) == len(marks)
    assert not basis._gamma


def test_gamma_rows_read_in_any_order_match_one_pair_blocks(monkeypatch,
                                                           s4, fiber_c6):
    # the rows of one kernel read backwards and then some again: each
    # equals the rows of one-pair kernels; each read, the first or a
    # later one, is one restriction of that row alone
    reps = conjugacy_classes_of_subgroups(s4).reps
    expect = [np.concatenate([gamma_block(k_sub, l_sub, fiber_c6)
                              for l_sub in reps], axis=1) for k_sub in reps]
    blocks = []
    calls = count_gamma_rows(monkeypatch, blocks)
    kernel = monomial.gamma_rows(monomial._HomLayout(reps, fiber_c6))
    again = (3, 0, 3)
    for a in (*range(len(reps) - 1, -1, -1), *again):
        assert np.array_equal(kernel(a), expect[a])
    basis = MonomialBasis(s4, fiber_c6)
    first = assert_one_restriction_per_row(
        basis, calls[0][0], calls[:len(reps)], blocks[:-len(again)])
    assert len(first) == len(reps)
    assert [ks for _, ks, _ in blocks[-len(again):]] == [[a] for a in again]


def test_gamma_row_reads_allocate_under_half_a_mb_e16():
    # (C2)^4 over C2 x C2: every row read, made from its own entries alone,
    # allocates less than 0.5 MB above the row it returns (0.34 MB at
    # most); a read that restricted a block of rows at once would allocate
    # the whole block's entries (0.87 MB)
    reps = conjugacy_classes_of_subgroups(abelian_group([2, 2, 2, 2])).reps
    kernel = gamma_rows(monomial._HomLayout(reps, AbelianFiber((2, 2))))
    for a in range(len(reps)):
        out, peak = traced_peak(lambda: kernel(a))
        assert peak - out.nbytes < 1 << 19


def test_gamma_blocks_are_views_of_one_kept_row_per_class(monkeypatch, d4,
                                                          s4, fiber_c2,
                                                          fiber_c6):
    # D4 over C6 and S4 over C2: every gamma block is a view of the kept
    # gamma row of its first class, which is the kernel's row itself, and
    # equal to the one-pair kernel; the kernel runs once per class,
    # whatever the order blocks are asked in
    for group, fiber in ((d4, fiber_c6), (s4, fiber_c2)):
        reps = conjugacy_classes_of_subgroups(group).reps
        k = len(reps)
        expect = [[gamma_block(k_sub, l_sub, fiber).tolist()
                   for l_sub in reps] for k_sub in reps]
        calls = count_gamma_rows(monkeypatch)
        basis = MonomialBasis(group, fiber)
        for cj in range(k):
            for ci in range(k):
                block = basis.gamma_block(ci, cj)
                row = basis.gamma_row(ci)
                assert basis.gamma_row(ci) is row
                assert np.shares_memory(block, row)
                assert block.dtype == row.dtype == np.int8
                assert block.tolist() == expect[ci][cj]
        assert sorted(a for _, a, _, _ in calls) == list(range(k))
        assert all(basis.gamma_row(a) is row for _, a, _, row in calls)
        assert sorted(basis._gamma) == list(range(k))


def _assert_streamed_rows_match_gamma_table(basis, expect):
    """The rows of ``gamma_class_rows``, one class at a time, against a
    table made apart from them, row for row."""
    table = gamma_table(basis)
    assert table.tolist() == expect.tolist()
    n = 0
    for (i0, i1), rows in zip(basis.class_block, gamma_class_rows(basis)):
        assert rows.shape == (i1 - i0, basis.size)
        assert rows.dtype == table.dtype
        for row in rows:
            assert np.array_equal(row, table[n])
            n += 1
    assert n == basis.size


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4)])
def test_streamed_gamma_rows_match_gamma_blocks(small_groups, factors):
    fiber = AbelianFiber(factors)
    for g in small_groups:
        basis = MonomialBasis(g, fiber)
        hom = np.asarray(basis.rep_hom_index)
        expect = np.block([[
            basis.gamma_block(ci, cj)[np.ix_(hom[i0:i1], hom[j0:j1])]
            for cj, (j0, j1) in enumerate(basis.class_block)]
            for ci, (i0, i1) in enumerate(basis.class_block)])
        _assert_streamed_rows_match_gamma_table(basis, expect)


def test_streamed_gamma_rows_match_gamma_table_e16():
    # (C2)^4 over C2 x C2: 1837 rows, against the table of another basis
    group, fiber = abelian_group([2, 2, 2, 2]), AbelianFiber((2, 2))
    expect = gamma_table(MonomialBasis(group, fiber))
    _assert_streamed_rows_match_gamma_table(MonomialBasis(group, fiber),
                                            expect)


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
            images = [mark_morphism(basis, basis_element(basis, i))
                      for i in range(basis.size)]
            for i in range(basis.size):
                for j in range(basis.size):
                    prod = multiply(basis_element(basis, i),
                                    basis_element(basis, j))
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


def test_locate_finds_every_subgroup_and_no_other_set(s4):
    # all 30 subgroups of S4 at once, in an order unlike the table's
    table = conjugacy_classes_of_subgroups(s4)
    subs = enumerate_subgroups(s4)[::-1]
    cm, t = monomial._locate(table,
                             np.concatenate([s.members for s in subs]),
                             np.asarray([s.order for s in subs]))
    assert cm.tolist() == [table.class_of(s) for s in subs]
    assert t.tolist() == [table.transporter_to_rep(s) for s in subs]
    # a 3-set beside the subgroups of order 3, and an order none has
    c3 = next(s for s in subs if s.order == 3)
    other = min(set(range(1, 24)) - set(c3.members))
    for members in (sorted({0, c3.members[1], other}), [0, 1, 2, 3, 4]):
        with pytest.raises(KeyError):
            monomial._locate(table, np.asarray(members),
                             np.asarray([len(members)]))


@pytest.mark.parametrize("make", [
    lambda request: symmetric_group(4),
    *[lambda request, seed=seed: relabelled(_a6_from_cayley_json(),
                                            random.Random(seed))
      for seed in range(3)],
    lambda request: abelian_group((2, 2, 2, 2)),
    lambda request: request.getfixturevalue("tg_11_5_a").group,
    lambda request: request.getfixturevalue("tg_11_5_b").group,
], ids=["S4", "A6-seed0", "A6-seed1", "A6-seed2", "E16", "605-a", "605-b"])
def test_geometry_locates_every_m_as_the_loop_does(request, make):
    # the geometry pass locates every M = K n sLs^-1 in the class table by
    # one sorted search per order; the loop looks each M up on its own
    group = make(request)
    basis = MonomialBasis(group, AbelianFiber((2,)))
    geo = basis._geometry
    cm, transporters = reference_m_classes(basis)
    assert geo.cm.tolist() == cm
    assert geo.g_inv.tolist() == group.inv[transporters].tolist()
