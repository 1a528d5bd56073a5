"""Core group arithmetic: construction, subgroups, conjugacy, cosets,
marks, isomorphism testing.

Oracles (in ``oracles.py``): the |S|x|S| ``reference_closure`` that the
frontier ``closure`` is checked against, an independent subset-filter
enumeration for tiny orders, the generator brute force
(``brute_force_subgroups``) through order 24, the cyclic-join sweep
(``join_closure_subgroups``) for orders up to ~150, the extension of every
subgroup found from perfect seeds closed under conjugation
(``reference_enumerate_subgroups``) for groups up to order 720 that run
perfect seeding, the one-candidate-at-a-time isomorphism search
(``reference_are_isomorphic``) that the numpy search must match map for
map, the all-triples associativity check that Light's test must agree
with on random loops, the per-element inverse,
conjugation and class-size loops, and hand-checked tables for the worked
examples. The element-class labelling, the left coset reps and
``symmetric_group`` are checked against the per-element sweeps they
replaced. Seeded hypothesis tests run the lattice and isomorphism oracles
on random products of cyclic groups.
"""

import ast
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import traced_peak
from oracles import (_orbit_reps, a6_cayley_json, brute_force_subgroups,
                     conjugate_subgroup, double_coset_reps, element_order,
                     greedy_generators, group_to_json,
                     join_closure_subgroups, mark, permutation_group,
                     reference_enumerate_subgroups, reference_perfect_seeds,
                     reference_abelianization, reference_are_isomorphic,
                     reference_check_associativity, reference_class_maps,
                     reference_closure, reference_commutator_subgroup,
                     reference_conj, reference_double_coset_reps,
                     reference_element_class_sizes,
                     reference_element_orders,
                     reference_check_latin_square,
                     reference_cyclic_class_lengths,
                     reference_generating_sequence, reference_inverses,
                     reference_left_coset_reps,
                     reference_light_associativity, reference_locate,
                     reference_span,
                     reference_symmetric_group)

from fibered_burnside import group_core
from fibered_burnside.errors import NotAGroup, NotAnAction, NotAnAutomorphism
from fibered_burnside.thevenaz import (ThevenazSpec, build,
                                       canonical_class_table,
                                       isomorphism_class_partition)
from fibered_burnside.group_core import (FiniteGroup, Subgroup,
                                         _candidate_pools,
                                         _check_associativity, _conjugate,
                                         _cyclic_class_lengths,
                                         _generating_sequence, _index_dtype,
                                         _perfect_seeds, _sorted_unique,
                                         _square_table, abelian_group,
                                         abelian_invariant_decomposition,
                                         abelianization,
                                         are_isomorphic, closure,
                                         commutator_subgroup,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group,
                                         dihedral_group, double_cosets,
                                         enumerate_subgroups,
                                         group_from_cayley, group_from_json,
                                         left_coset_reps,
                                         normalizer, semidirect_product,
                                         symmetric_group, trivial_group)

# ---------------------------------------------------------------------------
# Construction


def test_trivial_cayley_table():
    g = group_from_cayley([[0]])
    assert g.order == 1
    assert g.m(0, 0) == 0


def test_c2_cayley_table():
    g = group_from_cayley([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inverse(1) == 1


def test_nonassociative_latin_square_rejected():
    # smallest nonassociative loop with two-sided identity (order 5)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup):
        group_from_cayley(table)


def random_loop(rng: random.Random, n: int) -> np.ndarray:
    """A Latin square with identity 0, filled cell by cell in row order by
    randomized backtracking."""
    table = np.zeros((n, n), dtype=np.int64)
    table[0] = table[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i, :j].tolist()) | set(table[:i, j].tolist())
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            table[i, j] = v
            if fill(k + 1):
                return True
        return False

    fill(0)
    return table


def assoc_failure(check, table):
    try:
        check(table)
    except NotAGroup as exc:
        return exc
    return None


def test_light_associativity_agrees_with_full_check():
    # Light's test on the compact table: the verdict of the all-triples
    # check, and the message and witness of Light's test on int64
    rng = random.Random(20261018)
    failing = 0
    for n in range(1, 10):
        for _ in range(150):
            table = random_loop(rng, n)
            new = assoc_failure(_check_associativity, _square_table(table))
            ref = assoc_failure(reference_check_associativity, table)
            light = assoc_failure(reference_light_associativity, table)
            assert (new is None) == (ref is None)
            if new is not None:
                failing += 1
                assert (str(new), new.witness) == (str(light), light.witness)
                a, g, c = new.witness
                assert table[table[a, g], c] != table[a, table[g, c]]
    # every loop of order at most 4 is a group; most larger ones are not
    assert 600 < failing <= 750


def _validation_failure(validate, table):
    """(message, witness) of the NotAGroup that ``validate(table)`` raises,
    or None."""
    try:
        validate(table)
    except NotAGroup as exc:
        return str(exc), exc.witness
    return None


def _reference_validation(table: np.ndarray) -> None:
    """The sort-based Latin-square check, the identity check and Light's
    test on int64, in this order."""
    reference_check_latin_square(table)
    ref = np.arange(table.shape[0])
    if not (np.array_equal(table[0], ref) and np.array_equal(table[:, 0], ref)):
        raise NotAGroup("element 0 is not a two-sided identity")
    reference_light_associativity(table)


def _corrupt(rng: random.Random, table: np.ndarray) -> str:
    """Overwrite one entry, swap two entries of one row or of one column,
    exchange two rows, or switch a 2 x 2 subsquare [[u, v], [v, u]] away
    from row and column 0; the last two keep the Latin property. Returns
    which."""
    n = table.shape[0]
    i, j, i2, j2 = (rng.randrange(n) for _ in range(4))
    kind = rng.choice(("overwrite", "row swap", "column swap",
                       "row exchange", "subsquare"))
    if kind == "overwrite":
        table[i, j] = rng.randrange(n)
    elif kind == "row swap":
        table[i, [j, j2]] = table[i, [j2, j]]
    elif kind == "column swap":
        table[[i, i2], j] = table[[i2, i], j]
    elif kind == "row exchange":
        table[[i, i2]] = table[[i2, i]]
    else:
        j2 = int(np.argmax(table[i2] == table[i, j]))
        if min(i, j, i2, j2) and table[i, j2] == table[i2, j]:
            table[[i, i2], [j, j2]], table[[i, i2], [j2, j]] = \
                table[[i, i2], [j2, j]], table[[i, i2], [j, j2]]
    return kind


def test_corrupted_tables_fail_as_the_oracles_do(small_groups, tg_7_3):
    # FiniteGroup on the compact table, which checks the columns only once
    # the identity or Light's test fails, against the checks it replaced,
    # on orders on both sides of 182, where x * n + y first overflows int16
    rng = random.Random(20261019)
    seen = set()
    for g in [*small_groups, tg_7_3.group, dihedral_group(91),
              _a6_from_cayley_json()]:
        for _ in range(40):
            table = g.mul.astype(np.int64)
            kind = _corrupt(rng, table)
            new = _validation_failure(FiniteGroup, table)
            ref = _validation_failure(_reference_validation, table)
            assert new == ref, (g, kind)
            seen.add(None if new is None else new[0].split()[0])
    assert seen == {None, "row", "column", "element", "associativity"}


def _switch_subsquare(table: np.ndarray, i: int, x: int, j: int) -> None:
    """Switch the 2 x 2 subsquare of a group table on rows i, ix and
    columns j, xj, for x an involution: it reads [[u, v], [v, u]], so the
    table stays a Latin square."""
    rows = [i, int(table[i, x])]
    cols = [j, int(table[x, j])]
    table[np.ix_(rows, cols)] = table[np.ix_(rows, cols[::-1])]


def test_blocked_validation_fails_as_the_oracles_do(tg_11_5_a):
    # the Latin-square check and Light's test read (1 << 16) // n rows at a
    # time: 108 of 605 and 99 of 660, 6 and 7 blocks. One defect in the
    # first, a middle and the last block, and a column defect alone, give
    # the message and witness of the unblocked oracles
    g = tg_11_5_a.group
    assert (g.order, group_core._block_rows(g.order)) == (605, 108)
    for r in (1, 300, 600):
        table = g.mul.astype(np.int64)
        table[r, 7] = table[r, 8]
        new = _validation_failure(FiniteGroup, table)
        assert new == _validation_failure(_reference_validation, table)
        assert new == (f"row {r} is not a permutation", (r,))
    # rows stay permutations, so this one fails Light's test first, and
    # only then are the columns read
    table = g.mul.astype(np.int64)
    table[300, [598, 600]] = table[300, [600, 598]]
    new = _validation_failure(FiniteGroup, table)
    assert new == _validation_failure(_reference_validation, table)
    assert new == ("column 598 is not a permutation", (598,))
    # an odd order has no subsquare to switch; in D330, element 1 is a
    # reflection, and each switch near row i has its witness in i's block
    d = dihedral_group(330)
    assert group_core._block_rows(d.order) == 99
    for i, block in ((5, 0), (330, 3), (655, 6)):
        table = d.mul.astype(np.int64)
        _switch_subsquare(table, i, 1, 3)
        new = _validation_failure(FiniteGroup, table)
        assert new == _validation_failure(_reference_validation, table)
        assert new[0] == "associativity fails"
        assert new[1][0] // 99 == block


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(hnp.arrays(st.sampled_from([np.int16, np.int32, np.int64]),
                  hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                   max_side=30),
                  elements=st.integers(-40, 40)))
def test_sorted_unique_matches_np_unique(values):
    got, want = _sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_index_dtype_boundaries():
    # the largest order whose elements fit int16, and the next; no table
    # is built
    assert _index_dtype(1) is np.int16
    assert _index_dtype(32767) is np.int16
    assert _index_dtype(32768) is np.int32


def test_constructors_build_compact_tables():
    # each constructor's table in int16, equal to the int64 formula: the
    # index of a tuple of residues is mixed-radix, first factor highest
    for n in (1, 2, 7, 182):
        idx = np.arange(n)
        assert np.array_equal(cyclic_group(n).mul,
                              (idx[:, None] + idx) % n)
    factors = (2, 3, 4)
    coords = np.array(list(itertools.product(*map(range, factors))))
    sums = (coords[:, None] + coords[None]) % factors
    expect = (sums * (12, 4, 1)).sum(axis=2)
    assert np.array_equal(abelian_group(factors).mul, expect)
    for g in (cyclic_group(5), abelian_group(factors), dihedral_group(91),
              symmetric_group(4), group_from_cayley(symmetric_group(3).mul)):
        assert (g.mul.dtype == g.inv.dtype
                == _conjugate(g, np.arange(g.order), 0).dtype == np.int16)


def test_inverses_and_conjugation_match_loops(small_groups, s4, tg_7_3,
                                              tg_11_5_a, tg_11_5_b):
    # g x g^-1 from two gathers, on every (g, x), against the table filled
    # one row at a time; one g against many x, and many g against one x,
    # broadcast the same way
    for g in [*small_groups, s4,
              relabelled(_a6_from_cayley_json(), random.Random(0)),
              tg_7_3.group, tg_11_5_a.group, tg_11_5_b.group]:
        assert np.array_equal(g.inv, reference_inverses(g))
        conj, every = reference_conj(g), np.arange(g.order)
        assert np.array_equal(_conjugate(g, every[:, None], every), conj), g
        x = g.order // 2
        assert np.array_equal(_conjugate(g, x, every), conj[x]), g
        assert np.array_equal(_conjugate(g, every, x), conj[:, x]), g


def _coset_test_groups(small_groups, tg_11_5_a, tg_11_5_b):
    """Groups with subgroups on both sides of |L|^2 = n."""
    return [*small_groups, symmetric_group(5),
            *[relabelled(_a6_from_cayley_json(), random.Random(seed))
              for seed in range(3)],
            dihedral_group(90), tg_11_5_a.group, tg_11_5_b.group]


def test_element_class_sizes_match_loop(small_groups, tg_7_3, tg_11_5_a,
                                        tg_11_5_b):
    # the labelling's reps against the orbit sweep, and its sizes against
    # counting each element's distinct conjugates
    for g in [*_coset_test_groups(small_groups, tg_11_5_a, tg_11_5_b),
              tg_7_3.group]:
        reps, label = g.element_classes
        conj = reference_conj(g)
        assert reps.tolist() == _orbit_reps(conj, np.arange(g.order)), g
        # the class of x is its orbit: every conjugate of x shares its label
        assert np.array_equal(label[conj],
                              np.broadcast_to(label, g.mul.shape)), g
        assert np.array_equal(label[reps], np.arange(reps.size)), g
        assert np.array_equal(g.element_class_sizes,
                              reference_element_class_sizes(g)), g


def test_left_coset_reps_match_sweep(small_groups, tg_11_5_a, tg_11_5_b):
    # the n x |L| gather when |L|^2 <= n, one argmin jump per coset above
    branches = Counter()
    for g in _coset_test_groups(small_groups, tg_11_5_a, tg_11_5_b):
        for sub in enumerate_subgroups(g):
            branches[sub.order ** 2 <= g.order] += 1
            got = left_coset_reps(g, sub)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, reference_left_coset_reps(g, sub)), \
                (g, sub)
    assert branches[True] and branches[False]


def test_symmetric_group_matches_loop():
    for n in range(1, 7):
        got, want = symmetric_group(n), reference_symmetric_group(n)
        assert got.mul.dtype == want.mul.dtype
        assert np.array_equal(got.mul, want.mul), n
        assert got.name == want.name == f"S{n}"
    with pytest.raises(ValueError):
        symmetric_group(7)


def test_broken_latin_square_rejected():
    with pytest.raises(NotAGroup):
        group_from_cayley([[0, 1], [1, 1]])


def test_identity_relabeled_to_zero():
    # C3 written with the identity at index 2
    relabel = [2, 0, 1]   # old -> new meaning: element names permuted
    c3 = cyclic_group(3)
    table = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            table[relabel[a]][relabel[b]] = relabel[c3.m(a, b)]
    g = group_from_cayley(table)
    assert g.m(0, 0) == 0
    assert are_isomorphic(g, c3) is not None


def test_constructor_orders():
    assert trivial_group().order == 1
    assert cyclic_group(7).order == 7
    assert abelian_group((2, 3, 4)).order == 24
    assert dihedral_group(5).order == 10
    assert symmetric_group(4).order == 24


def test_cyclic_element_orders():
    g = cyclic_group(12)
    orders = sorted(int(element_order(g, x)) for x in range(g.order))
    # one element of each order d | 12, phi(d) many
    assert orders == sorted(
        d for d in (1, 2, 3, 4, 6, 12)
        for _ in range(sum(1 for k in range(1, d + 1)
                           if np.gcd(k, d) == 1)))


def test_dihedral_nonabelian():
    g = dihedral_group(4)
    assert not g.is_abelian()
    # n rotations + n reflections of order 2
    assert sum(1 for x in range(g.order) if element_order(g, x) == 2) == 5


def test_json_round_trip():
    g = symmetric_group(3)
    g2 = group_from_json(group_to_json(g))
    assert np.array_equal(g.mul, g2.mul)


# ---------------------------------------------------------------------------
# Semidirect products


def _inversion_automorphism(n):
    return [(-x) % n for x in range(n)]


def test_semidirect_c3_c2_is_s3():
    c3, c2 = cyclic_group(3), cyclic_group(2)
    g = semidirect_product(c3, c2, [list(range(3)),
                                    _inversion_automorphism(3)])
    assert g.order == 6
    assert not g.is_abelian()
    assert are_isomorphic(g, symmetric_group(3)) is not None


def test_semidirect_trivial_action_is_direct_product():
    c4, c3 = cyclic_group(4), cyclic_group(3)
    g = semidirect_product(c4, c3, [list(range(4))] * 3)
    assert g.is_abelian()
    assert are_isomorphic(g, cyclic_group(12)) is not None


def test_semidirect_rejects_non_automorphism():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotAnAutomorphism):
        semidirect_product(c4, c2, [list(range(4)), [0, 0, 1, 2]])


def test_semidirect_rejects_non_action():
    # x -> 2x has order 4 in Aut(C5), so it cannot be the image of the
    # generator of C2
    c5, c2 = cyclic_group(5), cyclic_group(2)
    doubling = [(2 * x) % 5 for x in range(5)]
    with pytest.raises(NotAnAction):
        semidirect_product(c5, c2, [list(range(5)), doubling])


# ---------------------------------------------------------------------------
# Subgroup enumeration


def _subset_filter_subgroups(group):
    """Oracle: filter all subsets containing the identity (orders <= 8)."""
    found = []
    elems = list(range(1, group.order))
    for k in range(group.order):
        for combo in itertools.combinations(elems, k):
            mem = (0,) + combo
            s = set(mem)
            if all(int(group.mul[a, b]) in s for a in mem for b in mem):
                found.append(mem)
    return sorted(found, key=lambda m: (len(m), m))


@pytest.mark.parametrize("factory", [
    trivial_group,
    lambda: cyclic_group(6),
    lambda: cyclic_group(8),
    lambda: abelian_group((2, 2)),
    lambda: dihedral_group(4),
    lambda: symmetric_group(3),
])
def test_enumerate_matches_subset_filter(factory):
    g = factory()
    got = [s.members for s in enumerate_subgroups(g)]
    assert got == _subset_filter_subgroups(g)


@pytest.mark.parametrize("factory", [
    lambda: cyclic_group(24),
    lambda: abelian_group((4, 4)),
    lambda: abelian_group((2, 2, 2)),
    lambda: abelian_group((2, 12)),
    lambda: dihedral_group(6),
    lambda: dihedral_group(12),
    lambda: symmetric_group(4),
    lambda: symmetric_group(5),
])
def test_enumerate_matches_join_closure(factory):
    g = factory()
    got = [s.members for s in enumerate_subgroups(g)]
    oracle = [s.members for s in join_closure_subgroups(g)]
    assert got == oracle


def test_enumerate_matches_generator_brute_force(s4):
    got = [s.members for s in enumerate_subgroups(s4)]
    oracle = [s.members for s in brute_force_subgroups(s4, max_gens=3)]
    assert got == oracle


def test_s3_subgroup_census(s3):
    subs = enumerate_subgroups(s3)
    assert len(subs) == 6
    from collections import Counter
    assert Counter(s.order for s in subs) == {1: 1, 2: 3, 3: 1, 6: 1}


def test_s5_includes_nonsolvable_subgroups():
    # A5 is perfect, so the extension sweep alone cannot reach it; the
    # perfect-subgroup seeding phase must
    s5 = symmetric_group(5)
    subs = enumerate_subgroups(s5)
    assert len(subs) == 156
    assert [s.order for s in subs].count(60) == 1
    a5 = next(s for s in subs if s.order == 60)
    assert commutator_subgroup(a5).members == a5.members


def test_enumeration_sorted_and_lagrange(small_groups):
    for g in small_groups:
        subs = enumerate_subgroups(g)
        keys = [(s.order, s.members) for s in subs]
        assert keys == sorted(keys)
        assert all(g.order % s.order == 0 for s in subs)
        assert all(0 in s.members for s in subs)


def test_order_605_census(tg_11_5_a):
    # expected census 1 + (p+1) + 1 + p^2 + p + p + 1 = 158 at p=11, q=5;
    # value derived with the independent join-closure sweep
    p, q = 11, 5
    subs = enumerate_subgroups(tg_11_5_a.group)
    assert len(subs) == 1 + (p + 1) + 1 + p * p + p + p + 1
    from collections import Counter
    assert Counter(s.order for s in subs) == {
        1: 1, q: p * p, p: p + 1, p * q: 2 * p, p * p: 1, p * p * q: 1}


def test_order_147_join_closure_oracle(tg_7_3):
    got = [s.members for s in enumerate_subgroups(tg_7_3.group)]
    oracle = [s.members for s in join_closure_subgroups(tg_7_3.group)]
    assert got == oracle


def _a6_from_cayley_json():
    """A6 read back from its relabelled Cayley JSON (``a6_cayley_json``)."""
    return group_from_json(json.loads(json.dumps(a6_cayley_json())))


def test_closure_matches_reference(small_groups, tg_7_3, tg_11_5_a):
    a6 = _a6_from_cayley_json()
    assert a6.order == 360
    rng = np.random.default_rng(2209)
    for g in [*small_groups, a6, tg_7_3.group, tg_11_5_a.group]:
        cases = [[], [0], [0, 0]]
        for _ in range(40):
            gens = [int(v) for v in
                    rng.integers(0, g.order, size=rng.integers(0, 5))]
            cases.append(gens)
            if gens:
                # a duplicate, and the identity among the generators
                cases.append(gens[:3] + [gens[0]])
                cases.append([0] + gens[:3])
        for gens in cases:
            assert closure(g, gens) == reference_closure(g, gens), (g, gens)


@pytest.fixture(scope="module")
def s6():
    return symmetric_group(6)


def _perfect_subgroups(g):
    """The perfect subgroups of G other than 1, read off its subgroup list.
    A nontrivial perfect group maps onto a nonabelian simple group, so it
    has order at least 60."""
    return {s.members for s in enumerate_subgroups(g)
            if s.order >= 60 and commutator_subgroup(s) == s}


def _seeded_classes(g):
    """Every subgroup conjugate to one of ``_perfect_seeds``."""
    table = conjugacy_classes_of_subgroups(g)
    classes = {reference_locate(table, mem)[0] for mem in _perfect_seeds(g)}
    return {s.members for s in enumerate_subgroups(g)
            if table.class_of(s) in classes}


def test_s6_census(s6):
    # A6 and the two classes of six A5s
    assert len(_perfect_subgroups(s6)) == 13
    assert _seeded_classes(s6) == _perfect_subgroups(s6)
    assert len(enumerate_subgroups(s6)) == 1455
    assert len(conjugacy_classes_of_subgroups(s6).reps) == 56


def _sl2_5():
    """SL(2, 5), order 120: perfect, and -1 is a central involution."""
    mats = sorted((m for m in itertools.product(range(5), repeat=4)
                   if (m[0] * m[3] - m[1] * m[2]) % 5 == 1),
                  key=lambda m: m != (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(mats)}
    return FiniteGroup([[index[((a * e + b * g) % 5, (a * f + b * h) % 5,
                                (c * e + d * g) % 5, (c * f + d * h) % 5)]
                         for e, f, g, h in mats] for a, b, c, d in mats])


@pytest.mark.parametrize("factory", [
    lambda: symmetric_group(5),
    lambda: symmetric_group(6),
    *[lambda seed=seed: relabelled(_a6_from_cayley_json(),
                                   random.Random(seed))
      for seed in range(3)],
    _sl2_5,
    lambda: direct_product(symmetric_group(5), cyclic_group(2)),
    lambda: dihedral_group(90),
], ids=["S5", "S6", "A6-seed0", "A6-seed1", "A6-seed2", "SL(2,5)",
        "S5xC2", "D90"])
def test_enumerate_matches_reference_extension(factory):
    # the reference extends every subgroup and closes the perfect seeds
    # under conjugation; both run on fresh copies of the same table
    g, ref = factory(), factory()
    assert g.order % 12 == 0 and g.order >= 60   # perfect seeding runs
    got = conjugacy_classes_of_subgroups(g)
    oracle = [s.members for s in reference_enumerate_subgroups(ref)]
    want = conjugacy_classes_of_subgroups(ref)   # on the oracle's list
    assert [s.members for s in enumerate_subgroups(g)] == oracle
    assert _seeded_classes(g) == reference_perfect_seeds(ref)
    for mem, pair in _perfect_seeds(g).items():
        assert closure(g, pair) == mem
    assert [s.members for s in got.reps] == [s.members for s in want.reps]
    assert got.marks == want.marks
    assert got.class_sizes == want.class_sizes
    for s in enumerate_subgroups(g):
        assert got.transporter_to_rep(s) == want.transporter_to_rep(s)


def test_a6_lattice_pruning(monkeypatch):
    # without the pruning, 381 pair closures and 510 normalizer passes;
    # one perfect closure per class of A6's 3 (A6 and two classes of A5)
    # pays a commutator check, where keeping every closure paid 10
    a6 = _a6_from_cayley_json()
    pairs, passes, commutators = [], [], []

    def counted_closure(group, gens, closure=group_core.closure):
        gens = tuple(gens)
        pairs.append(len(gens) == 2)
        return closure(group, gens)

    def counted_normalizing(*args, normalizing=group_core._normalizing):
        passes.append(args)
        return normalizing(*args)

    def counted_commutator(sub, commutator=group_core.commutator_subgroup):
        commutators.append(sub.members)
        return commutator(sub)

    monkeypatch.setattr(group_core, "closure", counted_closure)
    monkeypatch.setattr(group_core, "_normalizing", counted_normalizing)
    monkeypatch.setattr(group_core, "commutator_subgroup", counted_commutator)
    assert len(_perfect_seeds(a6)) == 3
    assert 0 < sum(pairs) <= 100
    assert len(commutators) <= 3
    assert len(enumerate_subgroups(a6)) == 501
    assert 0 < len(passes) <= 40


def test_a7_census():
    # A7 = <(0 1 2 3 4 5 6), (0 1)(2 3)>: 21 + 42 A5, 30 PSL(2, 7), 7 A6, A7
    a7 = permutation_group([(1, 2, 3, 4, 5, 6, 0), (1, 0, 3, 2, 4, 5, 6)], 7)
    assert a7.order == 2520
    assert len(enumerate_subgroups(a7)) == 3786
    assert len(conjugacy_classes_of_subgroups(a7).reps) == 40
    perfect = _perfect_subgroups(a7)
    assert len(perfect) == 101
    assert Counter(len(mem) for mem in perfect) == {
        60: 63, 168: 30, 360: 7, 2520: 1}
    assert _seeded_classes(a7) == perfect


def test_lattice_generators_generate_each_subgroup(small_groups):
    # every subgroup keeps the sequence the lattice built it from, and
    # that sequence generates it
    a6 = permutation_group([(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)], 6)
    a7 = permutation_group([(1, 2, 3, 4, 5, 6, 0), (1, 0, 3, 2, 4, 5, 6)], 7)
    for g in (*small_groups, a6, a7, dihedral_group(90)):
        for s in enumerate_subgroups(g):
            assert closure(g, s.generators()) == s.members, (g, s)


def test_subgroup_outside_the_lattice_keeps_greedy_generators(small_groups,
                                                              s4):
    # a Subgroup made from its members alone closes greedily, whatever
    # sequence the lattice's equal subgroup carries
    for g in (*small_groups, s4):
        for s in enumerate_subgroups(g):
            twin = Subgroup(g, s.members)
            assert twin == s
            assert twin.generators() == greedy_generators(s), (g, s)


@pytest.mark.parametrize("make", [lambda: abelian_group((2, 2, 2, 2)),
                                  _a6_from_cayley_json],
                         ids=["E16", "A6"])
def test_class_table_closes_nothing_after_the_lattice(monkeypatch, make):
    # the class table reads the lattice's generating sequences for the
    # normalizers and marks, so it runs no closure of its own
    g = make()
    enumerate_subgroups(g)
    calls = []

    def counted_closure(group, gens, closure=group_core.closure):
        calls.append(gens)
        return closure(group, gens)

    monkeypatch.setattr(group_core, "closure", counted_closure)
    table = conjugacy_classes_of_subgroups(g)
    assert len(table.reps) == {16: 67, 360: 22}[g.order]
    assert calls == []


@pytest.fixture(scope="module")
def g4805():
    """The first group of the (31, 5) family, of order 4805: its
    multiplication table takes 46 MB."""
    p, q = 31, 5
    a, b = isomorphism_class_partition(p, q)[0][0]
    g = build(ThevenazSpec(p, q, a, b)).group
    assert g.order == 4805
    return g


def test_element_classes_memory_at_order_4805(g4805):
    # the labelling reads one column of conjugates per class, so it
    # allocates a few arrays of n entries and never an n x n table
    g = g4805
    (reps, label), peak = traced_peak(lambda: g.element_classes)
    assert peak < g.mul.nbytes // 20
    # the identity, the 960 other elements of C31 x C31 in classes of 5,
    # and one class per nontrivial coset of it
    assert reps.size == 197
    assert np.array_equal(label[reps], np.arange(reps.size))


def test_validation_memory_at_order_4805(g4805):
    # validation reads the table in blocks of about 2^16 entries, so it
    # holds no n x n transient; with whole-table gathers and an n x n
    # boolean scatter it peaked at 92 MB, twice the table
    g, peak = traced_peak(lambda: FiniteGroup(g4805.mul))
    assert np.array_equal(g.inv, g4805.inv)
    assert peak < g4805.mul.nbytes // 4


def test_dihedral_330_seeding_memory():
    # D330 has order 660, which 12 divides, so seeding runs; it has no
    # perfect subgroup, and tau(330) + sigma(330) = 16 + 864 subgroups: the
    # rotations of each order d | 330, and 330/d dihedral groups over each.
    # A rotation a of order 330 has the 330 rotations as C_G(a), so marking
    # the orbits of b without removing duplicates gathers 2|C_G(a)||a|^2 =
    # 72M entries (144 MB) at once; deduplicated, at most n x |a| = 218k.
    g = dihedral_group(330)
    seeds, peak = traced_peak(lambda: _perfect_seeds(g))
    assert seeds == {}
    assert peak < 4_000_000
    assert len(enumerate_subgroups(g)) == 16 + 864


# ---------------------------------------------------------------------------
# Conjugacy classes and marks


def test_c2_two_classes():
    table = conjugacy_classes_of_subgroups(cyclic_group(2))
    assert [s.order for s in table.reps] == [1, 2]


def test_s3_class_table(s3):
    table = conjugacy_classes_of_subgroups(s3)
    assert [s.order for s in table.reps] == [1, 2, 3, 6]
    assert table.class_sizes == [1, 3, 1, 1]
    assert table.marks == [
        [6, 3, 2, 1],
        [0, 1, 0, 1],
        [0, 0, 2, 1],
        [0, 0, 0, 1],
    ]


def test_class_reps_lex_least(small_groups):
    for g in small_groups:
        table = conjugacy_classes_of_subgroups(g)
        for rep in table.reps:
            orbit = {conjugate_subgroup(g, x, rep).members
                     for x in range(g.order)}
            assert rep.members == min(orbit)


def test_marks_triangular_with_positive_diagonal(small_groups):
    for g in small_groups:
        table = conjugacy_classes_of_subgroups(g)
        n = len(table.reps)
        for i in range(n):
            assert table.marks[i][i] > 0
            for j in range(n):
                if table.marks[i][j]:
                    # nonzero mark forces subconjugacy, hence |K| <= |L|
                    assert table.reps[i].order <= table.reps[j].order


def test_default_class_table_shared_with_its_transversal(d4):
    table = conjugacy_classes_of_subgroups(d4)
    assert conjugacy_classes_of_subgroups(d4, reps=table.reps) is table
    # another transversal gets a table of its own
    reps = list(table.reps)
    order2 = [i for i, sub in enumerate(reps) if sub.order == 2]
    reps[order2[0]], reps[order2[1]] = reps[order2[1]], reps[order2[0]]
    other = conjugacy_classes_of_subgroups(d4, reps=reps)
    assert other is not table
    assert [s.members for s in other.reps] == [s.members for s in reps]


def test_transversal_of_the_wrong_size_is_rejected(d4):
    reps = conjugacy_classes_of_subgroups(d4).reps
    with pytest.raises(ValueError, match=f"transversal has {len(reps) - 1} "
                       f"subgroups, expected {len(reps)}"):
        conjugacy_classes_of_subgroups(d4, reps=reps[:-1])


def test_transversal_with_two_reps_of_one_class_is_rejected(d4):
    reps = list(conjugacy_classes_of_subgroups(d4).reps)
    ci, other = next(
        (ci, moved) for ci, rep in enumerate(reps)
        for moved in (conjugate_subgroup(d4, x, rep) for x in range(d4.order))
        if moved.members != rep.members)
    # the conjugate stands in for another class's rep, so the count holds
    reps[ci - 1] = other
    with pytest.raises(ValueError, match="not a transversal"):
        conjugacy_classes_of_subgroups(d4, reps=reps)


def test_transversal_with_a_set_that_is_no_subgroup_is_rejected(d4):
    reps = list(conjugacy_classes_of_subgroups(d4).reps)
    x = int(np.flatnonzero(d4.element_orders == 4)[0])
    ci = next(ci for ci, rep in enumerate(reps) if rep.order == 2)
    # {1, x} with x of order 4 is not closed, so it lies in no class
    reps[ci] = Subgroup(d4, (0, x), verify=False)
    with pytest.raises(ValueError, match="not a transversal"):
        conjugacy_classes_of_subgroups(d4, reps=reps)


def test_transporter_maps_to_rep(s4):
    table = conjugacy_classes_of_subgroups(s4)
    for sub in enumerate_subgroups(s4):
        ci = table.class_of(sub)
        t = table.transporter_to_rep(sub)
        assert conjugate_subgroup(s4, t, sub).members == \
            table.reps[ci].members


def test_class_maps_match_per_conjugator_sweep(small_groups, tg_7_3,
                                               tg_11_5_a, tg_11_5_b):
    cases = [(g, None) for g in [*small_groups, symmetric_group(5)]]
    for tg in (tg_7_3, tg_11_5_a, tg_11_5_b):
        cases += [(tg.group, None),
                  (tg.group, canonical_class_table(tg).reps)]
    for g, reps in cases:
        table = conjugacy_classes_of_subgroups(g, reps=reps)
        class_of, transporter = reference_class_maps(g, reps)
        assert table._class_of == class_of, g
        assert table._transporter == transporter, g
        assert table.class_sizes == \
            [list(class_of.values()).count(ci) for ci in range(len(table.reps))]


def test_mark_examples(s3):
    table = conjugacy_classes_of_subgroups(s3)
    one, c3 = table.reps[0], table.reps[2]
    for l_sub in table.reps:
        assert mark(s3, one, l_sub) == s3.order // l_sub.order
        assert mark(s3, l_sub, table.reps[3]) == 1
    assert mark(s3, c3, c3) == 2


def test_mark_conjugation_invariant(d4):
    subs = enumerate_subgroups(d4)
    for k_sub in subs:
        for l_sub in subs:
            m = mark(d4, k_sub, l_sub)
            for x in range(d4.order):
                assert mark(d4, conjugate_subgroup(d4, x, k_sub),
                            conjugate_subgroup(d4, x, l_sub)) == m


# ---------------------------------------------------------------------------
# Cosets


def test_double_cosets_trivial_cases(s3):
    full = Subgroup(s3, range(6))
    one = Subgroup(s3, [0])
    assert double_coset_reps(s3, full, full) == [0]
    assert double_coset_reps(s3, one, one) == list(range(6))


def test_subgroup_lagrange_is_checked_without_verify():
    # an explicit check, so that it also holds under python -O
    with pytest.raises(ValueError, match="Lagrange"):
        Subgroup(cyclic_group(6), [0, 1, 2, 3], verify=False)
    code = ("from fibered_burnside.group_core import Subgroup, cyclic_group\n"
            "Subgroup(cyclic_group(6), [0, 1, 2, 3], verify=False)\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode != 0
    assert "ValueError" in run.stderr


def test_abelian_basis_guards_raise():
    # explicit raises, so that they also hold under python -O
    # addition mod 2 on three elements: the generator 1 has the powers
    # 0, 1, 0, which miss 2
    with pytest.raises(NotAGroup, match="span"):
        abelian_invariant_decomposition([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    # 2 has the largest order, 4; the coset of 3 modulo <2> has order 2,
    # but 3 * 2^j is always 3, of order 4
    table = [[0, 1, 2, 3], [1, 0, 0, 3], [2, 0, 1, 3], [3, 3, 3, 1]]
    with pytest.raises(NotAGroup, match="lift"):
        abelian_invariant_decomposition(table)


def test_abelian_decomposition_allocates_less_than_its_table():
    # C31 x C31: the quotient tables of <x> are 31 x 31, so the kernel
    # allocates less than the int64 table it is given (7.0 MiB)
    table = abelian_group((31, 31)).mul.astype(np.int64)
    dec, peak = traced_peak(lambda: abelian_invariant_decomposition(table))
    assert dec.factors == (31, 31)
    assert peak < table.nbytes


def _asserts(node) -> bool:
    """An ``assert`` statement, or a ``raise`` of AssertionError."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no invariant may rest on one;
    # a guard raises an error that names what failed, not AssertionError
    package = Path(__file__).resolve().parents[1] / "src" / "fibered_burnside"
    paths = sorted(package.rglob("*.py"))
    assert len(paths) >= 8
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if _asserts(node)]
    assert found == []


def test_s3_order2_double_cosets(s3):
    k = next(s for s in enumerate_subgroups(s3) if s.order == 2)
    assert len(double_coset_reps(s3, k, k)) == 2


def test_double_cosets_match_reference(small_groups, tg_11_5_a, tg_11_5_b):
    # the batched kernel, on every ordered pair of class reps at once, and
    # its one-pair case against the sweep over all elements
    groups = [*small_groups, symmetric_group(5), abelian_group((2, 2, 2, 2)),
              _a6_from_cayley_json(), tg_11_5_a.group, tg_11_5_b.group]
    for g in groups:
        reps = conjugacy_classes_of_subgroups(g).reps
        pair, found = double_cosets(g, reps, reps)
        assert np.all(np.diff(pair) >= 0)
        for a, k_sub in enumerate(reps):
            for b, l_sub in enumerate(reps):
                expect = reference_double_coset_reps(g, k_sub, l_sub)
                got = found[pair == a * len(reps) + b].tolist()
                assert got == expect, (g, a, b)
                assert double_coset_reps(g, k_sub, l_sub) == expect


def test_double_cosets_partition(small_groups):
    for g in small_groups:
        subs = enumerate_subgroups(g)
        for k_sub in subs:
            for l_sub in subs:
                seen = set()
                for s in double_coset_reps(g, k_sub, l_sub):
                    coset = {int(g.mul[int(g.mul[a, s]), b])
                             for a in k_sub.members for b in l_sub.members}
                    assert not coset & seen
                    seen |= coset
                assert len(seen) == g.order


def test_left_cosets_partition(s4):
    for sub in enumerate_subgroups(s4):
        reps = left_coset_reps(s4, sub)
        assert len(reps) == s4.order // sub.order
        union = {int(s4.mul[r, m]) for r in reps for m in sub.members}
        assert len(union) == s4.order


# ---------------------------------------------------------------------------
# Normalizers


def test_normalizer_of_whole_group(s3):
    full = Subgroup(s3, range(6))
    assert normalizer(s3, full).members == full.members


def test_normalizer_brute_force(d4):
    for sub in enumerate_subgroups(d4):
        got = normalizer(d4, sub).members
        expected = tuple(x for x in range(d4.order)
                         if conjugate_subgroup(d4, x, sub).members
                         == sub.members)
        assert got == expected


# ---------------------------------------------------------------------------
# Isomorphism testing


def test_same_table_isomorphic(s3):
    f = are_isomorphic(s3, s3)
    assert f is not None


def test_c4_vs_klein_not_isomorphic():
    assert are_isomorphic(cyclic_group(4), abelian_group((2, 2))) is None


def test_isomorphism_is_verified_homomorphism():
    g, h = dihedral_group(3), symmetric_group(3)
    f = are_isomorphic(g, h)
    assert sorted(f) == list(range(6))
    for a in range(g.order):
        for b in range(g.order):
            assert f[g.m(a, b)] == h.m(f[a], f[b])


def test_non_isomorphic_same_order():
    assert are_isomorphic(dihedral_group(6), cyclic_group(12)) is None
    assert are_isomorphic(dihedral_group(4), abelian_group((2, 4))) is None
    assert are_isomorphic(symmetric_group(3), cyclic_group(6)) is None


def test_isomorphic_relabeled_abelian():
    assert are_isomorphic(abelian_group((2, 4)),
                          abelian_group((4, 2))) is not None
    assert are_isomorphic(abelian_group((2, 3)), cyclic_group(6)) is not None


def test_counterexample_pair_not_isomorphic(tg_11_5_a, tg_11_5_b):
    assert are_isomorphic(tg_11_5_a.group, tg_11_5_b.group) is None


def test_are_isomorphic_matches_reference(small_groups, tg_11_5_a, tg_11_5_b):
    # same backtrack tree and candidate order as the one-candidate-at-a-time
    # search, so the same map (or None) on every pair; the trivial group and
    # C2 only have level 0
    pairs = list(itertools.product(small_groups, repeat=2))
    pairs.append((dihedral_group(3), symmetric_group(3)))
    pairs.append((tg_11_5_a.group, tg_11_5_b.group))
    for g, h in pairs:
        assert _generating_sequence(g) == reference_generating_sequence(g), g
        assert are_isomorphic(g, h) == reference_are_isomorphic(g, h), (g, h)


def relabelled(g, rng):
    """A copy of G with its elements relabelled by a permutation drawn from
    ``rng`` that keeps the identity at 0."""
    n = g.order
    label = np.array([0] + rng.sample(range(1, n), n - 1))
    unlabel = np.argsort(label)
    return FiniteGroup(label[g.mul[np.ix_(unlabel, unlabel)]])


def test_are_isomorphic_finds_relabelled_order_605(tg_11_5_a):
    # a positive answer at scale walks every level of the search
    g = tg_11_5_a.group
    n = g.order
    h = relabelled(g, random.Random(605))
    f = are_isomorphic(g, h)
    assert f is not None
    farr = np.asarray(f)
    assert sorted(f) == list(range(n))
    assert np.array_equal(farr[g.mul], h.mul[np.ix_(farr, farr)])
    assert f == reference_are_isomorphic(g, h)


def test_are_isomorphic_checks_all_pairs_in_row_blocks():
    # at order 1100 the final check on all pairs runs in two row blocks,
    # of 953 and 147 rows; the map it passes is an isomorphism
    g = abelian_group((2, 550))
    h = relabelled(g, random.Random(1100))
    f = are_isomorphic(g, h)
    assert f is not None and sorted(f) == list(range(g.order))
    farr = np.asarray(f)
    assert np.array_equal(farr[g.mul], h.mul[np.ix_(farr, farr)])


def test_cyclic_class_lengths_count_conjugates(small_groups, tg_7_3,
                                               tg_11_5_a, tg_11_5_b):
    # the distinct conjugates of each <x>, one sorted row per conjugating
    # element; and the closure and normalizer column per cyclic subgroup
    for g in [*small_groups, tg_7_3.group, tg_11_5_a.group, tg_11_5_b.group,
              relabelled(_a6_from_cayley_json(), random.Random(0))]:
        cyclic = [closure(g, (x,)) for x in range(g.order)]
        conj = reference_conj(g)
        count = {mem: len(set(map(tuple, np.sort(conj[:, mem],
                                                 axis=1).tolist())))
                 for mem in set(cyclic)}
        got = _cyclic_class_lengths(g).tolist()
        assert got == [count[mem] for mem in cyclic], g
        assert got == reference_cyclic_class_lengths(g).tolist(), g


def test_candidate_pools_order_605(tg_11_5_a, tg_11_5_b):
    # element order and class size alone leave pools of 24, 120 and 484;
    # the number of conjugates of <x> cuts the first two
    g, h = tg_11_5_a.group, tg_11_5_b.group
    pools = _candidate_pools(g, h, _generating_sequence(g))
    assert [len(pool) for pool in pools] == [4, 20, 484]


def extend_calls(g, h):
    """``are_isomorphic(g, h)`` and the number of candidate images it
    extends (calls of its inner ``extend``), counted by a profile hook."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname == \
                "are_isomorphic.<locals>.extend":
            calls.append(1)

    sys.setprofile(profile)
    try:
        return are_isomorphic(g, h), len(calls)
    finally:
        sys.setprofile(None)


def test_are_isomorphic_prunes_by_conjugation_relations(tg_11_5_a,
                                                        tg_11_5_b):
    # the conjugates of earlier generators by g_j that land in C_{j-1}
    # filter each pool: without that filter the order-605 pair took 19,444
    # extensions (1.5 s) and its relabelled self pair 4,867
    g = tg_11_5_a.group
    assert extend_calls(g, tg_11_5_b.group) == (None, 84)
    f, calls = extend_calls(g, relabelled(g, random.Random(605)))
    assert f is not None and calls == 24


# ---------------------------------------------------------------------------
# Property tests on products of cyclic groups: (m, k, r, c) stands for
# (C_m x| C_k) x C_c, where the generator of C_k acts on C_m as x -> r x.


def direct_product(a, b):
    """A x B, with (x, y) at index x * |B| + y."""
    n = a.order * b.order
    table = a.mul[:, None, :, None] * b.order + b.mul[None, :, None, :]
    return FiniteGroup(table.reshape(n, n))


def product_group(params):
    m, k, r, c = params
    action = [[pow(r, q, m) * x % m for x in range(m)] for q in range(k)]
    return direct_product(
        semidirect_product(cyclic_group(m), cyclic_group(k), action),
        cyclic_group(c))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def product_params(draw, order=None):
    """(m, k, r, c) with m * k * c at most 60, or equal to ``order``."""
    if order is None:
        m = draw(st.sampled_from(range(1, 31)))
        k = draw(st.sampled_from(range(1, 60 // m + 1)))
        c = draw(st.sampled_from(range(1, 60 // (m * k) + 1)))
    else:
        m = draw(st.sampled_from(_divisors(order)))
        k = draw(st.sampled_from(_divisors(order // m)))
        c = order // (m * k)
    # three in four of the draws that can be non-abelian are
    twists = [r for r in range(2, m) if gcd(r, m) == 1 and pow(r, k, m) == 1]
    if twists and draw(st.integers(0, 3)):
        return m, k, draw(st.sampled_from(twists)), c
    return m, k, 1 % m, c


@st.composite
def same_order_params(draw):
    first = draw(product_params())
    m, k, _, c = first
    return first, draw(product_params(order=m * k * c))


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(product_params())
@example((12, 2, 5, 1))      # C12 x| C2, x -> 5x
@example((2, 2, 1, 15))      # C2 x C2 x C15
@example((5, 4, 2, 3))       # the Frobenius group of order 20, times C3
def test_enumerate_matches_join_closure_on_products(params):
    g = product_group(params)
    got = [s.members for s in enumerate_subgroups(g)]
    assert got == [s.members for s in join_closure_subgroups(g)]


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(product_params(), st.randoms(use_true_random=False))
@example((7, 3, 2, 2), random.Random(42))
def test_are_isomorphic_matches_reference_on_relabellings(params, rng):
    g = product_group(params)
    h = relabelled(g, rng)
    f = are_isomorphic(g, h)
    assert f is not None
    assert f == reference_are_isomorphic(g, h)


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(same_order_params(), st.randoms(use_true_random=False))
@example(((4, 2, 3, 1), (2, 2, 1, 2)), random.Random(8))     # D4, C2^3
@example(((9, 3, 4, 1), (3, 3, 1, 3)), random.Random(27))    # C9 x| C3, C3^3
@example(((7, 3, 2, 2), (7, 3, 4, 2)), random.Random(42))    # isomorphic
def test_are_isomorphic_matches_reference_on_same_order_pairs(pair, rng):
    g = product_group(pair[0])
    h = relabelled(product_group(pair[1]), rng)
    assert are_isomorphic(g, h) == reference_are_isomorphic(g, h)


# ---------------------------------------------------------------------------
# Abelianization


def test_abelianization_of_abelian_group():
    g = abelian_group((2, 4))
    dec = abelianization(Subgroup(g, range(8)))
    assert dec.factors == (2, 4)
    # coords form a bijective homomorphism onto the factor tuple group
    assert len(set(map(tuple, dec.coords.tolist()))) == 8


def test_abelianization_s3(s3):
    full = Subgroup(s3, range(6))
    assert commutator_subgroup(full).order == 3
    assert abelianization(full).factors == (2,)


def test_abelianization_thevenaz(tg_7_3):
    g = tg_7_3.group
    full = Subgroup(g, range(g.order))
    # commutator subgroup is the normal C_p x C_p, quotient C_q
    comm = commutator_subgroup(full)
    assert comm.order == 49
    assert comm.members == closure(g, [tg_7_3.x, tg_7_3.y])
    assert abelianization(full).factors == (3,)


def test_abelianization_coords_are_homomorphism(d4):
    full = Subgroup(d4, range(8))
    dec = abelianization(full)
    mods = dec.factors
    for a in range(d4.order):
        for b in range(d4.order):
            expect = [(x + y) % m for x, y, m in
                      zip(dec.coords[a], dec.coords[b], mods)]
            assert dec.coords[d4.m(a, b)].tolist() == expect


def test_abelianization_matches_reference(small_groups, s6, tg_11_5_a,
                                          tg_11_5_b):
    # the table kernel against per-element callbacks over a dict of coset
    # members: the same factors, the same coordinates of every member of K
    # and the same least coset members in order; element orders against a
    # walk through the powers of each element. E16 adds 67 subgroups, every
    # one abelian; in C2 x C2 x C4 and C2 x C4 x C8 some quotient generators
    # lift past their first candidate y x^j
    groups = [*small_groups, abelian_group((2, 2, 2, 2)),
              abelian_group((2, 2, 4)), abelian_group((2, 4, 8)), s6,
              _a6_from_cayley_json(), tg_11_5_a.group, tg_11_5_b.group]
    for g in groups:
        assert g.element_orders.tolist() == reference_element_orders(g), g
        for sub in enumerate_subgroups(g):
            dec, ref = abelianization(sub), reference_abelianization(sub)
            assert dec.factors == ref.factors, (g, sub)
            assert dec.coords.tolist() == \
                [list(ref.coords[m]) for m in sub.members], (g, sub)
            assert dec.span.tolist() == reference_span(ref.coords), (g, sub)


def test_commutator_subgroup_matches_reference(small_groups, s6, tg_11_5_a,
                                               tg_11_5_b):
    # the normal closure of the generators' commutators against the closure
    # of all |K|^2 commutators, on every subgroup
    groups = [*small_groups, symmetric_group(5), s6, _a6_from_cayley_json(),
              tg_11_5_a.group, tg_11_5_b.group]
    for g in groups:
        for sub in enumerate_subgroups(g):
            assert commutator_subgroup(sub).members == \
                reference_commutator_subgroup(sub).members, (g, sub)
