"""Species-isomorphism verification and search.

Oracles: exhaustive gamma comparison for tiny witnesses, self-maps that
must always validate, and the explicit family witness cross-validated by
the general verifier. The search, which checks gamma on every prefix of a
character map, is compared witness for witness with
``reference_search_species``, which checks only whole maps, and the class
invariants that prune its candidates with ``reference_class_invariant``.
A count pins how many geometry passes, product term rows and gamma blocks
``verify --auto`` computes.
The counterexamples of the gamma and structure-constant checks are pinned
to the first mismatch that ``reference_gamma`` and ``reference_product``
find pair by pair, and both row checks are compared, input for input, with
``reference_gamma_check`` and ``reference_structure_constant_check``, the
per-class-pair loops they replace.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from fibered_burnside import cli, monomial, species
from fibered_burnside.abelian_fiber import AbelianFiber, char_index
from fibered_burnside.errors import (FiberHasPTorsion, InvalidSpec,
                                     NotABijection, NotAGroupIso,
                                     SearchBudgetExceeded)
from fibered_burnside.group_core import (Subgroup, abelian_group,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group, dihedral_group,
                                         group_from_json)
from fibered_burnside.monomial import MonomialBasis, monomial_basis
from fibered_burnside.species import (EXHAUSTION_CAVEAT, SpeciesWitness,
                                      _class_invariants, _gamma_check,
                                      _structure_constant_check,
                                      char_group_isomorphisms, search_species,
                                      thevenaz_witness, verify_species)
from oracles import (MonomialPair, hom_set,
                     reference_char_group_isomorphisms,
                     reference_char_group_table, reference_class_invariant,
                     reference_gamma, reference_gamma_check,
                     reference_product, reference_search_species,
                     reference_structure_constant_check)
from test_monomial import assert_one_restriction_per_row, count_gamma_rows

# ---------------------------------------------------------------------------
# Character group isomorphisms


def _full(group):
    return Subgroup(group, range(group.order))


def test_char_group_isomorphism_counts():
    klein = abelian_group((2, 2))
    c4 = cyclic_group(4)
    fiber4 = AbelianFiber((4,))
    homs_klein = char_index(_full(klein), AbelianFiber((2,)))  # C2 x C2
    homs_c4 = char_index(_full(c4), fiber4)                    # C4
    # Aut(C2 x C2) has 6 elements, Aut(C4) has 2
    assert len(list(char_group_isomorphisms(homs_klein, homs_klein))) == 6
    assert len(list(char_group_isomorphisms(homs_c4, homs_c4))) == 2
    # groups of the same size but different structure admit none
    homs_klein4 = char_index(_full(klein), fiber4)             # still C2 x C2
    assert list(char_group_isomorphisms(homs_klein4, homs_c4)) == []


@pytest.mark.parametrize("factors", [(2,), (4,), (6,), (2, 4), (2, 2)])
def test_char_group_isomorphisms_match_reference(small_groups, factors):
    # whole lists, in order, on every pair of classes of one group whose
    # hom sets have the same size (at most 8; C2 x C4 over (2,4) has 32)
    fiber = AbelianFiber(factors)
    for g in small_groups:
        reps = conjugacy_classes_of_subgroups(g).reps
        homs = [hom_set(s, fiber) for s in reps]
        chars = [char_index(s, fiber) for s in reps]
        for homs1, chars1 in zip(homs, chars):
            for homs2, chars2 in zip(homs, chars):
                if len(homs1) == len(homs2) <= 8:
                    assert list(char_group_isomorphisms(chars1, chars2)) == \
                        list(reference_char_group_isomorphisms(homs1, homs2))


def test_char_group_isomorphisms_match_reference_rank_4(fiber_c2):
    # Hom((C2)^4, C2) has 16 elements and |GL(4, 2)| = 20160 automorphisms;
    # Hom(C4 x C4, C4) has as many elements and none
    e16 = _full(abelian_group((2, 2, 2, 2)))
    c4c4 = _full(abelian_group((4, 4)))
    homs_e16 = hom_set(e16, fiber_c2)
    chars_e16 = char_index(e16, fiber_c2)
    for sub, fiber in ((e16, fiber_c2), (c4c4, AbelianFiber((4,)))):
        assert list(char_group_isomorphisms(
            chars_e16, char_index(sub, fiber))) == \
            list(reference_char_group_isomorphisms(homs_e16,
                                                   hom_set(sub, fiber)))
    assert len(list(char_group_isomorphisms(chars_e16, chars_e16))) == 20160


def test_char_group_isomorphisms_are_lazy():
    # Hom((C2)^3, C2 x C2) is (C2)^6, with about 2e10 automorphisms
    e8, fiber = _full(abelian_group((2, 2, 2))), AbelianFiber((2, 2))
    homs, chars = hom_set(e8, fiber), char_index(e8, fiber)
    first = list(itertools.islice(char_group_isomorphisms(chars, chars),
                                  1000))
    assert len({tuple(m) for m in first}) == 1000
    table = np.asarray(reference_char_group_table(homs))
    for mapping in np.asarray(first):
        assert sorted(mapping) == list(range(len(homs)))
        assert np.array_equal(mapping[table], table[np.ix_(mapping, mapping)])


def test_char_group_isomorphisms_accept_all_gives_full_list(fiber_c2):
    # accept sees the trivial characters first and then every prefix; the
    # calls on the full span are the maps themselves, in order
    klein = char_index(_full(abelian_group((2, 2))), fiber_c2)
    e16 = char_index(_full(abelian_group((2, 2, 2, 2))), fiber_c2)
    c4c4 = char_index(_full(abelian_group((4, 4))), AbelianFiber((4,)))
    for homs in (klein, e16, c4c4):
        calls = []

        def accept(dom, img):
            calls.append((dom.tolist(), img.tolist()))
            return True

        maps = list(char_group_isomorphisms(homs, homs, accept=accept))
        assert maps == list(char_group_isomorphisms(homs, homs))
        assert calls[0] == ([0], [0])
        assert all(dom[0] == img[0] == 0 and len(dom) == len(set(dom))
                   for dom, img in calls)
        n = len(homs.values)
        full = [[img[dom.index(a)] for a in range(n)]
                for dom, img in calls if len(dom) == n]
        assert full == maps


def test_char_group_isomorphisms_accept_prunes_prefixes(fiber_c2):
    # rejecting every prefix that moves a character leaves the identity
    e16 = char_index(_full(abelian_group((2, 2, 2, 2))), fiber_c2)
    calls = []

    def fixes(dom, img):
        calls.append(len(dom))
        return bool((dom == img).all())

    assert list(char_group_isomorphisms(e16, e16, accept=fixes)) == \
        [list(range(16))]
    # one trivial prefix, then the 15 candidates for each of 4 generators
    # less those already spanned
    assert Counter(calls) == {1: 1, 2: 15, 4: 14, 8: 12, 16: 8}


def test_trivial_char_group_calls_accept_once(fiber_c2):
    # Hom(C3, C2) is trivial: its one map is checked once, on the trivial
    # characters, and a rejection leaves no map
    homs = char_index(_full(cyclic_group(3)), fiber_c2)
    assert len(homs.values) == 1
    calls = []

    def record(dom, img):
        calls.append((dom.tolist(), img.tolist()))
        return True

    assert list(char_group_isomorphisms(homs, homs, accept=record)) == [[0]]
    assert calls == [([0], [0])]
    assert list(char_group_isomorphisms(
        homs, homs, accept=lambda dom, img: False)) == []


def test_char_group_isomorphisms_preserve_products(s3, fiber_c6):
    homs = hom_set(_full(s3), fiber_c6)
    chars = char_index(_full(s3), fiber_c6)
    lookup = {h.values: i for i, h in enumerate(homs)}
    table = [[lookup[(a * b).values] for b in homs] for a in homs]
    for mapping in char_group_isomorphisms(chars, chars):
        for a in range(len(homs)):
            for b in range(len(homs)):
                assert mapping[table[a][b]] == table[mapping[a]][mapping[b]]


# ---------------------------------------------------------------------------
# Verification


def _identity_witness(group, fiber):
    table = conjugacy_classes_of_subgroups(group)
    char_maps = [list(range(len(hom_set(s, fiber)))) for s in table.reps]
    return SpeciesWitness(table, table,
                          list(range(len(table.reps))), char_maps)


def _search(g, h, fiber, **kwargs):
    return search_species(conjugacy_classes_of_subgroups(g),
                          conjugacy_classes_of_subgroups(h), fiber, **kwargs)


def test_identity_witness_valid(s3, d4, fiber_c2, fiber_c6):
    for g in (s3, d4):
        for fiber in (fiber_c2, fiber_c6):
            witness = _identity_witness(g, fiber)
            verdict = verify_species(witness, fiber)
            assert verdict.valid
            assert verdict.basis_bijection is not None
            assert [i for i, _ in verdict.basis_bijection] == \
                [j for _, j in verdict.basis_bijection]


def test_witness_must_be_bijection(s3, fiber_c2):
    witness = _identity_witness(s3, fiber_c2)
    witness.subgroup_map = [0, 0, 2, 3]
    with pytest.raises(NotABijection):
        verify_species(witness, fiber_c2)
    witness2 = _identity_witness(s3, fiber_c2)
    witness2.char_maps[0] = [0, 0]
    with pytest.raises(NotABijection):
        verify_species(witness2, fiber_c2)


def test_witness_char_map_must_preserve_products(d4, fiber_c2):
    # swapping the trivial character with a nontrivial one breaks products
    witness = _identity_witness(d4, fiber_c2)
    full_class = len(witness.g_table.reps) - 1
    witness.char_maps[full_class] = [1, 0] + \
        witness.char_maps[full_class][2:]
    with pytest.raises(NotAGroupIso):
        verify_species(witness, fiber_c2)


def _first_reference_mismatch(witness, fiber):
    """The first (ci, cj, a, b), in that lexicographic order, where the
    scalar oracle's gamma differs across the witness."""
    g_reps, h_reps = witness.g_table.reps, witness.h_table.reps
    homs_g = [hom_set(s, fiber) for s in g_reps]
    homs_h = [hom_set(s, fiber) for s in h_reps]

    def pair_h(ci, a):
        ti = witness.subgroup_map[ci]
        return MonomialPair(h_reps[ti],
                            homs_h[ti][witness.char_maps[ci][a]])

    k = len(g_reps)
    for ci in range(k):
        for cj in range(k):
            for a, phi in enumerate(homs_g[ci]):
                for b, psi in enumerate(homs_g[cj]):
                    gg = reference_gamma(MonomialPair(g_reps[ci], phi),
                                         MonomialPair(g_reps[cj], psi))
                    gh = reference_gamma(pair_h(ci, a), pair_h(cj, b))
                    if gg != gh:
                        return {"classes": [ci, cj], "char_indices": [a, b],
                                "gamma_g": gg, "gamma_h": gh}
    return None


def test_gamma_mismatch_reported(d4):
    # with a trivial fiber only the subgroup map matters; swapping two
    # order-2 classes with different mark rows must produce a counterexample
    table = conjugacy_classes_of_subgroups(d4)
    fiber = AbelianFiber((1,))
    # swap two non-conjugate order-2 classes; marks rows differ so the
    # trivial-character gamma entries cannot match
    order2 = [i for i, s in enumerate(table.reps) if s.order == 2]
    assert len(order2) == 3
    mapping = list(range(len(table.reps)))
    i, j = order2[0], order2[1]
    mapping[i], mapping[j] = mapping[j], mapping[i]
    witness = SpeciesWitness(table, table, mapping,
                             [[0]] * len(table.reps))
    verdict = verify_species(witness, fiber)
    assert not verdict.valid
    expect = {"classes": [1, 4], "char_indices": [0, 0],
              "gamma_g": 2, "gamma_h": 0}
    assert _first_reference_mismatch(witness, fiber) == expect
    assert verdict.counterexample == expect


def test_gamma_mismatch_reported_through_char_map(d4, fiber_c2):
    # an automorphism of Hom(D4, C2) on the whole group alone is a group
    # isomorphism of character groups but breaks gamma matching
    witness = _identity_witness(d4, fiber_c2)
    full_class = len(witness.g_table.reps) - 1
    witness.char_maps[full_class] = [0, 3, 1, 2]
    verdict = verify_species(witness, fiber_c2)
    assert not verdict.valid
    expect = {"classes": [1, 7], "char_indices": [0, 2],
              "gamma_g": 1, "gamma_h": 0}
    assert _first_reference_mismatch(witness, fiber_c2) == expect
    assert verdict.counterexample == expect


def test_structure_constant_mismatch_reported(d4, fiber_c2):
    # swapping the order-2 classes 1 and 2 keeps the basis sizes but not
    # the products; the expected dict was recorded from the per-pair
    # check, which looped over basis pairs in row-major order
    basis = monomial_basis(d4, fiber_c2)
    witness = _identity_witness(d4, fiber_c2)
    witness.subgroup_map[1], witness.subgroup_map[2] = 2, 1
    mismatch, bijection = _structure_constant_check(basis, basis, witness)
    assert bijection is None
    assert mismatch == {"reason": "structure constants differ",
                        "basis_pair": [1, 7],
                        "transported": [(3, 2)],
                        "target": [(0, 1)]}


def _broken_witness(basis, rng):
    """A witness on ``basis``'s own class table whose maps are seeded
    bijections: classes are permuted among those with equal order, hom-set
    size and orbit count, and each character map is any permutation."""
    table = basis.class_table
    k = len(table.reps)

    def shape(c):
        i0, i1 = basis.class_block[c]
        return (table.reps[c].order, len(hom_set(table.reps[c], basis.fiber)),
                i1 - i0)

    subgroup_map = list(range(k))
    for c in range(k):
        alike = [d for d in range(k) if shape(d) == shape(c)]
        if alike[0] == c:
            images = alike[:]
            rng.shuffle(images)
            for d, t in zip(alike, images):
                subgroup_map[d] = t
    char_maps = []
    for homs in (hom_set(r, basis.fiber) for r in table.reps):
        cmap = list(range(len(homs)))
        rng.shuffle(cmap)
        char_maps.append(cmap)
    return SpeciesWitness(table, table, subgroup_map, char_maps)


def _first_reference_product_mismatch(basis, witness):
    """The first basis pair (i, j), in row-major order, whose structure
    constants from ``reference_product``, carried through the witness's
    basis map, differ from those of the image pair."""
    mapping = [int(basis.char_to_basis[witness.subgroup_map[c]][
        witness.char_maps[c][h]])
        for c, h in zip(basis.rep_class, basis.rep_hom_index)]
    assert sorted(mapping) == list(range(basis.size))
    cache: dict = {}
    for i in range(basis.size):
        for j in range(basis.size):
            transported = sorted((mapping[t], c) for t, c in
                                 reference_product(basis, i, j, cache))
            target = reference_product(basis, mapping[i], mapping[j], cache)
            if transported != target:
                return {"reason": "structure constants differ",
                        "basis_pair": [i, j], "transported": transported,
                        "target": target}
    return None


@pytest.mark.parametrize("seed,diagonal", [(0, True), (5, False)])
def test_structure_constant_mismatch_is_row_major_first(s3, fiber_c6, seed,
                                                        diagonal):
    # the check compares only blocks with ci <= cj; the pair it reports
    # must still be the first of the whole product table, found here one
    # pair at a time with the oracle, in a diagonal block for seed 0 and
    # in an off-diagonal one for seed 5
    basis = monomial_basis(s3, fiber_c6)
    witness = _broken_witness(basis, random.Random(seed))
    mismatch, bijection = _structure_constant_check(basis, basis, witness)
    assert bijection is None
    assert mismatch == _first_reference_product_mismatch(basis, witness)
    i, j = mismatch["basis_pair"]
    assert (basis.rep_class[i] == basis.rep_class[j]) == diagonal


def test_structure_constant_check_rejects_bad_basis_maps(d4, fiber_c2):
    basis = monomial_basis(d4, fiber_c2)
    other = monomial_basis(cyclic_group(8), fiber_c2)
    witness = _identity_witness(d4, fiber_c2)
    assert _structure_constant_check(basis, other, witness) == (
        {"reason": "basis sizes differ", "sizes": [19, other.size]}, None)
    # Hom(C2 x C2, C2) has orbits {0}, {1}, {2, 3} under the normalizer;
    # sending characters 1 and 2 into one orbit maps two basis pairs to one
    ci = next(c for c, s in enumerate(witness.g_table.reps)
              if s.order == 4 and basis.char_to_basis[c][2]
              == basis.char_to_basis[c][3])
    assert basis.char_to_basis[ci][1] != basis.char_to_basis[ci][2]
    witness.char_maps[ci] = [0, 2, 3, 1]
    assert _structure_constant_check(basis, basis, witness) == (
        {"reason": "induced basis map is not a bijection"}, None)


def count_verify_blocks(monkeypatch, spec_h):
    """The bases of `verify dihedral:6 <spec_h> --fiber 2,4 --auto`, as the
    run computes them: each side runs one geometry pass (one batched
    double-coset call) and one term pass per class, which the basis keeps
    as class row ci. The run locator points every product of classes
    (ci, cj) into the kept row of the lower class, min(ci, cj), and reading
    runs computes no row again. The search and the verification share one
    gamma kernel per side, which computes each class row once."""
    geometry, rows = [], []
    real_cosets, real_terms = monomial.double_cosets, \
        MonomialBasis._mackey_terms

    def counted_cosets(group, ks, ls):
        geometry.append(group)
        return real_cosets(group, ks, ls)

    def counted_terms(basis, ci):
        terms = real_terms(basis, ci)
        rows.append((basis, ci, terms))
        return terms

    blocks = []
    gammas = count_gamma_rows(monkeypatch, blocks)
    monkeypatch.setattr(monomial, "double_cosets", counted_cosets)
    monkeypatch.setattr(MonomialBasis, "_mackey_terms", counted_terms)
    report, code = cli.cmd_verify("dihedral:6", spec_h, "2,4", auto=True)
    assert code == 0 and report["result"]["valid"]
    sides = Counter(basis for basis, _, _ in rows)
    assert sorted(map(id, geometry)) == sorted(id(b.group) for b in sides)
    for basis in sides:
        k = len(basis.class_block)
        assert sorted(ci for b, ci, _ in rows if b is basis) == \
            list(range(k))
    terms = {(basis, ci): row for basis, ci, row in rows}
    for basis in sides:
        k = len(basis.class_block)
        for ci, (i0, i1) in enumerate(basis.class_block):
            for cj, (j0, j1) in enumerate(basis.class_block):
                row = terms[basis, min(ci, cj)]
                assert np.shares_memory(row, basis.terms)
                # where the row starts in the buffer, in entries
                at = ((row.ctypes.data - basis.terms.ctypes.data)
                      // basis.terms.itemsize)
                start, lens = basis.runs(np.arange(i0, i1)[:, None],
                                         np.arange(j0, j1))
                assert (start >= at).all()
                assert (start + lens <= at + row.size).all()
    assert len(rows) == len(terms) == sum(len(basis.class_block)
                                          for basis in sides)
    assert len({kernel for kernel, _, _, _ in gammas}) == len(sides)
    assert len(gammas) == sum(len(basis.class_block) for basis in sides)
    for basis in sides:
        # the kept rows are the kernel's own, and the kernel restricts the
        # characters of the fixed cosets alone, one row at a time, so no
        # block of a pair with a zero mark is computed, and no row is
        # restricted twice
        kernel, = {kid for kid, a, _, row in gammas
                   if basis._gamma.get(a) is row}
        assert_one_restriction_per_row(basis, kernel, gammas, blocks)
    return list(sides)


def test_verify_auto_computes_each_block_once(monkeypatch):
    # an identical spec is one group: the two sides share one basis and
    # one gamma kernel, so each class row is computed once in all
    sides = count_verify_blocks(monkeypatch, "dihedral:6")
    assert len(sides) == 1


def test_verify_auto_computes_each_block_once_per_side(monkeypatch):
    # a respelled spec builds a second group: each side computes each of
    # its blocks once
    sides = count_verify_blocks(monkeypatch, "dihedral:+6")
    assert len(sides) == 2
    assert sides[0].group is not sides[1].group
    assert sides[0].class_table.marks == sides[1].class_table.marks


def test_verify_species_reads_no_product_blocks(monkeypatch):
    # `verify abelian:2,2,2,2 abelian:2,2,2,2 --fiber 2 --auto` compares
    # whole class rows, read through the run locator: it computes each of
    # the 67 rows of its one shared basis once, and a respelled H spec each
    # of the 67 rows of each side once; the basis has no product blocks
    rows = []
    real_terms = MonomialBasis._mackey_terms

    def counted_terms(basis, ci):
        rows.append((basis, ci))
        return real_terms(basis, ci)

    monkeypatch.setattr(MonomialBasis, "_mackey_terms", counted_terms)
    report, code = cli.cmd_verify("abelian:2,2,2,2", "abelian:2,2,2,2", "2",
                                  auto=True)
    assert code == 0 and report["result"]["valid"]
    assert len(rows) == len(set(rows)) == 67
    rows.clear()
    report, code = cli.cmd_verify("abelian:2,2,2,2", "abelian:2,2,2,+2", "2",
                                  auto=True)
    assert code == 0 and report["result"]["valid"]
    assert len(rows) == len(set(rows)) == 2 * 67
    assert not hasattr(MonomialBasis, "product_block")


@pytest.mark.parametrize("swap,expect", [
    ((1, 2), {"basis_pair": [0, 1], "transported": [(0, 3)],
              "target": [(0, 2)]}),
    ((0, 2), {"basis_pair": [0, 0], "transported": [(2, 6)],
              "target": [(2, 2)]}),
])
def test_unequal_runs_differ(s3, swap, expect):
    # S3 over C1, two classes of different order but one character each
    # swapped: the runs of a pair and of its image have different numbers
    # of double cosets, so the pair differs whatever its terms are. Read
    # with the length of G's run, H's terms would agree on the pair (0, 1)
    # for the swap (1, 2), and run past the end of H's term buffer for the
    # swap (0, 2)
    table = conjugacy_classes_of_subgroups(s3)
    assert [r.order for r in table.reps] == [1, 2, 3, 6]
    smap = list(range(4))
    smap[swap[0]], smap[swap[1]] = swap[1], swap[0]
    witness = SpeciesWitness(table, table, smap, [[0]] * 4)
    basis = monomial_basis(s3, AbelianFiber((1,)), table)
    checked = _structure_constant_check(basis, basis, witness)
    assert checked == ({"reason": "structure constants differ", **expect},
                       None)
    assert checked == reference_structure_constant_check(basis, basis,
                                                         witness)


def test_gamma_check_skips_only_pairs_zero_on_both_sides(d4):
    # swapping the order-4 classes 5 and 6 of D4 sends the class pair
    # (2, 5), whose mark is 0, to (2, 6), whose mark is 2: the gamma check
    # must compare that pair although its block on the G side is zero
    table = conjugacy_classes_of_subgroups(d4)
    fiber = AbelianFiber((1,))
    mapping = list(range(len(table.reps)))
    mapping[5], mapping[6] = 6, 5
    assert table.marks[2][5] == 0 and table.marks[2][6] == 2
    witness = SpeciesWitness(table, table, mapping,
                             [[0]] * len(table.reps))
    verdict = verify_species(witness, fiber)
    assert not verdict.valid
    expect = {"classes": [2, 5], "char_indices": [0, 0],
              "gamma_g": 0, "gamma_h": table.marks[2][6]}
    assert _first_reference_mismatch(witness, fiber) == expect
    assert verdict.counterexample == expect


def _swapped_classes(table, fiber, rng):
    """The identity witness on ``table`` with two classes of equal order
    and hom-set size, drawn from ``rng``, swapped; None if there are no
    two such classes."""
    homs = [len(char_index(rep, fiber).values) for rep in table.reps]
    alike = [(x, y) for x in range(len(homs)) for y in range(x)
             if (table.reps[x].order, homs[x]) ==
             (table.reps[y].order, homs[y])]
    if not alike:
        return None
    x, y = rng.choice(alike)
    smap = list(range(len(homs)))
    smap[x], smap[y] = y, x
    return SpeciesWitness(table, table, smap, [list(range(n)) for n in homs])


def _differential_witnesses(g, fiber, rng):
    """Witnesses for comparing the row checks with the per-pair oracles:
    the identity; seeded broken ones; the identity with shuffled character
    maps only; two classes swapped; and a witness to a relabelled copy of
    g, as found and with its character maps shuffled."""
    table = conjugacy_classes_of_subgroups(g)
    basis = monomial_basis(g, fiber, table)
    yield _identity_witness(g, fiber)
    for _ in range(3):
        yield _broken_witness(basis, rng)
    shuffled = _identity_witness(g, fiber)
    for cmap in shuffled.char_maps:
        rng.shuffle(cmap)
    yield shuffled
    swapped = _swapped_classes(table, fiber, rng)
    if swapped is not None:
        yield swapped
    found = search_species(table, conjugacy_classes_of_subgroups(
        _relabelled(g, rng)), fiber)
    assert found is not None
    yield found
    yield SpeciesWitness(found.g_table, found.h_table, found.subgroup_map,
                         [rng.sample(m, len(m)) for m in found.char_maps])


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4)])
def test_row_checks_match_per_pair_oracles(small_groups, factors):
    # the gamma row comparison and the structure-constant row pass against
    # the per-pair loops they replace: the same counterexample dict, the
    # same bijection and, where the character maps are group isomorphisms,
    # the same verdict
    fiber = AbelianFiber(factors)
    rng = random.Random(20261019)
    seen = Counter()
    for g in small_groups:
        for witness in _differential_witnesses(g, fiber, rng):
            basis_g = monomial_basis(g, fiber, witness.g_table)
            basis_h = monomial_basis(witness.h_table.group, fiber,
                                     witness.h_table)
            gamma = _gamma_check(basis_g, basis_h, witness)
            assert gamma == reference_gamma_check(basis_g, basis_h, witness)
            checked = _structure_constant_check(basis_g, basis_h, witness)
            assert checked == reference_structure_constant_check(
                basis_g, basis_h, witness)
            mismatch, bijection = checked
            try:
                verdict = verify_species(witness, fiber)
            except NotAGroupIso:
                seen["not a group isomorphism"] += 1
            else:
                expect = gamma or mismatch
                assert verdict.valid == (expect is None)
                assert verdict.counterexample == expect
                assert verdict.basis_bijection == (None if expect
                                                   else bijection)
            smap = witness.subgroup_map
            seen["order reversed"] += any(
                smap[ci] > smap[cj] for cj in range(len(smap))
                for ci in range(cj))
            seen["other group"] += basis_g is not basis_h
            seen["gamma differs"] += gamma is not None
            seen["valid"] += bijection is not None
            if mismatch is not None and "basis_pair" in mismatch:
                seen["products differ"] += 1
                ci, cj = (basis_g.rep_class[i] for i in mismatch["basis_pair"])
                ti, tj = sorted((smap[ci], smap[cj]))
                seen["double coset counts differ"] += bool(
                    basis_g._geometry.n_cosets[min(ci, cj), max(ci, cj)]
                    != basis_h._geometry.n_cosets[ti, tj])
    # every kind of input came up; over C1 every character map is [0]
    kinds = {"order reversed", "other group", "gamma differs", "valid",
             "products differ", "double coset counts differ"}
    if factors != (1,):
        kinds.add("not a group isomorphism")
    assert kinds <= {kind for kind, n in seen.items() if n}, seen


def test_inverse_witness_validates(s3, fiber_c6):
    witness = _search(s3, s3, fiber_c6)
    assert witness is not None
    k = len(witness.subgroup_map)
    inv_map = [0] * k
    for i, j in enumerate(witness.subgroup_map):
        inv_map[j] = i
    inv_chars = []
    for j in range(k):
        i = inv_map[j]
        fwd = witness.char_maps[i]
        back = [0] * len(fwd)
        for a, b in enumerate(fwd):
            back[b] = a
        inv_chars.append(back)
    inverse = SpeciesWitness(witness.h_table, witness.g_table,
                             inv_map, inv_chars)
    assert verify_species(inverse, fiber_c6).valid


# ---------------------------------------------------------------------------
# Search


def test_search_self_always_succeeds(small_groups, fiber_c2):
    for g in small_groups:
        witness = _search(g, g, fiber_c2)
        assert witness is not None
        assert verify_species(witness, fiber_c2).valid


def test_search_c4_vs_klein_exhausts(fiber_c2):
    # class counts differ (3 vs 5), so no witness can exist at all
    assert _search(cyclic_group(4), abelian_group((2, 2)),
                   fiber_c2) is None


def test_search_s3_vs_c6_exhausts(s3, fiber_c6):
    assert _search(s3, cyclic_group(6), fiber_c6) is None


def test_search_budget(s3, fiber_c6):
    with pytest.raises(SearchBudgetExceeded):
        _search(s3, s3, fiber_c6, budget=0)


def test_search_e16_within_budget_1000(fiber_c2):
    # E16 over C2 takes 10981 whole character maps without the prefix
    # check; with it the same witness takes far fewer than 1000 prefixes
    e16 = abelian_group((2, 2, 2, 2))
    table = conjugacy_classes_of_subgroups(e16)
    witness = search_species(table, table, fiber_c2, budget=1000)
    assert witness is not None
    assert witness.to_json() == \
        reference_search_species(table, table, fiber_c2).to_json()
    assert verify_species(witness, fiber_c2).valid


def test_search_rows_keep_the_gamma_dtype(monkeypatch, d4, fiber_c2):
    # the gamma rows that a prefix check compares, kept per class on the G
    # side for the whole search, stay in the gamma dtype, int8 for D4; an
    # int64 first block would widen every one of them
    compared = []
    real = species.char_group_isomorphisms

    def recording(dom, img, accept):
        cells = dict(zip(accept.__code__.co_freevars,
                         (cell.cell_contents for cell in accept.__closure__)))
        compared.extend(cells[name] for name in ("p_g", "p_h"))
        return real(dom, img, accept=accept)

    monkeypatch.setattr(species, "char_group_isomorphisms", recording)
    table = conjugacy_classes_of_subgroups(d4)
    assert search_species(table, table, fiber_c2) is not None
    dtype = monomial_basis(d4, fiber_c2, table).gamma_row(0).dtype
    assert dtype == np.int8
    rows = [p for p in compared if p is not None]
    assert any(p.shape[1] for p in rows)
    assert {p.dtype for p in rows} == {dtype}


def test_search_reads_one_table_invariants_once(monkeypatch, d4, fiber_c2):
    # one class table on both sides has its class invariants computed
    # once; the tables of two equal groups, once each
    calls = []
    real = species._class_invariants

    def counted(table, fiber):
        calls.append(table)
        return real(table, fiber)

    monkeypatch.setattr(species, "_class_invariants", counted)
    table = conjugacy_classes_of_subgroups(d4)
    assert search_species(table, table, fiber_c2) is not None
    assert calls == [table]
    calls.clear()
    other = conjugacy_classes_of_subgroups(dihedral_group(4))
    assert search_species(table, other, fiber_c2) is not None
    assert calls == [table, other]


def _relabelled(group, rng):
    """``group`` read back from Cayley JSON with its elements relabelled by
    a permutation drawn from ``rng`` that keeps the identity at 0."""
    n = group.order
    label = np.array([0] + rng.sample(range(1, n), n - 1))
    unlabel = np.argsort(label)
    mul = label[group.mul[np.ix_(unlabel, unlabel)]]
    return group_from_json({"order": n, "mul": mul.tolist()})


def _invariant_relation(g_table, h_table, invariants):
    """Which classes of both tables, G's first, have equal invariants."""
    inv = invariants(g_table) + invariants(h_table)
    return [[x == y for y in inv] for x in inv]


def test_class_invariants_match_reference(small_groups, tg_11_5_a,
                                          tg_11_5_b):
    # the sorted profile rows must tell classes apart exactly as the
    # per-class Counter does, across the two sides of a search
    rng = random.Random(20261018)
    pairs = [(g, h) for g in small_groups for h in small_groups]
    pairs += [(g, _relabelled(g, rng)) for g in small_groups]
    pairs.append((tg_11_5_a.group, tg_11_5_b.group))
    split = 0
    for factors in [(1,), (2,), (6,)]:
        fiber = AbelianFiber(factors)
        for g, h in pairs:
            g_table = conjugacy_classes_of_subgroups(g)
            h_table = conjugacy_classes_of_subgroups(h)
            got = _invariant_relation(
                g_table, h_table, lambda t: _class_invariants(t, fiber))
            expect = _invariant_relation(
                g_table, h_table,
                lambda t: [reference_class_invariant(t, i, fiber)
                           for i in range(len(t.reps))])
            assert got == expect, (g, h, factors)
            split += any(not all(row) for row in expect)
    assert split


def _search_matches_reference(g, h, fiber):
    """The search's answer, after checking it against the reference: the
    same witness JSON, or, where the reference takes more than 20000 whole
    maps, a witness that verifies."""
    g_table = conjugacy_classes_of_subgroups(g)
    h_table = conjugacy_classes_of_subgroups(h)
    witness = search_species(g_table, h_table, fiber)
    try:
        expected = reference_search_species(g_table, h_table, fiber,
                                            budget=20000)
    except SearchBudgetExceeded:
        assert witness is not None and verify_species(witness, fiber).valid
        return witness
    assert (None if witness is None else witness.to_json()) == \
        (None if expected is None else expected.to_json())
    return witness


@pytest.mark.parametrize("factors", [(1,), (2,), (6,), (2, 4), (3,)])
def test_search_matches_reference(small_groups, tg_11_5_a, tg_11_5_b,
                                  factors):
    # self pairs, seeded relabellings and pairs of equal order, among them
    # the order-605 pair; the relabelled class tables list their classes
    # in another order, so the identity assignment is not tried first
    fiber = AbelianFiber(factors)
    rng = random.Random(20261018)
    moved = 0
    for g in small_groups:
        assert _search_matches_reference(g, g, fiber) is not None
        witness = _search_matches_reference(g, _relabelled(g, rng), fiber)
        moved += witness.subgroup_map != sorted(witness.subgroup_map)
    assert moved
    groups = [*small_groups, cyclic_group(8), cyclic_group(9),
              abelian_group((3, 3)), abelian_group((2, 6)),
              dihedral_group(6), tg_11_5_a.group, tg_11_5_b.group]
    for g, h in itertools.combinations(groups, 2):
        if g.order == h.order:
            _search_matches_reference(g, h, fiber)


def test_exhaustion_caveat_mentions_open_question():
    assert "group isomorphism" in EXHAUSTION_CAVEAT
    assert "open question" in EXHAUSTION_CAVEAT


# ---------------------------------------------------------------------------
# The family witness


def test_thevenaz_witness_identity(tg_7_3):
    fiber = AbelianFiber((3,))
    witness = thevenaz_witness(tg_7_3, tg_7_3, fiber)
    assert witness.subgroup_map == list(range(10))
    verdict = verify_species(witness, fiber)
    assert verdict.valid
    assert len(verdict.basis_bijection) == 6 + 4 * 3


def test_thevenaz_witness_shape(tg_11_5_a, tg_11_5_b, fiber_c5):
    witness = thevenaz_witness(tg_11_5_a, tg_11_5_b, fiber_c5)
    assert len(witness.subgroup_map) == 10
    sizes = sorted(len(m) for m in witness.char_maps)
    assert sizes == [1] * 6 + [5] * 4


def test_thevenaz_witness_gamma_valid(tg_11_5_a, tg_11_5_b, fiber_c5):
    # gamma matching on all quadruples, then the structure-constant
    # re-check on all basis products
    witness = thevenaz_witness(tg_11_5_a, tg_11_5_b, fiber_c5)
    verdict = verify_species(witness, fiber_c5)
    assert verdict.valid


def test_thevenaz_witness_rejects_p_torsion(tg_7_3):
    with pytest.raises(FiberHasPTorsion):
        thevenaz_witness(tg_7_3, tg_7_3, AbelianFiber((7,)))


def test_thevenaz_witness_rejects_mixed_parameters(tg_7_3, tg_11_5_a):
    with pytest.raises(InvalidSpec):
        thevenaz_witness(tg_7_3, tg_11_5_a, AbelianFiber((3,)))


def test_search_finds_family_witness(tg_11_5_a, tg_11_5_b, fiber_c5):
    witness = _search(tg_11_5_a.group, tg_11_5_b.group, fiber_c5)
    assert witness is not None
    verdict = verify_species(witness, fiber_c5)
    assert verdict.valid


def test_witness_json_round_trip(s3, fiber_c6):
    witness = _search(s3, s3, fiber_c6)
    data = witness.to_json()
    assert set(data) == {"subgroup_map", "char_maps"}
    back = SpeciesWitness.from_json(data, witness.g_table, witness.h_table)
    assert back.subgroup_map == witness.subgroup_map
    assert back.char_maps == witness.char_maps
