"""The order-p^2*q family: spec validation, construction, the canonical
class transversal, and the number-theoretic isomorphism classification.

Oracles: modular arithmetic done by hand for the small parameter sets, the
generic class-table machinery, and the backtracking isomorphism test.
"""

import itertools

import pytest
from oracles import element_order, reference_conj

from fibered_burnside import thevenaz
from fibered_burnside.errors import InvalidSpec
from fibered_burnside.group_core import (Subgroup, are_isomorphic, closure,
                                         normalizer)
from fibered_burnside.thevenaz import (ThevenazSpec, build,
                                       canonical_class_table, class_count,
                                       family_isomorphic,
                                       isomorphism_class_partition,
                                       valid_pairs)

# ---------------------------------------------------------------------------
# Spec validation


def test_spec_valid():
    ThevenazSpec(7, 3, 2, 4).validate()
    ThevenazSpec(11, 5, 3, 9).validate()


@pytest.mark.parametrize("spec", [
    ThevenazSpec(8, 3, 2, 4),       # p not prime
    ThevenazSpec(7, 4, 2, 4),       # q not prime
    ThevenazSpec(7, 2, 6, 6),       # q < 3
    ThevenazSpec(11, 3, 3, 9),      # q does not divide p - 1
    ThevenazSpec(7, 3, 3, 2),       # a does not have order q
    ThevenazSpec(7, 3, 2, 2),       # a = b
    ThevenazSpec(7, 3, 2, 9),       # b = 2 mod 7 = a
])
def test_spec_invalid(spec):
    with pytest.raises(InvalidSpec):
        spec.validate()


# ---------------------------------------------------------------------------
# Construction


def test_build_order_147(tg_7_3):
    g = tg_7_3.group
    assert g.order == 147
    assert not g.is_abelian()
    # trivial center
    center = [x for x in range(g.order)
              if all(g.m(x, y) == g.m(y, x) for y in range(g.order))]
    assert center == [0]


def test_build_labeled_generators(tg_7_3):
    g = tg_7_3.group
    assert element_order(g, tg_7_3.x) == 7
    assert element_order(g, tg_7_3.y) == 7
    assert element_order(g, tg_7_3.z) == 3
    # z x z^-1 = x^a and z y z^-1 = y^b
    a, b = tg_7_3.spec.a, tg_7_3.spec.b
    x_pow_a = tg_7_3.x
    for _ in range(a - 1):
        x_pow_a = g.m(x_pow_a, tg_7_3.x)
    assert int(reference_conj(g)[tg_7_3.z, tg_7_3.x]) == x_pow_a
    y_pow_b = tg_7_3.y
    for _ in range(b - 1):
        y_pow_b = g.m(y_pow_b, tg_7_3.y)
    assert int(reference_conj(g)[tg_7_3.z, tg_7_3.y]) == y_pow_b


def test_normal_p_subgroup(tg_7_3):
    g = tg_7_3.group
    p = tg_7_3.spec.p
    members = [x for x in range(g.order) if element_order(g, x) in (1, p)]
    assert len(members) == p * p
    sub = Subgroup(g, members)   # closure verified on construction
    assert normalizer(g, sub).order == g.order
    # elementary abelian: every nontrivial element has order p
    assert closure(g, [tg_7_3.x, tg_7_3.y]) == sub.members


def test_build_invalid_spec_rejected():
    with pytest.raises(InvalidSpec):
        build(ThevenazSpec(7, 3, 2, 2))


# ---------------------------------------------------------------------------
# Canonical class transversal


def test_canonical_reps_7_3(tg_7_3):
    reps = canonical_class_table(tg_7_3).reps
    assert [s.order for s in reps] == [1, 7, 7, 7, 7, 49, 3, 21, 21, 147]


def test_canonical_reps_11_5(tg_11_5_a):
    reps = canonical_class_table(tg_11_5_a).reps
    assert [s.order for s in reps] == \
        [1, 11, 11, 11, 11, 121, 5, 55, 55, 605]


def test_class_count_matches_census(tg_7_3, tg_11_5_a):
    for tg in (tg_7_3, tg_11_5_a):
        p, q = tg.spec.p, tg.spec.q
        assert len(canonical_class_table(tg).reps) == 8 + (p - 1) // q


def test_diagonal_transversal(tg_11_5_a):
    # cosets of <3> = {1, 3, 9, 5, 4} in (Z/11)^*: least reps 1 and 2
    assert tg_11_5_a.diagonal_transversal() == [1, 2]


def test_normalizer_facts(tg_7_3):
    g = tg_7_3.group
    named = tg_7_3._named_subgroups()
    assert normalizer(g, named["Q"]).members == named["Q"].members
    for j in tg_7_3.diagonal_transversal():
        assert normalizer(g, tg_7_3.diagonal_subgroup(j)).members == \
            named["P"].members
    assert normalizer(g, named["PaQ"]).members == named["PaQ"].members
    assert normalizer(g, named["PbQ"]).members == named["PbQ"].members


def test_marks_independent_of_pair(tg_11_5_a, tg_11_5_b):
    t1 = canonical_class_table(tg_11_5_a)
    t2 = canonical_class_table(tg_11_5_b)
    assert t1.marks == t2.marks
    # top row lists the indices [G : L] in canonical class order
    assert t1.marks[0] == [605, 55, 55, 55, 55, 5, 121, 11, 11, 1]


# ---------------------------------------------------------------------------
# Family classification


def test_family_isomorphic_reflexive():
    spec = ThevenazSpec(11, 5, 3, 9)
    assert family_isomorphic(spec, spec)


def test_family_isomorphic_examples():
    # n = 2 sends {3, 9} to {9, 81 mod 11} = {9, 4}
    assert family_isomorphic(ThevenazSpec(11, 5, 3, 9),
                             ThevenazSpec(11, 5, 9, 4))
    # the counterexample pair: no power works
    assert not family_isomorphic(ThevenazSpec(11, 5, 3, 9),
                                 ThevenazSpec(11, 5, 3, 4))


def test_family_isomorphic_requires_same_parameters():
    with pytest.raises(InvalidSpec):
        family_isomorphic(ThevenazSpec(7, 3, 2, 4), ThevenazSpec(11, 5, 3, 9))


def test_valid_pairs():
    assert valid_pairs(7, 3) == [(2, 4)]
    assert valid_pairs(11, 5) == [(3, 4), (3, 5), (3, 9), (4, 5), (4, 9),
                                  (5, 9)]


def test_class_count_values():
    assert class_count(7, 3) == 1
    assert class_count(11, 5) == 2
    assert class_count(29, 7) == 3
    with pytest.raises(InvalidSpec):
        class_count(10, 3)


def test_partition_11_5():
    partition = isomorphism_class_partition(11, 5)
    assert sorted(len(c) for c in partition) == [2, 4]
    assert len(partition) == class_count(11, 5)


def test_partition_29_7():
    partition = isomorphism_class_partition(29, 7)
    assert len(partition) == class_count(29, 7)
    assert sum(len(c) for c in partition) == len(valid_pairs(29, 7))


def test_family_isomorphic_agrees_with_group_isomorphism():
    # cross-check the number-theoretic test against the backtracking
    # oracle on every pair of family members at (p, q) = (11, 5); the
    # (7, 3) family has a single member, covered by reflexivity above
    pairs = valid_pairs(11, 5)
    groups = {pr: build(ThevenazSpec(11, 5, *pr)) for pr in pairs}
    for pr1, pr2 in itertools.combinations_with_replacement(pairs, 2):
        expect = family_isomorphic(ThevenazSpec(11, 5, *pr1),
                                   ThevenazSpec(11, 5, *pr2))
        got = are_isomorphic(groups[pr1].group, groups[pr2].group)
        assert (got is not None) == expect
