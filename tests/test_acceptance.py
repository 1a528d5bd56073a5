"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line and asserting a pinned wall-clock budget. The line goes
through pytest's terminal reporter with output capture suspended, so it
shows under the default capture.

Budgets are generous upper bounds chosen for a single modern core; the
checks themselves are exact, so only the timing is environment-sensitive.
"""

import itertools
import time

import pytest

from fibered_burnside import cli, thevenaz
from fibered_burnside.abelian_fiber import AbelianFiber
from fibered_burnside.group_core import (abelian_group,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group, dihedral_group,
                                         normalizer, symmetric_group)
from fibered_burnside.monomial import monomial_basis
from oracles import (all_monomial_pairs, basis_element, gamma_block,
                     gamma_table, ghost_multiply, hom_set, identity_element,
                     integer_matrix_determinant, mark_morphism, multiply)

BUDGETS = {1: 10.0, 2: 60.0, 3: 10.0, 4: 300.0, 5: 60.0, 6: 60.0}


@pytest.fixture()
def report_line(request, capsys):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(text: str) -> None:
        # capture is suspended, or the line would go to the captured output
        with capsys.disabled():
            if reporter is not None:
                reporter.ensure_newline()
                reporter.write_line(text)
            else:   # plain python -m pytest -p no:terminal, or direct call
                print(text)

    return emit


def _finish(report_line, criterion: int, label: str, start: float,
            ok: bool) -> None:
    elapsed = time.monotonic() - start
    verdict = "PASS" if ok and elapsed < BUDGETS[criterion] else "FAIL"
    report_line(f"ACCEPTANCE {criterion} ({label}): {verdict} "
                f"[{elapsed:.1f}s / {BUDGETS[criterion]:.0f}s]")
    assert ok
    assert elapsed < BUDGETS[criterion]


def _small_suite():
    return [cyclic_group(2), cyclic_group(4), abelian_group((2, 2)),
            cyclic_group(6), symmetric_group(3), dihedral_group(4)]


def _fibers():
    return [AbelianFiber((1,)), AbelianFiber((2,)), AbelianFiber((3,)),
            AbelianFiber((6,))]


def test_criterion_1_mark_morphism_ring_hom(report_line):
    start = time.monotonic()
    ok = True
    for g in _small_suite():
        for fiber in _fibers():
            basis = monomial_basis(g, fiber)
            images = [mark_morphism(basis, basis_element(basis, i))
                      for i in range(basis.size)]
            for i in range(basis.size):
                for j in range(basis.size):
                    prod = multiply(basis_element(basis, i),
                                    basis_element(basis, j))
                    if mark_morphism(basis, prod) != \
                            ghost_multiply(images[i], images[j]):
                        ok = False
            if integer_matrix_determinant(gamma_table(basis)) == 0:
                ok = False
    _finish(report_line, 1,
            "mark morphism is a ring hom, gamma nonsingular", start, ok)


def test_criterion_2_conjugacy_detection(report_line, pair_gamma):
    start = time.monotonic()
    groups = [cyclic_group(n) for n in (1, 2, 3, 4, 6, 8, 12)]
    groups += [abelian_group((2, 2)), abelian_group((2, 4)),
               dihedral_group(3), dihedral_group(4), dihedral_group(6),
               symmetric_group(3), symmetric_group(4)]
    ok = True
    for g in groups:
        for fiber in (AbelianFiber((2,)), AbelianFiber((6,))):
            pairs = all_monomial_pairs(g, fiber)
            orbits = [{p.conjugate(s).key() for s in range(g.order)}
                      for p in pairs]
            gamma = pair_gamma(g, fiber)
            both = (gamma != 0) & (gamma.T != 0)
            for i in range(len(pairs)):
                for j, pl in enumerate(pairs):
                    if both[i, j] != (pl.key() in orbits[i]):
                        ok = False
    _finish(report_line, 2,
            "gamma nonzero both ways detects conjugacy", start, ok)


def test_criterion_3_coprime_degeneration(report_line):
    start = time.monotonic()
    ok = True
    cases = [(symmetric_group(3), AbelianFiber((5,))),
             (dihedral_group(4), AbelianFiber((5,))),
             (dihedral_group(4), AbelianFiber((3,))),
             (cyclic_group(6), AbelianFiber((25,)))]
    for g, fiber in cases:
        basis = monomial_basis(g, fiber)
        table = conjugacy_classes_of_subgroups(g)
        if basis.size != len(table.reps):
            ok = False
        if gamma_table(basis).tolist() != table.marks:
            ok = False
    _finish(report_line, 3,
            "coprime fiber degenerates to the table of marks", start, ok)


def test_criterion_4_reproduce_counterexample(report_line):
    start = time.monotonic()
    report, code = cli.cmd_reproduce_paper()
    result = report["result"]
    ok = (code == 0
          and result["nonisomorphic"] is True
          and result["marks_equal"] is True
          and result["marks"][0] == [605, 55, 55, 55, 55, 5, 121, 11, 11, 1]
          and result["basis_sizes"] == [26, 26]
          and result["witness_valid"] is True
          and len(result["basis_bijection"]) == 26
          and result["classification"]["class_count"] == 2
          and sorted(result["classification"]["class_sizes"]) == [2, 4])
    _finish(report_line, 4,
            "headline counterexample reproduced end to end", start, ok)


def test_criterion_5_proof_case_oracles(report_line):
    start = time.monotonic()
    fiber = AbelianFiber((5,))
    tg = thevenaz.build(thevenaz.ThevenazSpec(11, 5, 3, 9))
    g = tg.group
    reps = thevenaz.canonical_class_table(tg).reps
    ok = True

    def trivial_index(sub):
        return next(i for i, chi in enumerate(hom_set(sub, fiber))
                    if chi.is_trivial())

    # (i) normal p-subgroups K <= L with trivial characters: gamma = [G : L]
    p_subs = [reps[i] for i in (0, 1, 2, 5)]
    for s in p_subs:
        if normalizer(g, s).order != g.order:
            ok = False
    for k_sub in p_subs:
        for l_sub in p_subs:
            if not set(k_sub.members) <= set(l_sub.members):
                continue
            block = gamma_block(k_sub, l_sub, fiber)
            got = block[trivial_index(k_sub), trivial_index(l_sub)]
            if got != g.order // l_sub.order:
                ok = False

    # (ii) diagonal class reps against the full group: gamma = 1 for every
    # character of G
    full = reps[9]
    for i in (3, 4):
        block = gamma_block(reps[i], full, fiber)
        if (block[trivial_index(reps[i])] != 1).any():
            ok = False

    # (iii) subgroups of order divisible by q: gamma is 1 or 0 according to
    # whether the characters agree on the order-q generator
    q_subs = [reps[i] for i in (6, 7, 8, 9)]
    for k_sub in q_subs:
        if tg.z not in k_sub.members:
            ok = False
            continue
        for l_sub in q_subs:
            if not set(k_sub.members) <= set(l_sub.members):
                continue
            block = gamma_block(k_sub, l_sub, fiber)
            for a, phi in enumerate(hom_set(k_sub, fiber)):
                for b, psi in enumerate(hom_set(l_sub, fiber)):
                    want = 1 if phi.value_index(tg.z) == \
                        psi.value_index(tg.z) else 0
                    if block[a, b] != want:
                        ok = False
    _finish(report_line, 5,
            "closed-form gamma values in the order-605 group", start, ok)


def test_criterion_6_ring_axioms(report_line):
    start = time.monotonic()
    ok = True
    cases = [(symmetric_group(3), AbelianFiber((6,))),
             (dihedral_group(4), AbelianFiber((2,))),
             (abelian_group((2, 2)), AbelianFiber((2,)))]
    for g, fiber in cases:
        basis = monomial_basis(g, fiber)
        elems = [basis_element(basis, i) for i in range(basis.size)]
        ident = identity_element(basis)
        for x in elems:
            if multiply(ident, x) != x or multiply(x, ident) != x:
                ok = False
        for x, y in itertools.combinations(elems, 2):
            if multiply(x, y) != multiply(y, x):
                ok = False
        for x, y, z in itertools.product(elems, repeat=3):
            if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
                ok = False
    _finish(report_line, 6, "commutative associative unital ring", start, ok)
