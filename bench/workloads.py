"""The benchmark's workloads: CLI arguments, pinned outputs and inputs.

Each workload is one `fibered-burnside` invocation. The three spec-built
workloads are exact algebra on fixed specs and ignore the seed; the seed
only relabels the elements of A6 for `lattice-a6`.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 0

# Relative to the checkout root, which is the working directory of every
# CLI run; the path is echoed in the report, so it is part of the digest.
A6_FILE = "bench/work/a6.json"
A6_SPEC = "cayley:" + A6_FILE

# Label-free facts about A6's subgroup lattice, checked on every seed.
A6_CLASSES = 22
A6_SUBGROUPS = 501
A6_ORDER_CLASS_LENGTHS = Counter({
    (1, 1): 1, (2, 45): 1, (3, 20): 2, (4, 45): 1, (4, 15): 2, (5, 36): 1,
    (6, 60): 2, (8, 45): 1, (9, 10): 1, (10, 36): 1, (12, 15): 2,
    (18, 10): 1, (24, 15): 2, (36, 10): 1, (60, 6): 2, (360, 1): 1,
})


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]          # CLI arguments after the program name
    setup_specs: tuple[str, ...]   # group specs built by one set-up sample
    exit_code: int
    sha256: str        # stdout digest; for lattice-a6, at DEFAULT_SEED
    seeded: bool = False
    # Trace sanity rule at the seed commit: either the span key with the
    # largest self time, or span keys whose summed time must reach a share
    # of the traced wall time.
    largest_self: Optional[str] = None
    min_share: Optional[tuple[tuple[str, ...], float]] = None


E16 = "abelian:2,2,2,2"

WORKLOADS = {w.name: w for w in (
    Workload(
        "reproduce-605", ("reproduce",),
        ("thevenaz:11,5,3,9", "thevenaz:11,5,3,4"), 0,
        "88905237c1fcc6fe424928435a6a8c2a2615374386dbe0cea6339a14e923c646",
        largest_self="group_core.are_isomorphic"),
    Workload(
        "search-e16", ("verify", E16, E16, "--fiber", "2", "--auto"),
        (E16, E16), 0,
        "703d9dd03f5f9cc2621b4d91acabd337c3f87ff6f94d56be4a1b1b1c73727a8b",
        min_share=(("monomial.product", "species.search"), 0.60)),
    Workload(
        "gamma-e16", ("gamma", E16, "--fiber", "2,2"), (E16,), 0,
        "a1613976bcd30c39e1ae31fe9b906424c869a0725662ff6c4b278dd7d7874373",
        min_share=(("monomial.gamma_table",), 0.50)),
    Workload(
        "lattice-a6", ("marks", A6_SPEC), (A6_SPEC,), 0,
        "3bf3de6f57607f3ec6a7ff6609b4583630060f2ebf991cab2d262112a9b9bc5f",
        seeded=True,
        min_share=(("group_core.enumerate_subgroups",), 0.70)),
)}


def a6_table(seed: int) -> dict:
    """Cayley JSON of A6 = <(0 1 2), (1 2 3 4 5)>, elements relabelled by a
    seeded permutation that keeps the identity at 0.

    Permutations compose as in `symmetric_group`: (p*q)[k] = p[q[k]]."""
    gens = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]
    ident = tuple(range(6))
    seen = {ident}
    frontier = [ident]
    while frontier:
        frontier = [q for p in frontier for g in gens
                    for q in [tuple(p[g[k]] for k in range(6))]
                    if q not in seen and not seen.add(q)]
    perms = sorted(seen)
    labels = list(range(1, len(perms)))
    random.Random(seed).shuffle(labels)
    label = dict(zip(perms, [0] + labels))
    n = len(perms)
    mul = [[0] * n for _ in range(n)]
    for p in perms:
        row = mul[label[p]]
        for q in perms:
            row[label[q]] = label[tuple(p[k] for k in q)]
    return {"order": n, "mul": mul}


def prepare(workload: Workload, seed: int, root: Path) -> None:
    """Write the workload's input files under the checkout root."""
    if workload.name == "lattice-a6":
        path = root / A6_FILE
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(a6_table(seed)), encoding="utf-8")


def pinned_digest(workload: Workload, seed: int) -> Optional[str]:
    """The stdout digest this seed must produce, when one is pinned."""
    if workload.seeded and seed != DEFAULT_SEED:
        return None
    return workload.sha256


def check_invariants(workload: Workload, stdout: bytes) -> Optional[str]:
    """Label-free checks of a report; returns a reason when one fails."""
    if workload.name != "lattice-a6":
        return None
    result = json.loads(stdout)["result"]
    sizes, orders = result["class_sizes"], result["orders"]
    if len(sizes) != A6_CLASSES:
        return f"{len(sizes)} subgroup classes, expected {A6_CLASSES}"
    if sum(sizes) != A6_SUBGROUPS:
        return f"{sum(sizes)} subgroups, expected {A6_SUBGROUPS}"
    if Counter(zip(orders, sizes)) != A6_ORDER_CLASS_LENGTHS:
        return "(order, class length) multiset differs from A6's"
    return None
