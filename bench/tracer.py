"""Traced in-process run of one CLI invocation, measured from outside.

    python3 bench/tracer.py WORKLOAD SPANS_FILE -- CLI_ARG...

Imports `fibered_burnside.cli` under a span, wraps the public functions of
the six modules (no source file changes), rebinds every name other modules
imported them under, runs `cli.main` with stdout streamed into a sha256,
and prints one JSON line: exit code, digest, traced wall time, per-layer
metrics and the trace sanity verdict. Spans stay in memory and are written
to SPANS_FILE once, at the end.

Calls of a "span" function are recorded one by one (name, start, end,
parent). Calls of a hot "leaf" function are only aggregated into a count,
a total and a self time. Every wrapped call is a frame on one stack, so a
frame's self time is its duration minus that of the wrapped calls inside it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

LIBRARY = ("group_core", "abelian_fiber", "monomial", "species", "thevenaz")


class Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "count", "seen")

    def __init__(self):
        self.calls = 0
        self.total = 0.0        # union of this key's intervals
        self.self_time = 0.0
        self.depth = 0
        self.count = 0          # key-specific: cache misses/hits, subgroups
        self.seen = set()       # distinct closure results


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []       # [key, start, end, parent, self]
        self.stack: list[list] = [[0.0, -1]]   # [child time, span index]

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def wrap(self, fn, key: str, span: bool, before=None, after=None):
        stat = self.stat(key)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(stat, args, kwargs) if before else None
            if span:
                index = len(spans)
                record = [key, 0.0, 0.0, stack[-1][1], 0.0]
                spans.append(record)
            else:
                index = stack[-1][1]
            frame = [0.0, index]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                stack[-1][0] += duration
                stat.calls += 1
                stat.self_time += duration - frame[0]
                if not stat.depth:
                    stat.total += duration
                if span:
                    record[1], record[2] = start, end
                    record[4] = duration - frame[0]
            if after:
                after(stat, args, result, token)
            return result

        return traced

    def span(self, key: str, fn, *args):
        return self.wrap(fn, key, True)(*args)


# -- cache probes: they read the caches the program keeps today ------------


def _class_table_miss(stat, args, kwargs):
    group = args[0]
    reps = args[1] if len(args) > 1 else kwargs.get("reps")
    key = ("class_table",
           None if reps is None else tuple(s.members for s in reps))
    if key not in getattr(group, "_cache", {}):
        stat.count += 1


def _hom_set_miss(stat, args, kwargs):
    domain, fiber = args[0], args[1]
    if ("hom", fiber.factors) not in getattr(domain, "_hom_cache", {}):
        stat.count += 1


def _product_hit(stat, args, kwargs):
    basis, i, j = args[0], args[1], args[2]
    if (i, j) in getattr(basis, "_product_cache", {}):
        stat.count += 1


def _subgroups_cold(stat, args, kwargs):
    return "subgroups" not in getattr(args[0], "_cache", {})


def _count_subgroups(stat, args, result, cold):
    if cold:
        stat.count += len(result)


def _distinct_closure(stat, args, result, token):
    stat.seen.add(result)


def _basis_size(stat, args, result, token):
    stat.count = max(stat.count, args[0].size)


# (module, attribute path, key, span?, before, after)
WRAPPED = [
    ("group_core", "FiniteGroup.__init__", "group_core.build", True, None,
     None),
    ("group_core", "group_from_cayley", "group_core.build", True, None, None),
    ("group_core", "group_from_json", "group_core.build", True, None, None),
    ("group_core", "cyclic_group", "group_core.build", True, None, None),
    ("group_core", "abelian_group", "group_core.build", True, None, None),
    ("group_core", "symmetric_group", "group_core.build", True, None, None),
    ("group_core", "dihedral_group", "group_core.build", True, None, None),
    ("group_core", "semidirect_product", "group_core.build", True, None, None),
    ("group_core", "enumerate_subgroups", "group_core.enumerate_subgroups",
     True, _subgroups_cold, _count_subgroups),
    ("group_core", "closure", "group_core.closure", False, None,
     _distinct_closure),
    ("group_core", "conjugacy_classes_of_subgroups", "group_core.class_table",
     True, _class_table_miss, None),
    ("group_core", "are_isomorphic", "group_core.are_isomorphic", True,
     None, None),
    ("abelian_fiber", "hom_set", "abelian_fiber.hom_set", False,
     _hom_set_miss, None),
    ("monomial", "MonomialBasis.__init__", "monomial.basis", True, None,
     _basis_size),
    ("monomial", "MonomialBasis.product", "monomial.product", False,
     _product_hit, None),
    ("monomial", "gamma_coefficient", "monomial.gamma", False, None, None),
    ("monomial", "gamma_table", "monomial.gamma_table", True, None, None),
    ("species", "search_species", "species.search", True, None, None),
    # a generator function: only its call count means anything
    ("species", "char_group_isomorphisms", "species.char_isos", False,
     None, None),
    ("species", "verify_species", "species.verify", True, None, None),
    ("species", "thevenaz_witness", "species.witness", True, None, None),
    ("thevenaz", "build", "thevenaz.build", True, None, None),
    ("thevenaz", "canonical_class_reps", "thevenaz.class_table", True,
     None, None),
    ("thevenaz", "canonical_class_table", "thevenaz.class_table", True,
     None, None),
    ("thevenaz", "isomorphism_class_partition", "thevenaz.partition", True,
     None, None),
    ("cli", "cmd_marks", "cli.command", True, None, None),
    ("cli", "cmd_gamma", "cli.command", True, None, None),
    ("cli", "cmd_verify", "cli.command", True, None, None),
    ("cli", "cmd_reproduce_paper", "cli.command", True, None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap each function in WRAPPED and rebind every module-level name
    bound to it, so `from .x import f` call sites are traced too. A name
    the program no longer has is skipped; its metrics then read 0."""
    package = [m for name, m in sys.modules.items()
               if name == "fibered_burnside"
               or name.startswith("fibered_burnside.")]
    for module, path, key, span, before, after in WRAPPED:
        owner = sys.modules[f"fibered_burnside.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner else None
        if original is None:
            continue
        wrapper = tracer.wrap(original, key, span, before, after)
        setattr(owner, attr, wrapper)
        if outer:
            continue
        for mod in package:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)


class HashingWriter:
    """Text sink for sys.stdout that keeps only a sha256 and a byte count."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def layer_metrics(tracer: Tracer, wall: float, report_bytes: int) -> dict:
    s = tracer.stats

    def total(key):
        return s[key].total if key in s else 0.0

    def calls(key):
        return s[key].calls if key in s else 0

    def count(key):
        return s[key].count if key in s else 0

    def ratio(num, den):
        return num / den if den else 0.0

    closure = tracer.stat("group_core.closure")
    library_self = sum(st.self_time for key, st in s.items()
                       if key.split(".")[0] in LIBRARY)
    return {
        "group_core.are_isomorphic_s": total("group_core.are_isomorphic"),
        "group_core.enumerate_subgroups_s":
            total("group_core.enumerate_subgroups"),
        "group_core.subgroups": count("group_core.enumerate_subgroups"),
        "group_core.closure_calls": closure.calls,
        "group_core.closure_s": closure.total,
        "group_core.closure_distinct_ratio":
            ratio(len(closure.seen), closure.calls),
        "group_core.build_s": total("group_core.build"),
        "group_core.class_table_s": total("group_core.class_table"),
        "group_core.class_table_calls": calls("group_core.class_table"),
        "group_core.class_table_builds": count("group_core.class_table"),
        "abelian_fiber.hom_set_s": total("abelian_fiber.hom_set"),
        "abelian_fiber.hom_set_calls": calls("abelian_fiber.hom_set"),
        "abelian_fiber.hom_set_builds": count("abelian_fiber.hom_set"),
        "monomial.basis_s": total("monomial.basis"),
        "monomial.basis_builds": calls("monomial.basis"),
        "monomial.basis_size": count("monomial.basis"),
        "monomial.gamma_calls": calls("monomial.gamma"),
        "monomial.gamma_s": total("monomial.gamma"),
        "monomial.gamma_table_s": total("monomial.gamma_table"),
        "monomial.product_calls": calls("monomial.product"),
        "monomial.product_s": total("monomial.product"),
        "monomial.product_hit_ratio":
            ratio(count("monomial.product"), calls("monomial.product")),
        "species.search_s": total("species.search"),
        "species.char_isos_calls": calls("species.char_isos"),
        "species.verify_s": total("species.verify"),
        "species.witness_s": total("species.witness"),
        "thevenaz.build_s": total("thevenaz.build"),
        "thevenaz.class_table_s": total("thevenaz.class_table"),
        "thevenaz.partition_s": total("thevenaz.partition"),
        "cli.import_s": total("cli.import"),
        "cli.command_s": total("cli.command"),
        "cli.emit_s": total("cli.main") - total("cli.command"),
        "cli.report_bytes": report_bytes,
        "trace.coverage": ratio(library_self, wall),
    }


def sanity(workload, tracer: Tracer, wall: float) -> tuple[bool, str]:
    """Does the traced split match the one measured at the seed commit?"""
    s = tracer.stats
    if workload.largest_self:
        top = max(s, key=lambda k: s[k].self_time)
        return (top == workload.largest_self,
                f"largest self time: {top} ({s[top].self_time:.3f} s)")
    keys, floor = workload.min_share
    share = sum(s[k].total for k in keys if k in s) / wall
    return share >= floor, f"{' + '.join(keys)} = {share:.3f} of wall"


def main(argv: list[str]) -> int:
    name, spans_file, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py WORKLOAD SPANS_FILE -- CLI_ARG...")
    workload = WORKLOADS[name]
    tracer = Tracer()
    start = time.perf_counter()
    cli = tracer.span("cli.import", importlib.import_module,
                      "fibered_burnside.cli")
    install(tracer)
    sink, real_stdout = HashingWriter(), sys.stdout
    sys.stdout = sink
    try:
        code = tracer.span("cli.main", cli.main, cli_argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout = real_stdout
    wall = time.perf_counter() - start
    ok, detail = sanity(workload, tracer, wall)
    self_times = sorted(((k, st.self_time) for k, st in tracer.stats.items()),
                        key=lambda kv: -kv[1])
    Path(spans_file).write_text(json.dumps({
        "workload": name,
        "fields": ["name", "start", "end", "parent", "self"],
        "spans": tracer.spans,
        "aggregates": {k: {"calls": st.calls, "total": st.total,
                           "self": st.self_time}
                       for k, st in tracer.stats.items()},
    }), encoding="utf-8")
    print(json.dumps({
        "exit": code, "sha256": sink.digest.hexdigest(), "wall_s": wall,
        "metrics": layer_metrics(tracer, wall, sink.bytes),
        "sanity": {"ok": ok, "detail": detail},
        "top_self_s": dict(self_times[:8]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
