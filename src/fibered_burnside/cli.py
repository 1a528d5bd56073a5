"""Batch command-line interface.

Subcommands build groups from compact specs, emit marks/gamma tables as
canonical JSON (or CSV for matrices), verify or search species witnesses,
and reproduce the order-p^2*q counterexample end to end. Output is
byte-identical across runs for identical inputs; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from typing import Optional, Sequence

from . import group_core, species, thevenaz
from .abelian_fiber import AbelianFiber
from .errors import AlgebraError, FiberHasPTorsion, SearchBudgetExceeded
from .group_core import conjugacy_classes_of_subgroups
from .monomial import gamma_table, monomial_basis
from .species import (EXHAUSTION_CAVEAT, SpeciesWitness, search_species,
                      thevenaz_witness, verify_species)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


class SpecError(ValueError):
    pass


def parse_group_spec(text: str):
    """Parse ``kind:args``; returns a FiniteGroup or a ThevenazGroup."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "cyclic":
            return group_core.cyclic_group(int(rest))
        if kind == "abelian":
            return group_core.abelian_group([int(v) for v in rest.split(",")])
        if kind == "dihedral":
            return group_core.dihedral_group(int(rest))
        if kind == "symmetric":
            return group_core.symmetric_group(int(rest))
        if kind == "thevenaz":
            p, q, a, b = (int(v) for v in rest.split(","))
            return thevenaz.build(thevenaz.ThevenazSpec(p, q, a, b))
        if kind == "cayley":
            return group_core.group_from_json(_load_json(rest), name=rest)
    except SpecError:
        raise
    except (ValueError, OverflowError, OSError, AlgebraError) as exc:
        raise SpecError(f"bad group spec {text!r}: {exc}") from exc
    raise SpecError(f"unknown group kind {kind!r}")


def _load_json(path: str):
    """The JSON value in the file at ``path``; a file that cannot be read
    or is not JSON in UTF-8 (nesting too deep included) is a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"bad JSON file {path!r}: {exc}") from exc


def _class_table(built):
    """The class table of a parsed group spec, whose transversal indexes
    classes in every report and witness file: the canonical order for a
    ``thevenaz:`` spec, the default (order, members) order otherwise."""
    if isinstance(built, thevenaz.ThevenazGroup):
        return thevenaz.canonical_class_table(built)
    return conjugacy_classes_of_subgroups(built)


def _parse_fiber(text: str) -> AbelianFiber:
    try:
        return AbelianFiber.parse(text)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    except OverflowError as exc:
        raise SpecError(f"bad fiber spec {text!r}: {exc}") from exc


def _input_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _report(command: str, inputs: dict, result: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "input_hash": _input_hash(inputs),
        "result": result,
    }


# ---------------------------------------------------------------------------
# Commands (pure: return payload + exit code)


def cmd_marks(group_spec: str) -> tuple[dict, int]:
    table = _class_table(parse_group_spec(group_spec))
    result = {"group": group_spec, "order": table.group.order}
    result.update(table.to_json())
    return _report("marks", {"group": group_spec}, result), EXIT_OK


def cmd_gamma(group_spec: str, fiber_spec: str) -> tuple[dict, int]:
    table = _class_table(parse_group_spec(group_spec))
    fiber = _parse_fiber(fiber_spec)
    basis = monomial_basis(table.group, fiber, table)
    result = {
        "group": group_spec,
        "order": table.group.order,
        "basis": basis.to_json(),
        "gamma": gamma_table(basis),
    }
    return _report("gamma", {"group": group_spec, "fiber": fiber_spec},
                   result), EXIT_OK


def cmd_verify(group_spec_g: str, group_spec_h: str, fiber_spec: str,
               *, witness_file: Optional[str] = None, auto: bool = False,
               use_thevenaz_witness: bool = False,
               budget: Optional[int] = None) -> tuple[dict, int]:
    if budget is not None and budget < 0:
        raise SpecError(f"--budget must be non-negative, got {budget}")
    built_g = parse_group_spec(group_spec_g)
    built_h = parse_group_spec(group_spec_h)
    fiber = _parse_fiber(fiber_spec)
    inputs = {"g": group_spec_g, "h": group_spec_h, "fiber": fiber_spec,
              "mode": ("thevenaz-witness" if use_thevenaz_witness
                       else "auto" if auto else "witness-file")}
    if use_thevenaz_witness:
        if not (isinstance(built_g, thevenaz.ThevenazGroup)
                and isinstance(built_h, thevenaz.ThevenazGroup)):
            raise SpecError("--thevenaz-witness needs two thevenaz group specs")
        witness = thevenaz_witness(built_g, built_h, fiber)
    elif auto:
        try:
            witness = search_species(_class_table(built_g),
                                     _class_table(built_h), fiber,
                                     budget=budget)
        except SearchBudgetExceeded as exc:
            result = {"status": "budget_exceeded", "detail": str(exc)}
            return _report("verify", inputs, result), EXIT_NEGATIVE
        if witness is None:
            result = {"status": "exhausted", "valid": False,
                      "caveat": EXHAUSTION_CAVEAT}
            return _report("verify", inputs, result), EXIT_NEGATIVE
    else:
        if witness_file is None:
            raise SpecError("one of --witness, --auto, --thevenaz-witness "
                            "is required")
        witness = SpeciesWitness.from_json(_load_json(witness_file),
                                           _class_table(built_g),
                                           _class_table(built_h))
    verdict = verify_species(witness, fiber)
    result = {"status": "valid" if verdict.valid else "invalid",
              "witness": witness.to_json()}
    result.update(verdict.to_json())
    code = EXIT_OK if verdict.valid else EXIT_NEGATIVE
    return _report("verify", inputs, result), code


def cmd_reproduce_paper(p: int = 11, q: int = 5,
                        a: Optional[int] = None, b: Optional[int] = None,
                        c: Optional[int] = None, d: Optional[int] = None,
                        fiber_spec: str = "5") -> tuple[dict, int]:
    """Certify the headline counterexample end to end.

    Builds two non-isomorphic family members, checks equal marks tables,
    equal monomial bases, validates the explicit species witness including
    the structure-constant re-check, and classifies the whole family."""
    fiber = _parse_fiber(fiber_spec)
    thevenaz.class_count(p, q)   # validates p, q
    if not fiber.has_trivial_torsion(p):
        raise FiberHasPTorsion(
            f"fiber {fiber_spec!r} has nontrivial {p}-torsion; the witness "
            "construction requires trivial p-torsion")
    partition = thevenaz.isomorphism_class_partition(p, q)
    result: dict = {
        "p": p, "q": q, "fiber": list(fiber.factors),
        "classification": {
            "class_count": len(partition),
            "class_sizes": [len(cls) for cls in partition],
            "classes": [[list(pair) for pair in cls] for cls in partition],
        },
    }
    if len(partition) != thevenaz.class_count(p, q):
        result["failed_stage"] = "classification"
        return _report("reproduce", {"p": p, "q": q, "fiber": fiber_spec},
                       result), EXIT_NEGATIVE
    if (p, q) == (11, 5):
        a = 3 if a is None else a
        b = 9 if b is None else b
        c = 3 if c is None else c
        d = 4 if d is None else d
    elif a is None or b is None or c is None or d is None:
        if len(partition) < 2:
            result["counterexample"] = None
            result["note"] = ("only one isomorphism class for these "
                              "parameters; no counterexample pair exists")
            return _report("reproduce", {"p": p, "q": q, "fiber": fiber_spec},
                           result), EXIT_OK
        a, b = partition[0][0]
        c, d = partition[1][0]
    inputs = {"p": p, "q": q, "a": a, "b": b, "c": c, "d": d,
              "fiber": fiber_spec}
    spec1 = thevenaz.ThevenazSpec(p, q, a, b)
    spec2 = thevenaz.ThevenazSpec(p, q, c, d)
    tg1, tg2 = thevenaz.build(spec1), thevenaz.build(spec2)
    result["pair"] = {"g": [a, b], "h": [c, d]}

    iso = group_core.are_isomorphic(tg1.group, tg2.group)
    result["nonisomorphic"] = iso is None
    if iso is not None:
        result["failed_stage"] = "nonisomorphic"
        return _report("reproduce", inputs, result), EXIT_NEGATIVE

    ct1 = thevenaz.canonical_class_table(tg1)
    ct2 = thevenaz.canonical_class_table(tg2)
    result["marks_equal"] = ct1.marks == ct2.marks
    result["marks"] = [list(row) for row in ct1.marks]
    if not result["marks_equal"]:
        result["failed_stage"] = "marks_equal"
        return _report("reproduce", inputs, result), EXIT_NEGATIVE

    basis1 = monomial_basis(tg1.group, fiber, ct1)
    basis2 = monomial_basis(tg2.group, fiber, ct2)
    result["basis_sizes"] = [basis1.size, basis2.size]
    if basis1.size != basis2.size:
        result["failed_stage"] = "basis_sizes"
        return _report("reproduce", inputs, result), EXIT_NEGATIVE

    witness = thevenaz_witness(tg1, tg2, fiber)
    verdict = verify_species(witness, fiber)
    result["witness_valid"] = verdict.valid
    result["witness"] = witness.to_json()
    if not verdict.valid:
        result["failed_stage"] = "witness"
        result["counterexample_detail"] = verdict.counterexample
        return _report("reproduce", inputs, result), EXIT_NEGATIVE
    result["basis_bijection"] = [list(pair)
                                 for pair in verdict.basis_bijection]
    return _report("reproduce", inputs, result), EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


# Decimal text of the small non-negative ints that fill gamma and marks rows
_SMALL_INTS = tuple(str(v) for v in range(1024))


def _join_ints(row: Sequence[int], sep: str) -> str:
    """``sep.join`` of the decimal text of a row of ints."""
    small, n = _SMALL_INTS, len(_SMALL_INTS)
    return sep.join([small[v] if 0 <= v < n else str(v) for v in row])


def _write_json(obj, write, level: int = 0) -> None:
    """Send ``obj`` through ``write`` piece by piece, as the text of
    ``json.dumps(obj, sort_keys=True, indent=2)`` nested ``level`` deep.

    A list of plain ints (never bools) goes out in one write: these are the
    rows of the gamma table, the marks and the subgroup members. Dict keys
    must be strings, as in every report; others raise TypeError."""
    if not isinstance(obj, (dict, list, tuple)):
        write(json.dumps(obj))
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        write("{}" if is_dict else "[]")
        return
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + ("}" if is_dict else "]")
    if is_dict:
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError("report keys must be str, not "
                                f"{type(key).__name__}")
            write(sep + json.dumps(key) + ": ")
            _write_json(value, write, level + 1)
            sep = "," + inner
    elif set(map(type, obj)) == {int}:
        write("[" + inner + _join_ints(obj, "," + inner) + close)
        return
    else:
        sep = "[" + inner
        for item in obj:
            write(sep)
            _write_json(item, write, level + 1)
            sep = "," + inner
    write(close)


def _emit(report: dict, code: int, args) -> int:
    """Stream the report (or its matrix, as CSV) to ``--out`` or stdout."""
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if getattr(args, "format", "json") == "csv":
            # the marks and gamma reports name their matrix by the command
            for row in report["result"][args.command]:
                fh.write(_join_ints(row, ",") + "\n")
        else:
            _write_json(report, fh.write)
            fh.write("\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibered-burnside",
        description="Exact fibered Burnside ring computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_marks = sub.add_parser("marks", help="table of marks of a group")
    p_marks.add_argument("group")

    p_gamma = sub.add_parser("gamma", help="gamma table and monomial basis")
    p_gamma.add_argument("group")
    p_gamma.add_argument("--fiber", required=True)

    p_verify = sub.add_parser("verify", help="verify or search a species witness")
    p_verify.add_argument("group_g")
    p_verify.add_argument("group_h")
    p_verify.add_argument("--fiber", required=True)
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--witness", help="witness JSON file")
    mode.add_argument("--auto", action="store_true")
    mode.add_argument("--thevenaz-witness", action="store_true",
                      dest="thevenaz_witness")
    p_verify.add_argument("--budget", type=int, default=None)

    p_rep = sub.add_parser("reproduce",
                           help="reproduce the order-p^2*q counterexample")
    p_rep.add_argument("--p", type=int, default=11)
    p_rep.add_argument("--q", type=int, default=5)
    p_rep.add_argument("--a", type=int, default=None)
    p_rep.add_argument("--b", type=int, default=None)
    p_rep.add_argument("--c", type=int, default=None)
    p_rep.add_argument("--d", type=int, default=None)
    p_rep.add_argument("--fiber", default="5")

    # only the marks and gamma reports hold a matrix to write as CSV
    for sub_parser in (p_marks, p_gamma):
        sub_parser.add_argument("--format", choices=("json", "csv"),
                                default="json")
    for sub_parser in (p_marks, p_gamma, p_verify, p_rep):
        sub_parser.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "marks":
            report, code = cmd_marks(args.group)
        elif args.command == "gamma":
            report, code = cmd_gamma(args.group, args.fiber)
        elif args.command == "verify":
            report, code = cmd_verify(
                args.group_g, args.group_h, args.fiber,
                witness_file=args.witness, auto=args.auto,
                use_thevenaz_witness=args.thevenaz_witness,
                budget=args.budget)
        elif args.command == "reproduce":
            report, code = cmd_reproduce_paper(
                args.p, args.q, args.a, args.b, args.c, args.d,
                fiber_spec=args.fiber)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        elapsed = time.monotonic() - start
        print(f"timing_ms: {elapsed * 1000:.1f}", file=sys.stderr)
        return _emit(report, code, args)
    except (SpecError, AlgebraError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a spec too large for this machine, e.g. `marks cyclic:200000`
        print(f"error: out of memory: {exc}" if str(exc)
              else "error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
