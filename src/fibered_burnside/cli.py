"""Batch command-line interface.

Subcommands build groups from compact specs, emit marks/gamma tables as
canonical JSON (or CSV for matrices), verify or search species witnesses,
and reproduce the order-p^2*q counterexample end to end. Output is
byte-identical across runs for identical inputs; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import re
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

import numpy as np

from . import group_core, species, thevenaz
from .abelian_fiber import AbelianFiber
from .errors import (AlgebraError, DecidersDisagree, FiberHasPTorsion,
                     SearchBudgetExceeded)
from .group_core import conjugacy_classes_of_subgroups
from .monomial import gamma_class_rows, monomial_basis
from .species import (EXHAUSTION_CAVEAT, SpeciesWitness, search_species,
                      thevenaz_witness, verify_species)

# SHA-256 from CPython's built-in module: importing hashlib maps OpenSSL's
# libcrypto, about 3.4 MB of every run's peak
try:
    from _sha2 import sha256            # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3      # a search stopped by its budget: no verdict


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
    return sha256(blob).hexdigest()


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
        # both made one class at a time while the report is written
        "basis": {"fiber": list(fiber.factors),
                  "pairs": _Pairs(fiber.elements, basis.class_pairs())},
        "gamma": _Matrix(gamma_class_rows(basis)),
    }
    return _report("gamma", {"group": group_spec, "fiber": fiber_spec},
                   result), EXIT_OK


def cmd_verify(group_spec_g: str, group_spec_h: str, fiber_spec: str,
               *, witness_file: Optional[str] = None, auto: bool = False,
               use_thevenaz_witness: bool = False,
               budget: Optional[int] = None) -> tuple[dict, int]:
    if budget is not None and not auto:
        raise SpecError("--budget needs --auto")
    if budget is not None and budget < 0:
        raise SpecError(f"--budget must be non-negative, got {budget}")
    built_g = parse_group_spec(group_spec_g)
    # an identical spec names the same group: both sides are one object,
    # so H reads the class table, basis and rows cached on G's
    built_h = (built_g if group_spec_h == group_spec_g
               else parse_group_spec(group_spec_h))
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
            return _report("verify", inputs, result), EXIT_UNDECIDED
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
    # outside (11, 5) a missing parameter would be replaced by the
    # classification's pair, dropping the ones given with it
    params = (a, b, c, d)
    if (p, q) != (11, 5) and None in params and params != (None,) * 4:
        raise SpecError("give all of --a, --b, --c and --d, or none of them")
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
    elif a is None:   # and so are b, c and d
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
    # the exhaustive search and the family's closed form must agree
    found = iso is not None
    if found != thevenaz.family_isomorphic(spec1, spec2):
        said = ("nonisomorphic", "isomorphic")
        raise DecidersDisagree(
            f"isomorphism deciders disagree on ({a}, {b}) and ({c}, {d}): "
            f"are_isomorphic says {said[found]}, "
            f"family_isomorphic says {said[not found]}")
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


@dataclass(frozen=True)
class _Matrix:
    """An integer matrix as its blocks of rows: 2-D ndarrays of one width,
    at least 1, each made when it is written."""
    blocks: Iterable[np.ndarray]


@dataclass(frozen=True)
class _Pairs:
    """Monomial pairs as the list of their ``{"character": [...],
    "subgroup": [...]}`` objects: ``classes`` yields, one subgroup at a
    time, its members and the characters of its pairs, one row of indices
    into ``elements``, the fiber elements, per pair."""
    elements: Sequence[tuple[int, ...]]
    classes: Iterable[tuple[Sequence[int], np.ndarray]]


def _pair_texts(pairs: _Pairs, level: int) -> Iterator[str]:
    """The JSON text of each pair of ``pairs`` as an item of a list nested
    ``level`` deep: the text of each fiber element is made once, and the
    subgroup's text once per subgroup, and each character is joined from
    them."""
    ind = ["\n" + "  " * k for k in range(level + 5)]
    elements = [ind[level + 3] + "[" + ind[level + 4] + (
        "," + ind[level + 4]).join(map(str, e)) + ind[level + 3] + "]"
        for e in pairs.elements]
    head = "{" + ind[level + 2] + '"character": ['
    for members, rows in pairs.classes:
        tail = (ind[level + 2] + "]," + ind[level + 2] + '"subgroup": [' +
                ind[level + 3] + ("," + ind[level + 3]).join(map(str, members))
                + ind[level + 2] + "]" + ind[level + 1] + "}")
        for row in rows.tolist():
            yield head + ",".join(map(elements.__getitem__, row)) + tail


def _write_rows(blocks: Iterable[np.ndarray], write, first: str, lead: str,
                sep: str, close: str) -> int:
    """Write the rows of a ``_Matrix``'s blocks through ``write`` as ASCII
    bytes, row r as ``(first if r == 0 else lead) + sep.join(its entries)
    + close`` (``first`` and ``lead`` of one length); returns how many.

    A row of entries 0-9 is the all-zero row's bytes from one template,
    copied into a reused chunk of about 64 KB with its nonzero digits
    patched in, one scatter per chunk, and written without a copy. Other
    rows go through ``str``."""
    rows, step = 0, len(sep) + 1
    for block in blocks:
        width = block.shape[1]
        unit = np.frombuffer((lead + "0" + (sep + "0") * (width - 1)
                              + close).encode(), dtype=np.uint8)
        chunk = max(1, (1 << 16) // unit.size)
        buf = np.empty(chunk * unit.size, dtype=np.uint8)
        other = np.flatnonzero((block.max(axis=1) > 9)
                               | (block.min(axis=1) < 0)).tolist()
        start = 0
        for stop in [*other, len(block)]:
            for r0 in range(start, stop, chunk):
                part = block[r0:min(r0 + chunk, stop)].reshape(-1)
                f = np.flatnonzero(part != 0)   # faster than a 2-D nonzero
                out = buf[:part.size // width * unit.size]
                out.reshape(-1, unit.size)[:] = unit
                if rows + r0 == 0:
                    out[:len(first)] = list(first.encode())
                # entry f of the chunk is in row f // width, column f % width
                out[f // width * (unit.size - width * step) + f * step
                    + len(lead)] = part[f] + ord("0")
                write(out.data)
            if stop < len(block):
                write(((lead if rows + stop else first) + sep.join(
                    map(str, block[stop].tolist())) + close).encode())
            start = stop + 1
        rows += len(block)
        unit = buf = out = None     # not held while the next block is made
    return rows


def _write_json(report, write) -> None:
    """Send ``report`` through ``write`` as the ASCII bytes of
    ``json.dumps(report, sort_keys=True, indent=2)``. ``write`` takes a
    bytes-like object and is done with it when it returns.

    A ``_Matrix`` goes out as the list of its rows and a ``_Pairs`` as the
    list of its pairs, each made when it is written: ``json.dumps`` leaves
    a marker string in their place, and the text between markers is
    written as it is. The rows go by ``_write_rows``, and the pairs, from
    ``_pair_texts``, with the text around them in writes of about 64 KB.
    Any other value that JSON cannot encode raises TypeError."""
    holes: list = []
    mark = "\0"

    def hole(value) -> str:
        if not isinstance(value, (_Matrix, _Pairs)):
            raise TypeError(f"Object of type {type(value).__name__} "
                            "is not JSON serializable")
        holes.append(value)
        return mark + str(len(holes) - 1)

    while True:
        holes.clear()
        text = json.dumps(report, sort_keys=True, indent=2, default=hole)
        # text and hole numbers by turns; a report string that reads as a
        # marker makes one number too many, and a longer mark follows
        split = re.split('"' + re.escape(json.dumps(mark)[1:-1]) + r'(\d+)"',
                         text)
        if len(split) == 2 * len(holes) + 1:
            break
        mark += "\0"
    parts, size = [split[0]], 0
    for at in range(1, len(split), 2):
        value = holes[int(split[at])]
        line = split[at - 1][split[at - 1].rfind("\n") + 1:]
        level = (len(line) - len(line.lstrip(" "))) // 2
        inner = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level + "]"
        if isinstance(value, _Matrix):
            write("".join(parts).encode())
            parts, size = [], 0
            entry = inner + "  "
            head = inner + "[" + entry      # what comes before a row's entries
            if not _write_rows(value.blocks, write, "[" + head, "," + head,
                               "," + entry, inner + "]"):
                close = "[]"
        else:
            sep = "[" + inner
            for piece in _pair_texts(value, level):
                parts += sep, piece
                size += len(piece)
                if size >= 1 << 16:
                    write("".join(parts).encode())
                    parts, size = [], 0
                sep = "," + inner
            if sep[0] == "[":
                close = "[]"
        parts += close, split[at + 1]
    write("".join(parts).encode())


def _emit(report: dict, code: int, args) -> int:
    """Stream the report (or its matrix, as CSV) to ``--out`` or stdout as
    bytes, below any Python buffer: a failed write raises here and leaves
    nothing to flush at exit. A stdout with no ``.buffer`` (a text sink, as
    a tracer may install) gets the decoded ASCII."""
    out = sys.stdout
    with (open(args.out, "wb", buffering=0) if args.out
          else contextlib.nullcontext()) as fh:
        if fh is None and hasattr(out, "buffer"):
            out.flush()
            fh = getattr(out.buffer, "raw", out.buffer)

        def write(data) -> None:
            if fh is None:
                return out.write(str(data, "ascii"))
            view = memoryview(data)
            while view:     # a raw stream may take part of it, or none
                view = view[fh.write(view) or 0:]
        if getattr(args, "format", "json") == "csv":
            # the marks and gamma reports name their matrix by the command
            matrix = report["result"][args.command]
            _write_rows(getattr(matrix, "blocks", [np.asarray(matrix)]),
                        write, "", "", ",", "\n")
        else:
            _write_json(report, write)
            write(b"\n")
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
    """Run one command on ``argv`` (the command line when None) and return
    its exit code. It changes no process-wide state, so tests and tracers
    call it in process many times; ``run`` is the program entry."""
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


def run() -> NoReturn:
    """The program entry, of ``python -m fibered_burnside.cli`` and of the
    ``fibered-burnside`` script: ``main`` on the command line, then exit
    with its code. On every way out, argparse's exits included, the heap
    is frozen first: finalization then skips the collections that would
    free each object numpy's import made, and the OS reclaims them at
    exit. Atexit handlers and stdio flushing still run, unlike under
    ``os._exit``."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":   # pragma: no cover
    run()
