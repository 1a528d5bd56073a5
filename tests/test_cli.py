"""Command-line interface: spec parsing, output formats, exit codes, and
determinism. All invocations go through ``cli.main`` in process."""

import argparse
import ast
import collections
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import a6_cayley_json, hom_set

import fibered_burnside
from fibered_burnside import cli, group_core, monomial, thevenaz
from fibered_burnside.abelian_fiber import AbelianFiber, CharIndex
from fibered_burnside.group_core import (Subgroup,
                                         conjugacy_classes_of_subgroups,
                                         cyclic_group, symmetric_group)
from fibered_burnside.monomial import MonomialBasis, gamma_rows


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# marks


def test_marks_trivial(capsys):
    code, report, _ = run_json(capsys, "marks", "cyclic:1")
    assert code == 0
    assert report["command"] == "marks"
    assert report["result"]["marks"] == [[1]]


def test_marks_s3(capsys):
    code, report, _ = run_json(capsys, "marks", "symmetric:3")
    assert code == 0
    table = conjugacy_classes_of_subgroups(symmetric_group(3))
    assert report["result"]["marks"] == table.marks
    assert report["result"]["order"] == 6


def test_marks_deterministic(capsys):
    _, out1, _ = run(capsys, "marks", "dihedral:4")
    _, out2, _ = run(capsys, "marks", "dihedral:4")
    assert out1 == out2


def test_marks_csv(capsys):
    code, out, _ = run(capsys, "marks", "symmetric:3", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["6", "3", "2", "1"]
    assert len(rows) == 4


def test_gamma_csv_e16_digest(capsys):
    # sha256 recorded before CSV output was streamed row by row
    code, out, _ = run(capsys, "gamma", "abelian:2,2,2,2", "--fiber", "2,2",
                       "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "97a437abcc73760205864e9bcbaea5e511d0d1b8f806c46bff1f49c5b79138fb"


def test_marks_out_file(capsys, tmp_path):
    dest = tmp_path / "marks.json"
    code, out, _ = run(capsys, "marks", "cyclic:4", "--out", str(dest))
    assert code == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["result"]["order"] == 4


@pytest.mark.parametrize("dest", ["missing/marks.json", "."])
def test_out_path_that_cannot_be_opened(capsys, tmp_path, dest):
    # a missing parent directory, and a directory
    code, out, err = run(capsys, "marks", "cyclic:2", "--out",
                         str(tmp_path / dest))
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1


def test_timing_on_stderr(capsys):
    _, _, err = run(capsys, "marks", "cyclic:2")
    assert "timing_ms:" in err


# ---------------------------------------------------------------------------
# gamma


def test_gamma_c2_c2(capsys):
    code, report, _ = run_json(capsys, "gamma", "cyclic:2", "--fiber", "2")
    assert code == 0
    assert report["result"]["gamma"] == [[2, 1, 1], [0, 1, 0], [0, 0, 1]]


def test_gamma_trivial_fiber_is_marks(capsys):
    _, g_report, _ = run_json(capsys, "gamma", "symmetric:3", "--fiber", "1")
    _, m_report, _ = run_json(capsys, "marks", "symmetric:3")
    assert g_report["result"]["gamma"] == m_report["result"]["marks"]


def test_gamma_abelian_spec(capsys):
    code, report, _ = run_json(capsys, "gamma", "abelian:2,2", "--fiber", "2")
    assert code == 0
    assert report["result"]["order"] == 4
    assert len(report["result"]["gamma"]) == \
        len(report["result"]["basis"]["pairs"])


# ---------------------------------------------------------------------------
# verify


def test_verify_auto_same_group(capsys):
    code, report, _ = run_json(capsys, "verify", "symmetric:3", "symmetric:3",
                               "--fiber", "6", "--auto")
    assert code == 0
    assert report["result"]["status"] == "valid"


def test_verify_auto_exhausted(capsys):
    code, report, _ = run_json(capsys, "verify", "cyclic:4", "abelian:2,2",
                               "--fiber", "2", "--auto")
    assert code == 1
    assert report["result"]["status"] == "exhausted"
    assert "open question" in report["result"]["caveat"]


def test_verify_budget_exceeded(capsys):
    code, report, _ = run_json(capsys, "verify", "symmetric:3", "symmetric:3",
                               "--fiber", "2", "--auto", "--budget", "0")
    assert code == 1
    assert report["result"]["status"] == "budget_exceeded"


def test_verify_budget_bounds_large_character_groups(capsys):
    # the class of (C2)^3 has Hom((C2)^3, C2 x C2) = (C2)^6 with about 2e10
    # automorphisms; checking gamma on each prefix of a character map
    # decides this pair without a budget
    code, report, _ = run_json(capsys, "verify", "abelian:2,2,2",
                               "abelian:2,2,2", "--fiber", "2,2", "--auto")
    assert code == 0
    assert report["result"]["status"] == "valid"
    # Hom(C11 x C11, C11) has 13200 automorphisms and the order-605 pair
    # over C11 is still undecided after 50000 prefixes; the budget stops it
    code, report, _ = run_json(capsys, "verify", "thevenaz:11,5,3,9",
                               "thevenaz:11,5,3,4", "--fiber", "11", "--auto",
                               "--budget", "50000")
    assert code == 1
    assert report["result"]["status"] == "budget_exceeded"
    assert "50000" in report["result"]["detail"]


def test_verify_thevenaz_witness(capsys):
    code, report, _ = run_json(capsys, "verify", "thevenaz:7,3,2,4",
                               "thevenaz:7,3,2,4", "--fiber", "3",
                               "--thevenaz-witness")
    assert code == 0
    assert report["result"]["status"] == "valid"


def test_verify_thevenaz_witness_p_torsion_fiber(capsys):
    code, _, err = run(capsys, "verify", "thevenaz:7,3,2,4",
                       "thevenaz:7,3,2,4", "--fiber", "7",
                       "--thevenaz-witness")
    assert code == 2
    assert "error:" in err


def test_verify_thevenaz_witness_needs_family_groups(capsys):
    code, _, err = run(capsys, "verify", "symmetric:3", "symmetric:3",
                       "--fiber", "3", "--thevenaz-witness")
    assert code == 2
    assert "thevenaz" in err


def test_verify_witness_file_round_trip(capsys, tmp_path):
    # search once, save the witness, then verify it from the file
    code, report, _ = run_json(capsys, "verify", "dihedral:4", "dihedral:4",
                               "--fiber", "2", "--auto")
    assert code == 0
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(report["result"]["witness"]))
    code2, report2, _ = run_json(capsys, "verify", "dihedral:4", "dihedral:4",
                                 "--fiber", "2", "--witness",
                                 str(witness_file))
    assert code2 == 0
    assert report2["result"]["status"] == "valid"


@pytest.mark.parametrize("mode", ["--thevenaz-witness", "--auto"])
def test_verify_thevenaz_witness_file_round_trip(capsys, tmp_path, mode):
    # a thevenaz: spec indexes classes canonically in every mode, so a
    # printed witness reads back against the transversal it was made on
    argv = ("verify", "thevenaz:7,3,2,4", "thevenaz:7,3,2,4", "--fiber", "3")
    code, report, _ = run_json(capsys, *argv, mode)
    assert code == 0
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(report["result"]["witness"]))
    code2, report2, _ = run_json(capsys, *argv, "--witness",
                                 str(witness_file))
    assert code2 == 0
    assert report2["result"]["status"] == "valid"


def write_payload(path, payload):
    """Bytes go to the file as they are, anything else as JSON text."""
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))


# JSON files that no reader can decode
UNREADABLE_JSON = [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b"[" * 100_000, id="nested-too-deep"),
]


def assert_usage_error(code, err):
    assert code == 2
    assert err.count("error:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("witness", [
    {"subgroup_map": [0, 0], "char_maps": [[0], [0, 1]]},   # not a bijection
    {"subgroup_map": [0, 1], "char_maps": [[0]]},           # too few rows
    {"subgroup_map": [0], "char_maps": [[0]]},              # too short
    {"subgroup_map": [0, 1], "char_maps": [[0], [1]]},      # short row
    {"subgroup_map": [0, 2], "char_maps": [[0], [0, 1]]},   # out of range
    {"subgroup_map": [0, 1], "char_maps": [[0], [0, 5]]},   # out of range
    {"subgroup_map": [0, -1], "char_maps": [[0], [0, 1]]},  # negative
    {"subgroup_map": [0, "1"], "char_maps": [[0], [0, 1]]},  # not an int
    [[0, 1]],                                               # not an object
    *UNREADABLE_JSON,
])
def test_verify_rejects_malformed_witness(capsys, tmp_path, witness):
    # C2 has two subgroup classes with 1 and 2 characters into C2
    witness_file = tmp_path / "witness.json"
    write_payload(witness_file, witness)
    code, out, err = run(capsys, "verify", "cyclic:2", "cyclic:2",
                         "--fiber", "2", "--witness", str(witness_file))
    assert_usage_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "symmetric:3", "symmetric:3", "--fiber", "6", "--auto"),
    ("reproduce",),
])
def test_format_is_rejected_before_a_command_without_a_matrix(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "csv"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "error:" in err and "--format" in err
    assert "timing_ms" not in err
    assert out == ""


def test_verify_rejects_negative_budget(capsys):
    code, _, err = run(capsys, "verify", "symmetric:3", "symmetric:3",
                       "--fiber", "2", "--auto", "--budget", "-1")
    assert_usage_error(code, err)
    assert "--budget" in err


def test_verify_missing_witness_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "cyclic:2", "cyclic:2",
                       "--fiber", "2", "--witness",
                       str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# group spec errors and cayley files


@pytest.mark.parametrize("spec", [
    "nonsense:3",
    "cyclic:zero",
    "cyclic:0",
    "thevenaz:7,3,2,2",
    "thevenaz:7,3",
    "abelian:2,x",
])
def test_bad_group_specs(capsys, spec):
    code, _, err = run(capsys, "marks", spec)
    assert code == 2
    assert "error:" in err


# at or above 2^64 these fail before anything is allocated
@pytest.mark.parametrize("argv", [
    ("marks", "abelian:99999999999999999999"),
    ("marks", "abelian:2,18446744073709551616"),
    ("gamma", "cyclic:2", "--fiber", "99999999999999999999"),
    ("gamma", "cyclic:2", "--fiber", "18446744073709551616,2"),
])
def test_integers_too_large_for_a_spec(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# stand-ins for `marks cyclic:200000` and `gamma cyclic:2 --fiber 100000`,
# which ask numpy for an order^2 table
@pytest.mark.parametrize("command, argv", [
    ("cmd_marks", ("marks", "cyclic:2")),
    ("cmd_gamma", ("gamma", "cyclic:2", "--fiber", "2")),
])
@pytest.mark.parametrize("exc", [
    MemoryError(),
    MemoryError("Unable to allocate 298. GiB for an array with shape "
                "(200000, 200000) and data type int64"),
])
def test_out_of_memory_is_a_usage_error(capsys, monkeypatch, command, argv,
                                        exc):
    def too_large(*args):
        raise exc

    monkeypatch.setattr(cli, command, too_large)
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, err)
    assert out == ""
    assert err.startswith("error: out of memory")
    assert len(err.splitlines()) == 1


def test_bad_fiber_spec(capsys):
    code, _, err = run(capsys, "gamma", "cyclic:2", "--fiber", "x")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("gamma", "cyclic:zero", "--fiber", "2"),
    ("gamma", "nonsense:3", "--fiber", "2"),
    ("gamma", "cayley:missing.json", "--fiber", "2"),
    ("gamma", "cyclic:2", "--fiber", "x"),
    ("gamma", "cyclic:2", "--fiber", "0"),
    ("gamma", "cyclic:2", "--fiber", "2,"),
    ("gamma", "symmetric:3", "--fiber", "x", "--format", "csv"),
])
def test_gamma_rejects_bad_input_before_any_output(capsys, argv):
    # the gamma rows are made while the report is written, but every check
    # on the spec and the fiber runs before the first byte of it
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, err)
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cayley_file_round_trip(capsys, tmp_path):
    # export S3 via marks on the built-in, then feed its table back in
    g = symmetric_group(3)
    table = [[g.m(a, b) for b in range(6)] for a in range(6)]
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"order": 6, "mul": table}))
    code, report, _ = run_json(capsys, "marks", f"cayley:{path}")
    assert code == 0
    expect = conjugacy_classes_of_subgroups(g).marks
    assert report["result"]["marks"] == expect


def test_cayley_file_rejects_bad_table(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "mul": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, "marks", f"cayley:{path}")
    assert code == 2
    assert "error:" in err


def test_cayley_file_rejects_non_group_above_order_1000(capsys, tmp_path):
    # C1024 with the intercalate at rows and columns 3, 515 swapped: still a
    # Latin square with identity 0, but (3*3)*1 = 519 and 3*(3*1) = 7
    table = cyclic_group(1024).mul.copy()
    cells = np.ix_([3, 515], [3, 515])
    table[cells] = table[cells][::-1]
    path = tmp_path / "loop1024.json"
    path.write_text(json.dumps({"order": 1024, "mul": table.tolist()}))
    code, out, err = run(capsys, "marks", f"cayley:{path}")
    assert_usage_error(code, err)
    assert "associativity fails" in err
    assert out == ""


@pytest.mark.parametrize("payload", [
    5,                                        # not an object
    "order mul",                              # not an object
    {"order": 2, "mul": 5},                   # 'mul' not a list
    {"order": 2, "mul": [[0, 1], [1, None]]},  # entry not an integer
    {"order": 2, "mul": [[0, 1], [1, 0.5]]},   # entry not an integer
    {"order": 2, "mul": [[0, 1], [1, True]]},  # entry not an integer
    pytest.param({"order": True, "mul": [[0]]}, id="order-not-an-integer"),
    *UNREADABLE_JSON,
])
def test_cayley_file_rejects_malformed_json(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    write_payload(path, payload)
    code, out, err = run(capsys, "marks", f"cayley:{path}")
    assert_usage_error(code, err)
    assert out == ""


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_small_family(capsys):
    # (7, 3) has a single isomorphism class: no counterexample pair exists
    code, report, _ = run_json(capsys, "reproduce", "--p", "7", "--q", "3",
                               "--fiber", "3")
    assert code == 0
    assert report["result"]["classification"]["class_count"] == 1
    assert report["result"]["note"].startswith("only one isomorphism class")


def test_reproduce_builds_each_char_index_once(monkeypatch):
    # both groups' transversals, which the witness carries in their class
    # tables, share one index per member set and fiber
    builds = []
    build = CharIndex.__init__

    def counted(self, domain, fiber):
        builds.append((id(domain.group), domain.members, fiber.factors))
        build(self, domain, fiber)

    monkeypatch.setattr(CharIndex, "__init__", counted)
    _, code = cli.cmd_reproduce_paper()
    assert code == 0
    assert len(builds) == len(set(builds)) == 20


def _square_arrays(value, n: int, seen: set) -> list[np.ndarray]:
    """The arrays of n^2 or more entries reachable from ``value`` through
    containers and object attributes."""
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value] if value.size >= n * n else []
    if isinstance(value, dict):
        parts = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        parts = list(value)
    else:
        parts = list(getattr(value, "__dict__", {}).values())
        parts += [getattr(value, name)
                  for cls in type(value).__mro__
                  for name in getattr(cls, "__slots__", ())
                  if hasattr(value, name)]
    return [a for part in parts for a in _square_arrays(part, n, seen)]


def test_reproduce_keeps_no_square_table_but_mul(monkeypatch):
    # once every stage has run on the order-605 pair, the multiplication
    # table is the only array of n^2 entries either group holds, in an
    # attribute or anywhere in its cache: conjugates are gathered where
    # they are read, and no n x n table is kept for them
    built = []
    build = thevenaz.build

    def kept(spec):
        built.append(build(spec))
        return built[-1]

    monkeypatch.setattr(thevenaz, "build", kept)
    _, code = cli.cmd_reproduce_paper()
    assert code == 0
    assert [tg.group.order for tg in built] == [605, 605]
    muls = {id(tg.group.mul) for tg in built}
    for tg in built:
        group = tg.group
        assert not hasattr(group, "conj") and not hasattr(group, "_conj")
        assert group._cache
        found = _square_arrays(group, group.order, set())
        assert [a for a in found if id(a) not in muls] == []
        assert any(a is group.mul for a in found)


def test_reproduce_rejects_p_torsion_fiber(capsys):
    code, _, err = run(capsys, "reproduce", "--fiber", "11")
    assert code == 2
    assert "torsion" in err


def test_reproduce_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "reproduce", "--p", "10", "--q", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("--p", "7", "--q", "3", "--a", "2"),
    ("--p", "31", "--q", "5", "--a", "8", "--b", "16"),
    ("--p", "13", "--q", "3", "--a", "3", "--b", "9", "--c", "3"),
], ids=["one-class-family", "order-4805", "three-of-four"])
def test_reproduce_rejects_partial_parameters(capsys, argv):
    # outside (11, 5) a partial set would be replaced by the
    # classification's pair; the user gets one error line instead
    code, out, err = run(capsys, "reproduce", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_reproduce_fills_partial_parameters_at_11_5():
    report, code = cli.cmd_reproduce_paper(a=3, d=4)
    assert code == 0
    inputs = report["inputs"]
    assert (inputs["a"], inputs["b"], inputs["c"], inputs["d"]) == (3, 9, 3, 4)


def test_input_hash_stable(capsys):
    _, r1, _ = run_json(capsys, "marks", "cyclic:6")
    _, r2, _ = run_json(capsys, "marks", "cyclic:6")
    assert r1["input_hash"] == r2["input_hash"]


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.text(max_size=6), st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=12)),
    max_size=7))
@example({"group": "abelian:2,2,2,2", "fiber": "2,2"})
@example({"p": 11, "q": 5, "a": 3, "b": 9, "c": 3, "d": 4, "fiber": "5"})
@example({"\u00e9": "\U0001f600", "": None})
def test_input_hash_is_the_sha256_of_the_sorted_inputs(inputs):
    blob = json.dumps(inputs, sort_keys=True).encode()
    assert cli._input_hash(inputs) == hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# golden stdout digests: reports must stay byte-identical across refactors

# D4 over C2 with the identity subgroup map and an automorphism of the
# character group of D4 itself: a group isomorphism on every class whose
# gamma entries still differ, first at classes (1, 7), characters (0, 2)
GAMMA_FAILING_D4_WITNESS = {
    "subgroup_map": [0, 1, 2, 3, 4, 5, 6, 7],
    "char_maps": [[0], [0, 1], [0, 1], [0, 1], [0, 1, 2, 3], [0, 1],
                  [0, 1, 2, 3], [0, 3, 1, 2]],
}

GOLDEN = [
    (("gamma", "symmetric:4", "--fiber", "6"), 0,
     "e5cd15f2342cc4c5c701508337b74d554a0b8f83262657960c6f0740bfbee6e8"),
    (("gamma", "dihedral:4", "--fiber", "2,4"), 0,
     "82f7f063dbf4c1859cd17eb9edffe151e49ae80e924e4d5049241e2d6b42e9f8"),
    (("verify", "symmetric:3", "symmetric:3", "--fiber", "6", "--auto"), 0,
     "934fd23398e84d94cf147a2fad42a0e4bdb2de44d9ded87de00f6947d23f6d80"),
    (("verify", "dihedral:4", "dihedral:4", "--fiber", "2", "--witness",
      "{witness}"), 1,
     "c203f5868e308ef33434f352aa5691ec88d0e73b8b99581465dc6aad00e1031a"),
    (("verify", "thevenaz:7,3,2,4", "thevenaz:7,3,2,4", "--fiber", "3",
      "--thevenaz-witness"), 0,
     "635ab70d5106f0f3710bac19fd5bc35fe5cafbeceb5c230f43da2f805bbf8706"),
    (("reproduce", "--p", "7", "--q", "3"), 0,
     "8016138066a34b371eb5d11edda62e1cdce4006f629d20d55a74fbdb51190b17"),
    (("reproduce",), 0,
     "88905237c1fcc6fe424928435a6a8c2a2615374386dbe0cea6339a14e923c646"),
    (("marks", "symmetric:6"), 0,
     "1ca9abfc9de313ddf83b9c4af27011b48f1db6d8ca6ad6b878e1ba96a1c62493"),
    (("verify", "abelian:2,2,2,2", "abelian:2,2,2,2", "--fiber", "2",
      "--auto"), 0,
     "703d9dd03f5f9cc2621b4d91acabd337c3f87ff6f94d56be4a1b1b1c73727a8b"),
]


GOLDEN_IDS = ["gamma-s4-fiber6", "gamma-d4-fiber2x4", "verify-auto-s3",
              "verify-witness-gamma-mismatch", "verify-thevenaz-147",
              "reproduce-7-3", "reproduce-11-5", "marks-s6",
              "verify-auto-e16"]


def golden_argv(tmp_path, argv):
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(GAMMA_FAILING_D4_WITNESS))
    return [a.format(witness=witness_file) for a in argv]


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_stdout_digest(capsys, tmp_path, argv, exit_code, digest):
    code, out, _ = run(capsys, *golden_argv(tmp_path, argv))
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_out_file_equals_stdout(capsys, tmp_path, argv, exit_code,
                                       digest):
    # the file holds the bytes whose digest the stdout test pins
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, *golden_argv(tmp_path, argv),
                       "--out", str(dest))
    assert code == exit_code
    assert out == ""
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


def golden_report(monkeypatch, tmp_path, argv) -> dict:
    """The report that ``main`` builds for ``argv`` and hands ``_emit``."""
    reports = []
    monkeypatch.setattr(cli, "_emit",
                        lambda report, code, args: reports.append(report))
    cli.main(golden_argv(tmp_path, argv))
    return reports[0]


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_reports_are_their_json_dumps(monkeypatch, tmp_path, argv,
                                             exit_code, digest):
    # each matrix and pairs value streamed at the depth it holds in the
    # real report; the report is built twice, as its values are made once
    text = written(golden_report(monkeypatch, tmp_path, argv))
    assert text == json.dumps(expanded(golden_report(monkeypatch, tmp_path,
                                                     argv)),
                              sort_keys=True, indent=2)
    assert hashlib.sha256((text + "\n").encode()).hexdigest() == digest


E16_GAMMA_DIGEST = \
    "a1613976bcd30c39e1ae31fe9b906424c869a0725662ff6c4b278dd7d7874373"


# Runs the CLI, then appends the process's own peak RSS to stderr. The
# parent's wait4 ru_maxrss would not do: Linux carries the peak of the
# process that spawned the child (here the pytest session) across exec.
REPORT_OWN_PEAK_RSS = """
import sys
from fibered_burnside import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status", encoding="ascii") as status:
    sys.stderr.write(next(line for line in status
                          if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    src = str(Path(fibered_burnside.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_reporting_peak(tmp_path, *argv):
    """Run the CLI in a child that reports its own VmHWM; returns the exit
    code, the sha256 of stdout, hashed as it streams, and the peak in MB.
    stderr goes to a regular file, as in bench/run.py."""
    digest = hashlib.sha256()
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", REPORT_OWN_PEAK_RSS, *argv],
            stdout=subprocess.PIPE, stderr=err, env=_child_env())
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
        proc.stdout.close()
        proc.wait()
    hwm = err_path.read_text(encoding="utf-8").splitlines()[-1].split()
    assert hwm[0] == "VmHWM:" and hwm[2] == "kB"
    return proc.returncode, digest.hexdigest(), int(hwm[1]) / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_gamma_e16_report_streams_in_bounded_memory(tmp_path):
    # the 38 MB report of the 1837 x 1837 gamma table must not be built as
    # one string
    code, digest, peak_mb = _run_reporting_peak(
        tmp_path, "gamma", "abelian:2,2,2,2", "--fiber", "2,2")
    assert code == 0
    assert digest == E16_GAMMA_DIGEST
    # 66 MB while the table was a list of int lists, 43 MB as an int8 array
    # written entry by entry, 42 MB written by zero runs, 35 MB with rows
    # made as they are written and no hashlib
    assert peak_mb < 40


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_verify_e16_auto_runs_in_bounded_memory(tmp_path):
    # (C2)^4 over C2 x C2: 67 classes and 1837 basis elements on each side;
    # the product terms are evaluated one class row at a time, which peaks
    # near 115 MB, where all pairs' terms as one flat array took 208 MB
    code, digest, peak_mb = _run_reporting_peak(
        tmp_path, "verify", "abelian:2,2,2,2", "abelian:2,2,2,2",
        "--fiber", "2,2", "--auto")
    assert code == 0
    assert digest == \
        "6b5500b85c79c7a5dfc6e1a70c53cc850a5c7371a62863449c9107bc6774eb09"
    assert peak_mb < 125


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_reproduce_runs_in_bounded_memory(tmp_path):
    # the two order-605 groups are validated in int16 tables, with no
    # n x n int64 temporaries, and numpy.ma stays unloaded: 49 MB with
    # int64 tables and numpy.ma, 40 MB now
    code, digest, peak_mb = _run_reporting_peak(tmp_path, "reproduce")
    assert code == 0
    assert digest == \
        "88905237c1fcc6fe424928435a6a8c2a2615374386dbe0cea6339a14e923c646"
    assert peak_mb < 44


# a report of about 300 bytes, written in one piece, and the 38 MB E16
# gamma report, written in about 680
FAILING_WRITES = [("marks", "cyclic:2"),
                  ("gamma", "abelian:2,2,2,2", "--fiber", "2,2")]


def _cli_child(argv, stdout, unbuffered: bool) -> subprocess.Popen:
    """The CLI in a child interpreter writing to ``stdout``, with Python's
    stdout buffered or not (PYTHONUNBUFFERED)."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "fibered_burnside.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env)


def _assert_one_error(proc: subprocess.Popen) -> None:
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert [line.split(":")[0] for line in err.splitlines()] == \
        ["timing_ms", "error"], err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="writes to /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", FAILING_WRITES, ids=["marks", "gamma"])
def test_write_to_a_full_device_is_one_error_line(argv, unbuffered):
    # every write fails with ENOSPC, the last one included: nothing may be
    # left in a buffer for the interpreter to flush at exit
    with open("/dev/full", "wb") as full:
        proc = _cli_child(argv, full, unbuffered)
    _assert_one_error(proc)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="relies on EPIPE")
@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, read", [
    (FAILING_WRITES[0], None), (FAILING_WRITES[1], None),
    (FAILING_WRITES[1], 50),
], ids=["marks-closed", "gamma-closed", "gamma-after-50-bytes"])
def test_write_to_a_closed_pipe_is_one_error_line(argv, read, unbuffered):
    # the reader closes the pipe before the child starts (None), so that
    # even a report written in one piece fails, or after 50 bytes, halfway
    # through a report far larger than the pipe holds: EPIPE either way
    r, w = os.pipe()
    if read is None:
        os.close(r)
    with open(w, "wb") as pipe_in:
        proc = _cli_child(argv, pipe_in, unbuffered)
    if read is not None:
        with open(r, "rb") as pipe_out:
            assert len(pipe_out.read(read)) == read
    _assert_one_error(proc)


def _a6_file(tmp_path) -> Path:
    path = tmp_path / "a6.json"
    path.write_text(json.dumps(a6_cayley_json()))
    return path


# The four commands of the benchmark, with A6 written to "{a6}"
BENCH_COMMANDS = [
    ("reproduce",),
    ("verify", "abelian:2,2,2,2", "abelian:2,2,2,2", "--fiber", "2",
     "--auto"),
    ("gamma", "abelian:2,2,2,2", "--fiber", "2,2"),
    ("marks", "cayley:{a6}"),
]

# Runs the CLI on the arguments after the first, then reports on stderr
# whether the module named by the first was imported
REPORT_LOADED = """
import sys
from fibered_burnside import cli
code = cli.main(sys.argv[2:])
sys.stderr.write(f"{sys.argv[1]} loaded: {sys.argv[1] in sys.modules}\\n")
sys.exit(code)
"""


def _loaded_after(module, argv) -> bool:
    """Whether the CLI run on ``argv`` in a child imported ``module``."""
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_LOADED, module, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=_child_env())
    assert proc.returncode == 0
    *_, last = proc.stderr.splitlines()
    assert last in (f"{module} loaded: True", f"{module} loaded: False")
    return last.endswith("True")


@pytest.mark.parametrize("argv", BENCH_COMMANDS,
                         ids=["reproduce-605", "search-e16", "gamma-e16",
                              "lattice-a6"])
def test_bench_commands_leave_numpy_ma_unloaded(tmp_path, argv):
    # np.unique and np.union1d import numpy.ma on first use, which costs
    # about 15 ms and 1.3 MB a process
    a6 = _a6_file(tmp_path)
    assert not _loaded_after("numpy.ma", [a.format(a6=a6) for a in argv])


@pytest.mark.parametrize("argv", [
    ("marks", "cyclic:2"),
    ("gamma", "cyclic:2", "--fiber", "2"),
    ("verify", "symmetric:3", "symmetric:3", "--fiber", "6", "--auto"),
], ids=["marks", "gamma", "verify-auto"])
def test_commands_hash_their_inputs_without_openssl(argv):
    # hashlib maps OpenSSL's libcrypto through _hashlib, about 3.4 MB of
    # resident memory; the input hash comes from CPython's own SHA-256
    assert not _loaded_after("_hashlib", argv)
    # and the probe sees a module that is loaded
    assert _loaded_after("fibered_burnside.monomial", argv)


def test_importing_cli_loads_every_traced_module():
    # bench/tracer.py imports fibered_burnside.cli, then reads these six
    # modules from sys.modules to wrap their functions; a deferred import
    # would leave one missing there
    probe = ("import sys, fibered_burnside.cli\n"
             "print(*(m for m in sys.modules\n"
             "        if m.startswith('fibered_burnside.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env(), check=False)
    assert proc.returncode == 0, proc.stderr
    assert {f"fibered_burnside.{name}" for name in (
        "group_core", "abelian_fiber", "monomial", "species", "thevenaz",
        "cli")} <= set(proc.stdout.split())


@pytest.mark.parametrize("argv", [
    ("gamma", "symmetric:4", "--fiber", "6"),
    ("verify", "thevenaz:7,3,2,4", "thevenaz:7,3,2,4", "--fiber", "3",
     "--thevenaz-witness"),
    ("verify", "dihedral:91", "dihedral:91", "--fiber", "2", "--auto"),
    ("marks", "cayley:{a6}"),
    ("reproduce",),
], ids=["order-24", "order-147", "order-182", "a6-cayley", "reproduce-605"])
def test_int64_tables_give_identical_reports(capsys, tmp_path, monkeypatch,
                                             argv):
    # every table in int64 instead of int16, on orders on both sides of
    # 182, where a key x * n + y of int16 entries would first overflow
    argv = [a.format(a6=_a6_file(tmp_path)) for a in argv]
    compact = run(capsys, *argv)[:2]
    assert cli.parse_group_spec("cyclic:3").mul.dtype == np.int16
    monkeypatch.setattr(group_core, "_index_dtype", lambda n: np.int64)
    assert cli.parse_group_spec("cyclic:3").mul.dtype == np.int64
    assert run(capsys, *argv)[:2] == compact


# ---------------------------------------------------------------------------
# the streaming report writer against json.dumps


def written(obj) -> str:
    # the writer hands over views of a buffer it reuses, so each piece is
    # copied as it comes
    pieces = []
    cli._write_json(obj, lambda data: pieces.append(bytes(data)))
    return b"".join(pieces).decode("ascii")


# small, zero included, and far past that
INTS = st.one_of(st.integers(-3, 1026), st.integers())
# rows of ints and bools, which a dict would take for each other
INT_TUPLES = st.lists(st.lists(st.one_of(st.booleans(), st.integers(-1, 2)),
                               max_size=3).map(tuple), max_size=5)
LEAVES = st.one_of(st.none(), st.booleans(), INTS, st.floats(), st.text(),
                   st.lists(INTS, max_size=6), INT_TUPLES)
NESTED = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4)), max_leaves=24)


@seed(20261018)
@settings(max_examples=250, deadline=None, database=None)
@given(NESTED)
@example([])
@example({})
@example([7])
@example([[]])
@example({"": {}, "b": [[1024]], "a": ("x", [-1])})
@example([True, 1, False, 0])
@example([1.0, 1, None])
@example({"\u00e9\u4e2d": ["\U0001f600", 10 ** 30, -(10 ** 30)]})
# lists of tuples: bools beside equal ints, floats, lists, empty tuples,
# and one tuple at two nesting levels
@example([(True, 1), (1, 1)])
@example([(1,), (True,)])
@example([(1, 0), (True, False), (1, 0)])
@example([(1.0,), (1,), (1.5, 2)])
@example([(1, [2]), (1,), ([0],)])
@example([(), (0,), ()])
@example({"a": [(1, 2)], "b": [[(1, 2)], (1, 2)], "c": (1, 2)})
# lists whose items are all tuples of plain ints: repeated tuples, big
# ints, and lists beside them that mix in a list, an int or a tuple with a
# bool
@example([(0, 1), (1, 0), (0, 1)])
@example([[(0, 1), (1, 1)], [(0, 1)], (0, 1)])
@example({"character": [(10 ** 30, -1), (0,), (0, 0, 0)]})
@example([(0, 1), [0, 1], (0, 1)])
@example([(0, 1), 2, (0, 1)])
@example([(0, 1), (1, True)])
@example([(False, 0), (0, 0)])
# strings that read as the writer's markers, as values and as keys
@example("\x000")
@example(["\x00", "\x000", "\x00\x001", "\\u0000", "\"\x000"])
@example({"\x000": "\x000", "\x00\x000": ["\x00\x000"]})
def test_write_json_matches_json_dumps(obj):
    assert written(obj) == json.dumps(obj, sort_keys=True, indent=2)


def expanded(obj):
    """``obj`` with each ``_Matrix`` and ``_Pairs`` in it replaced by the
    list of its rows or of its pair objects."""
    if isinstance(obj, cli._Matrix):
        return [row for block in obj.blocks for row in block.tolist()]
    if isinstance(obj, cli._Pairs):
        return [{"subgroup": list(members),
                 "character": [list(obj.elements[v]) for v in row]}
                for members, rows in obj.classes for row in rows.tolist()]
    if isinstance(obj, dict):
        return {key: expanded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [expanded(item) for item in obj]
    return obj


def test_report_strings_that_read_as_markers_come_out_as_themselves():
    # a report string with the text of a marker must not take the place of
    # the matrix or the pairs beside it, nor be dropped for them
    def report():
        return {"a": "\x000",
                "b": cli._Matrix(iter([np.eye(2, dtype=np.int8)])),
                "c": ["\x00", "\\u0000", "\x000", "\x00\x000"],
                "d": cli._Pairs([(0,), (1,)], iter(
                    [((0, 3), np.array([[0, 1], [1, 1]]))])),
                "\x001": "\x00\x001"}
    assert written(report()) == json.dumps(expanded(report()),
                                           sort_keys=True, indent=2)


def test_write_json_raises_type_error_on_other_values():
    for obj in ({"a": {1, 2}}, [object()], np.zeros((2, 2), dtype=np.int8),
                iter([1])):
        with pytest.raises(TypeError, match="not JSON serializable"):
            written(obj)


@st.composite
def int_arrays(draw):
    """A 2-D integer ndarray of width at least 1, with no rows or some,
    whose values lie on both sides of the table of small ints or anywhere
    in its dtype."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int64",
                                           "uint8"])))
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    values = st.one_of(st.integers(max(lo, -3), min(hi, 1026)),
                       st.integers(lo, hi))
    shape = st.tuples(st.integers(0, 4), st.integers(1, 4))
    return draw(hnp.arrays(dtype, shape, elements=values))


def as_matrices(obj):
    """``obj`` with every ndarray in it replaced by the ``_Matrix`` of that
    one block."""
    if isinstance(obj, np.ndarray):
        return cli._Matrix([obj])
    if isinstance(obj, dict):
        return {key: as_matrices(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_matrices(item) for item in obj]
    return obj


@seed(20261018)
@settings(max_examples=250, deadline=None, database=None)
@given(st.recursive(int_arrays(), lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.dictionaries(st.text(max_size=3), kids, max_size=3)), max_leaves=6))
@example(np.zeros((0, 3), dtype=np.int8))
@example({"gamma": np.array([[0, 1023], [1024, -1]], dtype=np.int16)})
# 2-D blocks: rows of digits beside rows with a multi-digit or a negative
# entry, first and last among them, and every dtype's extremes
@example(np.array([[0, 9, 10], [1, 2, 3], [0, -1, 0], [0, 0, 0]],
                  dtype=np.int16))
@example({"g": np.array([[-1, 0], [0, 9], [100, 0]], dtype=np.int64)})
@example(np.array([[-128, 127, 0], [9, 0, 1], [0, 0, -128]], dtype=np.int8))
@example(np.array([[-32768, 0], [0, 32767], [5, 5]], dtype=np.int16))
@example([np.array([[2 ** 63 - 1, 0], [0, 3], [-2 ** 63, 0]],
                   dtype=np.int64)])
@example(np.array([[255, 0], [0, 9], [0, 0]], dtype=np.uint8))
# blocks with no rows, in every dtype
@example([np.zeros((0, 4), dtype=t) for t in ("int8", "int16", "int64",
                                              "uint8")])
# more rows than one chunk holds, with a row of other entries between
# chunks, and rows wider than a chunk
@example(np.where(np.arange(2000)[:, None] == 700, -3,
                  np.arange(40000).reshape(2000, 20) * 7 % 10).astype(
                      np.int8))
@example({"wide": np.eye(3, 30000, 29999, dtype=np.uint8) * 9})
def test_write_json_of_int_arrays_matches_their_lists(obj):
    obj = as_matrices(obj)
    assert written(obj) == json.dumps(expanded(obj), sort_keys=True, indent=2)


@st.composite
def sparse_int_arrays(draw):
    """A 2-D integer ndarray of up to 40 x 40 entries, width at least 1,
    about 90% of them zero, as in the gamma table: long zero runs, some of
    them from the end of one row into the next."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int64",
                                           "uint8"])))
    shape = draw(st.tuples(st.integers(0, 40), st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    info = np.iinfo(dtype)
    small = rng.integers(max(info.min, -3), min(info.max, 1026),
                         size=shape, endpoint=True)
    anywhere = rng.integers(info.min, info.max, size=shape, dtype=dtype,
                            endpoint=True)
    values = np.where(rng.random(shape) < 0.5, small, anywhere)
    return np.where(rng.random(shape) < 0.9, 0, values).astype(dtype)


@seed(20261019)
@settings(max_examples=250, deadline=None, database=None)
@given(st.one_of(sparse_int_arrays(), st.lists(sparse_int_arrays(),
                                               max_size=3),
                 st.dictionaries(st.text(max_size=3), sparse_int_arrays(),
                                 max_size=3)))
@example(np.zeros((5, 7), dtype=np.int8))
@example(np.array([[0, 0, 3, 0, 0]], dtype=np.int16))
@example(np.array([[0], [0], [5], [0]], dtype=np.int64))
# rows that end in zero and rows that end in a nonzero entry, and a zero
# run from the end of one row into the next
@example(np.array([[1, 0, 0], [0, 0, 2], [0, 7, 0], [4, 4, 4]],
                  dtype=np.int8))
@example({"gamma": np.array([[0, 5, 0, 0], [0, 0, 0, 6]], dtype=np.int16)})
@example(np.array([[-1, 0, 1023], [1024, 0, 0]], dtype=np.int16))
@example(np.array([[2 ** 63 - 1, 0], [0, -2 ** 63]], dtype=np.int64))
def test_write_json_of_sparse_int_arrays_matches_their_lists(obj):
    obj = as_matrices(obj)
    assert written(obj) == json.dumps(expanded(obj), sort_keys=True, indent=2)


class HashingWriter:
    """A stdout that keeps only the sha256 of what is written to it and the
    size of each write: bytes through its ``.buffer``, or, made with
    ``binary=False``, text only, as the benchmark's tracer installs."""

    def __init__(self, binary: bool = True):
        self.digest, self.sizes = hashlib.sha256(), []
        if binary:
            self.buffer = types.SimpleNamespace(write=self._put,
                                                flush=lambda: None)

    def _put(self, data) -> int:
        data = memoryview(data)
        self.digest.update(data)
        self.sizes.append(data.nbytes)
        return data.nbytes

    def write(self, text: str) -> int:
        self._put(text.encode("ascii"))
        return len(text)

    def flush(self) -> None:
        pass


def emitted_e16_gamma(monkeypatch, binary: bool) -> HashingWriter:
    """The E16 gamma report, written by ``_emit`` to a ``HashingWriter``
    as stdout."""
    report, code = cli.cmd_gamma("abelian:2,2,2,2", "2,2")
    sink = HashingWriter(binary)
    monkeypatch.setattr(sys, "stdout", sink)
    args = argparse.Namespace(out=None, format="json", command="gamma")
    assert cli._emit(report, code, args) == 0
    return sink


def test_gamma_e16_report_goes_out_in_row_sized_writes(monkeypatch):
    # the 1837 gamma rows and 1837 basis pairs in writes of about 64 KB:
    # 679 of them with the closing newline, where one write per pair took
    # 2,499 and entry by entry 42,996
    sink = emitted_e16_gamma(monkeypatch, binary=True)
    assert sink.digest.hexdigest() == E16_GAMMA_DIGEST
    assert len(sink.sizes) <= 679
    # and never the 38 MB report as one piece
    assert max(sink.sizes) < 1 << 17


def test_gamma_e16_report_to_a_text_only_stdout(monkeypatch):
    # a stdout with no .buffer, as the benchmark's tracer installs, gets
    # the same text in the same pieces
    sink = emitted_e16_gamma(monkeypatch, binary=False)
    assert sink.digest.hexdigest() == E16_GAMMA_DIGEST
    assert sink.sizes == emitted_e16_gamma(monkeypatch, binary=True).sizes


def test_gamma_e16_command_and_report_allocate_under_4_mb(monkeypatch):
    # the 1837 x 1837 gamma table is never held: its int8 form alone is
    # 3.4 MB, and the command and report together peaked at 6.6 MB of
    # Python allocations with it, 3.0 MB without
    sink = HashingWriter()
    monkeypatch.setattr(sys, "stdout", sink)
    args = argparse.Namespace(out=None, format="json", command="gamma")
    tracemalloc.start()
    try:
        report, code = cli.cmd_gamma("abelian:2,2,2,2", "2,2")
        assert cli._emit(report, code, args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == E16_GAMMA_DIGEST
    assert peak < 4 << 20


@pytest.mark.parametrize("fmt, digest", [
    ("json", E16_GAMMA_DIGEST),
    ("csv", "97a437abcc73760205864e9bcbaea5e511d0d1b8f806c46bff1f49c5b79138fb"),
], ids=["json", "csv"])
def test_gamma_e16_out_file_equals_stdout(capsys, tmp_path, fmt, digest):
    argv = ("gamma", "abelian:2,2,2,2", "--fiber", "2,2", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    dest = tmp_path / "gamma.out"
    assert run(capsys, *argv, "--out", str(dest))[:2] == (0, "")
    assert dest.read_bytes() == out.encode()


def nested(obj, level: int):
    """``obj`` as the only item of a list nested ``level`` deep."""
    for _ in range(level):
        obj = [obj]
    return obj


@st.composite
def int_blocks(draw):
    """Blocks of rows of one width, at least 1, and one integer dtype, some
    of them with no rows: entries mostly digits, some anywhere in the
    dtype."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int64",
                                           "uint8"])))
    info = np.iinfo(dtype)
    values = st.one_of(st.integers(0, 9), st.integers(0, 9),
                       st.integers(int(info.min), int(info.max)))
    shape = st.tuples(st.integers(0, 4), st.just(draw(st.integers(1, 6))))
    return draw(st.lists(hnp.arrays(dtype, shape, elements=values),
                         max_size=4))


@seed(20261020)
@settings(max_examples=250, deadline=None, database=None)
@given(int_blocks(), st.integers(0, 2))
@example([], 0)
@example([np.zeros((0, 3), dtype=np.int8)] * 2, 1)
# the first row in a later block, as a row of digits and as another row
@example([np.zeros((0, 3), dtype=np.int8),
          np.array([[1, 2, 3]], dtype=np.int8),
          np.array([[10, 0, 0], [0, 0, 4]], dtype=np.int8)], 0)
@example([np.zeros((0, 2), dtype=np.int16),
          np.array([[-1, 0], [0, 0]], dtype=np.int16)], 2)
def test_matrix_blocks_are_written_as_the_rows_of_one_matrix(blocks, level):
    # the gamma report hands the writer its class blocks as one matrix, in
    # JSON and in CSV
    rows = [row for block in blocks for row in block.tolist()]
    assert written({"m": cli._Matrix(iter(blocks))}) == \
        json.dumps({"m": rows}, indent=2)
    assert written(nested([[cli._Matrix(iter(blocks))]], level)) == \
        json.dumps(nested([[rows]], level), indent=2)
    pieces = []
    assert cli._write_rows(blocks, lambda data: pieces.append(bytes(data)),
                           "", "", ",", "\n") == len(rows)
    assert b"".join(pieces).decode("ascii") == "".join(
        ",".join(map(str, row)) + "\n" for row in rows)


@st.composite
def pair_classes(draw):
    """Fiber elements and the (members, character rows) of up to 3
    subgroups, as ``MonomialBasis.class_pairs`` yields them, with classes
    that have no pairs."""
    width = draw(st.integers(1, 3))
    elements = draw(st.lists(st.tuples(*[st.integers(0, 12)] * width),
                             min_size=1, max_size=5))
    classes = []
    for _ in range(draw(st.integers(0, 3))):
        members = draw(st.lists(st.integers(0, 1000), min_size=1,
                                max_size=4))
        rows = draw(st.lists(st.lists(st.integers(0, len(elements) - 1),
                                      min_size=len(members),
                                      max_size=len(members)), max_size=3))
        classes.append((tuple(members), np.asarray(
            rows, dtype=np.int64).reshape(len(rows), len(members))))
    return elements, classes


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@given(pair_classes(), st.integers(0, 3))
@example(([(0,)], []), 0)
@example(([(0, 1), (1, 0)], [((0,), np.zeros((0, 1), dtype=np.int64)),
                             ((0, 5), np.array([[0, 1], [1, 1]]))]), 3)
def test_pairs_are_written_as_their_objects(data, level):
    # the basis pairs of the gamma report go out one subgroup at a time,
    # each character joined from the texts of its fiber elements
    elements, classes = data
    pairs = [{"subgroup": list(members),
              "character": [elements[v] for v in row]}
             for members, rows in classes for row in rows.tolist()]
    assert written({"pairs": cli._Pairs(elements, iter(classes))}) == \
        json.dumps({"pairs": pairs}, sort_keys=True, indent=2)
    assert written(nested([cli._Pairs(elements, iter(classes))], level)) \
        == json.dumps(nested([pairs], level), sort_keys=True, indent=2)


def character_inits(command):
    # the profile hook sees every Python call, so a class named Character
    # counts wherever it is defined: in the package or in the oracles
    calls = []

    def profile(frame, event, arg):
        if event == "call" and \
                frame.f_code.co_qualname == "Character.__init__":
            calls.append(1)

    sys.setprofile(profile)
    try:
        return command(), len(calls)
    finally:
        sys.setprofile(None)


def test_gamma_builds_no_character_objects(capsys):
    # the report reads the characters' values from the CharIndex arrays
    (code, out, _), built = character_inits(
        lambda: run(capsys, "gamma", "symmetric:4", "--fiber", "6"))
    assert (code, built) == (0, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e5cd15f2342cc4c5c701508337b74d554a0b8f83262657960c6f0740bfbee6e8"
    # and the counter counts
    rep = conjugacy_classes_of_subgroups(symmetric_group(4)).reps[-1]
    homs, built = character_inits(lambda: hom_set(rep, cli._parse_fiber("6")))
    assert built == len(homs) == 2


@pytest.mark.parametrize("command", [
    lambda: cli.cmd_verify("abelian:2,2,2,2", "abelian:2,2,2,2", "2",
                           auto=True),
    cli.cmd_reproduce_paper,
], ids=["verify-e16-auto", "reproduce"])
def test_species_commands_build_no_character_objects(command):
    # the search and the family witness pair characters by CharIndex rows,
    # and both checks of verify_species compare arrays
    (report, code), built = character_inits(command)
    assert (code, built) == (0, 0)
    result = report["result"]
    assert result.get("valid", result.get("witness_valid")) is True


def _package_modules():
    """The package and every submodule of it."""
    modules = [fibered_burnside] + [
        importlib.import_module(f"fibered_burnside.{info.name}")
        for info in pkgutil.iter_modules(fibered_burnside.__path__)]
    assert {m.__name__ for m in modules} >= {
        "fibered_burnside.abelian_fiber", "fibered_burnside.errors",
        "fibered_burnside.group_core", "fibered_burnside.monomial"}
    return modules


def _assert_names_gone(removed, methods):
    """No module of the package defines or exports a name in ``removed``,
    and no class in ``methods`` has any of the names listed for it."""
    for module in _package_modules():
        assert not removed & set(vars(module)), module.__name__
        assert not removed & set(getattr(module, "__all__", ())), \
            module.__name__
    for cls, names in methods:
        assert not [name for name in names if hasattr(cls, name)]


def test_package_has_one_character_representation():
    # Hom(K, A) is held as CharIndex rows and a basis element as its class
    # and hom index; the Character and MonomialPair objects, which no
    # command built, live in the test oracles alone
    _assert_names_gone(
        {"Character", "trivial_character", "hom_set", "DomainMismatch",
         "MonomialPair"},
        ((MonomialBasis, ("reps", "stabilizers")),
         (Subgroup, ("position", "is_subset_of"))))


def test_package_has_no_ring_layer_or_one_pair_wrappers():
    # no command builds a ring element, a ghost element or the mark
    # morphism, or asks a batched kernel for one pair: those live in the
    # test oracles alone, and the gamma kernel takes one list of subgroups
    _assert_names_gone(
        {"BurnsideElement", "multiply", "GhostRing", "GhostElement",
         "ghost_multiply", "ghost_ring", "mark_morphism", "gamma_table",
         "gamma_block", "mark", "fixed_cosets", "double_coset_reps",
         "neg_table", "ComponentMismatch"},
        ((MonomialBasis, ("basis_element", "identity_index",
                          "identity_element", "_ghost_ring")),
         (group_core.FiniteGroup, ("element_order", "elements", "conj")),
         (group_core.trivial_group(), ("conj", "_conj")),
         (Subgroup, ("__contains__", "_positions", "_pos")),
         (AbelianFiber, ("add", "neg", "torsion_elements")),
         (AbelianFiber((2,)), ("neg_table",))))
    assert list(inspect.signature(gamma_rows).parameters) == ["subs", "fiber"]
    for module in _package_modules():
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, module.__name__


def test_package_has_one_character_index():
    # a character is found by its CharIndex position alone: the Hom layout
    # keeps no key array, key weights or key search of its own, and
    # CharIndex memoizes its table and decomposition as cached properties
    group = group_core.abelian_group((2, 2))
    layout = monomial._HomLayout(group_core.enumerate_subgroups(group),
                                 AbelianFiber((2,)))
    chars = layout.chars[-1]
    assert chars.decomposition.factors   # made on first use, with table
    _assert_names_gone(set(), (
        (layout, ("keys", "found", "weights", "key_start", "n_gens",
                  "_key")),
        (chars, ("_torsion", "_table", "_decomposition"))))


# Top-level functions and classes, and methods, that nothing in the package
# refers to, each with the reason it stays
UNREFERENCED = {
    "trivial_group": "public constructor of the one-element group, "
                     "exported beside cyclic_group",
}


def test_package_defines_nothing_it_never_uses():
    # a definition is used when some Name or Attribute node of the package
    # outside the definition itself carries its name; imports and __all__
    # strings do not count, so what only the tests reach shows here
    paths = sorted(Path(fibered_burnside.__file__).parent.rglob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in paths]

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    used = collections.Counter(name for tree in trees for name in names(tree))
    unused = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [node]
            elif isinstance(node, ast.ClassDef):
                defs = [node] + [
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))]
            else:
                continue
            for defn in defs:
                own = collections.Counter(names(defn))
                if used[defn.name] == own[defn.name]:
                    unused.append(defn.name)
    assert len(paths) >= 8 and len(used) > 500
    assert sorted(set(unused) - set(UNREFERENCED)) == []
    assert sorted(set(UNREFERENCED) - set(unused)) == []


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check that guards a result
    # raises an explicit error instead
    paths = sorted(Path(fibered_burnside.__file__).parent.rglob("*.py"))
    assert len(paths) >= 8
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found


KEYS = st.one_of(st.text(max_size=3), st.integers(-20, 20), st.booleans(),
                 st.none(), st.floats(), st.tuples(st.integers(0, 2)))


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(st.dictionaries(KEYS, st.one_of(
    INTS, st.lists(INTS, max_size=3),
    st.dictionaries(KEYS, INTS, max_size=3)), max_size=4))
@example({2: 0, 10: 1})
@example({None: 0})
@example({(0,): 0})
@example({1: 0, "1": 1})
def test_write_json_non_str_keys_match_or_raise_type_error(obj):
    try:
        text = written(obj)
    except TypeError:
        assert any(not isinstance(k, str) for k in _all_keys(obj))
    else:
        assert text == json.dumps(obj, sort_keys=True, indent=2)


def _all_keys(obj):
    for key, value in obj.items():
        yield key
        if isinstance(value, dict):
            yield from _all_keys(value)


PROBE_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_is_reported_under_the_suite_settings(tmp_path):
    # hypothesis imports libcst to report a failing example, and libcst
    # warns on import; under this project's filterwarnings that warning
    # must not end the session with INTERNALERROR before later tests run
    (tmp_path / "test_probe.py").write_text(PROBE_TESTS, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, check=False)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
