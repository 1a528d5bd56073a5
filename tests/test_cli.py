"""Command-line interface: spec parsing, output formats, exit codes, and
determinism. All invocations go through ``cli.main`` in process."""

import hashlib
import json

import pytest

from fibered_burnside import cli
from fibered_burnside.group_core import (conjugacy_classes_of_subgroups,
                                         symmetric_group)


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
    # automorphisms; the budget must stop the search without listing them
    code, report, _ = run_json(capsys, "verify", "abelian:2,2,2",
                               "abelian:2,2,2", "--fiber", "2,2", "--auto",
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
])
def test_verify_rejects_malformed_witness(capsys, tmp_path, witness):
    # C2 has two subgroup classes with 1 and 2 characters into C2
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(witness))
    code, out, err = run(capsys, "verify", "cyclic:2", "cyclic:2",
                         "--fiber", "2", "--witness", str(witness_file))
    assert_usage_error(code, err)
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


def test_bad_fiber_spec(capsys):
    code, _, err = run(capsys, "gamma", "cyclic:2", "--fiber", "x")
    assert code == 2
    assert "error:" in err


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


@pytest.mark.parametrize("payload", [
    5,                                        # not an object
    "order mul",                              # not an object
    {"order": 2, "mul": 5},                   # 'mul' not a list
    {"order": 2, "mul": [[0, 1], [1, None]]},  # entry not an integer
    {"order": 2, "mul": [[0, 1], [1, 0.5]]},   # entry not an integer
    {"order": 2, "mul": [[0, 1], [1, True]]},  # entry not an integer
])
def test_cayley_file_rejects_malformed_json(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
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


def test_reproduce_rejects_p_torsion_fiber(capsys):
    code, _, err = run(capsys, "reproduce", "--fiber", "11")
    assert code == 2
    assert "torsion" in err


def test_reproduce_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "reproduce", "--p", "10", "--q", "3")
    assert code == 2
    assert "error:" in err


def test_input_hash_stable(capsys):
    _, r1, _ = run_json(capsys, "marks", "cyclic:6")
    _, r2, _ = run_json(capsys, "marks", "cyclic:6")
    assert r1["input_hash"] == r2["input_hash"]


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
]


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN, ids=[
    "gamma-s4-fiber6", "gamma-d4-fiber2x4", "verify-auto-s3",
    "verify-witness-gamma-mismatch", "verify-thevenaz-147",
    "reproduce-7-3"])
def test_golden_stdout_digest(capsys, tmp_path, argv, exit_code, digest):
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(GAMMA_FAILING_D4_WITNESS))
    argv = [a.format(witness=witness_file) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
