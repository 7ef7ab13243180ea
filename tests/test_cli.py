import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twobridge
from twobridge.cli import main
from twobridge.triangulation import VerificationError
from twobridge.word import enumerate_words


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_simplify_isosig_golden(capsys):
    code, out, _ = run_cli(["simplify", "R^2LR", "--isosig"], capsys)
    assert code == 0
    assert out.strip() == "fLLQcbcdeeetsfxxh"


def test_bounds_json_petronio(capsys):
    code, out, _ = run_cli(["bounds", "RLR", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["petronio_vesnin"] == 2.0
    assert doc["schema_version"] == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(["build", "Q"], capsys)
    assert code == 1
    assert "error" in err


def test_build_table_and_isosig(capsys):
    code, out, _ = run_cli(["build", "RL"], capsys)
    assert code == 0 and "Tetrahedron" in out
    code, out, _ = run_cli(["build", "RL", "--isosig"], capsys)
    assert out.strip() == "cPcbbbiht"
    code, out, _ = run_cli(["build", "RL", "--json"], capsys)
    assert json.loads(out)["tet_count"] == 2


def test_words_are_normalised(capsys):
    # mirror words describe the same complement
    _, out1, _ = run_cli(["build", "LR^3L", "--isosig"], capsys)
    _, out2, _ = run_cli(["build", "RL^3R", "--isosig"], capsys)
    assert out1 == out2


def test_edges_json(capsys):
    code, out, _ = run_cli(["edges", "R^2LR", "--json"], capsys)
    doc = json.loads(out)
    assert doc["has_degree_3"] and not doc["has_degree_4"]
    assert sorted(doc["degrees"]).count(3) == 2


def test_blocks_json(capsys):
    code, out, _ = run_cli(["blocks", "RLR^2LR"], capsys)
    assert json.loads(out)[0]["kind"] == "B3"


@pytest.mark.parametrize("command", ["build", "edges", "simplify", "blocks", "angles", "volume", "bounds"])
def test_one_syllable_words_rejected(capsys, command):
    code, out, err = run_cli([command, "R^3"], capsys)
    assert code == 1 and out == "" and "error" in err


@pytest.mark.parametrize("command", ["build", "edges", "simplify", "volume"])
def test_huge_exponent_is_bad_input(capsys, command):
    # R L^(10^20) overflows the letter expansion before anything is allocated
    code, out, err = run_cli([command, "RL^100000000000000000000"], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_huge_exponent_bounds_succeed(capsys):
    code, out, _ = run_cli(["bounds", "RL^100000000000000000000"], capsys)
    assert code == 0 and out


def test_angles_verified(capsys):
    code, out, _ = run_cli(["angles", "RL^2R", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_angles_rejects_outside_family(capsys):
    code, _, err = run_cli(["angles", "RL^3R"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "args, code",
    [
        (["bounds", "R^2L"], 0),
        (["angles", "RL^2"], 1),
        (["volume", "R^2L"], 0),
    ],
)
def test_end_exponent_above_one_is_outside_family(capsys, args, code):
    assert run_cli(args, capsys)[0] == code


def test_bounds_outside_family_reports_generic_bounds(capsys):
    code, out, _ = run_cli(["bounds", "R^2LR", "--json"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["explicit_volume"] is None and doc["tet_count"] == 6


@pytest.mark.parametrize(
    "args",
    [
        ["volume", "RL", "--bogus"],
        ["volume", "RL", "--tolerance", "-1e-10"],
        ["frobnicate", "RL"],
        ["bounds", "RL", "--json", "--csv"],  # two output formats
        ["build", "RL", "--isosig", "--json"],
        ["simplify", "RL", "--isosig", "--json"],
        ["blocks", "RLR^2LR", "--json"],  # blocks always prints JSON
    ],
)
def test_usage_errors_exit_1(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    _, err = capsys.readouterr()
    assert exc.value.code == 1
    assert err.startswith("usage: twobridge") and "error:" in err


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["volume", "--help"]])
def test_help_and_version_exit_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_volume_json(capsys):
    code, out, _ = run_cli(["volume", "RL", "--json"], capsys)
    doc = json.loads(out)
    assert abs(doc["maximized_volume"] - 2.029883) < 1e-5
    assert doc["explicit_volume"] is None


@pytest.mark.parametrize(
    "option, value",
    [("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "0"), ("--tolerance", "-1"), ("--max-iters", "-1")],
)
def test_volume_rejects_bad_stopping_options(capsys, option, value):
    code, out, err = run_cli(["volume", "RL", option, value], capsys)
    assert code == 1
    assert out == ""
    assert option.lstrip("-").replace("-", "_") in err


def test_survey_row_count(capsys):
    code, out, _ = run_cli(["survey", "--max-n", "3"], capsys)
    lines = [l for l in out.strip().splitlines() if l]
    expected = len(list(enumerate_words(3, {1, 2})))
    assert len(lines) == expected + 1  # header + one row per word
    code, out, _ = run_cli(["survey", "--max-n", "3", "--C", "0"], capsys)
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == len(list(enumerate_words(3, {1, 2}, fixed_C=0))) + 1


def test_survey_rejects_a_negative_C(capsys):
    # Every exponent is at least 1, so no word has fewer than zero squared
    # syllables: an empty table would hide the mistake.
    code, out, err = run_cli(["survey", "--max-n", "2", "--C", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "fixed_C must be >= 0" in err


def test_survey_deterministic(capsys):
    _, out1, _ = run_cli(["survey", "--max-n", "2"], capsys)
    _, out2, _ = run_cli(["survey", "--max-n", "2"], capsys)
    assert out1 == out2


def test_survey_csv_bytes_pinned(capsys):
    # The bytes depend on float summation order: explicit volumes must sum
    # each layer's angles in triple order, (h, v, d), or in (v, h, d), which
    # only swaps the first two addends and sums alike.
    code, out, _ = run_cli(["survey", "--max-n", "8"], capsys)
    assert code == 0
    assert out.count("\n") == 511
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bfef647417aa7e790cb2665fdcf090306d6caec515b46fc6ef4d94935b6ecdb1"
    )


@pytest.mark.parametrize("mode, header", [([], 1), (["--json"], 0)])
def test_survey_streams_its_rows(monkeypatch, mode, header):
    # When each report is computed, the rows of all the reports before it
    # (and the CSV header) are already written.
    out, written, report = io.StringIO(), [], twobridge.cli.bounds_report

    def counting_report(w):
        written.append(out.getvalue().count("\n"))
        return report(w)

    monkeypatch.setattr(twobridge.cli, "bounds_report", counting_report)
    with contextlib.redirect_stdout(out):
        assert main(["survey", "--max-n", "3", *mode]) == 0
    assert written == [header + k for k in range(len(list(enumerate_words(3, {1, 2}))))]
    assert out.getvalue().count("\n") == header + len(written)


PIN_WORDS = ["RL", "RLR", "R^2LR", "RL^2R", "RL^3R", "RLRLR", "R^2L^2R", "RL^2RLR^2L"]
PIN_MODES = {
    "build": [[], ["--json"], ["--isosig"]],
    "edges": [[], ["--json"]],
    "simplify": [[], ["--json"], ["--isosig"]],
    "blocks": [[]],
    "angles": [[], ["--json"]],
    "volume": [[], ["--json"]],
    "bounds": [[], ["--json"], ["--csv"]],
}
# (explicit, maximised) volume of each pinned word.
PIN_VOLUMES = {
    "RL": (None, 2.029883212819308),
    "RLR": (3.3831386880321794, 3.6638623767088774),
    "R^2LR": (None, 4.400832516123047),
    "RL^2R": (5.252258794478314, 5.33348956689812),
    "RL^3R": (None, 6.1381387890852475),
    "RLRLR": (7.442905113670795, 7.643375172359956),
    "R^2L^2R": (None, 6.443537380850573),
    "RL^2RLR^2L": (12.209447713655537, 12.800390354861706),
}
FLOAT = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")


def test_every_output_mode_pinned(capsys):
    # Each command and mode on each word alone, then on all words in one run
    # (where a failing word stops the run after the records before it).
    # Volume output depends on the BLAS, so its floats are compared to
    # PIN_VOLUMES within 1e-12 and the digest sees them as "F"; the
    # gradient norm need only be within the default tolerance.
    digest = hashlib.sha256()
    for command, modes in PIN_MODES.items():
        for mode in modes:
            for words in [[w] for w in PIN_WORDS] + [PIN_WORDS]:
                code, out, _ = run_cli([command, *words, *mode], capsys)
                if command == "volume":
                    expected = []  # per word: the explicit volume if any, the maximised volume, the gradient norm
                    for w in words:
                        explicit, maximised = PIN_VOLUMES[w]
                        expected += [maximised, None] if explicit is None else [explicit, maximised, None]
                    floats = [float(x) for x in FLOAT.findall(out)]
                    assert len(floats) == len(expected)
                    for got, want in zip(floats, expected):
                        assert 0 <= got <= 1e-10 if want is None else math.isclose(got, want, rel_tol=0, abs_tol=1e-12)
                    out = FLOAT.sub("F", out)
                digest.update(f"{command} {words} {mode} {code}\n{out}".encode())
    assert digest.hexdigest() == "38b668b330caabb3cb23eb82146dc85062b73e754fb772324f5a357822255a70"


def test_simplify_text_prints_no_partial_record(capsys):
    # 74 tetrahedra: the final signature cannot be encoded, so the record
    # is not printed at all, in text mode as in JSON mode.
    word = "R" + "L^2R^2" * 9 + "L"
    for mode in [[], ["--json"]]:
        code, out, err = run_cli(["simplify", word, *mode], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: signatures for >= 63 tetrahedra")


def test_only_the_printers_print():
    # Records are built whole before they are printed: the per-word driver
    # and _print_reports print, main prints errors, and nothing else does.
    tree = ast.parse(Path(twobridge.cli.__file__).read_text())
    printers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                printers.add(getattr(top, "name", top.lineno))
    assert printers == {"_each_word", "_print_reports", "main"}


def test_words_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("RL\nR^2LR\n")
    code, out, _ = run_cli(["build", "--words-file", str(path), "--isosig"], capsys)
    assert out.splitlines() == ["cPcbbbiht", encode_of_r2lr()]


def encode_of_r2lr():
    from twobridge.isosig import encode_isosig
    from twobridge.triangulation import build_sakuma_weeks
    from twobridge.word import parse_word

    return encode_isosig(build_sakuma_weeks(parse_word("R^2LR")))


def test_installed_entry_point():
    # The child imports the same package as this session, installed or not.
    env = dict(os.environ)
    root = str(Path(twobridge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twobridge.cli", "simplify", "RL^3R", "--isosig"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "hLLMPkbcdfggfgmvfafwkf"


def test_verification_failure_exits_2_without_a_record(capsys, monkeypatch):
    def broken(tri, w):
        raise VerificationError("degree predicates disagree")

    monkeypatch.setattr(twobridge.cli, "degree_predicates", broken)
    code, out, err = run_cli(["edges", "R^2LR", "--json"], capsys)
    assert (code, out) == (2, "")
    assert err == "verification failure: degree predicates disagree\n"


def test_unverified_angles_record_is_printed_and_exits_2(capsys, monkeypatch):
    real = twobridge.cli.verify_angle_structure

    def off_by_a_24th(tri, angles):  # the first angle of tetrahedron 0 raised by pi/24
        return real(tri, [[angles[0][0] + Fraction(1, 24), *angles[0][1:]], *angles[1:]])

    monkeypatch.setattr(twobridge.cli, "verify_angle_structure", off_by_a_24th)
    code, out, err = run_cli(["angles", "RL^2R", "--json"], capsys)
    doc = json.loads(out)
    assert (code, err) == (2, "")
    assert doc["verified"] is False and doc["bad_edge_classes"]


def test_unconverged_volume_record_is_printed_and_exits_2(capsys):
    # A run cut short by --max-iters is no maximum.  Seeded, RL^2R stays on
    # its angle equations, so the projected gradient is a number (about
    # 0.032).  At x = pi/3, RL^3R is off them, and V there, 8.1195, is above
    # the hyperbolic volume 6.1381; the projected gradient says nothing there
    # (it would read 0.0), so it is null.
    code, out, err = run_cli(["volume", "RL^2R", "--max-iters", "1"], capsys)
    assert (code, err) == (2, "") and "converged: False" in out.splitlines()
    code, out, err = run_cli(["volume", "RL^2R", "--max-iters", "1", "--json"], capsys)
    doc = json.loads(out)
    assert (code, err) == (2, "") and doc["converged"] is False
    assert type(doc["gradient_norm"]) is float and 0.01 < doc["gradient_norm"] < 0.1
    code, out, err = run_cli(["volume", "RL^3R", "--max-iters", "0", "--json"], capsys)
    doc = json.loads(out)
    assert (code, err) == (2, "") and doc["converged"] is False
    assert abs(doc["maximized_volume"] - 8.1195) < 1e-4 and doc["gradient_norm"] is None


def test_no_words_is_bad_input(capsys):
    code, out, err = run_cli(["build"], capsys)
    assert (code, out, err) == (1, "", "error: no words given\n")
