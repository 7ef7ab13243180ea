import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twobridge
from twobridge.cli import main
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
    [["volume", "RL", "--bogus"], ["volume", "RL", "--tolerance", "-1e-10"], ["frobnicate", "RL"]],
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


def test_survey_deterministic(capsys):
    _, out1, _ = run_cli(["survey", "--max-n", "2"], capsys)
    _, out2, _ = run_cli(["survey", "--max-n", "2"], capsys)
    assert out1 == out2


def test_survey_csv_bytes_pinned(capsys):
    # The bytes depend on float summation order: explicit volumes must sum
    # each layer's angles in (v, h, d) order.
    code, out, _ = run_cli(["survey", "--max-n", "8"], capsys)
    assert code == 0
    assert out.count("\n") == 511
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bfef647417aa7e790cb2665fdcf090306d6caec515b46fc6ef4d94935b6ecdb1"
    )


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
