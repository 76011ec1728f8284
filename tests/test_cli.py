import json

import pytest

from znlcs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_game_classical(capsys):
    code, report = run(capsys, "game", "classical", "--n", "3")
    assert code == 0
    assert report["pass"] is True
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["classical_value"]["value"] == pytest.approx(0.75)
    assert "wallTimeSeconds" in report


def test_strategy_value_both_paths(capsys):
    for via in ("direct", "bias"):
        code, report = run(capsys, "strategy", "value", "--n", "3",
                           "--via", via)
        assert code == 0
        value = report["results"][0]
        assert value["value"] == pytest.approx(0.833333, abs=1e-6)
        assert value["tolerance"] == 1e-9


def test_results_carry_tolerances(capsys):
    code, report = run(capsys, "bias", "spectrum", "--n", "2")
    assert code == 0
    checked = [r for r in report["results"] if "pass" in r]
    assert checked
    assert all("tolerance" in r for r in checked)


def test_bcs_glued_witness(capsys):
    code, report = run(capsys, "bcs", "glued", "--witness")
    assert code == 0
    by_name = {r["name"]: r["value"] for r in report["results"]}
    assert by_name["inner_product"] == pytest.approx(0.5)
    assert by_name["trace"] == pytest.approx(4.0)


def test_npa_export_writes_file(capsys, tmp_path):
    out = tmp_path / "g2.dat-s"
    code, report = run(capsys, "npa", "export", "--n", "2", "--level", "1",
                       "--out", str(out))
    assert code == 0
    assert out.exists()


def test_entropy_csv_schema(capsys, tmp_path):
    out = tmp_path / "entropy.csv"
    code, _ = run(capsys, "strategy", "entropy", "--n-max", "5",
                  "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value,entropy_ratio"
    assert len(lines) == 5  # header + n = 2..5


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv,flag", [
    ("game classical --n 1", "--n"),
    ("game classical --n 3 --m1 3", "--m1"),
    ("game classical --n 3 --m2 -1", "--m2"),
    ("strategy value --n 1", "--n"),
    ("strategy entropy --n-max 1", "--n-max"),
    ("bias spectrum --n 0", "--n"),
    ("group enumerate --n 0", "--n"),
    ("npa export --n 1 --out unused.dat-s", "--n"),
    ("group enumerate --n 14", "--n"),
    ("group normal-form --n 14", "--n"),
    ("group normal-form --n 1000000000000", "--n"),
    ("sos verify --cert chsh --trials 0", "--trials"),
    ("relations check --n 4", "--n"),
    ("bcs magic-square --witness", "--witness"),
])
def test_bad_input_exits_2_without_traceback(capsys, argv, flag):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}:" in captured.err
    assert "Traceback" not in captured.err


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("ZNLCS_SEED", "12345")
    from znlcs.cli import _seed_default
    assert _seed_default() == 12345


def test_deterministic_reports(capsys):
    code1, r1 = run(capsys, "sos", "verify", "--cert", "chsh",
                    "--trials", "5", "--seed", "3")
    code2, r2 = run(capsys, "sos", "verify", "--cert", "chsh",
                    "--trials", "5", "--seed", "3")
    assert code1 == code2 == 0
    r1.pop("wallTimeSeconds")
    r2.pop("wallTimeSeconds")
    assert r1 == r2
