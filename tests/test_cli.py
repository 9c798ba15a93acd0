"""Command-line interface: outputs, schemas, determinism, exit codes."""

from __future__ import annotations

import csv
import json

import pytest

from loclab import dynamics
from loclab.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_classify_json(capsys):
    code, out = run_cli(
        ["classify", "--n", "3", "--p", "2", "--k", "2", "--no-timestamp"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["geometry"]["cos_alpha"] - 1 / 9) < 1e-15
    assert doc["params"]["stability"] == "TypeI"
    assert doc["params"]["lambda2"] == "4/1"


def test_classify_invalid_family(capsys):
    code, _ = run_cli(["classify", "--n", "4", "--p", "2", "--k", "2"], capsys)
    assert code == 2


def test_invalid_flag_values(capsys):
    code, _ = run_cli(
        ["classify", "--n", "3", "--p", "2", "--k", "2", "--t-max", "-1"], capsys
    )
    assert code == 2


def test_barriers_rational_field(capsys):
    code, out = run_cli(
        ["barriers", "--n", "5", "--p", "4", "--k", "4", "--no-timestamp"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    f0 = [c for c in doc["certificate"]["checks"] if c["name"] == "F(0)"][0]
    assert f0["value"] == "0/1"
    assert doc["certificate"]["pass"] is True


def test_classify_relaxed_odd_k_of_a_family(capsys):
    code, out = run_cli(
        ["classify", "--n", "3", "--p", "2", "--k", "3", "--relaxed", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)["params"]
    assert doc["stability"] == "TypeII"
    assert doc["relaxed"] is True


def test_barriers_without_a_real_strip_threshold(capsys):
    code = main(["barriers", "--n", "3", "--p", "1", "--k", "3", "--relaxed"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: WrongCase: ")
    assert "3p >= n + 1" in err


def test_determinism(capsys):
    args = ["classify", "--n", "5", "--p", "4", "--k", "6", "--no-timestamp"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    # timestamp present without the flag, and only it differs
    _, stamped = run_cli(args[:-1], capsys)
    doc, doc2 = json.loads(first), json.loads(stamped)
    doc2.pop("timestamp")
    assert doc == doc2


def test_portrait_csv(tmp_path, capsys):
    code, _ = run_cli(
        ["portrait", "--n", "3", "--p", "2", "--k", "4", "--no-timestamp",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    with (tmp_path / "orbit.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "phi", "psi"]
    assert len(rows) > 10
    sidecar = json.loads((tmp_path / "orbit_events.json").read_text())
    assert sidecar["terminal"] == "ConvergedToP1"
    assert any(e["kind"] == "PsiZero" for e in sidecar["events"])


def test_profile_csv(tmp_path, capsys):
    code, _ = run_cli(
        ["profile", "--n", "3", "--p", "2", "--k", "2", "--no-timestamp",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    with (tmp_path / "profile.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "rho", "rho_r", "residual"]
    assert all(abs(float(r[3])) < 1e-8 for r in rows[1:])


def test_dirichlet_at_phi0(tmp_path, capsys):
    code, out = run_cli(
        ["dirichlet", "--n", "3", "--p", "2", "--k", "4",
         "--phi-boundary", "at-phi0", "--no-timestamp",
         "--abs-tol", "1e-13", "--rel-tol", "1e-13"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)["dirichlet"]
    assert doc["multiplicity"]["kind"] == "UnboundedSequence"
    assert len(doc["d_values"]) >= 3


def test_dirichlet_below_the_seed_exits_1(capsys):
    code = main(["dirichlet", "--n", "3", "--p", "2", "--k", "2",
                 "--phi-boundary", "5e-9", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "DomainTooShort" in captured.err and "--seed-epsilon" in captured.err


def test_dirichlet_requires_boundary(capsys):
    code, _ = run_cli(["dirichlet", "--n", "3", "--p", "2", "--k", "4"], capsys)
    assert code == 2


@pytest.mark.parametrize("boundary", [[], ["--phi-boundary", "abc"]],
                         ids=["missing", "non-numeric"])
def test_dirichlet_bad_boundary_integrates_nothing(boundary, monkeypatch, capsys):
    calls = []

    def integrate_orbit(*args, **kwargs):
        calls.append(args)
        raise AssertionError("integrated before the boundary was checked")

    monkeypatch.setattr(dynamics, "integrate_orbit", integrate_orbit)
    code, out = run_cli(["dirichlet", "--n", "3", "--p", "2", "--k", "4"] + boundary,
                        capsys)
    assert code == 2
    assert out == ""
    assert calls == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dirichlet_nonfinite_boundary(value, monkeypatch, capsys):
    def integrate_orbit(*args, **kwargs):
        raise AssertionError("integrated before the boundary was checked")

    monkeypatch.setattr(dynamics, "integrate_orbit", integrate_orbit)
    code = main(["dirichlet", "--n", "3", "--p", "2", "--k", "2",
                 f"--phi-boundary={value}", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


def _integrating_nothing(monkeypatch):
    def integrate_orbit(*args, **kwargs):
        raise AssertionError("integrated before the input was checked")

    monkeypatch.setattr(dynamics, "integrate_orbit", integrate_orbit)


def test_dirichlet_negative_boundary_integrates_nothing(monkeypatch, capsys):
    _integrating_nothing(monkeypatch)
    code = main(["dirichlet", "--n", "3", "--p", "2", "--k", "2",
                 "--phi-boundary", "-0.5", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nonnegative" in captured.err


@pytest.mark.parametrize("flag", ["--t-max", "--abs-tol", "--rel-tol", "--seed-epsilon"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_nonfinite_numbers_integrate_nothing(flag, value, monkeypatch, capsys):
    _integrating_nothing(monkeypatch)
    code = main(["portrait", "--n", "3", "--p", "2", "--k", "2", f"{flag}={value}",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "positive and finite" in captured.err


@pytest.mark.parametrize("command", ["sweep", "classify"])
def test_config_format_has_the_flag_choices(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "format must be one of json, csv" in captured.err


@pytest.mark.parametrize("line", ["3 2 2 9", "3 2", "3 2 x", "3 2 2.0"])
def test_sweep_list_line_must_be_three_integers(line, tmp_path, capsys):
    listing = tmp_path / "triples.txt"
    listing.write_text(f"# n p k\n3 2 2\n{line}  # bad\n")
    code = main(["sweep", "--list", str(listing), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 3" in captured.err


def test_verify_hopf(capsys):
    code, out = run_cli(["verify-hopf", "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_sweep_csv(tmp_path, capsys):
    code, _ = run_cli(
        ["sweep", "--format", "csv", "--no-timestamp", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "p", "k", "type", "phi0", "cos_alpha",
                       "volume_ratio", "slope_W", "verdict"]
    assert len(rows) == 9
    assert {r[3] for r in rows[1:]} == {"TypeI", "TypeII"}


def test_sweep_list_file(tmp_path, capsys):
    listing = tmp_path / "triples.txt"
    listing.write_text("3 2 2\n5,4,4  # with a comment\n")
    code, out = run_cli(["sweep", "--list", str(listing), "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [(r["n"], r["p"], r["k"]) for r in doc["rows"]] == [(3, 2, 2), (5, 4, 4)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_row_without_a_certificate_case_fails_alone(fmt, tmp_path, capsys):
    # (3,1,3) is a relaxed spiral with 3p < n + 1: its certificate raises
    # WrongCase, which fails that row and leaves the others
    listing = tmp_path / "triples.txt"
    listing.write_text("3 2 2\n3 1 3\n3 2 4\n")
    code = main(["sweep", "--relaxed", "--list", str(listing), "--format", fmt,
                 "--out", str(tmp_path), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 1
    assert "(3,1,3): WrongCase: " in captured.err and "3p >= n + 1" in captured.err
    if fmt == "json":
        rows = [(r["n"], r["p"], r["k"], r["verdict"]) for r in json.loads(captured.out)["rows"]]
    else:
        with (tmp_path / "sweep.csv").open() as fh:
            rows = [(int(r["n"]), int(r["p"]), int(r["k"]), r["verdict"])
                    for r in csv.DictReader(fh)]
    assert rows == [(3, 2, 2, "certified"), (3, 1, 3, "failed"), (3, 2, 4, "certified")]


@pytest.mark.parametrize("triple", [(3, 2, 5), (3, 1, 5), (4, 1, 4), (4, 2, 4)])
@pytest.mark.parametrize("command", [["profile"], ["dirichlet", "--phi-boundary", "at-phi0"]],
                         ids=["profile", "dirichlet"])
def test_relaxed_spirals_converge_on_the_command_line(command, triple, tmp_path, capsys):
    n, p, k = (str(v) for v in triple)
    code = main([*command, "--n", n, "--p", p, "--k", k, "--relaxed", "--no-timestamp",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    json.loads(captured.out)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_list_without_triples_is_refused(fmt, tmp_path, capsys):
    listing = tmp_path / "triples.txt"
    listing.write_text("# nothing\n\n   \n")
    out = tmp_path / "out"
    code = main(["sweep", "--list", str(listing), "--format", fmt,
                 "--out", str(out), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{listing}: no 'n p k' triples" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, key, value", [("--jobs", "jobs", 2),
                                              ("--event-tol", "event_tol", 1e-12)],
                         ids=["jobs", "event_tol"])
def test_removed_flags_and_keys_exit_2(flag, key, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "3", "--p", "2", "--k", "2", flag, str(value)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # the field is gone, so a config file naming it is an unknown key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["classify", "--config", str(cfg)]) == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "p": 2, "k": 2, "no_timestamp": True}))
    code, out = run_cli(["classify", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["params"]["k"] == 2
    # flags override the file
    code, out = run_cli(["classify", "--config", str(cfg), "--k", "4"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["k"] == 4


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = run_cli(["classify", "--config", str(cfg)], capsys)
    assert code == 2


def test_config_cannot_set_the_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "barriers"}))
    code = main(["classify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown config key: command" in captured.err


@pytest.mark.parametrize("doc", [{"t_max": "abc"}, {"n": True}, {"k": 2.5},
                                 {"no_timestamp": 1}, {"phi_boundary": [0.5]}, [1]],
                         ids=["str-for-float", "bool-for-int", "float-for-int",
                              "int-for-bool", "list-for-str", "not-an-object"])
def test_config_value_of_wrong_type(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = main(["classify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "config" in captured.err


def test_config_numbers_fit_float_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 50, "phi_boundary": 0.25, "no_timestamp": True,
                               "n": 3, "p": 2, "k": 2}))
    code, out = run_cli(["dirichlet", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["dirichlet"]["phi_boundary"] == 0.25
