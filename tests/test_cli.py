"""Command-line interface: outputs, schemas, determinism, exit codes."""

from __future__ import annotations

import csv
import json

import pytest

from loclab import dynamics
from loclab.cli import main
from loclab.serialize import to_jsonable


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


def test_abs_tol_at_the_seed_epsilon_integrates_nothing(monkeypatch, capsys):
    # with atol as large as the seed's phi, the seed region is solver noise
    _integrating_nothing(monkeypatch)
    code = main(["portrait", "--n", "3", "--p", "2", "--k", "2", "--abs-tol", "1e-8",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "abs_tol 1e-08" in captured.err and "seed_epsilon 1e-08" in captured.err


def test_abs_tol_below_the_seed_epsilon_runs(tmp_path, capsys):
    code = main(["portrait", "--n", "3", "--p", "2", "--k", "2", "--abs-tol", "1e-8",
                 "--seed-epsilon", "1e-6", "--no-timestamp", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("flags", [["--n", "7", "--p", "4", "--k", "2"],
                                   ["--n", "5", "--p", "4", "--k", "2", "--relaxed"]])
def test_verify_hopf_refuses_another_triple(flags, monkeypatch, capsys):
    # the Hopf map is of (3,2,2)-type: another triple is refused before integrating
    _integrating_nothing(monkeypatch)
    code = main(["verify-hopf", *flags, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: WrongCase: ")
    assert f"({flags[1]},{flags[3]},{flags[5]})" in captured.err


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


@pytest.mark.parametrize("flag", ["--jobs", "--event-tol", "--config"],
                         ids=["jobs", "event_tol", "config"])
def test_removed_flags_and_keys_exit_2(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "3", "--p", "2", "--k", "2", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--format", "xml"], ["--k", "2.5"], ["--t-max", "abc"]],
                         ids=["format", "float-for-int", "str-for-float"])
def test_flag_values_of_the_wrong_type_exit_2_before_running(flags, monkeypatch, capsys):
    _integrating_nothing(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["portrait", *flags, "--no-timestamp"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flags[0]}: invalid" in captured.err


@pytest.mark.parametrize("command", [["classify"], ["dirichlet", "--phi-boundary", "at-phi0"],
                                     ["barriers"], ["verify-hopf"], ["sweep"]],
                         ids=["classify", "dirichlet", "barriers", "verify-hopf", "sweep"])
def test_no_report_is_printed_when_its_out_file_fails(command, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([*command, "--no-timestamp", "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Not a directory" in captured.err


def test_classify_defaults_to_the_hopf_triple(capsys):
    _, bare = run_cli(["classify", "--no-timestamp"], capsys)
    _, explicit = run_cli(["classify", "--n", "3", "--p", "2", "--k", "2", "--no-timestamp"],
                          capsys)
    assert bare == explicit


def test_profile_defaults_to_the_solver_defaults(tmp_path, capsys):
    flags = ["--t-max", "200", "--abs-tol", "1e-10", "--rel-tol", "1e-10",
             "--seed-epsilon", "1e-8"]
    runs = {}
    for name, extra in (("bare", []), ("explicit", flags)):
        out = tmp_path / name
        code, stdout = run_cli(["profile", *extra, "--no-timestamp", "--out", str(out)], capsys)
        assert code == 0
        runs[name] = stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert runs["bare"] == runs["explicit"]
    assert set(runs["bare"][1]) == {"profile.csv", "profile_summary.json"}


def test_sweep_defaults_to_json(capsys):
    code, out = run_cli(["sweep", "--no-timestamp"], capsys)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 8


def test_an_unknown_type_is_not_serialized():
    with pytest.raises(TypeError, match="object"):
        to_jsonable(object())
