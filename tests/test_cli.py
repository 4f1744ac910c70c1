import json

import numpy as np
import pytest

from randers import cli


def run(argv):
    return cli.main(argv)


def test_info_runs(capsys):
    assert run(["info"]) == 0
    out = capsys.readouterr().out
    assert "kind: paraboloid-like" in out
    assert "von Mangoldt (curvature non-increasing): true" in out
    assert "geodesic parallels: none" in out
    # 17-significant-digit output round-trips
    margin_line = [l for l in out.splitlines() if "margin" in l][0]
    val = float(margin_line.split(":")[1])
    assert abs(val - 0.0012476611221554634) < 1e-18


def test_info_custom_surface(tmp_path, capsys):
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({
        "kind": "custom", "m": "r - r^5/20", "m1": "1 - r^4/4", "m2": "-r^3",
        "mu": 0.5, "r_max": 1.8}))
    assert run(["info", "--surface", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "von Mangoldt: false" in out
    assert "geodesic parallels at r = 1.414213" in out


@pytest.mark.parametrize("r_max,radii", [(2.0, ["0", "1", "2"]), (1.0, ["0", "0.5", "1"]),
                                         (0.5, ["0", "0.25", "0.5"])])
def test_info_prints_each_radius_once(tmp_path, capsys, r_max, radii):
    # the radii 0, 1, r_max / 2 and r_max repeat where r_max is 2 or 1, and
    # r = 1 lies outside the profile where r_max < 1
    cfg = tmp_path / "hyperbolic.json"
    cfg.write_text(json.dumps({"kind": "custom", "m": "sinh(r)", "m1": "cosh(r)",
                               "m2": "sinh(r)", "mu": 0.2, "r_max": r_max}))
    assert run(["info", "--surface", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(set(lines)) == len(lines)
    assert [l.split("(")[1].split(")")[0] for l in lines if l.startswith("  m(")] == radii


def test_geodesic_exports(tmp_path, capsys):
    rc = run(["geodesic", "--r0", "2", "--heading", "0.8", "--length", "5",
              "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "geodesic_F.csv").read_text().splitlines()
    assert csv[0] == "s,r,theta,dr,dtheta"
    meta = json.loads((tmp_path / "geodesic_F.json").read_text())
    assert meta["metric_tag"] == "F"
    assert meta["config"]["engine_version"]
    h_meta = json.loads((tmp_path / "geodesic_h.json").read_text())
    assert h_meta["metric_tag"] == "h"
    assert h_meta["nu"] == pytest.approx(meta["nu"])
    assert meta["config"]["tolerances"] == {"tol_ode": 1e-10}
    assert "seed" not in meta["config"]   # only --embed draws a seed
    # --format json writes the samples into the sidecar in place of the CSV
    rc = run(["geodesic", "--r0", "2", "--heading", "0.8", "--length", "5",
              "--format", "json", "--out", str(tmp_path / "js")])
    assert rc == 0 and not (tmp_path / "js" / "geodesic_F.csv").exists()
    doc = json.loads((tmp_path / "js" / "geodesic_F.json").read_text())
    assert len(doc["samples"]) == doc["n_samples"] == meta["n_samples"]


def test_geodesic_exports_keep_their_resolution(tmp_path):
    # at tol 1e-10 the integrator's steps on this launch reach 1.5; the
    # exports add its dense output between them, so rows stay within 0.1
    rc = run(["geodesic", "--heading", "0.7", "--length", "20", "--embed",
              "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "geodesic_F.json").read_text())
    assert meta["exit_reason"] == "domain-exit"   # at s = 19.08, on r = 20
    for name in ("geodesic_h.csv", "geodesic_F.csv", "geodesic_F_xyz.csv"):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        s = np.array([float(row.split(",")[0]) for row in rows])
        assert len(rows) == meta["n_samples"] >= 201
        assert s[0] == 0.0 and s[-1] == meta["s_end"]
        assert np.diff(s).max() <= 0.1


def test_geodesic_fan_with_embedding(tmp_path):
    rc = run(["geodesic", "--fan", "4", "--length", "4", "--embed",
              "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "meridian_h.csv").exists()
    for k in range(4):
        assert (tmp_path / f"twisted_{k}_F.csv").exists()
        assert (tmp_path / f"twisted_{k}_F_xyz.csv").exists()
    obj = (tmp_path / "surface.obj").read_text()
    assert obj.startswith("#") and "\nf " in obj
    xyz = (tmp_path / "twisted_0_F_xyz.csv").read_text().splitlines()
    assert xyz[0] == "s,x,y,z"
    doc = json.loads((tmp_path / "pullback_report.json").read_text())
    assert doc["max_residual"] <= 1e-9


def test_geodesic_embed_writes_pullback_report(tmp_path, capsys):
    rc = run(["geodesic", "--r0", "1", "--heading", "0.5", "--length", "30",
              "--embed", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "pullback_report.json").read_text())
    assert doc["samples"] == 1000 and doc["seed"] == 3
    assert doc["height_map"] == "arclength" and doc["r_range"] == [0.1, 5.0]
    assert doc["max_residual"] <= 1e-9
    assert doc["config"]["command"] == "geodesic"
    # the path leaves r <= 20 before s = 30; its exit sample still embeds
    meta = json.loads((tmp_path / "geodesic_F.json").read_text())
    assert meta["exit_reason"] == "domain-exit"
    xyz = (tmp_path / "geodesic_F_xyz.csv").read_text().splitlines()
    assert len(xyz) == meta["n_samples"] + 1


def test_distance_command(tmp_path, capsys):
    rc = run(["distance", "--from", "1", "0", "--to", "1", "1",
              "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "distance.json").read_text())
    assert doc["distance"] == pytest.approx(0.41377347, abs=1e-6)
    assert doc["iterations"] > 0
    assert doc["config"]["command"] == "distance"


def test_cutlocus_command(tmp_path, capsys):
    rc = run(["cutlocus", "--q", "1", "0", "--s-max", "3.2",
              "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "cutlocus.json").read_text())
    assert doc["rho"] == 1.0
    assert doc["c"] == pytest.approx(2.0, abs=1e-7)
    chk = json.loads((tmp_path / "cutpoint_check.json").read_text())
    assert chk["verified"] is True
    # the echo lists what the command read: its surface, no seed or tol_ode
    assert chk["config"] == {"engine_version": chk["config"]["engine_version"],
                             "command": "cutlocus",
                             "surface": {"kind": "paraboloid", "mu": 1.0}}
    csv = (tmp_path / "cutlocus.csv").read_text().splitlines()
    assert csv[0] == "s,r,theta"


def test_exit_codes(tmp_path, capsys):
    # usage error
    assert run(["--no-such-flag", "info"]) == 1
    assert run([]) == 1
    # domain / config errors
    assert run(["info", "--surface", "/nonexistent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "weird"}))
    assert run(["info", "--surface", str(bad)]) == 2
    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps({"kind": "custom", "m": "r", "m1": "1",
                                 "m2": "0", "mu": 2.0, "r_max": 5.0}))
    assert run(["info", "--surface", str(degen)]) == 2
    capsys.readouterr()
    assert run(["distance", "--from", "nan", "0", "--to", "1", "1",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    # non-finite or non-positive lengths and tolerances are domain errors
    # a tol below odesolve.MIN_TOL is rejected before any integration starts
    for flags in (["--length", "nan"], ["--length", "inf"], ["--length", "0"],
                  ["--tol-ode", "nan"], ["--tol-ode", "0"], ["--tol-ode=-1e-10"],
                  ["--tol-ode", "1e-25"]):
        for mode in ([], ["--fan", "1"]):
            out = tmp_path / "bad-geodesic"
            assert run(["geodesic", *mode, *flags, "--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
            assert not out.exists() or not any(out.glob("geodesic_*"))
    # non-finite headings, root tolerances and cut-locus spans likewise,
    # each blamed on its own flag
    for argv, name in ((["geodesic", "--r0", "1", "--heading", "inf"], "heading"),
                       (["geodesic", "--r0", "1", "--heading", "nan"], "heading"),
                       (["distance", "--from", "1", "0", "--to", "1", "1",
                         "--tol-root", "nan"], "tol"),
                       (["distance", "--from", "1", "0", "--to", "1", "1",
                         "--tol-root", "0"], "tol"),
                       (["cutlocus", "--q", "1", "0", "--s-max", "nan"], "s_export_max"),
                       (["cutlocus", "--q", "1", "0", "--s-max", "inf"], "s_export_max")):
        assert run([*argv, "--out", str(tmp_path / "bad")]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, argv
        assert name in err and "point coordinates" not in err, argv
    # the quadrature tolerance flag is gone: no command reads one
    assert run(["info", "--tol-quad", "1e-10"]) == 1


@pytest.mark.parametrize("argv", [
    ["info", "--tol-ode", "1e-3"],
    ["verify", "--surface", "f.json"],
    ["cutlocus", "--q", "1", "0", "--seed", "3"],
    ["distance", "--from", "1", "0", "--to", "1", "1", "--format", "json"],
    ["geodesic", "--format", "obj"],
])
def test_each_command_rejects_flags_it_does_not_read(argv):
    assert run(argv) == 1


@pytest.mark.parametrize("flags,unread", [
    (["--fan", "1", "--r0", "5"], "--r0"),
    (["--fan", "1", "--theta0", "2"], "--theta0"),
    (["--fan", "1", "--heading", "1"], "--heading"),
    (["--fan", "1", "--seed", "4"], "--seed"),
    (["--r0", "2", "--heading", "0.7", "--seed", "4"], "--seed"),
    (["--r0", "0", "--heading", "1"], "--heading"),
])
def test_geodesic_rejects_flags_its_run_does_not_read(tmp_path, capsys, flags, unread):
    # the fan starts at the vertex, a geodesic from the vertex leaves along
    # theta0, and only --embed draws a seed
    assert run(["geodesic", *flags, "--length", "2", "--out", str(tmp_path)]) == 1
    assert unread in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_geodesic_defaults_apply_where_read(tmp_path):
    # a single geodesic launches from r0 = 1, theta0 = 0 at heading 0
    assert run(["geodesic", "--length", "2", "--out", str(tmp_path / "a")]) == 0
    assert run(["geodesic", "--r0", "1", "--theta0", "0", "--heading", "0", "--length", "2",
                "--out", str(tmp_path / "b")]) == 0
    for name in ("geodesic_F.csv", "geodesic_h.csv", "geodesic_F.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # an embedded fan draws its samples from seed 0, or from the one given
    assert run(["geodesic", "--fan", "1", "--length", "2", "--embed",
                "--out", str(tmp_path / "c")]) == 0
    assert run(["geodesic", "--fan", "1", "--length", "2", "--embed", "--seed", "3",
                "--out", str(tmp_path / "d")]) == 0
    for sub, seed in (("c", 0), ("d", 3)):
        assert json.loads((tmp_path / sub / "pullback_report.json").read_text())["seed"] == seed
        assert json.loads((tmp_path / sub / "twisted_0_F.json").read_text())["config"]["seed"] == seed


def test_verify_exit_code_on_failure(tmp_path, monkeypatch, capsys):
    from randers.verify import CheckResult

    def fake_run_all(seed=0):
        return [CheckResult("stub-pass", True, 0.0, 1.0),
                CheckResult("stub-fail", False, 2.0, 1.0)]

    monkeypatch.setattr(cli.verify, "run_all", fake_run_all)
    rc = run(["verify", "--out", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "[FAIL] stub-fail" in out
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["results"][1]["passed"] is False


def test_verify_passing_stub(tmp_path, monkeypatch):
    from randers.verify import CheckResult

    monkeypatch.setattr(cli.verify, "run_all",
                        lambda seed=0: [CheckResult("stub", True, 0.0, 1.0)])
    assert run(["verify", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["config"]["seed"] == 0
    # verify loads no surface and integrates at its own pinned tolerances
    assert "surface" not in doc["config"] and "tolerances" not in doc["config"]


@pytest.mark.parametrize("argv", [
    ["geodesic", "--r0", "25.0", "--heading", "0.7"],       # beyond r_max = 20
    ["geodesic", "--r0", "1e300"],
    ["distance", "--from", "1", "0", "--to", "1e300", "1"],
    ["cutlocus", "--q", "1e300", "0", "--skip-verify"],
])
def test_points_beyond_r_max_are_domain_errors(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "r_max" in capsys.readouterr().err


def test_cutlocus_needs_an_increasing_warp(tmp_path, capsys):
    # the sphere's warp decreases past pi/2, where the connector tables of
    # cut_locus do not apply
    cfg = tmp_path / "sphere.json"
    cfg.write_text(json.dumps({"kind": "custom", "m": "sin(r)", "m1": "cos(r)",
                               "m2": "-sin(r)", "mu": 0.2, "r_max": 2.8}))
    assert run(["cutlocus", "--surface", str(cfg), "--q", "1.5", "-3", "--skip-verify",
                "--out", str(tmp_path)]) == 2
    assert "increases" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path):
    assert run(["geodesic", "--embed", "--seed", "-2", "--out", str(tmp_path)]) == 1
