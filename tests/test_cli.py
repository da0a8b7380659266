import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nelsonlab import cli, dynamics, model, mourre, spectral

TRACK_HEADER = "t,value,norm_drift,energy_drift,config_hash"


def run(args):
    return cli.main(args)


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


# a passing verdicts block for each report that `report` requires
PASSING_REPORTS = {
    "algebra_report": {"identities": True},
    "dispersion_verdicts": {"sandwich_ok": True, "all_converged": True},
    "mourre_report": {"min_r0_nonnegative": True},
    "evolve_report": {"conservation": True, "phase_exact": True, "dense_agrees": True},
    "w_report": {"dressed_w_vanishes": True},
    "wplus_report": {"outer_vacuum_small": True, "bounded": True},
}


def write_verdicts(out_dir, name, verdicts):
    (out_dir / f"{name}.json").write_text(json.dumps({"verdicts": verdicts}))


def write_passing_reports(out_dir, skip=()):
    """Passing stubs for every expected report not named in skip."""
    for name, verdicts in PASSING_REPORTS.items():
        if name not in skip:
            write_verdicts(out_dir, name, verdicts)


class TestConfig:
    def test_defaults_complete(self):
        values = cli.parse_config(None)
        assert set(values) == set(cli.SCHEMA)

    def test_parse_and_override(self, tmp_path):
        path = write_cfg(tmp_path, "model.g = 0.02\n# comment\nbasis.n_max = 3\n")
        values = cli.parse_config(path)
        assert values["model.g"] == 0.02
        assert values["basis.n_max"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "nope.key = 1\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "model.g = not_a_number\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(path)

    def test_unknown_key_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, "nope.key = 1\n")
        assert run(["algebra", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key", ["solver.k", "dynamics.lattice_sites",
                                     "dynamics.mode_indices", "dynamics.p0", "dynamics.dp",
                                     "dynamics.sigma_top", "dynamics.filter_width",
                                     "dynamics.krylov_dim", "run.workers", "wplus.joint_cap"])
    def test_removed_key_exit_code(self, tmp_path, key):
        path = write_cfg(tmp_path, f"{key} = 2\n")
        assert run(["algebra", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key", ["scan.n_points", "mourre.samples", "algebra.draws",
                                     "mourre.sigma_window", "dynamics.t0"])
    def test_nonpositive_value_exit_code(self, tmp_path, key):
        path = write_cfg(tmp_path, f"{key} = 0\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(path)
        assert run(["report", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_config_hash_covers_seed(self, tmp_path):
        values = cli.parse_config(None)
        a = cli.RunConfig(values, seed=1, out_dir=tmp_path).hash()
        b = cli.RunConfig(values, seed=2, out_dir=tmp_path).hash()
        assert a != b


class TestCommands:
    def test_algebra_small_passes(self, tmp_path):
        path = write_cfg(tmp_path, "algebra.draws = 3\nalgebra.n_max = 2\n")
        code = run(["algebra", "--config", path, "--out", str(tmp_path), "--seed", "5"])
        assert code == cli.EXIT_PASS
        rep = json.loads((tmp_path / "algebra_report.json").read_text())
        assert rep["verdicts"] == {"identities": True} and rep["max_defect"] < 1e-12

    def test_algebra_corrupt_fails_with_named_identity(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "algebra.draws = 2\nalgebra.n_max = 2\n"
                                   "debug.corrupt_algebra = true\n")
        code = run(["algebra", "--config", path, "--out", str(tmp_path)])
        assert code == cli.EXIT_VERDICT
        assert "ccr" in capsys.readouterr().err

    def test_algebra_nmax_zero_vacuous(self, tmp_path):
        path = write_cfg(tmp_path, "algebra.n_max = 0\n")
        code = run(["algebra", "--config", path, "--out", str(tmp_path)])
        assert code == cli.EXIT_PASS
        rep = json.loads((tmp_path / "algebra_report.json").read_text())
        assert rep["vacuous"] and rep["verdicts"] == {}

    def test_dispersion_outputs_and_verdicts(self, tmp_path):
        path = write_cfg(tmp_path, "scan.n_points = 4\ngrid.n_modes = 8\n")
        code = run(["dispersion", "--config", path, "--out", str(tmp_path), "--seed", "3"])
        assert code == cli.EXIT_PASS
        csv = (tmp_path / "dispersion_curve.csv").read_text().strip().split("\n")
        assert csv[0].endswith("config_hash")
        assert len(csv) == 5
        verd = json.loads((tmp_path / "dispersion_verdicts.json").read_text())
        assert verd["verdicts"] == {"sandwich_ok": True, "all_converged": True}
        assert 3.7 <= verd["pt_exponent"] <= 4.3

    def test_dispersion_g_zero_curve_matches_dispersion_law(self, tmp_path):
        path = write_cfg(tmp_path, "model.g = 0.0\nscan.n_points = 3\ngrid.n_modes = 8\n")
        assert run(["dispersion", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        rows = (tmp_path / "dispersion_curve.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            p, eg = float(cells[0]), float(cells[1])
            assert abs(eg - p * p / 2.0) < 1e-12

    @pytest.mark.parametrize("text", ["ff.kappa0 = 0\n", "ff.lambda = 0.1\n"],
                             ids=["kappa0-zero", "lambda-below-grid"])
    def test_dispersion_g_beta_with_vanishing_coupling_function(self, tmp_path, text):
        """C = 0 drops the sqrt(BC) term: g_beta is (1 - 0.9)^2 / (3 O_0.9)."""
        path = write_cfg(tmp_path, text + "scan.n_points = 3\n")
        assert run(["dispersion", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        rep = json.loads((tmp_path / "dispersion_verdicts.json").read_text())
        assert rep["g_beta"] == pytest.approx(0.01 / (3 * 0.405), rel=1e-12)

    def test_w_and_report_chain(self, tmp_path):
        path = write_cfg(tmp_path, "grid.n_modes = 8\ndynamics.t_max = 30\n")
        assert run(["w", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        assert (tmp_path / "w_track.csv").read_text().split("\n")[0] == TRACK_HEADER
        write_passing_reports(tmp_path, skip=("w_report",))
        assert run(["report", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["all_pass"]
        assert rep["reports"] == sorted(cli.REPORTS.values()) and rep["missing"] == []

    def test_report_without_reports_fails(self, tmp_path):
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT
        assert not json.loads((tmp_path / "report.json").read_text())["all_pass"]

    def test_report_with_only_w_report_fails(self, tmp_path):
        path = write_cfg(tmp_path, "grid.n_modes = 8\ndynamics.t_max = 30\n")
        assert run(["w", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        assert run(["report", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_VERDICT
        rep = json.loads((tmp_path / "report.json").read_text())
        assert not rep["all_pass"]
        assert rep["missing"] == [n for n in cli.REPORTS.values() if n != "w_report"]

    @pytest.mark.parametrize("name", sorted(PASSING_REPORTS))
    def test_report_requires_each_report(self, tmp_path, name):
        assert set(PASSING_REPORTS) == set(cli.REPORTS.values())
        write_passing_reports(tmp_path)
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_PASS
        (tmp_path / f"{name}.json").unlink()
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT
        assert json.loads((tmp_path / "report.json").read_text())["missing"] == [name]

    def test_report_ands_mourre_verdict(self, tmp_path):
        path = write_cfg(tmp_path, "mourre.samples = 4\nmourre.g_sweep = 0.01;0.02\n")
        assert run(["mourre", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        write_passing_reports(tmp_path, skip=("mourre_report",))
        rep_path = tmp_path / "mourre_report.json"
        rep = json.loads(rep_path.read_text())
        assert rep["verdicts"] == {"min_r0_nonnegative": True}
        assert run(["report", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        rep["verdicts"]["min_r0_nonnegative"] = False
        rep_path.write_text(json.dumps(rep))
        assert run(["report", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_VERDICT

    def test_mourre_scans_g_zero_once(self, tmp_path, monkeypatch):
        seen = []
        scan = mourre.mourre_scan

        def spy(ms, *args, **kwargs):
            seen.append(ms.g)
            return scan(ms, *args, **kwargs)

        monkeypatch.setattr(mourre, "mourre_scan", spy)
        assert run(["mourre", "--out", str(tmp_path)]) == cli.EXIT_PASS
        assert seen == [0.0, 0.01, 0.02, 0.04, 0.08]
        rep = json.loads((tmp_path / "mourre_report.json").read_text())
        assert len(rep["per_sample_g0"]) == cli.SCHEMA["mourre.samples"][1]
        assert min(rep["per_sample_g0"]) == rep["min_r_g0"]

    def test_report_fails_hollow_reports(self, tmp_path):
        # no block, an empty block, a block that is not an object, and no JSON object at all
        for text in ("{}", '{"verdicts": {}}', '{"verdicts": "yes"}', "[]", "not json"):
            for name in cli.REPORTS.values():
                (tmp_path / f"{name}.json").write_text(text)
            assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT
            rep = json.loads((tmp_path / "report.json").read_text())
            assert not rep["all_pass"] and rep["missing"] == []
            assert rep["unjudged"] == list(cli.REPORTS.values())

    @pytest.mark.parametrize("name,value", [("algebra_report", None),
                                            ("dispersion_verdicts", "no"),
                                            ("mourre_report", 0), ("w_report", 1)])
    def test_report_fails_verdict_not_literally_true(self, tmp_path, name, value):
        write_passing_reports(tmp_path)
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_PASS
        key = next(iter(PASSING_REPORTS[name]))
        write_verdicts(tmp_path, name, {**PASSING_REPORTS[name], key: value})
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT
        rep = json.loads((tmp_path / "report.json").read_text())
        assert not rep["all_pass"] and rep["unjudged"] == []
        assert [n for n, ok in rep["verdicts"].items() if not ok] == [name]

    def test_report_ands_dispersion_convergence(self, tmp_path):
        write_passing_reports(tmp_path)
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_PASS
        write_verdicts(tmp_path, "dispersion_verdicts",
                       {"sandwich_ok": True, "all_converged": False})
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT
        assert not json.loads((tmp_path / "report.json").read_text())["all_pass"]

    def test_report_ands_wplus_bounded(self, tmp_path):
        write_passing_reports(tmp_path)
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_PASS
        write_verdicts(tmp_path, "wplus_report", {"outer_vacuum_small": True, "bounded": False})
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT
        assert not json.loads((tmp_path / "report.json").read_text())["all_pass"]

    @pytest.mark.parametrize("key", ["phase_exact", "dense_agrees"])
    def test_report_ands_evolve_verdicts(self, tmp_path, key):
        write_passing_reports(tmp_path)
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_PASS
        write_verdicts(tmp_path, "evolve_report", {**PASSING_REPORTS["evolve_report"], key: False})
        assert run(["report", "--out", str(tmp_path)]) == cli.EXIT_VERDICT

    @pytest.mark.parametrize("command,text", [
        ("algebra", "algebra.draws = 2\nalgebra.n_max = 2\n"),
        ("algebra", "algebra.draws = 2\nalgebra.n_max = 2\ndebug.corrupt_algebra = true\n"),
        ("dispersion", ""), ("mourre", ""), ("evolve", ""), ("w", ""), ("wplus", "")],
        ids=["algebra", "algebra-corrupt", "dispersion", "mourre", "evolve", "w", "wplus"])
    def test_exit_code_read_from_shared_verdicts(self, tmp_path, command, text):
        code = run([command, "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)])
        rep = json.loads((tmp_path / f"{cli.REPORTS[command]}.json").read_text())
        man = json.loads((tmp_path / f"{command}_manifest.json").read_text())
        assert rep["verdicts"] and rep["verdicts"] == man["verdicts"]
        assert all(type(ok) is bool for ok in rep["verdicts"].values())
        assert code == (cli.EXIT_PASS if all(rep["verdicts"].values()) else cli.EXIT_VERDICT)

    def test_evolve_report_is_strict_json_without_dense_oracle(self, tmp_path):
        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = write_cfg(tmp_path, "basis.n_max = 3\ndynamics.t_max = 4\n")
        run(["evolve", "--config", path, "--out", str(tmp_path)])
        text = (tmp_path / "evolve_report.json").read_text()
        rep = json.loads(text, parse_constant=no_constant)
        assert rep["dense_mismatch"] is None and "dense_agrees" not in rep["verdicts"]
        assert (tmp_path / "evolve_track.csv").read_text().split("\n")[0] == TRACK_HEADER
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "nan.json", {"x": float("nan")})

    def test_config_momentum_lies_along_the_first_axis_in_3d(self, tmp_path, monkeypatch):
        """In d = 3 each command reads its config momentum p as P = (p, 0, 0)."""
        path = write_cfg(tmp_path, "grid.dim = 3\ndynamics.t_max = 4\nw.t_max = 4\n"
                                   "scan.n_points = 3\n")
        built = []
        build = model.build_fiber_H

        def spy(ms, P, *args, **kwargs):
            built.append(np.asarray(P, dtype=float))
            return build(ms, P, *args, **kwargs)

        monkeypatch.setattr(model, "build_fiber_H", spy)
        for command, key in (("evolve", "mourre.p"), ("w", "w.fiber_p"), ("wplus", "w.fiber_p")):
            built.clear()
            run([command, "--config", path, "--out", str(tmp_path)])
            p = cli.SCHEMA[key][1]
            assert built and all(np.array_equal(P, [p, 0.0, 0.0]) for P in built), command
        assert run(["dispersion", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        rows = (tmp_path / "dispersion_curve.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[0].split(";")[1:] for row in rows] == [["0", "0"]] * 3

    @pytest.mark.parametrize("command,text", [
        ("dispersion", "model.dispersion = foo\n"),
        ("dispersion", "scan.beta = 1.5\n"),
        ("dispersion", "scan.p_max = 5\n"),
        ("mourre", "mourre.sigma_window = 1e-6\n"),
        ("w", "cutoffs.beta = 0.9\n"),
        ("evolve", "dynamics.ratio = 1\n"),
        ("dispersion", "grid.n_modes = 0\n"),
        ("evolve", "grid.n_modes = 0\n"),
        ("mourre", "mourre.grid_n_modes = 0\n"),
        ("algebra", "algebra.n_modes = 0\n"),
        ("dispersion", "basis.n_max = 0\n")],
        ids=["dispersion-kind", "scan-beta", "scan-momentum", "mourre-window", "cutoff-order",
             "dynamics-ratio", "dispersion-zero-modes", "evolve-zero-modes", "mourre-zero-modes",
             "algebra-zero-modes", "dispersion-vacuum-basis"])
    def test_config_value_exit_code(self, tmp_path, capsys, command, text):
        path = write_cfg(tmp_path, text)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_wplus_refuses_energy_capped_basis(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "basis.e_cap = 1.5\n")
        assert run(["wplus", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "energy cap" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_empty_subspace_exit_code(self, tmp_path, monkeypatch):
        def empty(*args, **kwargs):
            raise mourre.EmptySubspaceError("no spectrum in the requested window")

        monkeypatch.setattr(mourre, "mourre_sweep", empty)
        assert run(["mourre", "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("exc", [ValueError, IndexError])
    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch, exc):
        def defect(*args, **kwargs):
            raise exc("defect inside the scan")

        monkeypatch.setattr(spectral, "dispersion_scan", defect)
        assert run(["dispersion", "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "defect inside the scan" in err

    @pytest.mark.parametrize("command,target", [("dispersion", (spectral, "dispersion_scan")),
                                                ("w", (spectral, "ground_state")),
                                                ("wplus", (spectral, "ground_state"))])
    def test_convergence_error_exit_code(self, tmp_path, monkeypatch, command, target):
        def stall(*args, **kwargs):
            raise spectral.ConvergenceError("LOBPCG did not converge")

        monkeypatch.setattr(*target, stall)
        assert run([command, "--out", str(tmp_path)]) == cli.EXIT_NUMERICS

    def test_dispersion_manifest_records_solver_stats(self, tmp_path):
        """Each scan momentum's solver method, matvecs and largest residual go
        into the manifest, not into the report."""
        path = write_cfg(tmp_path, "grid.n_modes = 22\nbasis.n_max = 3\nscan.n_points = 2\n")
        assert run(["dispersion", "--config", path, "--out", str(tmp_path)]) == cli.EXIT_PASS
        man = json.loads((tmp_path / "dispersion_manifest.json").read_text())
        solver = man["stats"]["solver"]
        assert len(solver) == 2
        for row in solver:
            assert set(row) == {"P", "method", "matvecs", "max_residual"}
            assert row["method"] == "lobpcg" and row["matvecs"] > 0
            assert 0 <= row["max_residual"] < 1e-9
        rep = json.loads((tmp_path / f"{cli.REPORTS['dispersion']}.json").read_text())
        assert "stats" not in rep and "solver" not in rep

    def test_manifest_written_with_hash(self, tmp_path):
        path = write_cfg(tmp_path, "algebra.draws = 2\nalgebra.n_max = 1\n")
        run(["algebra", "--config", path, "--out", str(tmp_path), "--seed", "9"])
        man = json.loads((tmp_path / "algebra_manifest.json").read_text())
        assert man["config_hash"] and man["seed"] == 9
        assert "timestamp" in man


class TestDeterminism:
    def test_byte_identical_csv_across_reruns(self, tmp_path):
        path = write_cfg(tmp_path, "grid.n_modes = 8\nscan.n_points = 3\n")
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            assert run(["dispersion", "--config", path, "--out", str(d),
                        "--seed", "11"]) == cli.EXIT_PASS
        b1 = (d1 / "dispersion_curve.csv").read_bytes()
        b2 = (d2 / "dispersion_curve.csv").read_bytes()
        assert b1 == b2

    def test_manifests_identical_up_to_timestamp(self, tmp_path):
        path = write_cfg(tmp_path, "grid.n_modes = 8\nscan.n_points = 3\n")
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            run(["dispersion", "--config", path, "--out", str(d), "--seed", "11"])
        m1 = json.loads((d1 / "dispersion_manifest.json").read_text())
        m2 = json.loads((d2 / "dispersion_manifest.json").read_text())
        m1.pop("timestamp")
        m2.pop("timestamp")
        assert m1 == m2


class TestImports:
    def test_cli_import_skips_dense_linalg_and_special(self):
        # in a fresh interpreter, so modules imported by other tests do not count
        code = ("import sys, nelsonlab.cli\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[:2] in (['scipy', 'linalg'], ['scipy', 'special'])))")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
