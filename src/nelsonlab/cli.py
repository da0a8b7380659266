"""Configuration ingestion, subcommand dispatch, and artifact emission.

Configs are flat ``key = value`` text files validated against a schema;
unknown keys are errors.  Every run writes a manifest echoing the full
config with its hash, and every CSV row carries the hash so artifacts are
traceable.  Outputs are byte-identical across reruns with the same config
and seed (timestamps live only in manifests).

Exit codes: 0 pass, 1 verdict failure, 2 config error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, fock, model, mourre, spectral
from .algebra import run_algebra_suite
from .spectral import ConvergenceError

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_optfloat(s: str):
    return None if s.lower() in ("none", "") else float(s)


def _parse_floatlist(s: str):
    return tuple(float(x) for x in s.split(";") if x.strip())


# key -> (parser, default)
SCHEMA = {
    "model.dispersion": (str, "nonrel"),
    "model.mass": (float, 1.0),
    "model.g": (float, 0.05),
    "model.use_modified": (_parse_bool, True),
    "ff.kappa0": (float, 1.0),
    "ff.lambda": (float, 1.0),
    "ff.sigma": (float, 0.2),
    "grid.dim": (int, 1),
    "grid.n_modes": (int, 12),
    "grid.kmax": (float, 1.5),
    "basis.n_max": (int, 2),
    "basis.e_cap": (_parse_optfloat, None),
    "solver.tol": (float, 1e-10),
    "scan.p_min": (float, 0.0),
    "scan.p_max": (float, 0.8),
    "scan.n_points": (int, 20),
    "scan.beta": (float, 0.9),
    "mourre.sigma_window": (float, 0.32),
    "mourre.p": (float, 0.25),
    "mourre.samples": (int, 64),
    "mourre.g_sweep": (_parse_floatlist, (0.01, 0.02, 0.04, 0.08)),
    "mourre.grid_n_modes": (int, 8),
    "mourre.grid_kmax": (float, 1.6),
    "mourre.sigma": (float, 0.1),
    "dynamics.t0": (float, 1.0),
    "dynamics.t_max": (float, 100.0),
    "dynamics.ratio": (float, 1.5),
    "dynamics.krylov_dim": (int, 40),
    "dynamics.step_tol": (float, 1e-11),
    "cutoffs.beta": (float, 0.3),
    "cutoffs.beta0": (float, 0.34),
    "cutoffs.beta1": (float, 0.38),
    "cutoffs.beta2": (float, 0.42),
    "cutoffs.beta3": (float, 0.46),
    "cutoffs.gamma": (float, 0.5),
    "w.f_window": (float, 1.2),
    "w.fiber_p": (float, 0.25),
    "w.t_max": (float, 8.0),
    "wplus.joint_cap": (int, 2),
    "algebra.n_modes": (int, 4),
    "algebra.n_max": (int, 3),
    "algebra.draws": (int, 100),
    "run.workers": (int, 1),
    "debug.corrupt_algebra": (_parse_bool, False),
}


@dataclass
class RunConfig:
    """Validated flat configuration plus run-level switches."""

    values: dict
    seed: int = 0
    out_dir: Path = Path(".")
    threads: int = 1

    def __getitem__(self, key):
        return self.values[key]

    def text(self) -> str:
        lines = [f"{k} = {self._fmt(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _fmt(v):
        if isinstance(v, tuple):
            return ";".join(str(x) for x in v)
        if v is None:
            return "none"
        return str(v)

    def hash(self) -> str:
        payload = self.text() + f"seed = {self.seed}\n"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def parse_config(path: str | None) -> dict:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    if path is None:
        return values
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(val)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _fmtnum(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, header: list, rows: list, cfg_hash: str):
    lines = [",".join(header + ["config_hash"])]
    for row in rows:
        lines.append(",".join(_fmtnum(x) for x in row) + f",{cfg_hash}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_track_csv(path: Path, track: dynamics.ObservableTrack, cfg_hash: str):
    write_csv(path, ["t", "value", "running_integral", "norm_drift", "energy_drift"],
              list(zip(track.times, track.values, track.running_integral,
                       track.norm_drift, track.energy_drift)), cfg_hash)


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
                    encoding="utf-8")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Path):
        return str(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


def write_manifest(cfg: RunConfig, command: str, verdicts: dict):
    payload = {
        "command": command,
        "config": cfg.values,
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "threads": cfg.threads,
        "verdicts": verdicts,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    write_json(cfg.out_dir / f"{command}_manifest.json", payload)


# ---------------------------------------------------------------------------
# Model assembly from config
# ---------------------------------------------------------------------------

def build_model(cfg: RunConfig) -> tuple:
    v = cfg.values
    disp = model.DispersionLaw(v["model.dispersion"], v["model.mass"])
    ff = model.FormFactor(v["ff.kappa0"], v["ff.lambda"], v["ff.sigma"])
    if v["grid.dim"] == 1:
        grid = fock.line_grid(v["grid.n_modes"], v["grid.kmax"], v["ff.sigma"])
    elif v["grid.dim"] == 3:
        grid = fock.radial_grid(max(2, v["grid.n_modes"] // 6), v["grid.kmax"], v["ff.sigma"])
    else:
        raise ConfigError("grid.dim must be 1 or 3")
    ms = model.ModelSpec(disp, ff, grid, v["model.g"], v["model.use_modified"])
    basis = fock.build_basis(grid, v["basis.n_max"], v["basis.e_cap"])
    return ms, basis


def cutoffs_from(cfg: RunConfig) -> dynamics.CutoffFamily:
    v = cfg.values
    return dynamics.CutoffFamily(v["cutoffs.beta"], v["cutoffs.beta0"], v["cutoffs.beta1"],
                                 v["cutoffs.beta2"], v["cutoffs.beta3"], v["cutoffs.gamma"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_algebra(cfg: RunConfig) -> int:
    v = cfg.values
    rep = run_algebra_suite(
        n_modes=v["algebra.n_modes"], n_max=v["algebra.n_max"],
        draws=v["algebra.draws"], sigma=v["ff.sigma"], seed=cfg.seed or 2024,
        corrupt=v["debug.corrupt_algebra"])
    rep["config_hash"] = cfg.hash()
    write_json(cfg.out_dir / "algebra_report.json", rep)
    write_manifest(cfg, "algebra", {"passed": rep.get("passed", True),
                                    "vacuous": rep.get("vacuous", False)})
    if rep.get("vacuous"):
        return EXIT_PASS
    if not rep["passed"]:
        sys.stderr.write("failing identities: " + ", ".join(rep["failing"]) + "\n")
        return EXIT_VERDICT
    return EXIT_PASS


def cmd_dispersion(cfg: RunConfig) -> int:
    v = cfg.values
    ms, basis = build_model(cfg)
    momenta = [np.full(ms.grid.dim, p) if ms.grid.dim == 1 else
               np.array([p] + [0.0] * (ms.grid.dim - 1))
               for p in np.linspace(v["scan.p_min"], v["scan.p_max"], v["scan.n_points"])]
    try:
        curve = spectral.dispersion_scan(ms, momenta, basis, tol=v["solver.tol"],
                                         beta=v["scan.beta"], workers=cfg.threads)
    except ConvergenceError:
        return EXIT_NUMERICS
    cfg_hash = cfg.hash()
    rows = []
    for i, P in enumerate(curve.momenta):
        rows.append((";".join(f"{x:.17g}" for x in P), curve.energies[i],
                     curve.free_energies[i], curve.upper_margins[i],
                     curve.lower_margins[i], curve.gaps[i], curve.soft_occupancies[i]))
    write_csv(cfg.out_dir / "dispersion_curve.csv",
              ["P", "E_g", "E_0", "upper_margin", "lower_margin", "gap", "soft_occupancy"],
              rows, cfg_hash)
    # perturbative residual scaling at P = 0
    gs = (0.01, 0.02, 0.04, 0.08)
    resid = []
    P0 = np.zeros(ms.grid.dim)
    for gg in gs:
        msg = model.ModelSpec(ms.disp, ms.ff, ms.grid, gg, ms.use_modified)
        H = model.build_fiber_H(msg, P0, basis)
        eg = spectral.ground_state(H, k=1, tol=v["solver.tol"]).ground_energy
        resid.append(abs(eg - spectral.pt_ground_energy(msg, P0, basis)))
    pt_exponent = float(np.polyfit(np.log(gs), np.log(resid), 1)[0]) \
        if min(resid) > 0 else math.nan
    verdicts = {
        "sandwich_ok": bool(np.nanmin(curve.lower_margins) >= -1e-10
                            and np.nanmin(curve.upper_margins) >= -1e-10),
        "soft_occupancy_max": float(np.nanmax(curve.soft_occupancies)),
        "gap_min": float(np.nanmin(curve.gaps)),
        "all_converged": bool(np.all(curve.converged)),
        "free_mod_agree_max": float(np.nanmax(curve.free_mod_agree)),
        "pt_exponent": pt_exponent,
        "g_beta": model.g_beta(ms.disp, ms.ff, v["scan.beta"], ms.grid),
        "o_beta": model.o_beta(ms.disp, v["scan.beta"]),
        "config_hash": cfg_hash,
    }
    write_json(cfg.out_dir / "dispersion_verdicts.json", verdicts)
    write_manifest(cfg, "dispersion", {"sandwich_ok": verdicts["sandwich_ok"]})
    if not verdicts["all_converged"]:
        return EXIT_NUMERICS
    return EXIT_PASS if verdicts["sandwich_ok"] else EXIT_VERDICT


def _mourre_setup(cfg: RunConfig):
    v = cfg.values
    disp = model.DispersionLaw(v["model.dispersion"], v["model.mass"])
    sig = v["mourre.sigma"]
    ff = model.FormFactor(v["ff.kappa0"], v["ff.lambda"], sig)
    grid = fock.line_grid(v["mourre.grid_n_modes"], v["mourre.grid_kmax"], sig)
    basis = fock.build_basis(grid, v["basis.n_max"])
    C = model.quadrature_C(ff, grid)
    sw = v["mourre.sigma_window"]

    def mk(gg):
        return model.ModelSpec(disp, ff, grid, gg, v["model.use_modified"])

    def bf(gg):
        if disp.kind == "nonrel":
            return math.sqrt(2.0 * (sw + gg * gg * C) / disp.mass)
        return math.sqrt(max(0.0, 1.0 - (disp.mass / (sw + gg * gg * C)) ** 2))

    return mk, bf, basis, sw


def cmd_mourre(cfg: RunConfig) -> int:
    v = cfg.values
    mk, bf, basis, sw = _mourre_setup(cfg)
    P = [v["mourre.p"]]
    sweep = mourre.mourre_sweep(mk, list(v["mourre.g_sweep"]), P, basis, sw, bf,
                                sample_count=v["mourre.samples"], seed=cfg.seed or 11)
    cfg_hash = cfg.hash()
    write_csv(cfg.out_dir / "mourre_sweep.csv", ["g", "min_r", "fitted_C"],
              [(r[0], r[1], r[2]) for r in sweep["rows"]], cfg_hash)
    ok = bool(sweep["min_r0"] >= -1e-10)
    report = {
        "min_r_g0": sweep["min_r0"],
        "min_r0_nonnegative": ok,
        "fitted_C": [r[2] for r in sweep["rows"]],
        "per_sample_g0": sweep["per_sample_g0"],
        "loglog_slope": sweep["loglog_slope"],
        "window_dim": sweep["window_dim"],
        "mesh": sweep["mesh"],
        "caps": {"n_max": basis.n_max, "e_cap": basis.e_cap},
        "rows": sweep["rows"],
        "config_hash": cfg_hash,
    }
    write_json(cfg.out_dir / "mourre_report.json", report)
    write_manifest(cfg, "mourre", {"min_r0_nonnegative": ok})
    return EXIT_PASS if ok else EXIT_VERDICT


def cmd_evolve(cfg: RunConfig) -> int:
    v = cfg.values
    ms, basis = build_model(cfg)
    P0 = np.full(ms.grid.dim, v["mourre.p"]) if ms.grid.dim == 1 else np.zeros(ms.grid.dim)
    H = model.build_fiber_H(ms, P0, basis)
    rng = np.random.default_rng(cfg.seed or 3)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    times = dynamics.geometric_times(v["dynamics.t0"], v["dynamics.t_max"], v["dynamics.ratio"])
    prop = dynamics.Propagation(H, psi, times, v["dynamics.krylov_dim"], v["dynamics.step_tol"])
    track = dynamics._track_snapshots(prop, lambda p, t: float(np.vdot(p, H.mat @ p).real))
    conserved = dynamics.check_conservation(track)
    # dense oracle on small problems
    mismatch = math.nan
    if basis.size <= 400:
        from scipy.linalg import expm as dense_expm
        t_ref = float(times[min(3, len(times) - 1)])
        u_k = dynamics.krylov_expm_apply(H.mat, psi, t_ref, tol=prop.step_tol, m=prop.krylov_dim)
        u_d = dense_expm(-1j * t_ref * H.dense()) @ psi
        mismatch = float(np.linalg.norm(u_k - u_d))
    # g=0 phase exactness
    ms0 = model.ModelSpec(ms.disp, ms.ff, ms.grid, 0.0, ms.use_modified)
    H0 = model.build_fiber_H(ms0, P0, basis)
    d0 = np.real(np.asarray(H0.mat.diagonal()))
    u = dynamics.krylov_expm_apply(H0.mat, psi, 5.0, tol=prop.step_tol, m=prop.krylov_dim)
    phase_defect = float(np.linalg.norm(u - np.exp(-1j * d0 * 5.0) * psi))
    cfg_hash = cfg.hash()
    write_track_csv(cfg.out_dir / "evolve_track.csv", track, cfg_hash)
    verdicts = {
        "conservation": bool(conserved),
        "phase_exact": bool(phase_defect < 1e-8),
        "dense_mismatch": mismatch,
        "phase_defect_g0": phase_defect,
        "config_hash": cfg_hash,
    }
    if not math.isnan(mismatch):
        verdicts["dense_agrees"] = bool(mismatch < 1e-8)
    write_json(cfg.out_dir / "evolve_report.json", verdicts)
    passed = {k: verdicts[k] for k in ("conservation", "phase_exact", "dense_agrees")
              if k in verdicts}
    write_manifest(cfg, "evolve", passed)
    return EXIT_PASS if all(passed.values()) else EXIT_VERDICT


def cmd_w(cfg: RunConfig) -> int:
    v = cfg.values
    ms, basis = build_model(cfg)
    cuts = cutoffs_from(cfg)
    P = np.full(ms.grid.dim, v["w.fiber_p"])
    H = model.build_fiber_H(ms, P, basis)
    try:
        psiP = dynamics.dressed_state(ms, P, basis, tol=v["solver.tol"])
    except ConvergenceError:
        return EXIT_NUMERICS
    ycalc = dynamics.YCalc(ms.grid)
    times = dynamics.geometric_times(v["dynamics.t0"], v["dynamics.t_max"], v["dynamics.ratio"])
    prop = dynamics.Propagation(H, psiP.amps, times, v["dynamics.krylov_dim"],
                                v["dynamics.step_tol"])
    track = dynamics.W_estimate(prop, basis, cuts, ycalc)
    cfg_hash = cfg.hash()
    write_track_csv(cfg.out_dir / "w_track.csv", track, cfg_hash)
    verdicts = {"dressed_w_final": track.final(),
                "dressed_w_vanishes": bool(track.final() < 1e-6),
                "config_hash": cfg_hash}
    write_json(cfg.out_dir / "w_report.json", verdicts)
    write_manifest(cfg, "w", {"dressed_w_vanishes": verdicts["dressed_w_vanishes"]})
    return EXIT_PASS if verdicts["dressed_w_vanishes"] else EXIT_VERDICT


def cmd_wplus(cfg: RunConfig) -> int:
    v = cfg.values
    ms, basis = build_model(cfg)
    cuts = cutoffs_from(cfg)
    P = np.full(ms.grid.dim, v["w.fiber_p"])
    H = model.build_fiber_H(ms, P, basis)
    try:
        psiP = dynamics.dressed_state(ms, P, basis, tol=v["solver.tol"])
    except ConvergenceError:
        return EXIT_NUMERICS
    ycalc = dynamics.YCalc(ms.grid)
    times = dynamics.geometric_times(v["dynamics.t0"], v["w.t_max"], v["dynamics.ratio"])
    prop = dynamics.Propagation(H, psiP.amps, times, v["dynamics.krylov_dim"],
                                v["dynamics.step_tol"])
    try:
        track = dynamics.W_plus_probe(prop, basis, cuts, ycalc, f_window=v["w.f_window"],
                                      joint_cap=v["wplus.joint_cap"])
    except dynamics.ConfigWindowError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_CONFIG
    cfg_hash = cfg.hash()
    rows = [(track.times[i], track.values[i], track.extras["outer_vacuum_norms"][i])
            for i in range(len(track.times))]
    write_csv(cfg.out_dir / "wplus_track.csv", ["t", "wplus_norm", "outer_vacuum_norm"],
              rows, cfg_hash)
    verdicts = dict(track.verdicts)
    verdicts["config_hash"] = cfg_hash
    verdicts["extended_dim"] = track.extras["extended_dim"]
    write_json(cfg.out_dir / "wplus_report.json", verdicts)
    write_manifest(cfg, "wplus", {k: v for k, v in track.verdicts.items()})
    return EXIT_PASS if all(track.verdicts.values()) else EXIT_VERDICT


# one report per verdict-producing subcommand; report fails unless all are present
EXPECTED_REPORTS = ("algebra_report", "dispersion_verdicts", "mourre_report",
                    "evolve_report", "w_report", "wplus_report")
# the boolean verdicts report ANDs; a report carrying none of them is unjudged
VERDICT_KEYS = ("passed", "sandwich_ok", "all_converged", "min_r0_nonnegative",
                "conservation", "phase_exact", "dense_agrees", "dressed_w_vanishes",
                "outer_vacuum_small", "bounded")


def cmd_report(cfg: RunConfig) -> int:
    collected, missing, unjudged = {}, [], []
    ok = True
    for name in EXPECTED_REPORTS:
        path = cfg.out_dir / f"{name}.json"
        if not path.exists():
            missing.append(name)
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        collected[name] = payload
        present = [key for key in VERDICT_KEYS if key in payload]
        if not present:
            unjudged.append(name)
        if any(payload[key] is False for key in present):
            ok = False
    if missing:
        sys.stderr.write(f"missing reports in {cfg.out_dir}: {', '.join(missing)}\n")
        ok = False
    if unjudged:
        sys.stderr.write(f"reports without a verdict: {', '.join(unjudged)}\n")
        ok = False
    summary = {"reports": sorted(collected), "missing": missing, "unjudged": unjudged,
               "all_pass": ok, "config_hash": cfg.hash()}
    write_json(cfg.out_dir / "report.json", summary)
    write_manifest(cfg, "report", {"all_pass": ok})
    return EXIT_PASS if ok else EXIT_VERDICT


COMMANDS = {
    "algebra": cmd_algebra,
    "dispersion": cmd_dispersion,
    "mourre": cmd_mourre,
    "evolve": cmd_evolve,
    "w": cmd_w,
    "wplus": cmd_wplus,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nelsonlab",
                                     description="electron-boson model laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        values = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    # precedence: --threads flag, then NELSONLAB_THREADS, then the config key
    threads = args.threads
    if threads is None:
        env = os.environ.get("NELSONLAB_THREADS")
        threads = int(env) if env is not None else int(values["run.workers"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(values=values, seed=args.seed, out_dir=out_dir, threads=threads)
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError, fock.GridError, fock.BasisError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (ConvergenceError, dynamics.KrylovBreakdownError) as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
