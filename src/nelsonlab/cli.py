"""Configuration ingestion, subcommand dispatch, and artifact emission.

Configs are flat ``key = value`` text files validated against a schema;
unknown keys and keys given twice are errors.  Every run writes a manifest
echoing the full config with its hash, and every CSV row carries the hash so
artifacts are traceable.  Outputs are byte-identical across reruns with the
same config and seed (timestamps live only in manifests).

Every verdict-producing subcommand ends in ``finish``: its report JSON holds
the numbers at the top level and a ``verdicts`` block of booleans, its
manifest carries the same block, and its exit code is read from that block
alone.  ``report`` ANDs the blocks of the six reports named in ``REPORTS``
and fails closed: a missing report, an absent or empty block, or a verdict
that is not literally ``true`` is a failure.

Exit codes: 0 pass, 1 verdict failure, 2 config error (a bad config value,
or an input a probe rejects), 3 numerical non-convergence, 4 internal error
(any other exception; its traceback is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import dynamics, fock, model, mourre, spectral
from .algebra import run_algebra_suite
from .spectral import ConvergenceError

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_floatlist(s: str):
    return tuple(float(x) for x in s.split(";") if x.strip())


def _above(kind, bound=0):
    def parse(s: str):
        x = kind(s)
        if not x > bound:
            raise ValueError(f"must be greater than {bound}")
        return x
    return parse


# key -> (parser, default)
SCHEMA = {
    "model.dispersion": (str, "nonrel"),
    "model.mass": (float, 1.0),
    "model.g": (float, 0.05),
    "model.use_modified": (_parse_bool, True),
    "model.p": (float, 0.25),
    "ff.kappa0": (float, 1.0),
    "ff.lambda": (float, 1.0),
    "ff.sigma": (float, 0.2),
    "grid.dim": (int, 1),
    "grid.n_modes": (int, 12),
    "grid.kmax": (float, 1.5),
    "basis.n_max": (int, 2),
    "solver.tol": (_above(float), 1e-10),
    "scan.p_min": (float, 0.0),
    "scan.p_max": (float, 0.8),
    "scan.n_points": (_above(int), 20),
    "scan.beta": (float, 0.9),
    "mourre.sigma_window": (_above(float), 0.32),
    "mourre.samples": (_above(int), 64),
    "mourre.g_sweep": (_parse_floatlist, (0.01, 0.02, 0.04, 0.08)),
    "mourre.grid_n_modes": (int, 8),
    "mourre.grid_kmax": (float, 1.6),
    "mourre.sigma": (float, 0.1),
    "dynamics.t0": (_above(float), 1.0),
    "dynamics.t_max": (float, 100.0),
    "dynamics.ratio": (_above(float, 1), 1.5),
    "dynamics.step_tol": (float, 1e-11),
    "cutoffs.beta": (float, 0.3),
    "cutoffs.beta0": (float, 0.34),
    "cutoffs.beta1": (float, 0.38),
    "cutoffs.beta2": (float, 0.42),
    "cutoffs.beta3": (float, 0.46),
    "cutoffs.gamma": (float, 0.5),
    "w.f_window": (_above(float), 1.2),
    "w.t_max": (float, 8.0),
    "algebra.n_modes": (int, 4),
    "algebra.n_max": (int, 3),
    "algebra.draws": (_above(int), 100),
    "debug.corrupt_algebra": (_parse_bool, False),
}


@dataclass
class RunConfig:
    """Validated flat configuration plus run-level switches."""

    values: dict
    seed: int = 0
    out_dir: Path = Path(".")

    def __getitem__(self, key):
        return self.values[key]

    def text(self) -> str:
        lines = [f"{k} = {self._fmt(self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _fmt(v):
        if isinstance(v, tuple):
            return ";".join(str(x) for x in v)
        return str(v)

    def hash(self) -> str:
        payload = self.text() + f"seed = {self.seed}\n"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def parse_config(path: str | None) -> dict:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    if path is None:
        return values
    text = Path(path).read_text(encoding="utf-8")
    seen = {}
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
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} is already set on line {seen[key]}")
        seen[key] = lineno
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
    write_csv(path, ["t", "value", "norm_drift", "energy_drift"],
              list(zip(track.times, track.values, track.norm_drift, track.energy_drift)),
              cfg_hash)


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                               default=_json_default) + "\n", encoding="utf-8")


def _number(x):
    """A report number, or None (JSON null) where it is undefined (NaN)."""
    x = float(x)
    return None if math.isnan(x) else x


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Path):
        return str(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


# the report each verdict-producing subcommand writes; `report` requires all six
REPORTS = {"algebra": "algebra_report", "dispersion": "dispersion_verdicts",
           "mourre": "mourre_report", "evolve": "evolve_report", "w": "w_report",
           "wplus": "wplus_report"}


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """The interpreter and library versions and the BLAS/OpenMP thread
    variables as set (None when unset), which a run's time depends on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def finish(cfg: RunConfig, command: str, numbers: dict, verdicts: dict,
           stats: dict | None = None) -> int:
    """Write the command's report and manifest around one verdicts block; exit on it.

    The report file is named in ``REPORTS``; ``report`` itself writes ``report.json``.
    ``stats`` (what the run did, such as solver methods and residuals) and
    the ``environment`` go into the manifest only, so reports stay
    byte-identical across reruns.
    """
    verdicts = {name: bool(ok) for name, ok in verdicts.items()}
    cfg_hash = cfg.hash()
    write_json(cfg.out_dir / f"{REPORTS.get(command, command)}.json",
               {**numbers, "verdicts": verdicts, "config_hash": cfg_hash})
    write_json(cfg.out_dir / f"{command}_manifest.json", {
        "command": command,
        "config": cfg.values,
        "config_hash": cfg_hash,
        "seed": cfg.seed,
        "verdicts": verdicts,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment(),
        **({"stats": stats} if stats is not None else {}),
    })
    return EXIT_PASS if all(verdicts.values()) else EXIT_VERDICT


# ---------------------------------------------------------------------------
# Model assembly from config
# ---------------------------------------------------------------------------

@contextmanager
def _from_config():
    """Re-raise a ValueError from objects built out of config values as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@_from_config()
def build_model(cfg: RunConfig) -> tuple:
    v = cfg.values
    disp = model.DispersionLaw(v["model.dispersion"], v["model.mass"])
    ff = model.FormFactor(v["ff.kappa0"], v["ff.lambda"], v["ff.sigma"])
    if v["grid.dim"] == 1:
        grid = fock.line_grid(v["grid.n_modes"], v["grid.kmax"], v["ff.sigma"])
    elif v["grid.dim"] == 3:
        # six directions per radial shell, at least two shells
        if v["grid.n_modes"] % 6 or v["grid.n_modes"] < 12:
            raise ConfigError("grid.n_modes must be a multiple of 6, at least 12, at grid.dim = 3")
        grid = fock.radial_grid(v["grid.n_modes"] // 6, v["grid.kmax"], v["ff.sigma"])
    else:
        raise ConfigError("grid.dim must be 1 or 3")
    ms = model.ModelSpec(disp, ff, grid, v["model.g"], v["model.use_modified"])
    basis = fock.build_basis(grid, v["basis.n_max"])
    return ms, basis


def config_momentum(p: float, dim: int) -> np.ndarray:
    """The config scalar momentum p as the vector (p, 0, ..., 0) in dimension dim."""
    return np.array([p] + [0.0] * (dim - 1))


@_from_config()
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
    verdicts = {} if rep["vacuous"] else {"identities": rep.pop("passed")}
    stats = rep.pop("stats")
    if rep.get("failing"):
        sys.stderr.write("failing identities: " + ", ".join(rep["failing"]) + "\n")
    return finish(cfg, "algebra", rep, verdicts, stats=stats)


def cmd_dispersion(cfg: RunConfig) -> int:
    v = cfg.values
    ms, basis = build_model(cfg)
    momenta = [config_momentum(p, ms.grid.dim)
               for p in np.linspace(v["scan.p_min"], v["scan.p_max"], v["scan.n_points"])]
    # the coupling window is checked before the scan, so a bad scan.beta leaves no CSV
    g_beta = model.g_beta(ms.disp, ms.ff, v["scan.beta"], ms.grid)
    o_beta = model.o_beta(ms.disp, v["scan.beta"])
    curve = spectral.dispersion_scan(ms, momenta, basis, tol=v["solver.tol"], beta=v["scan.beta"])
    rows = []
    for i, P in enumerate(curve.momenta):
        rows.append((";".join(f"{x:.17g}" for x in P), curve.energies[i],
                     curve.free_energies[i], curve.upper_margins[i],
                     curve.lower_margins[i], curve.gaps[i], curve.soft_occupancies[i]))
    write_csv(cfg.out_dir / "dispersion_curve.csv",
              ["P", "E_g", "E_0", "upper_margin", "lower_margin", "gap", "soft_occupancy"],
              rows, cfg.hash())
    # perturbative residual scaling at P = 0
    gs = (0.01, 0.02, 0.04, 0.08)
    resid = []
    P0 = np.zeros(ms.grid.dim)
    layout = model.fiber_layout(ms, basis)
    for gg in gs:
        msg = replace(ms, g=gg)
        H = model.build_fiber_H(msg, P0, basis, layout=layout)
        eg = spectral.ground_state(H, k=1, tol=v["solver.tol"]).ground_energy
        resid.append(abs(eg - spectral.pt_ground_energy(msg, P0, basis)))
    pt_exponent = float(np.polyfit(np.log(gs), np.log(resid), 1)[0]) \
        if min(resid) > 0 else math.nan
    numbers = {
        "soft_occupancy_max": _number(np.nanmax(curve.soft_occupancies)),
        "gap_min": _number(np.nanmin(curve.gaps)),
        "free_mod_agree_max": _number(np.nanmax(curve.free_mod_agree)),
        "pt_exponent": _number(pt_exponent),
        "g_beta": g_beta,
        "o_beta": o_beta,
    }
    solver = [{"P": P, "method": method, "matvecs": n, "rows": m, "max_residual": _number(r)}
              for P, method, n, m, r in zip(curve.momenta, curve.methods, curve.matvecs,
                                            curve.rows, curve.max_residuals)]
    converged = np.all(curve.converged)
    code = finish(cfg, "dispersion", numbers, {
        "sandwich_ok": (np.nanmin(curve.lower_margins) >= -1e-10
                        and np.nanmin(curve.upper_margins) >= -1e-10),
        "all_converged": converged}, stats={"solver": solver})
    return code if converged else EXIT_NUMERICS


@_from_config()
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
        return model.velocity_bound(disp, sw + gg * gg * C)

    return mk, bf, basis, sw


def cmd_mourre(cfg: RunConfig) -> int:
    v = cfg.values
    mk, bf, basis, sw = _mourre_setup(cfg)
    P = [v["model.p"]]
    sweep = mourre.mourre_sweep(mk, list(v["mourre.g_sweep"]), P, basis, sw, bf,
                                sample_count=v["mourre.samples"], seed=cfg.seed or 11)
    write_csv(cfg.out_dir / "mourre_sweep.csv", ["g", "min_r", "fitted_C"],
              [(r[0], r[1], r[2]) for r in sweep["rows"]], cfg.hash())
    return finish(cfg, "mourre", {
        "min_r_g0": sweep["min_r0"],
        "fitted_C": [r[2] for r in sweep["rows"]],
        "per_sample_g0": sweep["per_sample_g0"],
        "loglog_slope": _number(sweep["loglog_slope"]),
        "window_dim": sweep["window_dim"],
        "soft_modes": sweep["soft_modes"],
        "shift_signs": sweep["shift_signs"],
        "mesh": sweep["mesh"],
        "caps": {"n_max": basis.n_max},
        "rows": sweep["rows"],
    }, {"min_r0_nonnegative": sweep["min_r0"] >= -1e-10}, stats=sweep["stats"])


def cmd_evolve(cfg: RunConfig) -> int:
    v = cfg.values
    ms, basis = build_model(cfg)
    times = dynamics.geometric_times(v["dynamics.t0"], v["dynamics.t_max"], v["dynamics.ratio"])
    H = model.build_fiber_H(ms, config_momentum(v["model.p"], ms.grid.dim), basis)
    # the exact oracle, block by block; a block above its limit is refused before any artifact
    calc = spectral.SpectralCalculus(H)
    rng = np.random.default_rng(cfg.seed or 3)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    prop = dynamics.Propagation(H, psi, times, step_tol=v["dynamics.step_tol"])
    track = dynamics._track_snapshots(prop, lambda p, t: float(np.vdot(p, H.mat @ p).real))
    t_ref = float(times[min(3, len(times) - 1)])
    mismatch = float(np.linalg.norm(
        dynamics.krylov_expm_apply(H, psi, t_ref, tol=prop.step_tol)
        - calc.fn(lambda lam: np.exp(-1j * lam * t_ref), psi)))
    write_track_csv(cfg.out_dir / "evolve_track.csv", track, cfg.hash())
    return finish(cfg, "evolve", {"dense_mismatch": mismatch},
                  {"conservation": dynamics.check_conservation(track),
                   "dense_agrees": mismatch < 1e-8},
                  stats=dynamics.chebyshev_stats(prop))


def dressed_propagation(cfg: RunConfig, t_max: float) -> tuple:
    """The dressed state psi_P at P = (``model.p``, 0, ..., 0) and its evolution
    under the fiber H(P) up to ``t_max``: (model, P, propagation, y calculus)."""
    v = cfg.values
    ms, basis = build_model(cfg)
    P = config_momentum(v["model.p"], ms.grid.dim)
    times = dynamics.geometric_times(v["dynamics.t0"], t_max, v["dynamics.ratio"])
    H = model.build_fiber_H(ms, P, basis)
    psiP = spectral.ground_state(H, k=1, tol=v["solver.tol"]).ground_vector
    prop = dynamics.Propagation(H, psiP.amps, times, step_tol=v["dynamics.step_tol"])
    return ms, P, prop, dynamics.YCalc(ms.grid)


def cmd_w(cfg: RunConfig) -> int:
    cuts = cutoffs_from(cfg)
    _, _, prop, ycalc = dressed_propagation(cfg, cfg["dynamics.t_max"])
    track = dynamics.W_estimate(prop, prop.H.basis, cuts, ycalc)
    write_track_csv(cfg.out_dir / "w_track.csv", track, cfg.hash())
    return finish(cfg, "w", {"dressed_w_final": track.final()},
                  {"dressed_w_vanishes": track.final() < 1e-6},
                  stats=dynamics.chebyshev_stats(prop))


def cmd_wplus(cfg: RunConfig) -> int:
    cuts = cutoffs_from(cfg)
    ms, P, prop, ycalc = dressed_propagation(cfg, cfg["w.t_max"])
    track = dynamics.W_plus_probe(ms, P, prop, cuts, ycalc, f_window=cfg["w.f_window"])
    rows = list(zip(track.times, track.values, track.extras["outer_vacuum_norms"]))
    write_csv(cfg.out_dir / "wplus_track.csv", ["t", "wplus_norm", "outer_vacuum_norm"],
              rows, cfg.hash())
    x = track.extras
    return finish(cfg, "wplus", {"extended_dim": x["extended_dim"]}, track.verdicts,
                  stats={"pairs": x["extended_dim"], "blocks": x["blocks"],
                         "largest_block": x["largest_block"]})


def _verdicts_block(path: Path) -> dict:
    """A report's verdicts block; empty when absent or when the file holds no JSON object."""
    try:
        block = json.loads(path.read_text(encoding="utf-8")).get("verdicts")
    except (ValueError, AttributeError):
        return {}
    return block if isinstance(block, dict) else {}


def cmd_report(cfg: RunConfig) -> int:
    verdicts, missing, unjudged = {}, [], []
    for name in REPORTS.values():
        path = cfg.out_dir / f"{name}.json"
        block = _verdicts_block(path) if path.exists() else {}
        if not path.exists():
            missing.append(name)
        elif not block:
            unjudged.append(name)
        verdicts[name] = bool(block) and all(ok is True for ok in block.values())
    if missing:
        sys.stderr.write(f"missing reports in {cfg.out_dir}: {', '.join(missing)}\n")
    if unjudged:
        sys.stderr.write(f"reports without a verdict: {', '.join(unjudged)}\n")
    present = sorted(name for name in REPORTS.values() if name not in missing)
    return finish(cfg, "report", {"reports": present, "missing": missing, "unjudged": unjudged,
                                  "all_pass": all(verdicts.values())}, verdicts)


COMMANDS = {
    "algebra": cmd_algebra,
    "dispersion": cmd_dispersion,
    "mourre": cmd_mourre,
    "evolve": cmd_evolve,
    "w": cmd_w,
    "wplus": cmd_wplus,
    "report": cmd_report,
}

# exceptions that mean the config, or an input built from it, is unusable
CONFIG_ERRORS = (ConfigError, fock.GridError, fock.BasisError, model.ConfigWindowError,
                 dynamics.ProbePreconditionError, mourre.EmptySubspaceError,
                 model.IncompatibleGridError)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nelsonlab",
                                     description="electron-boson model laboratory")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        values = parse_config(args.config)
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    cfg = RunConfig(values=values, seed=args.seed, out_dir=Path(args.out))
    try:
        return COMMANDS[args.command](cfg)
    except CONFIG_ERRORS as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return EXIT_NUMERICS
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
