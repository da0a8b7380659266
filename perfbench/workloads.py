"""The three benchmark workloads.

Each workload mirrors an acceptance computation at its inputs and
tolerances.  A runner takes the seed and a ``pause`` callable, which it
calls between independent steps (the caller samples the reference kernel
there and does not count the pause), and returns ``(verdicts, numbers)``:
``verdicts`` maps every verdict name in ``VERDICTS[workload]`` that was
produced to a bool, and
``numbers`` holds the values the verdicts were computed from.  A step that
raises one of ``NUMERICAL_ERRORS`` leaves its verdicts unproduced; the
caller counts a missing verdict as failed.

Every call into the package goes through a module attribute
(``model.build_fiber_H``, not a bound name), so span wrappers installed in
the package's module namespaces see it.
"""

from __future__ import annotations

import math

import numpy as np

from nelsonlab import algebra, dynamics, fock, model, mourre, spectral

SIGMA = 0.2
NONREL = model.DispersionLaw("nonrel", 1.0)
FF = model.FormFactor(1.0, 1.0, SIGMA)

NUMERICAL_ERRORS = (spectral.ConvergenceError, dynamics.ProbePreconditionError,
                    dynamics.KrylovBreakdownError, mourre.EmptySubspaceError)

VERDICTS = {
    "algebra": ("identities",),
    "chain": ("final_L128", "monotone_L128"),
    "fiber": ("scan_converged", "sandwich_lower", "sandwich_upper", "conservation",
              "w_dressed", "mourre_min_r0", "mourre_slope", "mourre_sigma_stable"),
}

# The seed argument drives these draws; ``chain`` has no random input.
SEEDED_INPUTS = {
    "algebra": "run_algebra_suite draws",
    "chain": None,
    "fiber": "random state of the Krylov step and the Mourre sample seed",
}


def run_algebra(seed: int, pause):
    """Criterion 1 / ``nelsonlab algebra`` at its defaults (basis 35, pair basis 165).

    One step, so ``pause`` is not called.
    """
    rep = algebra.run_algebra_suite(n_modes=4, n_max=3, draws=100, sigma=SIGMA, seed=seed)
    verdicts = {"identities": bool(rep["passed"] and rep["max_defect"] <= 1e-12)}
    return verdicts, {"max_defect": rep["max_defect"], "defects": rep["defects"]}


def run_chain(seed: int, pause):
    """Criterion 9 at its L=128 resolution: electron maximal velocity on the full chain.

    The L=256 resolution and the agreement of the two resolutions are left
    out: one L=256 run is a single dense eigensolve of about 20 s, so it
    cannot be repeated within a run.  ``seed`` is unused: the chain has no
    random input.  One step, so ``pause`` is not called.
    """
    L = 128
    grid = fock.lattice_grid(L, [-16, -12, -8, -5, 5, 8, 12, 16], SIGMA)
    ms = model.ModelSpec(NONREL, FF, grid, 0.05)
    try:
        fb = model.full_basis(ms, L, 1)
        H = model.build_full_H(ms, fb)
        psi, _ = dynamics.filtered_packet(fb, H, p0=0.05, dp=0.06, sigma_top=0.045,
                                          width_frac=0.6, dense_limit=2500)
        prop = dynamics.Propagation(H, psi, dynamics.geometric_times(1.0, 100.0, 1.5))
        track = dynamics.electron_velocity_probe(ms, fb, prop,
                                                 dynamics.rising_cutoff(0.4, 0.5))
    except NUMERICAL_ERRORS as exc:
        return {}, {"error_L128": type(exc).__name__}
    verdicts = {"final_L128": track.final() < 1e-3,
                "monotone_L128": bool(track.verdicts["monotone_tail"])}
    return verdicts, {"track_L128": track.values.tolist()}


def _mourre_criterion(seed: int):
    """Criterion 7: positive-commutator sweep at sigma and sigma/2 (M=8, n_max=2)."""
    sig = 0.1
    results = {}
    for s in (sig, sig / 2):
        ffm = model.FormFactor(1.0, 1.0, s)
        grid = fock.line_grid(8, 1.6, s)
        basis = fock.build_basis(grid, 2)
        C = model.quadrature_C(ffm, grid)
        mk = lambda gg, f=ffm, gr=grid: model.ModelSpec(NONREL, f, gr, gg)
        bf = lambda gg, c=C: math.sqrt(2.0 * (0.32 + gg * gg * c))
        results[s] = mourre.mourre_sweep(mk, [0.01, 0.02, 0.04, 0.08], [0.25], basis,
                                         0.32, bf, sample_count=64, seed=seed)
    base, halved = results[sig], results[sig / 2]
    rel_diff = max(abs(a[1] - b[1]) / max(abs(a[1]), 1e-12)
                   for a, b in zip(base["rows"], halved["rows"]))
    verdicts = {"mourre_min_r0": base["min_r0"] >= -1e-10,
                "mourre_slope": 0.8 <= base["loglog_slope"] <= 1.2,
                "mourre_sigma_stable": rel_diff <= 0.05}
    numbers = {"min_r0": base["min_r0"], "loglog_slope": base["loglog_slope"],
               "rows": base["rows"], "rows_half": halved["rows"], "rel_diff": rel_diff}
    return verdicts, numbers


def run_fiber(seed: int, pause):
    """Dressed electron on a fiber above DENSE_CUTOFF (M=24, n_max=3, dim 2925)."""
    grid = fock.line_grid(24, 1.5, SIGMA)
    basis = fock.build_basis(grid, 3)
    ms = model.ModelSpec(NONREL, FF, grid, 0.05, use_modified=True)
    times = dynamics.geometric_times(1.0, 100.0, 1.5)
    verdicts, numbers = {}, {"dim": basis.size}

    # 1. dispersion scan with sandwich margins (criterion 4 checks)
    try:
        curve = spectral.dispersion_scan(ms, np.linspace(0.0, 0.8, 4), basis,
                                         tol=1e-10, beta=0.9)
    except NUMERICAL_ERRORS as exc:
        numbers["scan_error"] = type(exc).__name__
    else:
        lo = float(np.nanmin(curve.lower_margins))
        hi = float(np.nanmin(curve.upper_margins))
        verdicts["scan_converged"] = bool(np.all(curve.converged))
        verdicts["sandwich_lower"] = lo >= -1e-10
        verdicts["sandwich_upper"] = hi >= -1e-10
        numbers.update(energies=curve.energies.tolist(), lower_min=lo, upper_min=hi)

    pause()
    # 2. Krylov evolution of a seeded random state (criterion 8 checks)
    H = model.build_fiber_H(ms, [0.25], basis)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    try:
        prop = dynamics.Propagation(H, psi, times, step_tol=1e-11)
        track = dynamics._track_snapshots(prop, lambda p, t: 0.0)
    except NUMERICAL_ERRORS as exc:
        numbers["krylov_error"] = type(exc).__name__
    else:
        verdicts["conservation"] = dynamics.check_conservation(track, norm_tol=1e-9,
                                                               energy_tol=1e-8)
        numbers.update(norm_drift=float(track.norm_drift.max()),
                       energy_drift=float(track.energy_drift.max()))

    pause()
    # 3. asymptotic observable of the dressed state (criterion 10, first regime)
    try:
        psiP = dynamics.dressed_state(ms, [0.25], basis)
        cuts = dynamics.CutoffFamily(0.3, 0.34, 0.38, 0.42, 0.46, 0.5)
        w = dynamics.W_estimate(dynamics.Propagation(H, psiP.amps, times), basis, cuts,
                                dynamics.YCalc(grid)).final()
    except NUMERICAL_ERRORS as exc:
        numbers["w_error"] = type(exc).__name__
    else:
        verdicts["w_dressed"] = w < 1e-6
        numbers["w_dressed"] = w

    pause()
    # 4. Mourre positivity sweep (criterion 7)
    try:
        v, n = _mourre_criterion(seed)
    except NUMERICAL_ERRORS as exc:
        numbers["mourre_error"] = type(exc).__name__
    else:
        verdicts.update(v)
        numbers["mourre"] = n
    return verdicts, numbers


def warm_up():
    """Run the core operations once on tiny inputs, so lazy imports and first
    BLAS and LAPACK calls happen before the timed interval."""
    algebra.run_algebra_suite(n_modes=2, n_max=2, draws=1, sigma=SIGMA, seed=0)
    grid = fock.line_grid(4, 1.0, SIGMA)
    basis = fock.build_basis(grid, 2)
    ms = model.ModelSpec(NONREL, FF, grid, 0.05)
    H = model.build_fiber_H(ms, [0.1], basis)
    psi = spectral.ground_state(H).ground_vector.amps
    spectral.SpectralCalculus(H).fn(np.exp)
    dynamics.krylov_expm_apply(H.mat, psi, 1.0)


RUNNERS = {"algebra": run_algebra, "chain": run_chain, "fiber": run_fiber}
