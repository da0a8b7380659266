"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here, not deferred; every expected number is either
an exact structural statement, a closed form checked elsewhere, or an
independently computed oracle.
"""

import math
import time

import numpy as np
import pytest

from nelsonlab import cli, dynamics, fock, model, mourre, spectral
from nelsonlab.algebra import run_algebra_suite

SIGMA = 0.2


def verdict(n, ok, detail):
    line = f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def nonrel():
    return model.DispersionLaw("nonrel", 1.0)


@pytest.fixture(scope="module")
def ff():
    return model.FormFactor(1.0, 1.0, SIGMA)


@pytest.fixture(scope="module")
def default_fiber(nonrel, ff):
    grid = fock.line_grid(12, 1.5, SIGMA)
    basis = fock.build_basis(grid, 2)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05, use_modified=True)
    return ms, grid, basis


def test_criterion_1_algebra_suite():
    t0 = time.time()
    rep = run_algebra_suite(n_modes=4, n_max=3, draws=100, sigma=SIGMA, seed=2024)
    elapsed = time.time() - t0
    ok = rep["passed"] and rep["max_defect"] <= 1e-12 and elapsed < 10.0
    verdict(1, ok, f"algebra identities max defect {rep['max_defect']:.2e} "
                   f"(tol 1e-12), {rep['draws']} draws in {elapsed:.1f}s (< 10s)")


def test_criterion_2_free_theory_exactness(nonrel, ff):
    grid = fock.line_grid(12, 1.5, SIGMA)
    basis = fock.build_basis(grid, 2)
    rel = model.DispersionLaw("rel", 1.0)
    worst_e, worst_v = 0.0, 0.0
    count = 0
    for disp in (nonrel, rel):
        ob = model.o_beta(disp, 1.0)
        for P in np.linspace(0.0, 0.9, 20):
            if float(disp.omega(np.array([P]))) > ob:
                continue
            ms = model.ModelSpec(disp, ff, grid, 0.0)
            res = spectral.ground_state(model.build_fiber_H(ms, [P], basis),
                                        k=2, tol=1e-13)
            vac = np.zeros(basis.size)
            vac[0] = 1.0
            worst_e = max(worst_e, abs(res.ground_energy - float(disp.omega(np.array([P])))))
            worst_v = max(worst_v, float(np.linalg.norm(res.ground_vector.amps - vac)))
            count += 1
    ok = count == 40 and worst_e <= 1e-12 and worst_v <= 1e-12
    verdict(2, ok, f"g=0 ground pair exact on {count}/40 samples: "
                   f"dE {worst_e:.1e}, dvec {worst_v:.1e} (tol 1e-12)")


def test_criterion_3_perturbative_oracle(nonrel, ff):
    t0 = time.time()
    grid = fock.line_grid(16, 1.5, SIGMA)
    basis = fock.build_basis(grid, 2)
    assert basis.size <= 2 * 10 ** 4
    gs = (0.01, 0.02, 0.04, 0.08)
    resid = []
    for gg in gs:
        ms = model.ModelSpec(nonrel, ff, grid, gg)
        res = spectral.ground_state(model.build_fiber_H(ms, [0.0], basis),
                                    k=1, tol=1e-12)
        resid.append(abs(res.ground_energy - spectral.pt_ground_energy(ms, [0.0], basis)))
    slope = float(np.polyfit(np.log(gs), np.log(resid), 1)[0])
    elapsed = time.time() - t0
    ok = 3.7 <= slope <= 4.3 and elapsed < 120.0
    verdict(3, ok, f"|E_g - E_PT| ~ g^p with p = {slope:.3f} (window [3.7, 4.3]), "
                   f"{elapsed:.1f}s (< 120s), dim {basis.size}")


def test_criterion_4_sandwich_bounds(default_fiber):
    ms, grid, basis = default_fiber
    momenta = [np.array([p]) for p in np.linspace(0.0, 0.8, 20)]
    curve = spectral.dispersion_scan(ms, momenta, basis, tol=1e-11, beta=0.9)
    lo = float(np.nanmin(curve.lower_margins))
    hi = float(np.nanmin(curve.upper_margins))
    ok = bool(np.all(curve.converged)) and lo >= -1e-10 and hi >= -1e-10
    verdict(4, ok, f"sandwich margins over 20-point scan at g=0.05: "
                   f"lower min {lo:.2e}, upper min {hi:.2e} (>= -1e-10)")


def test_criterion_5_soft_boson_absence(default_fiber):
    ms, grid, basis = default_fiber
    gb = model.g_beta(ms.disp, ms.ff, 0.9, grid)
    worst = 0.0
    for gg in (gb / 2.0, -gb / 2.0):
        msg = model.ModelSpec(ms.disp, ms.ff, grid, gg)
        for P in (0.0, 0.25, 0.5):
            res = spectral.ground_state(model.build_fiber_H(msg, [P], basis),
                                        k=1, tol=1e-12)
            worst = max(worst, spectral.soft_boson_occupancy(res.ground_vector))
    ok = worst < 1e-10
    verdict(5, ok, f"soft occupancy of psi_P at |g| = g_beta/2 = {gb / 2:.2e}: "
                   f"max {worst:.2e} (< 1e-10)")


def test_criterion_6_virial(default_fiber):
    ms, grid, basis = default_fiber
    conj = mourre.build_conjugate(ms, basis)
    H = model.build_fiber_H(ms, [0.25], basis)
    res = spectral.ground_state(H, k=2, tol=1e-12)
    psi = res.ground_vector
    comm = mourre.commutator_iHA(ms, [0.25], basis, conj)
    v = mourre.virial_residual(comm, psi)
    num = mourre.numerical_commutator(H.mat, conj.A)
    scale = float(np.linalg.norm((comm - num).toarray(), 2)) / conj.mesh ** 2
    r_eig = float(res.residuals[0])
    a_norm = float(np.linalg.norm(conj.A @ psi.amps))
    budget = 10.0 * (2.0 * r_eig * a_norm + conj.mesh ** 2 * scale)
    ok = v <= budget
    verdict(6, ok, f"virial residual {v:.2e} <= 10 (eig {r_eig:.1e} x 2||A psi|| {a_norm:.2f} "
                   f"+ mesh^2 {conj.mesh ** 2:.3f} x scale {scale:.2f}) = {budget:.2e}")


def test_criterion_7_mourre_positivity(nonrel):
    sig = 0.1
    results = {}
    for s in (sig, sig / 2):
        ffm = model.FormFactor(1.0, 1.0, s)
        grid = fock.line_grid(8, 1.6, s)
        basis = fock.build_basis(grid, 2)
        C = model.quadrature_C(ffm, grid)
        mk = lambda gg, f=ffm, gr=grid: model.ModelSpec(nonrel, f, gr, gg)
        bf = lambda gg, c=C: math.sqrt(2.0 * (0.32 + gg * gg * c))
        results[s] = mourre.mourre_sweep(mk, [0.01, 0.02, 0.04, 0.08], [0.25],
                                         basis, 0.32, bf, sample_count=64)
    base = results[sig]
    halved = results[sig / 2]
    rel_diff = max(abs(a[1] - b[1]) / max(abs(a[1]), 1e-12)
                   for a, b in zip(base["rows"], halved["rows"]))
    ok = (base["min_r0"] >= -1e-10
          and 0.8 <= base["loglog_slope"] <= 1.2
          and rel_diff <= 0.05)
    verdict(7, ok, f"min_r(g=0) = {base['min_r0']:.3f} (>= -1e-10), "
                   f"C(g) log-log slope {base['loglog_slope']:.3f} (1 +- 0.2), "
                   f"sigma vs sigma/2 rel diff {rel_diff:.1%} (<= 5%); "
                   f"window_dim {base['window_dim']}, soft modes {base['soft_modes']} at sigma "
                   f"and {halved['soft_modes']} at sigma/2, rows equal: "
                   f"{base['rows'] == halved['rows']}")


def test_criterion_8_dynamics_conservation(default_fiber):
    ms, grid, basis = default_fiber
    H = model.build_fiber_H(ms, [0.25], basis)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    times = dynamics.geometric_times(1.0, 100.0, 1.5)
    prop = dynamics.Propagation(H, psi, times, step_tol=1e-11)
    track = dynamics._track_snapshots(prop, lambda p, t: 0.0)
    conserved = dynamics.check_conservation(track, norm_tol=1e-9, energy_tol=1e-8)
    from scipy.linalg import expm as dense_expm

    assert basis.size <= 400
    u_k = dynamics.krylov_expm_apply(H.mat, psi, 7.3, tol=1e-12)
    u_d = dense_expm(-1j * 7.3 * H.mat.toarray()) @ psi
    mismatch = float(np.linalg.norm(u_k - u_d))
    ok = conserved and mismatch <= 1e-8
    verdict(8, ok, f"norm drift {track.norm_drift.max():.1e}/t (<= 1e-9), energy drift "
                   f"{track.energy_drift.max():.1e}/t (<= 1e-8), dense mismatch "
                   f"{mismatch:.1e} (<= 1e-8) at dim {basis.size}")


def _electron_run(nonrel, ff, L, scale, p0=0.05, sigma_top=0.045):
    mode_ms = [m * scale for m in (-16, -12, -8, -5, 5, 8, 12, 16)]
    grid = fock.lattice_grid(L, mode_ms, SIGMA)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    fb = model.full_basis(ms, L, 1)
    H = model.build_full_H(ms, fb)
    psi, _ = dynamics.filtered_packet(fb, H, p0=p0, dp=0.06, sigma_top=sigma_top,
                                      width_frac=0.6, dense_limit=2500)
    times = dynamics.geometric_times(1.0, 100.0, 1.5)
    prop = dynamics.Propagation(H, psi, times)
    return dynamics.electron_velocity_probe(ms, fb, prop,
                                            dynamics.rising_cutoff(0.4, 0.5))


def test_criterion_9_electron_maximal_velocity(nonrel, ff):
    tr1 = _electron_run(nonrel, ff, 128, 1)
    tr2 = _electron_run(nonrel, ff, 256, 2)
    a, b = tr1.final(), tr2.final()
    agree = abs(a - b) <= 0.10 * max(a, b)
    ok = (a < 1e-3 and tr1.verdicts["monotone_tail"]
          and tr2.verdicts["monotone_tail"] and agree)
    verdict(9, ok, f"<F(|x|/t)> final L=128: {a:.2e}, L=256: {b:.2e} (< 1e-3), "
                   f"monotone tails, resolutions agree to {abs(a - b) / max(a, b):.1%} (<= 10%)")


@pytest.mark.parametrize("p0, final, monotone", [(0.6, 0.887, False), (0.3, 0.095, True)])
def test_criterion_9_fails_on_a_packet_faster_than_F(nonrel, ff, p0, final, monotone):
    """Negative control: a packet filtered up to Sigma = 0.4 at p0 = 0.6 or 0.3
    reaches F's support (|x|/t > 0.4), so the L = 128 half of criterion 9's
    conjunction is false, through its final value and, at p0 = 0.6, its tail."""
    track = _electron_run(nonrel, ff, 128, 1, p0=p0, sigma_top=0.4)
    assert track.final() == pytest.approx(final, abs=1e-3)
    assert track.verdicts["monotone_tail"] is monotone
    assert not (track.final() < 1e-3 and track.verdicts["monotone_tail"])


def test_criterion_10_w_behavior(nonrel, ff, default_fiber):
    cuts = dynamics.CutoffFamily(0.3, 0.34, 0.38, 0.42, 0.46, 0.5)
    # dressed packet: w -> 0
    ms, grid, basis = default_fiber
    H = model.build_fiber_H(ms, [0.25], basis)
    psiP = dynamics.dressed_state(ms, [0.25], basis)
    ycalc = dynamics.YCalc(grid)
    prop = dynamics.Propagation(H, psiP.amps, dynamics.geometric_times(1.0, 100.0, 1.5))
    w_dressed = dynamics.W_estimate(prop, basis, cuts, ycalc).final()

    # free boson with group speed 1 > gamma on a refined grid: w -> 1
    heavy = model.DispersionLaw("nonrel", 1.0e8)
    gridf = fock.line_grid(192, 2.0, SIGMA)
    msf = model.ModelSpec(heavy, ff, gridf, 0.0, use_modified=True)
    bf = fock.build_basis(gridf, 1)
    Hf = model.build_fiber_H(msf, [0.0], bf)
    k = gridf.points[:, 0]
    h = np.exp(-((k - 0.8) ** 2) / (2 * 0.1 ** 2))
    yf = dynamics.YCalc(gridf)
    propf = dynamics.Propagation(Hf, dynamics.one_boson_state(bf, h),
                                 dynamics.geometric_times(2.0, 0.75 * yf.y_max, 1.5))
    w_free = dynamics.W_estimate(propf, bf, cuts, yf).final()

    # excited interacting state: limiting w > 0, stable across caps
    poscuts = dynamics.CutoffFamily(0.25, 0.28, 0.31, 0.35, 0.40, 0.45)
    finals = []
    for n_max in (2, 3):
        b = fock.build_basis(grid, n_max)
        Hx = model.build_fiber_H(ms, [0.25], b)
        res = spectral.ground_state(Hx, k=2, tol=1e-11)
        rng = np.random.default_rng(5)
        v = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
        v[~fock.interacting_mask(b)] = 0.0
        gsv = res.ground_vector.amps
        v = v - gsv * np.vdot(gsv, v)
        calc = spectral.SpectralCalculus(Hx)
        v = calc.fn(dynamics.energy_window(1.2)) @ v
        v = v - gsv * np.vdot(gsv, v)
        v /= np.linalg.norm(v)
        yx = dynamics.YCalc(grid)
        tx = dynamics.geometric_times(1.0, 0.8 * yx.y_max / poscuts.gamma, 1.5)
        px = dynamics.Propagation(Hx, v, tx)
        finals.append(dynamics.W_estimate(px, b, poscuts, yx,
                                          positivity_mode=True).final())
    stable = abs(finals[0] - finals[1]) <= 0.2 * max(finals)
    ok = (w_dressed < 1e-6 and abs(w_free - 1.0) <= 0.05
          and min(finals) > 0 and stable)
    verdict(10, ok, f"w(dressed) = {w_dressed:.1e} (< 1e-6); w(free boson) = {w_free:.4f} "
                    f"(1 +- 0.05); w(excited) caps (2,3) = ({finals[0]:.3f}, {finals[1]:.3f}), "
                    f"stable to {abs(finals[0] - finals[1]) / max(finals):.1%} (<= 20%)")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.n_modes = 8\nscan.n_points = 4\n", encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["dispersion", "--config", str(cfg), "--out", str(out),
                         "--seed", "17"])
        assert code == cli.EXIT_PASS
        outs.append((out / "dispersion_curve.csv").read_bytes())
    ok = outs[0] == outs[1]
    verdict(11, ok, f"two runs with equal config+seed: CSV bodies byte-identical "
                    f"({len(outs[0])} bytes)")
