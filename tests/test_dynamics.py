import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm as dense_expm

import oracles
from nelsonlab import dynamics, fock, model, spectral


CUTS = dynamics.CutoffFamily(0.3, 0.34, 0.38, 0.42, 0.46, 0.5)


@pytest.fixture(scope="module")
def fiber_setup(ms_default, basis12):
    H = model.build_fiber_H(ms_default, [0.25], basis12)
    return ms_default, basis12, H


@pytest.fixture(scope="module")
def lattice_setup(nonrel, ff):
    L = 64
    grid = fock.lattice_grid(L, [-8, -6, -4, 4, 6, 8], 0.2)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    fb = model.full_basis(ms, L, 1)
    H = model.build_full_H(ms, fb)
    return ms, fb, H


class TestKrylov:
    def test_matches_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        assert basis.size <= 400
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        t = 7.3
        u_k = dynamics.krylov_expm_apply(H.mat, v, t, tol=1e-12)
        u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
        assert np.linalg.norm(u_k - u_d) < 1e-8

    def test_unitarity_long_time(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        u = dynamics.krylov_expm_apply(H.mat, v, 100.0, tol=1e-12)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-10

    def test_backward_inverts_forward(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        u = dynamics.krylov_expm_apply(H.mat, v, 3.0, tol=1e-12)
        back = dynamics.krylov_expm_apply(H.mat, u, -3.0, tol=1e-12)
        assert np.linalg.norm(back - v) < 1e-10

    def test_diagonal_phases_exact(self, nonrel, ff, grid12, basis12, rng):
        ms0 = model.ModelSpec(nonrel, ff, grid12, 0.0)
        H0 = model.build_fiber_H(ms0, [0.25], basis12)
        d = np.real(np.asarray(H0.mat.diagonal()))
        v = rng.normal(size=basis12.size) + 1j * rng.normal(size=basis12.size)
        u = dynamics.krylov_expm_apply(H0.mat, v, 5.0, tol=1e-12)
        assert np.linalg.norm(u - np.exp(-1j * d * 5.0) * v) < 1e-10

    def test_snapshots_match_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        prop = dynamics.Propagation(H, v, np.array([1.0, 2.5]))
        for t, u in dynamics.snapshots(prop):
            u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
            assert np.linalg.norm(u - u_d) < 1e-9

    def test_snapshots_one_krylov_call_per_grid_time(self, fiber_setup, rng, monkeypatch):
        """snapshots steps from one grid time to the next: one call per
        interval, and the same arrays as calling krylov_expm_apply in turn."""
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        times = dynamics.geometric_times(1.0, 20.0, 1.5)
        prop = dynamics.Propagation(H, v, times, step_tol=1e-10)
        real = dynamics.krylov_expm_apply
        calls = []

        def spy(mat, u, dt, tol=1e-10):
            calls.append((dt, tol))
            return real(mat, u, dt, tol=tol)

        monkeypatch.setattr(dynamics, "krylov_expm_apply", spy)
        snaps = list(dynamics.snapshots(prop))
        assert len(calls) == len(times)
        assert [c[1] for c in calls] == [1e-10] * len(times)
        assert [t for t, _ in snaps] == list(times)
        u, t_prev = prop.state, 0.0
        for t, psi in snaps:
            u = real(H.mat, u, t - t_prev, tol=1e-10)
            t_prev = t
            assert np.array_equal(psi, u)

    def test_conservation_track(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        prop = dynamics.Propagation(H, v, times)
        track = dynamics._track_snapshots(prop, lambda p, t: 0.0)
        assert dynamics.check_conservation(track)

    def test_long_time_matches_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        t = 100.0
        u_k = dynamics.krylov_expm_apply(H.mat, v, t, tol=1e-12)
        u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
        assert np.linalg.norm(u_k - u_d) < 1e-8

    def test_zero_tolerance_terminates_and_matches_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        u_k = dynamics.krylov_expm_apply(H.mat, v, 1.0, tol=0.0)
        u_d = dense_expm(-1j * H.mat.toarray()) @ v
        assert np.linalg.norm(u_k - u_d) < 1e-8

    @pytest.mark.parametrize("dt", [1.0, 12.0, 29.0])
    def test_matches_upcasting_reference_bit_for_bit(self, ms_default, dt):
        """Casting the shifted operator to complex once changes no bit of the series."""
        grid = fock.line_grid(24, 1.5, 0.2)
        ms = model.ModelSpec(ms_default.disp, ms_default.ff, grid, ms_default.g)
        H = model.build_fiber_H(ms, [0.25], fock.build_basis(grid, 3))
        assert H.mat.dtype == np.float64
        rng = np.random.default_rng(29)
        v = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
        v /= np.linalg.norm(v)
        np.testing.assert_array_equal(dynamics.krylov_expm_apply(H.mat, v, dt, tol=1e-11),
                                      oracles.chebyshev_expm_apply(H.mat, v, dt, tol=1e-11))

    def test_gershgorin_interval_contains_spectrum(self, fiber_setup, lattice_setup):
        for H in (fiber_setup[2], lattice_setup[2]):
            a, b = dynamics._gershgorin_interval(H.mat)
            ev = np.linalg.eigvalsh(H.mat.toarray())
            assert a - b <= ev[0] and ev[-1] <= a + b

    def test_single_state_fiber_evolves_by_exact_phase(self, ms_default, grid12):
        # n_max = 0: H is 1 x 1, so the Gershgorin interval has zero width
        H = model.build_fiber_H(ms_default, [0.25], fock.build_basis(grid12, 0))
        E = H.mat.toarray()[0, 0].real
        v = np.array([0.6 - 0.8j])
        for t in (3.0, -7.5):
            u = dynamics.krylov_expm_apply(H.mat, v, t, tol=1e-12)
            assert np.abs(u - np.exp(-1j * E * t) * v).max() < 1e-14

    def test_chebyshev_coefficients_are_bessel(self):
        from scipy.special import jv

        for x in (0.3, -7.0, 250.0):
            c = dynamics._chebyshev_coefficients(x, 1e-14)
            k = np.arange(len(c))
            ref = (2 - (k == 0)) * (-1j) ** k * jv(k, x)
            assert np.abs(c - ref).max() < 1e-13
            assert 2 * np.abs(jv(np.arange(len(c), len(c) + 200), x)).sum() <= 1e-14

    @pytest.mark.parametrize("tol", [1e-11, 1e-12, 1e-13])
    def test_chebyshev_degree_follows_the_bessel_tail(self, tol):
        """The series is as long as the exact tail sum of 2 |J_k(x)| needs, and
        at most two terms longer: the rounding floor of the FFT coefficients
        does not keep it running."""
        from scipy.special import jv

        for x in (0.5, 5.0, 50.0, 250.0, 750.0, 1500.0):
            k = np.arange(int(2 * x) + 200)
            exact = (2 - (k == 0)) * np.abs(jv(k, x))
            needed = max(int(np.count_nonzero(np.cumsum(exact[::-1])[::-1] > tol)), 1)
            assert needed <= len(dynamics._chebyshev_coefficients(x, tol)) <= needed + 2, x


class TestGeometricTimes:
    def test_grid_that_never_reaches_t_max_is_rejected(self):
        # in a child process with bounded address space and time, so a
        # regressed guard fails the test instead of hanging or eating memory
        code = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nelsonlab.dynamics import geometric_times
for args in [(1.0, 100.0, 1.0), (1.0, 100.0, 0.5), (0.0, 100.0, 1.5), (-1.0, 100.0, 1.5)]:
    try:
        geometric_times(*args)
    except ValueError:
        continue
    sys.exit(f"no ValueError for {args}")
"""
        src = str(Path(dynamics.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, done.stderr


class TestCutoffs:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(dynamics.ConfigWindowError):
            dynamics.CutoffFamily(0.5, 0.4, 0.38, 0.42, 0.46, 0.5)

    def test_partition_sums_to_one(self):
        s = np.linspace(0, 1, 201)
        assert np.abs(CUTS.j0(s) + CUTS.jinf(s) - 1.0).max() < 1e-15

    def test_chi_gamma_support(self):
        assert CUTS.chi_gamma(0.3) == 0.0
        assert CUTS.chi_gamma(0.46) == 0.0
        assert CUTS.chi_gamma(0.5) == 1.0

    def test_j0_chi_gamma_product_vanishes(self):
        s = np.linspace(0, 1.5, 301)
        assert np.abs(CUTS.j0(s) * CUTS.chi_gamma(s)).max() == 0.0


class TestElectronProbe:
    def test_zero_cutoff_gives_zero_track(self, lattice_setup):
        ms, fb, H = lattice_setup
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.06, 0.045, 0.6)
        times = dynamics.geometric_times(1.0, 10.0, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.electron_velocity_probe(ms, fb, prop, lambda s: np.zeros_like(s))
        assert np.abs(track.values).max() == 0.0

    def test_free_ballistic_slow_packet(self, nonrel, ff):
        """g=0 packet with v < beta: F-tail expectation decays monotonically.

        Smoke scale (L = 64); the 1e-3 acceptance threshold needs L = 128 and
        is exercised in the acceptance suite."""
        L = 64
        grid = fock.lattice_grid(L, [4], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.0)
        fb = model.full_basis(ms, L, 0)
        H = model.build_full_H(ms, fb)
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.08, 0.045, 0.6)
        times = dynamics.geometric_times(1.0, 50.0, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.electron_velocity_probe(ms, fb, prop,
                                                 dynamics.rising_cutoff(0.4, 0.5))
        assert track.values[-1] < 3e-2  # L=64 filter-edge resolution floor
        tail = track.values[len(track.values) // 2:]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_zone_margin_validator(self, lattice_setup):
        ms, fb, H = lattice_setup
        fast = dynamics.gaussian_electron_state(fb, 0.95 * np.pi, 0.05)
        with pytest.raises(dynamics.ProbePreconditionError):
            dynamics.validate_zone_margin(fb, fast)

    def test_filter_leak_precondition(self, lattice_setup):
        ms, fb, H = lattice_setup
        with pytest.raises(dynamics.ProbePreconditionError):
            dynamics.filtered_packet(fb, H, 0.05, 0.06, -1.0, 0.5)

    def test_momentum_conservation(self, lattice_setup, rng):
        ms, fb, H = lattice_setup
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.06, 0.045, 0.6)
        times = dynamics.geometric_times(1.0, 20.0, 1.6)
        prop = dynamics.Propagation(H, psi, times)
        rep = dynamics.momentum_conservation_track(fb, prop)
        assert rep["p_mean_drift"] < 1e-9
        assert rep["p2_drift"] < 1e-9


class TestPhotonProbe:
    def test_vacuum_track_is_zero(self, fiber_setup):
        ms, basis, H = fiber_setup
        ycalc = dynamics.YCalc(ms.grid)
        vac = fock.FockVector.vacuum(basis).amps
        times = dynamics.geometric_times(1.0, 10.0, 1.5)
        prop = dynamics.Propagation(H, vac.copy(), times)
        ms0 = model.ModelSpec(ms.disp, ms.ff, ms.grid, 0.0)
        H0 = model.build_fiber_H(ms0, [0.25], basis)
        prop0 = dynamics.Propagation(H0, vac.copy(), times)
        track = dynamics.photon_velocity_probe(prop0, basis, (1.1, 1.5), ycalc)
        assert np.abs(track.values).max() < 1e-14

    def test_free_boson_window_integrand_decays(self):
        """Boson slower than the window: integrand -> 0, integral converges.

        The electron is decoupled by a huge mass so the fiber recoil phases
        vanish and the boson moves at its own group speed 1 < window."""
        sigma = 0.2
        heavy = model.DispersionLaw("nonrel", 1.0e8)
        grid = fock.line_grid(128, 2.0, sigma)
        ff = model.FormFactor(1.0, 1.0, sigma)
        ms = model.ModelSpec(heavy, ff, grid, 0.0, use_modified=True)
        basis = fock.build_basis(grid, 1)
        H = model.build_fiber_H(ms, [0.0], basis)
        k = grid.points[:, 0]
        h = np.exp(-((k - 0.8) ** 2) / (2 * 0.25 ** 2))
        psi = dynamics.one_boson_state(basis, h)
        ycalc = dynamics.YCalc(grid)
        times = dynamics.geometric_times(2.0, 15.0, 1.35)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.photon_velocity_probe(prop, basis, (1.6, 2.2), ycalc)
        assert track.values[-1] < 1e-3
        assert track.values[-1] < track.values[0]
        assert track.verdicts.get("integral_plateau", False)

    def test_interacting_running_integral_plateaus(self, fiber_setup, rng):
        ms, basis, H = fiber_setup
        ycalc = dynamics.YCalc(ms.grid)
        psi = dynamics.dressed_state(ms, [0.25], basis)
        times = dynamics.geometric_times(1.0, 40.0, 1.5)
        prop = dynamics.Propagation(H, psi.amps, times)
        track = dynamics.photon_velocity_probe(prop, basis, (1.1, 1.5), ycalc)
        assert track.verdicts.get("integral_plateau", False)

    def test_phase_space_monitor_runs(self, fiber_setup):
        ms, basis, H = fiber_setup
        ycalc = dynamics.YCalc(ms.grid)
        psi = dynamics.dressed_state(ms, [0.25], basis)
        times = dynamics.geometric_times(1.0, 10.0, 1.5)
        prop = dynamics.Propagation(H, psi.amps, times)
        track = dynamics.photon_velocity_probe(prop, basis, (1.1, 1.5), ycalc,
                                               mode="phase_space")
        assert np.all(track.values >= -1e-12)
        assert track.verdicts.get("integral_plateau", False)

    def test_chain_branch_matches_kron_oracle(self, nonrel, ff, monkeypatch):
        """With fb, the integrand is sum_x F(|x|/t) <psi_x, dGamma psi_x> over
        the electron positions: <pos, (F x 1)(1 x dGamma) pos> with the
        Kronecker product formed explicitly."""
        L = 16
        grid = fock.lattice_grid(L, [-5, -3, -1, 1, 3, 5], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms, L, 2)
        H = model.build_full_H(ms, fb)
        rng = np.random.default_rng(12)
        psi = rng.normal(size=fb.size) + 1j * rng.normal(size=fb.size)
        prop = dynamics.Propagation(H, psi / np.linalg.norm(psi),
                                    dynamics.geometric_times(1.0, 6.0, 1.5))
        f_el = dynamics.rising_cutoff(0.1, 0.3)
        mode_mats = []
        real = dynamics.dGamma_expectation

        def recording(basis, b, psi, weights=None):
            mode_mats.append(b)
            return real(basis, b, psi, weights)

        monkeypatch.setattr(dynamics, "dGamma_expectation", recording)
        track = dynamics.photon_velocity_probe(prop, fb.boson, (1.1, 1.5),
                                               dynamics.YCalc(grid), fb=fb, f_electron=f_el)
        assert len(mode_mats) == len(track.values)
        assert np.abs(track.values).max() > 1e-2
        x = np.abs(fb.positions())
        one = sp.identity(fb.boson.size, format="csr")
        for (t, psi_t), b, value in zip(dynamics.snapshots(prop), mode_mats, track.values):
            pos = fb.to_position(psi_t).ravel()
            op = oracles.dGamma(fb.boson, b)
            lifted = sp.kron(sp.diags(f_el(x / t)), one) @ (oracles.lift_boson_op(fb, op) @ pos)
            assert value == pytest.approx(np.vdot(pos, lifted).real, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("t_max", [6.0, 20.0])
    def test_probes_assemble_no_dGamma(self, fiber_setup, nonrel, ff, monkeypatch, t_max):
        """W(t) and the photon flux read <dGamma(b)> from the one-boson density
        matrix: no sparse dGamma is built, however long the time grid."""
        calls = []
        real = fock.dGamma

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fock, "dGamma", counting)
        monkeypatch.setattr(dynamics, "dGamma", counting)
        ms, basis, H = fiber_setup
        ycalc = dynamics.YCalc(ms.grid)
        psi = dynamics.dressed_state(ms, [0.25], basis).amps
        times = dynamics.geometric_times(1.0, t_max, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        dynamics.W_estimate(prop, basis, CUTS, ycalc)
        for mode in ("window", "phase_space"):
            dynamics.photon_velocity_probe(prop, basis, (1.1, 1.5), ycalc, mode=mode)
        L = 16
        grid = fock.lattice_grid(L, [-5, -3, -1, 1, 3, 5], 0.2)
        ms_c = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms_c, L, 2)
        H_c = model.build_full_H(ms_c, fb)
        psi_c = dynamics.gaussian_electron_state(fb, 0.1, 0.1)
        dynamics.photon_velocity_probe(dynamics.Propagation(H_c, psi_c, times), fb.boson,
                                       (1.1, 1.5), dynamics.YCalc(grid), fb=fb,
                                       f_electron=dynamics.rising_cutoff(0.1, 0.3))
        assert calls == []

    def test_window_below_bound_warns(self, fiber_setup):
        ms, basis, H = fiber_setup
        ycalc = dynamics.YCalc(ms.grid)
        vac = fock.FockVector.vacuum(basis).amps
        prop = dynamics.Propagation(H, vac, dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.warns(UserWarning):
            dynamics.photon_velocity_probe(prop, basis, (0.5, 0.9), ycalc)


class TestAsymptoticFields:
    def test_free_theory_cauchy_differences_vanish(self, nonrel, ff):
        """g=0 full model: the conjugated creation operator is constant."""
        L = 16
        grid = fock.lattice_grid(L, [-3, 2], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.0)
        fb = model.full_basis(ms, L, 2)
        H = model.build_full_H(ms, fb)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=fb.size) + 1j * rng.normal(size=fb.size)
        psi /= np.linalg.norm(psi)
        times = dynamics.geometric_times(1.0, 8.0, 2.0)
        prop = dynamics.Propagation(H, psi, times)
        h = np.array([0.3, 0.8])
        track = dynamics.asymptotic_field_probe(prop, fb.boson, h, fb=fb)
        assert np.abs(track.values).max() < 1e-9

    def test_dressed_state_is_asymptotic_vacuum(self, fiber_setup):
        """||a(h_t) psi_t|| stays at the dressed-cloud floor and trends down."""
        ms, basis, H = fiber_setup
        psiP = dynamics.dressed_state(ms, [0.25], basis)
        k = ms.grid.points[:, 0]
        h = np.exp(-((k - 0.7) ** 2) / 0.05)  # supported away from the soft zone
        times = dynamics.geometric_times(1.0, 60.0, 1.6)
        prop = dynamics.Propagation(H, psiP.amps, times)
        track = dynamics.annihilation_norm_track(prop, basis, h)
        assert track.values[0] < 0.05  # O(g) cloud
        assert track.values[-1] <= track.values[0] + 1e-12

    def test_interacting_cauchy_decreasing(self, nonrel, ff):
        """Full-model run: after the overlap transient, d(t, 2t) halves (at
        least) per doubling.  The fiber has an electron-recoil term that is
        not a one-particle phase, so the probe is a full-model statement."""
        L = 128
        modes = [m for m in range(-12, 13) if 5 <= abs(m) <= 12]
        grid = fock.lattice_grid(L, modes, 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms, L, 1)
        H = model.build_full_H(ms, fb)
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.08, 0.2, 0.3)
        k = grid.points[:, 0]
        h = np.exp(-((k - 0.45) ** 2) / 0.02)
        times = np.array([4.0, 8.0, 16.0, 32.0, 48.0])
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.asymptotic_field_probe(prop, fb.boson, h, fb=fb)
        d = track.values
        assert d[-1] < d[-2] < d[-3]
        assert d[-2] / d[-1] >= 2.0
        assert track.verdicts["cauchy_decreasing"]


def oracle_probe_values(prop, basis, h, fb=None):
    """The Cauchy differences and ||a(h_t) psi_t|| with a*(h_t) built by the
    loop oracle (lifted to 1 x a*(h_t) on the chain) and applied as a matrix."""
    omega = dynamics._boson_omega(prop, basis)
    vecs, norms = [], []
    for t, psi in dynamics.snapshots(prop):
        c = oracles.creation_op(basis, np.exp(-1j * omega * t) * h)
        if fb is not None:
            c = oracles.lift_boson_op(fb, c)
        vecs.append(dynamics.krylov_expm_apply(prop.H.mat, c @ psi, -t, tol=prop.step_tol))
        norms.append(np.linalg.norm(c.conj().T @ psi))
    return np.linalg.norm(np.diff(vecs, axis=0), axis=1), np.array(norms)


@pytest.mark.parametrize("where", ["fiber", "chain"])
def test_field_probes_match_oracle_ladders(where, fiber_setup, nonrel, ff):
    """asymptotic_field_probe and annihilation_norm_track apply a*(h_t) and
    a(h_t) by gathers on the ladder table, on the chain to the occupation leg."""
    rng = np.random.default_rng(21)
    if where == "fiber":
        ms, basis, H = fiber_setup
        fb = None
    else:
        grid = fock.lattice_grid(16, [-3, -1, 2], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms, 16, 2)
        H = model.build_full_H(ms, fb)
        basis = fb.boson
    psi = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
    prop = dynamics.Propagation(H, psi / np.linalg.norm(psi), dynamics.geometric_times(1.0, 8.0, 2.0))
    h = rng.normal(size=ms.grid.n_modes) + 1j * rng.normal(size=ms.grid.n_modes)
    diffs, norms = oracle_probe_values(prop, basis, h, fb)
    for got, want in ((dynamics.asymptotic_field_probe(prop, basis, h, fb=fb).values, diffs),
                      (dynamics.annihilation_norm_track(prop, basis, h, fb=fb).values, norms)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


class TestW:
    def test_dressed_packet_w_vanishes(self, fiber_setup):
        ms, basis, H = fiber_setup
        psiP = dynamics.dressed_state(ms, [0.25], basis)
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        prop = dynamics.Propagation(H, psiP.amps, times)
        track = dynamics.W_estimate(prop, basis, CUTS, ycalc)
        assert track.final() < 1e-6

    def test_one_boson_w_stays_inside_the_horizon(self, fiber_setup):
        """Negative control of ``dressed_w_vanishes``: a*(h) Omega on the
        12-mode fiber, judged at t <= 0.8 y_max / gamma where the cutoff can
        still see it, keeps w near 0.75."""
        ms, basis, H = fiber_setup
        k = ms.grid.points[:, 0]
        psi = dynamics.one_boson_state(basis, np.exp(-((k - 0.8) ** 2) / (2 * 0.3 ** 2)))
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 0.8 * ycalc.y_max / CUTS.gamma, 1.5)
        track = dynamics.W_estimate(dynamics.Propagation(H, psi, times), basis, CUTS, ycalc)
        assert track.final() > 0.5

    def test_free_boson_w_goes_to_one(self):
        sigma = 0.2
        heavy = model.DispersionLaw("nonrel", 1.0e8)  # decoupled electron
        grid = fock.line_grid(192, 2.0, sigma)
        ff = model.FormFactor(1.0, 1.0, sigma)
        ms = model.ModelSpec(heavy, ff, grid, 0.0, use_modified=True)
        basis = fock.build_basis(grid, 1)
        H = model.build_fiber_H(ms, [0.0], basis)
        k = grid.points[:, 0]
        h = np.exp(-((k - 0.8) ** 2) / (2 * 0.1 ** 2))  # group speed 1 > gamma
        psi = dynamics.one_boson_state(basis, h)
        ycalc = dynamics.YCalc(grid)
        t_max = 0.75 * ycalc.y_max
        times = dynamics.geometric_times(2.0, t_max, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.W_estimate(prop, basis, CUTS, ycalc)
        assert abs(track.final() - 1.0) <= 0.05

    def test_excited_state_w_positive_and_cap_stable(self, ms_default, grid12):
        # positivity window: gamma in (beta, 1 - 2 beta) with beta < 1/3
        poscuts = dynamics.CutoffFamily(0.25, 0.28, 0.31, 0.35, 0.40, 0.45)
        finals = []
        for n_max in (2, 3):
            basis = fock.build_basis(grid12, n_max)
            H = model.build_fiber_H(ms_default, [0.25], basis)
            res = spectral.ground_state(H, k=2, tol=1e-11)
            rng = np.random.default_rng(5)
            v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
            v = fock.interacting_projector(basis) @ v
            gsv = res.ground_vector.amps
            v = v - gsv * np.vdot(gsv, v)
            calc = spectral.SpectralCalculus(H)
            v = calc.fn(dynamics.energy_window(1.2)) @ v
            v = v - gsv * np.vdot(gsv, v)
            v /= np.linalg.norm(v)
            ycalc = dynamics.YCalc(grid12)
            t_max = 0.8 * ycalc.y_max / poscuts.gamma
            times = dynamics.geometric_times(1.0, t_max, 1.5)
            prop = dynamics.Propagation(H, v, times)
            track = dynamics.W_estimate(prop, basis, poscuts, ycalc,
                                        positivity_mode=True)
            finals.append(track.final())
        assert min(finals) > 0.0
        assert abs(finals[0] - finals[1]) <= 0.2 * max(finals)

    def test_positivity_mode_window_enforced(self, fiber_setup):
        ms, basis, H = fiber_setup
        bad = dynamics.CutoffFamily(0.4, 0.45, 0.5, 0.55, 0.6, 0.65)
        prop = dynamics.Propagation(H, fock.FockVector.vacuum(basis).amps,
                                    dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.raises(dynamics.ConfigWindowError):
            dynamics.W_estimate(prop, basis, bad, dynamics.YCalc(ms.grid),
                                positivity_mode=True)


@pytest.fixture(scope="module")
def small_fiber(nonrel):
    sigma = 0.2
    grid = fock.line_grid(8, 1.2, sigma)
    ff = model.FormFactor(1.0, 1.0, sigma)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    basis = fock.build_basis(grid, 2)
    H = model.build_fiber_H(ms, [0.25], basis)
    return ms, basis, H


class TestWPlus:
    def test_dressed_packet_both_norms_vanish(self, small_fiber):
        ms, basis, H = small_fiber
        psiP = dynamics.dressed_state(ms, [0.25], basis)
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 16.0, 1.5)
        prop = dynamics.Propagation(H, psiP.amps, times)
        track = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, ycalc, f_window=1.2)
        assert track.values[-1] < 1e-8
        assert max(track.extras["outer_vacuum_norms"]) < 1e-8

    def test_outer_vacuum_exact_routing(self, small_fiber, rng):
        ms, basis, H = small_fiber
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 6.0, 1.5)
        prop = dynamics.Propagation(H, v, times)
        track = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, ycalc, f_window=1.2)
        assert track.verdicts["outer_vacuum_small"]

    def test_jinf_zero_routes_outer_vacuum(self, small_fiber, rng):
        from nelsonlab.split import build_tensor_basis, breve_gamma

        ms, basis, H = small_fiber
        M = ms.grid.n_modes
        tb = build_tensor_basis(basis)
        BG = breve_gamma(np.eye(M), np.zeros((M, M)), tb)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        out = BG @ v
        outer_vacuum = tb.pair_numbers()[:, 1] == 0
        assert np.linalg.norm(out[outer_vacuum]) == pytest.approx(np.linalg.norm(out), abs=1e-14)

    @pytest.mark.parametrize("use_modified", [True, False], ids=["modified", "free"])
    def test_extended_fiber_intertwines_splitting_and_fusion_at_g0(self, nonrel, use_modified):
        """At g = 0, Gamma-breve(j) H(P) = H_ext Gamma-breve(j) for j = (1, 0)
        and (0, 1), and H(P) I = I H_ext, exactly: the inner leg of an outer
        state r sits at P - K_r, and the outer photons move with the
        dispersion H was built with (|k| at use_modified=False)."""
        from nelsonlab.split import breve_gamma, build_tensor_basis, scattering_ident

        grid = fock.line_grid(8, 1.5, 0.2)
        ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.0,
                             use_modified=use_modified)
        basis = fock.build_basis(grid, 2)
        H = model.build_fiber_H(ms, [0.25], basis)
        tb = build_tensor_basis(basis)
        Hext = dynamics.extended_fiber_H(ms, [0.25], H, tb).mat.toarray()
        eye, zero = np.eye(grid.n_modes), np.zeros((grid.n_modes,) * 2)
        for j in ((eye, zero), (zero, eye)):
            BG = breve_gamma(*j, tb)
            assert np.array_equal(BG @ H.mat.toarray(), Hext @ BG)
        I = scattering_ident(tb).toarray()
        assert np.array_equal(H.mat.toarray() @ I, I @ Hext)

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_extended_fiber_is_the_sum_of_shifted_fibers(self, nonrel, n_max):
        """Each outer-state block of H_ext is H(P - K_r) on N <= n_max - n_r
        plus E_r, and no entry joins two blocks."""
        from nelsonlab.split import build_tensor_basis

        grid = fock.line_grid(8, 1.5, 0.2)
        ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.05)
        basis = fock.build_basis(grid, n_max)
        P = np.array([0.25])
        tb = build_tensor_basis(basis)
        Hext = dynamics.extended_fiber_H(ms, P, model.build_fiber_H(ms, P, basis), tb).mat
        inner, outer = tb.pairs.T
        rows, cols = Hext.nonzero()
        assert np.array_equal(outer[rows], outer[cols])
        N, K = basis.total_numbers(), basis.boson_momenta()
        for r in range(basis.size):
            pairs = np.flatnonzero(outer == r)
            keep = np.flatnonzero(N <= n_max - N[r])
            assert np.array_equal(inner[pairs], keep)
            shifted = model.build_fiber_H(ms, P - K[r], basis).mat.toarray()[np.ix_(keep, keep)]
            E_r = basis.occ[r] @ ms.boson_omega()
            block = Hext[pairs][:, pairs].toarray()
            assert np.abs(block - (shifted + E_r * np.eye(len(keep)))).max() <= 1e-14

    def test_probe_refuses_a_hamiltonian_off_the_fiber(self, small_fiber):
        ms, basis, H = small_fiber
        prop = dynamics.Propagation(H, fock.FockVector.vacuum(basis).amps,
                                    dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.raises(ValueError, match="fiber H"):
            dynamics.W_plus_probe(ms, [0.3], prop, CUTS, dynamics.YCalc(ms.grid), f_window=1.2)

    def test_extended_dim_cap_enforced(self, small_fiber, monkeypatch):
        ms, basis, H = small_fiber
        monkeypatch.setattr(dynamics, "W_PLUS_DIM_CAP", 10)
        prop = dynamics.Propagation(H, fock.FockVector.vacuum(basis).amps,
                                    dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.raises(dynamics.ConfigWindowError):
            dynamics.W_plus_probe(ms, [0.25], prop, CUTS, dynamics.YCalc(ms.grid),
                                  f_window=1.2)


class TestFiberFullConsistency:
    def test_translation_invariant_observable_matches(self, nonrel, ff):
        """<N(t)> for a momentum-concentrated dressed state: the full-model
        run equals the fiber run at the packet's momentum."""
        L = 32
        grid = fock.lattice_grid(L, [-6, -3, 3, 6], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms, L, 2)
        Hfull = model.build_full_H(ms, fb)
        m_tot = 2
        P = 2 * np.pi * m_tot / L
        blocks = oracles.momentum_blocks(fb)
        idx = blocks[m_tot]
        rng = np.random.default_rng(8)
        amps = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        psi_full = np.zeros(fb.size, dtype=complex)
        psi_full[idx] = amps / np.linalg.norm(amps)
        Hfib = model.build_fiber_H(ms, [P], fb.boson, bz_width=2 * np.pi)
        # match the block state to the fiber by boson content
        psi_fib = np.zeros(fb.boson.size, dtype=complex)
        for pos, i in enumerate(idx):
            psi_fib[i % fb.boson.size] = psi_full[i]
        Nfib = fock.number_op(fb.boson)
        Nfull = oracles.lift_boson_op(fb, Nfib)
        for t in (2.0, 5.0):
            uf = dynamics.krylov_expm_apply(Hfull.mat, psi_full, t, tol=1e-12)
            ub = dynamics.krylov_expm_apply(Hfib.mat, psi_fib, t, tol=1e-12)
            a = np.vdot(uf, Nfull @ uf).real
            b = np.vdot(ub, Nfib @ ub).real
            assert abs(a - b) < 1e-8
