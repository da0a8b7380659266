import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from nelsonlab import dynamics, fock, model, spectral


def fiber(ms, P, basis):
    return model.build_fiber_H(ms, np.atleast_1d(P), basis)


class TestRealHamiltonians:
    """The default model's fiber H is float64 and equals the loop oracle
    (the chain H is checked in ``test_ladder_table.test_full_H_exact``)."""

    def test_fiber_H_is_real(self, ms_default, basis12):
        H = fiber(ms_default, 0.25, basis12).mat
        assert H.dtype == np.float64
        c = oracles.creation_op(basis12, ms_default.coupling_samples())
        ref = (sp.diags(model.fiber_diagonal(ms_default, [0.25], basis12.occ))
               + ms_default.g * ((c + c.conj().T) / math.sqrt(2.0)))
        assert np.array_equal(H.toarray(), ref.toarray())


class TestGroundState:
    def test_two_by_two_analytic(self):
        """Hand-built Hermitian 2x2 against the closed-form eigenpair."""
        a, b, c = 0.3, 1.1, 0.25 + 0.4j
        mat = sp.csr_matrix(np.array([[a, np.conj(c)], [c, b]]))
        H = model.Hamiltonian(mat)
        res = spectral.ground_state(H, k=2, tol=1e-13)
        mean, rad = (a + b) / 2, math.hypot((a - b) / 2, abs(c))
        assert res.eigenvalues[0] == pytest.approx(mean - rad, abs=1e-14)
        assert res.eigenvalues[1] == pytest.approx(mean + rad, abs=1e-14)
        assert res.gap == pytest.approx(2 * rad, abs=1e-13)

    def test_free_theory_exact_ground_pair(self, nonrel, relativistic, ff, grid12, basis12):
        for disp in (nonrel, relativistic):
            ms = model.ModelSpec(disp, ff, grid12, 0.0)
            for P in (0.0, 0.45, 0.85):
                if float(disp.omega(np.array([P]))) > model.o_beta(disp, 1.0):
                    continue
                res = spectral.ground_state(fiber(ms, P, basis12), k=2, tol=1e-12)
                assert abs(res.ground_energy - float(disp.omega(np.array([P])))) < 1e-12
                vac = np.zeros(basis12.size)
                vac[0] = 1.0
                assert np.linalg.norm(res.ground_vector.amps - vac) < 1e-12

    def test_pt_oracle_fourth_order(self, ms_default, basis12):
        gs = (0.01, 0.02, 0.04, 0.08)
        resid = []
        for gg in gs:
            ms = model.ModelSpec(ms_default.disp, ms_default.ff, ms_default.grid, gg)
            res = spectral.ground_state(fiber(ms, 0.0, basis12), k=1, tol=1e-12)
            resid.append(abs(res.ground_energy - spectral.pt_ground_energy(ms, [0.0], basis12)))
        slope = np.polyfit(np.log(gs), np.log(resid), 1)[0]
        assert 3.7 <= slope <= 4.3

    @pytest.mark.parametrize("P", [0.0, 0.25, 0.8])
    @pytest.mark.parametrize("use_modified", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lanczos_matches_dense(self, ms_default, basis12, P, use_modified, k):
        """LOBPCG against dense eigh; at P = 0 the one-boson states at +-k are
        degenerate, so each vector is compared with its dense eigenspace."""
        ms = model.ModelSpec(ms_default.disp, ms_default.ff, ms_default.grid, ms_default.g,
                             use_modified=use_modified)
        H = fiber(ms, P, basis12)
        ev, V = np.linalg.eigh(H.mat.toarray())
        vals, vecs, iters = spectral.lanczos_lowest(H.mat, k, 1e-11)
        assert iters > 0
        assert np.abs(vals - ev[:k]).max() < 1e-10
        for i in range(k):
            space = V[:, np.abs(ev - ev[i]) < 1e-8]
            overlap = np.linalg.norm(space.conj().T @ vecs[:, i])
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_lanczos_nonconvergence_reports_matvecs(self, ms_default, basis12, monkeypatch):
        H = fiber(ms_default, 0.25, basis12)
        monkeypatch.setattr(spectral, "LOBPCG_MAX_ITER", 1)
        with pytest.raises(spectral.ConvergenceError) as info:
            spectral.lanczos_lowest(H.mat, 2, 1e-15)
        assert info.value.diagnostics["iterations"] > 0

    @pytest.fixture(scope="class")
    def basis2300(self):
        basis = fock.build_basis(fock.line_grid(22, 1.5, 0.2), 3)
        assert basis.size == 2300 > spectral.DENSE_CUTOFF
        return basis

    def test_iterative_path_matches_dense_oracle(self, ms_default, basis2300):
        ms = model.ModelSpec(ms_default.disp, ms_default.ff, basis2300.grid, ms_default.g)
        H = fiber(ms, 0.25, basis2300)
        res = spectral.ground_state(H, k=2, tol=1e-11)
        assert res.meta["method"] == "lobpcg" and res.meta["iterations"] > 0
        vals, vecs = np.linalg.eigh(H.mat.toarray())
        assert np.abs(res.eigenvalues - vals[:2]).max() < 1e-10
        for i in range(2):
            overlap = abs(np.vdot(vecs[:, i], res.eigenvectors[i].amps))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("P", [0.0, 0.25])
    def test_iterative_free_ground_energy_is_the_lowest_diagonal(self, ms_default,
                                                                 basis2300, P):
        """At g = 0 H is diagonal, so no row has an off-diagonal entry; the
        Jacobi shift keeps the preconditioner finite there.  At P = 0 the
        ground energy is exactly 0, which restarted ARPACK missed (0.123)."""
        ms = model.ModelSpec(ms_default.disp, ms_default.ff, basis2300.grid, 0.0)
        H = fiber(ms, P, basis2300)
        res = spectral.ground_state(H, k=2, tol=1e-11)
        assert res.meta["method"] == "lobpcg"
        assert abs(res.ground_energy - H.mat.diagonal().min()) < 1e-12

    def test_residuals_and_orthonormality(self, ms_default, basis12):
        H = fiber(ms_default, 0.25, basis12)
        res = spectral.ground_state(H, k=3, tol=1e-11)
        assert np.all(res.residuals < 1e-10)
        V = np.stack([v.amps for v in res.eigenvectors], axis=1)
        assert np.abs(V.conj().T @ V - np.eye(3)).max() < 1e-10

    def test_phase_fixed_nonnegative_vacuum_overlap(self, ms_default, basis12):
        res = spectral.ground_state(fiber(ms_default, 0.25, basis12), k=1, tol=1e-11)
        overlap = complex(res.ground_vector.amps[0])
        assert overlap.real > 0 and abs(overlap.imag) < 1e-12

    def test_requires_hermitian_flag(self, basis12):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            spectral.ground_state(model.Hamiltonian(mat), k=1, tol=1e-10)

    def test_variational_monotonicity_in_nmax(self, ms_default, grid12):
        energies = []
        for n_max in (1, 2, 3):
            basis = fock.build_basis(grid12, n_max)
            res = spectral.ground_state(fiber(ms_default, 0.25, basis), k=1, tol=1e-12)
            energies.append(res.ground_energy)
        assert energies[1] <= energies[0] + 1e-12
        assert energies[2] <= energies[1] + 1e-12

    def test_gap_positive_below_g_beta(self, ms_default, basis12):
        res = spectral.ground_state(fiber(ms_default, 0.25, basis12), k=2, tol=1e-11)
        assert res.is_simple()

    def test_ground_cloud_scaling_exponent(self, ms_default, basis12):
        """||psi_P - Omega|| against g fits an exponent >= 0.4."""
        gs = np.array([0.01, 0.02, 0.05, 0.1])
        norms = []
        vac = np.zeros(basis12.size)
        vac[0] = 1.0
        for gg in gs:
            ms = model.ModelSpec(ms_default.disp, ms_default.ff, ms_default.grid, gg)
            res = spectral.ground_state(fiber(ms, 0.25, basis12), k=1, tol=1e-12)
            norms.append(np.linalg.norm(res.ground_vector.amps - vac))
        slope = np.polyfit(np.log(gs), np.log(norms), 1)[0]
        assert slope >= 0.4


class TestCalculus:
    def test_projector_idempotent(self, ms_default, basis12):
        calc = spectral.SpectralCalculus(fiber(ms_default, 0.25, basis12))
        E = calc.projector(0.5)
        assert np.abs(E @ E - E).max() < 1e-12
        assert np.abs(E - E.conj().T).max() < 1e-13

    def test_function_reproduces_polynomial(self, ms_default, basis12):
        H = fiber(ms_default, 0.25, basis12)
        calc = spectral.SpectralCalculus(H)
        Hd = H.mat.toarray()
        assert np.abs(calc.fn(lambda x: x ** 2) - Hd @ Hd).max() < 1e-10


def component_sets(calc):
    return {frozenset(row.tolist()) for idx, _, _ in calc.groups for row in idx}


@pytest.fixture(scope="module")
def chain128(nonrel, ff):
    """The criterion-9 chain at L = 128 (dimension 1152)."""
    L = 128
    grid = fock.lattice_grid(L, [-16, -12, -8, -5, 5, 8, 12, 16], 0.2)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    fb = model.full_basis(ms, L, 1)
    return fb, model.build_full_H(ms, fb)


def assert_applies_like_matrix(calc, f):
    """fn(f, v) against the n x n fn(f) times v, for real and complex v of
    shape (n,) and (n, k)."""
    rng = np.random.default_rng(11)
    F = calc.fn(f)
    n = F.shape[0]
    for shape in ((n,), (n, 3)):
        for v in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            got = calc.fn(f, v)
            assert got.shape == v.shape
            assert np.abs(got - F @ v).max() < 1e-13


class TestBlockCalculus:
    """The block-wise calculus against one dense ``eigh`` of the whole matrix."""

    def test_chain_window_matches_dense(self, chain128):
        _, H = chain128
        calc = spectral.SpectralCalculus(H)
        dense = oracles.DenseCalculus(H)
        f = dynamics.energy_window(0.045, 0.6)
        assert np.abs(calc.fn(f) - dense.fn(f)).max() < 1e-12
        assert_applies_like_matrix(calc, f)
        for sigma in (0.045, 0.2):
            V = calc.window_vectors(sigma)
            assert V.shape[1] == int(np.sum(dense.vals <= sigma))
            assert np.abs(V @ V.conj().T - dense.projector(sigma)).max() < 1e-12
            assert np.abs(calc.projector(sigma) - dense.projector(sigma)).max() < 1e-12

    def test_chain_components_are_momentum_blocks(self, chain128):
        fb, H = chain128
        calc = spectral.SpectralCalculus(H)
        assert [idx.shape for idx, _, _ in calc.groups] == [(fb.n_sites, fb.boson.size)]
        blocks = oracles.momentum_blocks(fb)
        assert component_sets(calc) == {frozenset(v.tolist()) for v in blocks.values()}

    def test_imaginary_couplings_mixed_sizes_and_stored_zero(self):
        n = 14
        rows, cols, data = [], [], []
        rng = np.random.default_rng(3)
        # purely imaginary chains {0,1,2}, {3,4,5}, a complex pair {6,7},
        # {8,9} and {10,11} joined only by a stored zero, isolated 12 and 13
        for a, b, v in [(0, 1, 0.7j), (1, 2, -0.4j), (3, 4, 0.3j), (4, 5, 0.9j),
                        (6, 7, 0.2 + 0.5j), (8, 9, 0.6j), (10, 11, -0.8j), (9, 10, 0.0)]:
            rows += [a, b]
            cols += [b, a]
            data += [v, np.conj(v)]
        rows += list(range(n))
        cols += list(range(n))
        data += rng.normal(size=n).tolist()
        mat = sp.csr_matrix((np.array(data, dtype=complex), (rows, cols)), shape=(n, n))
        assert mat.nnz == len(data)  # the zero coupling stays stored
        H = model.Hamiltonian(mat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calc = spectral.SpectralCalculus(H)
            F = calc.fn(np.exp)
            V = calc.window_vectors(0.0)
        assert component_sets(calc) == {frozenset(c) for c in (
            {0, 1, 2}, {3, 4, 5}, {6, 7}, {8, 9, 10, 11}, {12}, {13})}
        dense = oracles.DenseCalculus(H)
        assert np.abs(np.sort(calc.vals) - dense.vals).max() < 1e-13
        assert np.abs(F - dense.fn(np.exp)).max() < 1e-13
        assert_applies_like_matrix(calc, np.exp)
        assert np.abs(V @ V.conj().T - dense.projector(0.0)).max() < 1e-13
        energies = np.einsum("ik,ij,jk->k", V.conj(), H.mat.toarray(), V).real
        assert np.abs(energies - dense.vals[dense.vals <= 0.0]).max() < 1e-13

    def test_one_component_fiber(self, nonrel, ff):
        grid = fock.line_grid(4, 0.9, 0.2)  # every mode couples: 0.2 < |k| < 1
        basis = fock.build_basis(grid, 2)
        H = fiber(model.ModelSpec(nonrel, ff, grid, 0.05), 0.25, basis)
        calc = spectral.SpectralCalculus(H)
        assert [idx.shape for idx, _, _ in calc.groups] == [(1, basis.size)]
        E = calc.projector(0.5)
        assert np.abs(E @ E - E).max() < 1e-12
        assert np.abs(E - E.conj().T).max() < 1e-13
        Hd = H.mat.toarray()
        assert np.abs(calc.fn(lambda x: x ** 2) - Hd @ Hd).max() < 1e-10
        assert np.abs(calc.fn(np.exp) - oracles.DenseCalculus(H).fn(np.exp)).max() < 1e-12
        assert_applies_like_matrix(calc, dynamics.energy_window(0.5))

    def test_limit_and_hermitian_checks_kept(self, chain128):
        """The limit caps the largest component: the chain's are 9 states each."""
        _, H = chain128
        with pytest.raises(ValueError):
            spectral.SpectralCalculus(H, limit=8)
        assert spectral.SpectralCalculus(H, limit=9).vals.size == H.shape[0]
        skewed = H.mat.tolil()
        skewed[0, 1] += 1e-15
        with pytest.raises(ValueError):
            spectral.SpectralCalculus(model.Hamiltonian(skewed.tocsr()))

    def test_long_chain_builds_at_the_default_limit(self, nonrel, ff):
        """L = 1024 (dimension 9216, above DENSE_CUTOFF) is 1024 components of 9."""
        L = 1024
        grid = fock.lattice_grid(L, [8 * m for m in (-16, -12, -8, -5, 5, 8, 12, 16)], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms, L, 1)
        H = model.build_full_H(ms, fb)
        assert H.shape[0] == 9216 > spectral.DENSE_CUTOFF
        calc = spectral.SpectralCalculus(H)
        assert [idx.shape for idx, _, _ in calc.groups] == [(L, 9)]
        psi = dynamics.gaussian_electron_state(fb, 0.05, 0.06)
        assert np.abs(calc.fn(lambda lam: lam, psi) - H.mat @ psi).max() < 1e-13

    def test_apply_rejects_wrong_shapes(self, chain128):
        _, H = chain128
        calc = spectral.SpectralCalculus(H)
        n = H.shape[0]
        for v in (np.ones(n + 1), np.ones((n - 1, 2)), np.ones((n, 2, 2))):
            with pytest.raises(ValueError):
                calc.fn(np.exp, v)


def test_import_leaves_csgraph_unloaded():
    """csgraph is imported by SpectralCalculus on first use, not at package import."""
    code = ("import sys, nelsonlab, nelsonlab.cli; "
            "sys.exit('scipy.sparse.csgraph' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestScan:
    def test_dispersion_scan_sandwich_and_agreement(self, ms_default, basis12):
        momenta = [np.array([p]) for p in np.linspace(0.0, 0.8, 6)]
        curve = spectral.dispersion_scan(ms_default, momenta, basis12, beta=0.9)
        assert np.all(curve.converged)
        assert curve.upper_margins.min() >= -1e-10
        assert curve.lower_margins.min() >= -1e-10
        assert curve.free_mod_agree.max() < 1e-10
        assert curve.soft_occupancies.max() < 1e-10

    def test_scan_rejects_momenta_above_threshold(self, ms_default, basis12):
        with pytest.raises(ValueError):
            spectral.dispersion_scan(ms_default, [np.array([3.0])], basis12, beta=0.5)

    def test_g_zero_curve_equals_dispersion(self, nonrel, ff, grid12, basis12):
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0)
        momenta = [np.array([p]) for p in np.linspace(0.0, 0.6, 4)]
        curve = spectral.dispersion_scan(ms, momenta, basis12, beta=0.9)
        for i, P in enumerate(momenta):
            assert curve.energies[i] == pytest.approx(float(P[0]) ** 2 / 2, abs=1e-12)

    def test_other_dispersion_nonconvergence_gives_nan_row(self, ms_default, basis12,
                                                           monkeypatch):
        real = spectral.ground_state

        def failing_on_other(H, k=2, **kw):
            if H.use_modified != ms_default.use_modified:
                raise spectral.ConvergenceError("forced")
            return real(H, k=k, **kw)

        monkeypatch.setattr(spectral, "ground_state", failing_on_other)
        curve = spectral.dispersion_scan(ms_default, [np.array([0.2])], basis12)
        assert not curve.converged[0]
        assert np.isnan(curve.energies[0]) and np.isnan(curve.free_mod_agree[0])


class TestGaps:
    def test_lipschitz_gap_free_closed_form(self, nonrel, ff, grid12, basis12):
        """g=0, M=1, P=0: inf over |k| >= eps of (k^2/2 + |k|) = eps + eps^2/2."""
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0)
        eps = float(grid12.omega_free.min())
        val = spectral.lipschitz_gap(ms, [0.0], eps, basis12)
        assert val == pytest.approx(eps + eps * eps / 2, abs=1e-12)

    def test_lipschitz_gap_beta_margin(self, nonrel, ff, grid12, basis12):
        """E_0(P-k) + |k| - E_0(P) >= (1 - beta)|k| at admissible P."""
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0)
        P = 0.35
        beta = abs(P)  # |grad Omega(P)| for the nonrelativistic law at M=1
        eps = float(grid12.omega_free.min())
        val = spectral.lipschitz_gap(ms, [P], eps, basis12)
        assert val >= (1 - beta) * eps - 1e-12

    def test_lipschitz_gap_perturbs_quadratically(self, nonrel, ff, grid12, basis12):
        eps = float(grid12.omega_free.min())
        base = spectral.lipschitz_gap(model.ModelSpec(nonrel, ff, grid12, 0.0),
                                      [0.0], eps, basis12)
        gs = np.array([0.01, 0.02, 0.04])
        shifts = []
        for gg in gs:
            ms = model.ModelSpec(nonrel, ff, grid12, gg)
            shifts.append(abs(spectral.lipschitz_gap(ms, [0.0], eps, basis12) - base))
        slope = np.polyfit(np.log(gs), np.log(shifts), 1)[0]
        assert 1.6 <= slope <= 2.4

    def test_delta_gap_free_oracle(self, nonrel, ff, grid12, basis12):
        """g=0 value against direct minimization over the same grid."""
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0, use_modified=True)
        P = np.array([0.2])
        val = spectral.delta_gap(ms, P, basis12)
        direct = math.inf
        for j in range(grid12.n_modes):
            k = grid12.points[j]
            e_shift = float(np.min(model.fiber_diagonal(ms, P - k, basis12.occ)))
            e0 = float(np.min(model.fiber_diagonal(ms, P, basis12.occ)))
            direct = min(direct, e_shift + grid12.omega_mod[j] - e0)
        assert val == pytest.approx(direct, abs=1e-12)

    def test_delta_gap_soft_branch(self, nonrel, ff):
        """Soft offsets |k| <= sigma/4 contribute at least sigma/4 at small g."""
        sigma = 0.4
        grid = fock.line_grid(16, 1.6, sigma)  # includes |k| = 0.05 <= sigma/4
        ffs = model.FormFactor(1.0, 1.0, sigma)
        ms = model.ModelSpec(nonrel, ffs, grid, 0.01, use_modified=True)
        basis = fock.build_basis(grid, 2)
        P = np.array([0.1])
        eg = spectral.ground_state(fiber(ms, P, basis), k=1, tol=1e-12).ground_energy
        for j in range(grid.n_modes):
            kn = grid.omega_free[j]
            if kn > sigma / 4:
                continue
            e = spectral.ground_state(fiber(ms, P - grid.points[j], basis),
                                      k=1, tol=1e-12).ground_energy
            assert e + grid.omega_mod[j] - eg >= sigma / 4 - 1e-10

    def test_delta_gap_positive_at_default(self, ms_default, basis12):
        assert spectral.delta_gap(ms_default, [0.25], basis12) > 0

    def test_delta_gap_requires_modified(self, nonrel, ff, grid12, basis12):
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0, use_modified=False)
        with pytest.raises(ValueError):
            spectral.delta_gap(ms, [0.0], basis12)


class TestSoftOccupancy:
    def test_vacuum_zero_and_soft_state_one(self, basis12):
        vac = fock.FockVector.vacuum(basis12)
        assert spectral.soft_boson_occupancy(vac, 0.2) == 0.0
        soft_mode = int(np.argmin(basis12.grid.omega_free))
        amps = np.zeros(basis12.size, dtype=complex)
        amps[basis12.lookup(np.eye(1, basis12.grid.n_modes, soft_mode, dtype=int))] = 1.0
        assert spectral.soft_boson_occupancy(fock.FockVector(basis12, amps), 0.2) == 1.0

    def test_dressed_state_has_no_soft_mass(self, ms_default, basis12):
        res = spectral.ground_state(fiber(ms_default, 0.25, basis12), k=1, tol=1e-12)
        assert spectral.soft_boson_occupancy(res.ground_vector, 0.2) < 1e-10


class TestGradBound:
    def test_nonrel_example(self, nonrel, ff, grid12, basis12):
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0)
        rep = spectral.grad_bound_check(ms, 0.1, [0.0], basis12)
        assert rep["bound"] == pytest.approx(math.sqrt(0.2), rel=1e-12)
        assert rep["measured"] <= rep["bound"] + 1e-10
        assert rep["admissible_sigma_window"] == (0.0, 1.0 / 18.0)

    def test_rel_example(self, relativistic, ff, grid12, basis12):
        ms = model.ModelSpec(relativistic, ff, grid12, 0.0)
        rep = spectral.grad_bound_check(ms, 1.25, [0.0], basis12)
        assert rep["bound"] == pytest.approx(0.6, rel=1e-12)
        assert rep["measured"] <= rep["bound"] + 1e-10
        lo, hi = rep["admissible_sigma_window"]
        assert lo == 1.0 and hi == pytest.approx(3.0 / math.sqrt(8.0), rel=1e-12)

    def test_bound_holds_at_coupling(self, ms_default, basis12):
        rep = spectral.grad_bound_check(ms_default, 0.6, [0.25], basis12)
        assert rep["measured"] <= rep["bound"] + 1e-10
        assert rep["window_dim"] > 1


class TestNumberEnergy:
    def test_resolvent_weighted_number_norm_finite(self, ms_default, basis12):
        """(N+1)(H_mod + i)^(-1) has finite dense norm, reported per config."""
        H = fiber(ms_default, 0.25, basis12).mat.toarray()
        N = np.diag(basis12.total_numbers().astype(complex)) + np.eye(basis12.size)
        R = np.linalg.inv(H + 1j * np.eye(basis12.size))
        nrm = np.linalg.norm(N @ R, 2)
        assert np.isfinite(nrm)

    def test_number_bounded_by_hamiltonian(self, ms_default, basis12):
        """N <= a H_mod + b with a = (2/sigma)(1 + margin) and fitted b."""
        a = (2.0 / ms_default.ff.sigma) * 1.1
        H = fiber(ms_default, 0.25, basis12).mat.toarray()
        N = np.diag(basis12.total_numbers().astype(float))
        b_fit = float(np.linalg.eigvalsh(N - a * H).max())
        evals = np.linalg.eigvalsh(a * H + (b_fit + 1e-12) * np.eye(basis12.size) - N)
        assert evals.min() >= -1e-10
        assert b_fit < 10.0

    def test_omega_e_implication_sampled(self, ms_default, basis12):
        """E_g(P) <= Sigma and small g force Omega(P) <= O_beta along the scan."""
        beta = 0.9
        C = model.quadrature_C(ms_default.ff, ms_default.grid)
        ob = model.o_beta(ms_default.disp, beta)
        sigma_win = 0.3
        g_max = (ob - sigma_win) / (ob + C)
        assert abs(ms_default.g) <= g_max
        for P in np.linspace(0, 0.7, 8):
            res = spectral.ground_state(fiber(ms_default, P, basis12), k=1, tol=1e-11)
            if res.ground_energy <= sigma_win:
                assert float(ms_default.disp.omega(np.array([P]))) <= ob + 1e-12
