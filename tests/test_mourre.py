import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from nelsonlab import fock, model, mourre, spectral


SIGMA = 0.1


@pytest.fixture(scope="module")
def msetup(nonrel):
    ff = model.FormFactor(1.0, 1.0, SIGMA)
    grid = fock.line_grid(8, 1.6, SIGMA)  # |k| in {0.2, 0.6, 1.0, 1.4}: no soft modes
    basis = fock.build_basis(grid, 2)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    conj = mourre.build_conjugate(ms, basis)
    return ms, grid, basis, conj


class TestPositionOp:
    def test_weighted_hermitian_exactly(self, msetup):
        _, grid, _, _ = msetup
        y = mourre.build_position_op(grid)
        assert np.abs(y - fock.weighted_adjoint(grid, grid, y)).max() == 0.0

    def test_constant_profile_interior(self, msetup):
        _, grid, _, _ = msetup
        y = mourre.build_position_op(grid)
        h = np.ones(grid.n_modes, dtype=complex)
        order = np.argsort(grid.points[:, 0])
        interior = order[2:-2]
        out = y @ h
        assert np.abs(out[interior]).max() < 1e-14
        assert np.abs(out).max() > 0.1  # boundary rows are one-sided

    def test_plane_wave_second_order(self):
        """y e^{isk} ~ -s e^{isk} in the interior with O(mesh^2) error."""
        s = 0.7
        errs = []
        for M in (16, 32):
            grid = fock.line_grid(M, 1.6, SIGMA)
            y = mourre.build_position_op(grid)
            k = grid.points[:, 0]
            h = np.exp(1j * s * k)
            order = np.argsort(k)[3:-3]
            errs.append(np.abs((y @ h + s * h))[order].max())
        assert errs[0] / errs[1] > 3.0
        assert errs[1] < 5e-3

    @pytest.mark.parametrize("grid", [
        fock.line_grid(8, 1.6, SIGMA), fock.line_grid(24, 1.5, 0.2),
        fock.line_grid(2, 1.0, 0.2), fock.lattice_grid(32, [1, 2, 3, 4, 5, 6], 0.2),
        fock.lattice_grid(12, [-6, -5, -4, -3, -2, -1], 0.2)],
        ids=["line8", "line24", "line2", "lattice+", "lattice-"])
    def test_matches_line_oracle_exactly(self, grid):
        assert np.array_equal(mourre.build_position_op(grid), oracles.line_position_op(grid))

    def test_non_uniform_1d_grid(self):
        grid = fock.lattice_grid(32, [-16, -12, -8, -5, 5, 8, 12, 16], 0.2)
        with pytest.raises(mourre.UnsupportedGridError):
            mourre.build_position_op(grid)

    def test_unsupported_grid(self):
        grid = fock.ModeGrid(dim=1, points=np.array([[0.3], [0.9], [1.1]]),
                             weights=np.array([0.3, 0.4, 0.3]),
                             omega_free=np.array([0.3, 0.9, 1.1]),
                             omega_mod=np.array([0.3, 0.9, 1.1]),
                             sigma=0.2, meta={"kind": "scatter"})
        with pytest.raises(mourre.UnsupportedGridError):
            mourre.build_position_op(grid)

    def test_radial_grid_supported(self):
        # nonuniform weights: hermiticity exact up to one rounding of the
        # weight-ratio similarity (uniform-weight grids are bit-exact)
        grid = fock.radial_grid(5, 1.5, 0.2)
        y = mourre.build_position_op(grid)
        scale = np.abs(y).max()
        yo = fock.to_ortho(grid, grid, y)
        assert np.abs(yo - yo.conj().T).max() < 1e-15 * scale
        assert np.abs(y - fock.weighted_adjoint(grid, grid, y)).max() < 1e-15 * scale


def generator(ms):
    """The one-boson generator a = (v y + y v)/2 of the conjugate on a line grid."""
    v = mourre.group_velocity(ms.grid, ms.use_modified)[:, 0]
    y = mourre.build_position_op(ms.grid)
    return (v[:, None] * y + y * v[None, :]) / 2.0


class TestCommutator:
    def test_conjugate_hermitian(self, msetup):
        ms, grid, _, conj = msetup
        assert (conj.A - conj.A.conj().T).count_nonzero() == 0
        a = generator(ms)
        assert np.abs(a - fock.weighted_adjoint(grid, grid, a)).max() < 1e-14

    def test_conjugate_refuses_inexact_hermiticity(self, msetup, monkeypatch):
        ms, _, basis, _ = msetup

        def skewed(b, a):
            A = fock.dGamma(b, a).tolil()
            A[0, 1] += 1e-15
            return A.tocsr()

        monkeypatch.setattr(mourre, "dGamma", skewed)
        with pytest.raises(AssertionError):
            mourre.build_conjugate(ms, basis)

    @pytest.mark.parametrize("g", [0.05, 0.0])
    def test_commutator_reads_the_conjugate_bit_for_bit(self, msetup, g):
        """The hoisted dGamma(|v|^2) and phi(i a kappa_sigma) enter in the
        order of the three-term form built afresh, so no bit moves."""
        ms, grid, basis, conj = msetup
        msg = model.ModelSpec(ms.disp, ms.ff, grid, g)
        vel = mourre.group_velocity(grid, msg.use_modified)
        gradO = msg.disp.grad(np.array([[0.25]]) - basis.boson_momenta())
        out = (fock.dGamma(basis, np.sum(vel * vel, axis=1))
               + sp.diags(-np.sum(gradO * basis.mode_sum(vel), axis=1), format="csr"))
        if g != 0.0:
            out = out - g * fock.field_op(basis, 1j * (generator(ms) @ msg.coupling_samples()))
        want = ((out + out.conj().T) / 2.0).tocsr()
        got = mourre.commutator_iHA(msg, [0.25], basis, conj)
        assert np.array_equal(got.toarray(), want.toarray())

    def test_vacuum_expectation_vanishes(self, msetup):
        ms, _, basis, conj = msetup
        comm = mourre.commutator_iHA(ms, [0.25], basis, conj)
        assert abs(comm.toarray()[0, 0]) == 0.0
        assert (comm - comm.conj().T).count_nonzero() == 0

    @pytest.mark.parametrize("which", ["line", "radial"])
    def test_commutator_exactly_hermitian_as_summed(self, nonrel, which):
        """Real diagonals plus g phi(i a kappa_sigma) are exactly Hermitian at
        g != 0 with no symmetrizing step, on a line grid and a radial grid."""
        ff = model.FormFactor(1.0, 1.0, SIGMA)
        grid = (fock.line_grid(8, 1.6, SIGMA) if which == "line"
                else fock.radial_grid(2, 1.5, SIGMA))
        basis = fock.build_basis(grid, 2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        C = mourre.commutator_iHA(ms, [0.25], basis, mourre.build_conjugate(ms, basis))
        assert C.nnz > basis.size and np.iscomplexobj(C.data)
        assert (C - C.conj().T).count_nonzero() == 0

    def test_one_boson_closed_form(self, msetup):
        """g=0 expectation on |1_j>: 1 - grad Omega(P - k_j) . k_j/|k_j|."""
        ms, grid, basis, conj = msetup
        ms0 = model.ModelSpec(ms.disp, ms.ff, grid, 0.0)
        comm = mourre.commutator_iHA(ms0, [0.25], basis, conj).toarray()
        for j, idx in enumerate(oracles.rows_of(basis, np.eye(grid.n_modes, dtype=int))):
            kj = grid.points[j, 0]
            expect = 1.0 - (0.25 - kj) * np.sign(kj)
            assert comm[idx, idx].real == pytest.approx(expect, abs=1e-12)

    def test_explicit_vs_numerical_mesh_squared(self, nonrel):
        """Smooth-state form defect shrinks ~mesh^2 under refinement.

        A trace identity (tr[X,Y] = 0) rules out exact equality at any mesh,
        so the honest check is the convergence rate plus a mesh^2 budget."""
        ff = model.FormFactor(1.0, 1.0, SIGMA)
        defects, meshes = [], []
        for M in (16, 32):
            grid = fock.line_grid(M, 1.6, SIGMA)
            basis = fock.build_basis(grid, 2)
            ms = model.ModelSpec(nonrel, ff, grid, 0.05)
            conj = mourre.build_conjugate(ms, basis)
            H = model.build_fiber_H(ms, [0.25], basis)
            gap = (mourre.commutator_iHA(ms, [0.25], basis, conj)
                   - mourre.numerical_commutator(H.mat, conj.A))
            V = oracles.smooth_test_states(basis).T
            defects.append(float(np.abs(np.sum(V.conj() * (gap @ V), axis=0)).max()))
            meshes.append(conj.mesh)
        assert defects[0] / defects[1] > 2.5
        assert defects[1] <= 1.0 * meshes[1] ** 2

    def test_field_term_exact_on_guarded_sector(self, msetup):
        """The g-dependent parts of explicit and numerical commutators agree
        exactly on the guarded sector (the mesh error is g-independent)."""
        ms, grid, basis, conj = msetup
        ms0 = model.ModelSpec(ms.disp, ms.ff, grid, 0.0)
        H = model.build_fiber_H(ms, [0.25], basis)
        H0 = model.build_fiber_H(ms0, [0.25], basis)
        expl = (mourre.commutator_iHA(ms, [0.25], basis, conj).toarray()
                - mourre.commutator_iHA(ms0, [0.25], basis, conj).toarray())
        num = (mourre.numerical_commutator(H.mat, conj.A).toarray()
               - mourre.numerical_commutator(H0.mat, conj.A).toarray())
        guard = basis.total_numbers() <= basis.n_max - 1
        assert np.abs((expl - num)[np.ix_(guard, guard)]).max() < 1e-12


class TestVirial:
    def test_vacuum_eigenvector_exact_zero(self, msetup):
        ms, grid, basis, conj = msetup
        ms0 = model.ModelSpec(ms.disp, ms.ff, grid, 0.0)
        comm = mourre.commutator_iHA(ms0, [0.25], basis, conj)
        vac = fock.FockVector.vacuum(basis)
        assert mourre.virial_residual(comm, vac) == 0.0

    def test_dressed_state_residual_within_budget(self, msetup):
        """Residual bounded by 10 (eigen-residual term + mesh^2 scale), with
        the scale measured, not assumed."""
        ms, grid, basis, conj = msetup
        H = model.build_fiber_H(ms, [0.25], basis)
        res = spectral.ground_state(H, k=2, tol=1e-12)
        psi = res.ground_vector
        comm = mourre.commutator_iHA(ms, [0.25], basis, conj)
        v = mourre.virial_residual(comm, psi)
        num = mourre.numerical_commutator(H.mat, conj.A)
        scale = float(np.linalg.norm((comm - num).toarray(), 2)) / conj.mesh ** 2
        r_eig = float(res.residuals[0])
        a_norm = float(np.linalg.norm(conj.A @ psi.amps))
        assert v <= 10.0 * (2 * r_eig * a_norm + conj.mesh ** 2 * scale)
        assert v < 1e-2

    def test_non_eigenvector_residual_order_one(self, msetup):
        ms, grid, basis, conj = msetup
        comm = mourre.commutator_iHA(ms, [0.25], basis, conj)
        amps = np.zeros(basis.size, dtype=complex)
        amps[0] = 1.0
        amps[oracles.rows_of(basis, np.eye(1, basis.grid.n_modes, dtype=int))] = 1.0
        mix = fock.FockVector(basis, amps / np.linalg.norm(amps))
        assert mourre.virial_residual(comm, mix) > 0.1


class TestScan:
    def test_g_zero_min_r_nonnegative(self, msetup):
        ms, grid, basis, conj = msetup
        ms0 = model.ModelSpec(ms.disp, ms.ff, grid, 0.0)
        beta = math.sqrt(2 * 0.32)
        rep = mourre.mourre_scan(ms0, [0.25], basis, 0.32, beta, conj, sample_count=64)
        assert rep["min_r"] >= -1e-10
        assert rep["window_dim"] >= 1

    def test_subspace_minimum_nonnegative_dense_oracle(self, msetup):
        """The sampled bound holds over the whole window: the compressed
        quadratic form r has nonnegative minimum eigenvalue at g = 0."""
        ms, grid, basis, conj = msetup
        ms0 = model.ModelSpec(ms.disp, ms.ff, grid, 0.0)
        beta = math.sqrt(2 * 0.32)
        parts = mourre._fiber_parts(ms0, [0.25], basis, conj)
        _, frame, _ = mourre._window_subspace(parts, ms0.g, basis.size, 0.32)
        comm = mourre.commutator_iHA(ms0, [0.25], basis, conj)
        N = fock.number_op(basis)
        R = frame.conj().T @ (comm @ frame) - (1 - beta) * (frame.conj().T @ (N @ frame))
        assert np.linalg.eigvalsh((R + R.conj().T) / 2).min() >= -1e-10

    def test_window_sliced_before_densifying(self, msetup):
        """The interacting rows sliced out of the CSR matrix give the same
        window, frame and ground energy, bit for bit, as slicing the dense H."""
        ms, _, basis, conj = msetup
        parts = mourre._fiber_parts(ms, [0.25], basis, conj)
        window, frame, e0 = mourre._window_subspace(parts, ms.g, basis.size, 0.32)
        H = model.build_fiber_H(ms, [0.25], basis)
        idx = np.flatnonzero(fock.interacting_mask(basis))
        assert window.tobytes() == H.mat.toarray()[np.ix_(idx, idx)].tobytes()
        vals, vecs = np.linalg.eigh(H.mat.toarray()[np.ix_(idx, idx)])
        want = np.zeros_like(frame)
        want[idx, :] = vecs[:, vals <= 0.32][:, 1:]
        assert np.array_equal(frame, want) and e0 == vals[0]

    def test_sweep_builds_one_conjugate(self, msetup, nonrel, monkeypatch):
        """One conjugate serves every scan of a sweep."""
        ms, grid, basis, _ = msetup
        calls = {"build_conjugate": 0, "mourre_scan": 0}
        for name in calls:
            real = getattr(mourre, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mourre, name, spy)
        sweep = mourre.mourre_sweep(lambda gg: model.ModelSpec(nonrel, ms.ff, grid, gg),
                                    [0.02, 0.04, 0.08], [0.25], basis, 0.32,
                                    lambda gg: 0.8)
        assert calls == {"build_conjugate": 1, "mourre_scan": 4}
        stats = sweep["stats"]
        assert stats["dim"] == basis.size and stats["window_dim"] == sweep["window_dim"]

    def test_sweep_refuses_models_off_its_conjugate(self, msetup):
        """The sweep's one conjugate holds only for the grid, dispersion
        switch and form factor of ms_factory(0.0); another coupling and
        another electron dispersion share it."""
        ms, grid, basis, _ = msetup
        others = [
            lambda gg: model.ModelSpec(ms.disp, ms.ff, fock.line_grid(8, 1.6, SIGMA), gg),
            lambda gg: model.ModelSpec(ms.disp, ms.ff, grid, gg, use_modified=False),
            lambda gg: model.ModelSpec(ms.disp, model.FormFactor(2.0, 1.0, SIGMA), grid, gg),
        ]
        for other in others:
            mk = lambda gg, o=other: o(gg) if gg else model.ModelSpec(ms.disp, ms.ff, grid, gg)
            with pytest.raises(ValueError, match="do not share"):
                mourre.mourre_sweep(mk, [0.02], [0.25], basis, 0.32, lambda gg: 0.8)
        rel = model.DispersionLaw("rel", 1.0)
        mk = lambda gg: model.ModelSpec(rel if gg else ms.disp, ms.ff, grid, gg)
        mourre.mourre_sweep(mk, [0.02], [0.25], basis, 1.5, lambda gg: 0.8)

    def test_batched_samples_match_per_sample_loop(self, msetup):
        """All samples at once give the per-sample quadratic forms of the
        sparse commutator and number operator, up to the order of sums."""
        ms, _, basis, conj = msetup
        rep = mourre.mourre_scan(ms, [0.25], basis, 0.32, 0.7, conj, sample_count=16, seed=5)
        frame, _ = oracles.one_shot_window_subspace(ms, [0.25], basis, 0.32)
        comm = mourre.commutator_iHA(ms, [0.25], basis, conj)
        N = fock.number_op(basis)
        rng = np.random.default_rng(5)
        m = frame.shape[1]
        coeffs = rng.normal(size=(16, m)) + 1j * rng.normal(size=(16, m))
        want = []
        for c in coeffs:
            phi = frame @ (c / np.linalg.norm(c))
            want.append(np.vdot(phi, comm @ phi).real - 0.3 * np.vdot(phi, N @ phi).real)
        assert np.abs(np.array(rep["per_sample"]) - want).max() < 1e-13
        assert rep["min_r"] == min(rep["per_sample"])

    def test_sweep_slope_near_one(self, msetup, nonrel):
        ms, grid, basis, _ = msetup
        ff = ms.ff
        C = model.quadrature_C(ff, grid)

        def mk(gg):
            return model.ModelSpec(nonrel, ff, grid, gg)

        def bf(gg):
            return math.sqrt(2 * (0.32 + gg * gg * C))

        sweep = mourre.mourre_sweep(mk, [0.01, 0.02, 0.04, 0.08], [0.25], basis, 0.32, bf)
        assert 0.8 <= sweep["loglog_slope"] <= 1.2
        assert sweep["min_r0"] >= -1e-10

    @pytest.mark.parametrize("M, sig, soft", [(8, SIGMA, 0), (16, 0.2, 2)],
                             ids=["no-soft", "soft"])
    def test_sweep_reports_soft_modes_and_shift_signs(self, nonrel, M, sig, soft):
        """``soft_modes`` counts the grid's soft mask and ``shift_signs`` is
        the sign of each row's min_r against min_r0."""
        ff = model.FormFactor(1.0, 1.0, sig)
        grid = fock.line_grid(M, 1.6, sig)
        basis = fock.build_basis(grid, 2)
        C = model.quadrature_C(ff, grid)
        sweep = mourre.mourre_sweep(lambda gg: model.ModelSpec(nonrel, ff, grid, gg),
                                    [0.02, 0.04], [0.25], basis, 0.32,
                                    lambda gg: math.sqrt(2 * (0.32 + gg * gg * C)))
        assert sweep["soft_modes"] == np.count_nonzero(grid.soft_mask()) == soft
        assert sweep["shift_signs"] == [int(np.sign(r[1] - sweep["min_r0"]))
                                        for r in sweep["rows"]]

    def test_sigma_robustness(self, msetup, nonrel):
        """Report unchanged (well within 5%) when sigma is halved: the grid
        resolves no soft modes so every sigma-dependent quantity coincides."""
        ms, grid, basis, _ = msetup
        reports = []
        for sig in (SIGMA, SIGMA / 2):
            ff = model.FormFactor(1.0, 1.0, sig)
            g2 = fock.line_grid(8, 1.6, sig)
            b2 = fock.build_basis(g2, 2)
            C = model.quadrature_C(ff, g2)
            mk = lambda gg, f=ff, gr=g2: model.ModelSpec(nonrel, f, gr, gg)
            bf = lambda gg, c=C: math.sqrt(2 * (0.32 + gg * gg * c))
            reports.append(mourre.mourre_sweep(mk, [0.02, 0.04], [0.25], b2, 0.32, bf))
        for r1, r2 in zip(reports[0]["rows"], reports[1]["rows"]):
            assert abs(r1[1] - r2[1]) <= 0.05 * max(abs(r1[1]), 1e-12)

    def test_empty_window_raises(self, msetup):
        ms, grid, basis, conj = msetup
        with pytest.raises(mourre.EmptySubspaceError):
            mourre.mourre_scan(ms, [0.25], basis, -5.0, 0.5, conj)
