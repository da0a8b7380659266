import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from nelsonlab import fock, model
from nelsonlab.split import build_tensor_basis


def numeric_o_beta(disp, beta, p_max=6.0, n=200001):
    """Independent threshold oracle: largest sampled energy level such that
    the sampled velocity sup below it stays under beta."""
    p = np.linspace(-p_max, p_max, n)[:, None]
    om = disp.omega(p)
    vel = disp.grad_norm(p)
    order = np.argsort(om, kind="stable")
    run_vel = np.maximum.accumulate(vel[order])
    ok = run_vel <= beta + 1e-12
    if not ok[0]:
        return math.nan
    return float(om[order][np.max(np.nonzero(ok)[0])])


class TestDispersion:
    def test_o_beta_nonrel_closed_form(self, nonrel):
        assert model.o_beta(nonrel, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert model.o_beta(nonrel, 1.0) == pytest.approx(
            numeric_o_beta(nonrel, 1.0), rel=1e-4)

    def test_o_beta_rel_closed_form(self, relativistic):
        assert model.o_beta(relativistic, 0.6) == pytest.approx(1.25, abs=1e-12)
        assert model.o_beta(relativistic, 0.6) == pytest.approx(
            numeric_o_beta(relativistic, 0.6), rel=1e-4)
        assert model.o_beta(relativistic, 1.0) == math.inf

    def test_o_beta_small_beta_limit(self, nonrel, relativistic):
        assert model.o_beta(nonrel, 1e-8) == pytest.approx(0.0, abs=1e-15)
        assert model.o_beta(relativistic, 1e-8) == pytest.approx(1.0, rel=1e-10)

    def test_o_beta_monotone_left_continuous(self, nonrel, relativistic):
        betas = np.linspace(0.05, 0.95, 19)
        for disp in (nonrel, relativistic):
            vals = [model.o_beta(disp, b) for b in betas]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind, mass", [("nonrel", 1.0), ("nonrel", 2.5),
                                            ("rel", 1.0), ("rel", 0.4)])
    def test_velocity_bound_inverts_o_beta(self, kind, mass):
        disp = model.DispersionLaw(kind, mass)
        for beta in (0.05, 0.3, 0.6, 0.95):
            assert model.velocity_bound(disp, model.o_beta(disp, beta)) == pytest.approx(
                beta, rel=1e-12)
        floor = mass if kind == "rel" else 0.0
        for energy in (floor + 0.01, floor + 0.7, floor + 3.0):
            assert model.o_beta(disp, model.velocity_bound(disp, energy)) == pytest.approx(
                energy, rel=1e-12)
        assert model.velocity_bound(disp, floor) == 0.0
        assert model.velocity_bound(disp, floor - 0.5) == 0.0

    def test_hessian_sup(self, nonrel, relativistic):
        assert nonrel.hessian_sup() == 1.0
        assert relativistic.hessian_sup() == 1.0

    def test_hyp2low_sampled(self, nonrel, relativistic, rng):
        """Omega(p - k) >= Omega(p) - beta |k| whenever Omega(p) <= O_beta."""
        for disp in (nonrel, relativistic):
            for beta in (0.3, 0.7):
                ob = model.o_beta(disp, beta)
                for _ in range(300):
                    p = rng.uniform(-3, 3, size=(1,))
                    if float(disp.omega(p)) > ob:
                        continue
                    k = rng.uniform(-3, 3, size=(1,))
                    lhs = float(disp.omega(p - k))
                    rhs = float(disp.omega(p)) - beta * abs(float(k[0]))
                    assert lhs >= rhs - 1e-12


class TestGBeta:
    def test_closed_form_example(self):
        """B=1, C=1, beta=1/2, O_beta=0.125 -> 2/27 (exact-fraction oracle)."""
        from fractions import Fraction

        B, C, Ob = Fraction(1), Fraction(1), Fraction(1, 8)
        branch3 = Fraction(1, 4) / (3 * B * (C + Ob))
        assert branch3 == Fraction(2, 27)
        val = min(1.0, (0.5) ** 1.5 / 3.0, float(branch3))
        assert val == pytest.approx(2.0 / 27.0, rel=1e-15)
        # same numbers through the implementation with a synthetic setup
        disp = model.DispersionLaw("nonrel", 1.0)  # B = 1
        grid = fock.ModeGrid(dim=1, points=np.array([[1.0]]), weights=np.array([1.0]),
                             omega_free=np.array([1.0]), omega_mod=np.array([1.0]),
                             sigma=0.2, meta={"kind": "line", "spacing": 1.0})
        ff = model.FormFactor(kappa0=math.exp(1.0 / (1.0 - 1.0 / 4.0)), lam=2.0, sigma=0.2)
        assert model.quadrature_C(ff, grid) == pytest.approx(1.0, rel=1e-12)
        beta = 0.5
        got = model.g_beta(disp, ff, beta, grid)
        ob = model.o_beta(disp, beta)
        expect = min(1.0, 0.5 ** 1.5 / 3.0, 0.25 / (3.0 * (1.0 + ob)))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_g_beta_vanishes_as_beta_to_one(self, nonrel, ff, grid12):
        assert model.g_beta(nonrel, ff, 1.0 - 1e-9, grid12) < 1e-12

    @pytest.mark.parametrize("ff_zero", [model.FormFactor(kappa0=0.0),
                                         model.FormFactor(lam=0.1)],
                             ids=["kappa0-zero", "lambda-below-grid"])
    def test_vanishing_coupling_function_drops_middle_term(self, nonrel, ff_zero):
        """C = 0 bounds nothing through (1-b)^{3/2} / 3 sqrt(BC); g_beta is
        then min(1, (1-b)^2 / 3B O_b)."""
        grid = fock.line_grid(12, 1.5, 0.2)  # the command-line default grid
        assert model.quadrature_C(ff_zero, grid) == 0.0
        beta = 0.9
        expect = (1.0 - beta) ** 2 / (3.0 * model.o_beta(nonrel, beta))
        assert model.g_beta(nonrel, ff_zero, beta, grid) == expect

    def test_c_independent_of_sigma(self, nonrel, grid12):
        ff1 = model.FormFactor(1.0, 1.0, 0.2)
        ff2 = model.FormFactor(1.0, 1.0, 0.1)
        assert model.quadrature_C(ff1, grid12) == model.quadrature_C(ff2, grid12)
        g1 = model.g_beta(nonrel, ff1, 0.5, grid12)
        g2 = model.g_beta(nonrel, ff2, 0.5, grid12)
        assert g1 == g2


class TestFormFactor:
    def test_kappa_compact_support_and_positivity(self, ff):
        k = np.linspace(0, 2, 101)
        vals = ff.kappa(k)
        assert np.all(vals >= 0)
        assert np.all(vals[k >= 1.0] == 0.0)

    def test_kappa_sigma_vanishes_below_sigma(self, ff):
        k = np.linspace(0, 0.2, 51)
        assert np.all(ff.kappa_sigma(k) == 0.0)

    def test_kappa_sigma_dominated_by_kappa(self, ff):
        k = np.linspace(0, 1.5, 301)
        assert np.all(ff.kappa_sigma(k) <= ff.kappa(k) + 1e-15)


class TestFiberHamiltonian:
    def test_g_zero_is_diagonal_with_vacuum_floor(self, nonrel, ff, grid12, basis12):
        ms = model.ModelSpec(nonrel, ff, grid12, 0.0)
        P = np.array([0.3])
        H = model.build_fiber_H(ms, P, basis12).mat.toarray()
        assert np.abs(H - np.diag(np.diag(H))).max() == 0.0
        assert np.argmin(np.diag(H).real) == 0
        assert np.diag(H)[0].real == pytest.approx(float(nonrel.omega(P)), abs=1e-15)

    def test_free_vs_modified_agree_on_interacting_sector(self, ms_default, basis12):
        ms_free = model.ModelSpec(ms_default.disp, ms_default.ff, ms_default.grid,
                                  ms_default.g, use_modified=False)
        H1 = model.build_fiber_H(ms_default, [0.25], basis12).mat.toarray()
        H2 = model.build_fiber_H(ms_free, [0.25], basis12).mat.toarray()
        keep = fock.interacting_mask(basis12)
        assert np.abs((H1 - H2)[np.ix_(keep, keep)]).max() == 0.0

    def test_commutes_with_interacting_projector(self, ms_default, basis12):
        H = model.build_fiber_H(ms_default, [0.25], basis12).mat
        Pi = sp.diags(fock.interacting_mask(basis12).astype(float), format="csr")
        assert np.abs((H @ Pi - Pi @ H).toarray()).max() == 0.0

    def test_hermitian_exactly(self, ms_default, basis12):
        H = model.build_fiber_H(ms_default, [0.25], basis12)
        assert (H.mat - H.mat.conj().T).count_nonzero() == 0
        assert H.basis is basis12

    def test_omega_below_h_plus_g2c(self, ms_default, basis12):
        """Omega(P - K) <= H + g^2 C as a matrix inequality on the fiber."""
        C = model.quadrature_C(ms_default.ff, ms_default.grid)
        P = np.array([0.25])
        H = model.build_fiber_H(ms_default, P, basis12).mat.toarray()
        K = basis12.boson_momenta()
        om = np.diag(ms_default.disp.omega(P[None, :] - K))
        evals = np.linalg.eigvalsh(H + (ms_default.g ** 2 * C) * np.eye(len(om)) - om)
        assert evals.min() >= -1e-10

    def test_number_bounded_by_modified_energy(self, ms_default, basis12):
        """N <= (2/sigma) dGamma(omega) as diagonal matrices."""
        N = basis12.total_numbers()
        dgo = basis12.energies()
        assert np.all(N <= (2.0 / ms_default.ff.sigma) * dgo + 1e-12)

    def test_d3_radial_fiber_smoke(self, nonrel):
        ff = model.FormFactor(1.0, 1.0, 0.2)
        grid = fock.radial_grid(3, 1.2, 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        basis = fock.build_basis(grid, 1)
        H = model.build_fiber_H(ms, np.array([0.1, 0.0, 0.0]), basis)
        assert (H.mat - H.mat.conj().T).count_nonzero() == 0
        evals = np.linalg.eigvalsh(H.mat.toarray())
        assert evals[0] <= float(nonrel.omega(np.array([0.1, 0.0, 0.0])))


@pytest.fixture(scope="module")
def lattice_setup(nonrel, ff):
    L = 32
    grid = fock.lattice_grid(L, [-6, -3, 3, 6], 0.2)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    fb = model.full_basis(ms, L, 2)
    H = model.build_full_H(ms, fb)
    return ms, fb, H


class TestAssembly:
    @pytest.mark.parametrize("which", ["fiber", "extended", "chain"])
    def test_one_coo_equals_the_three_sums(self, nonrel, relativistic, ff, which, monkeypatch):
        """``_assemble`` writes the diagonal, the entries and their adjoint as
        one COO: the same indptr, indices, data and dtype as the sum of three
        sparse matrices, at g = 0 (no coupling entry stored) and g = 0.05."""
        seen = []
        assemble = model._assemble

        def spy(ms, diag, rows, cols, c, basis=None):
            H = assemble(ms, diag, rows, cols, c, basis)
            seen.append((H.mat, oracles.three_sum_assembly(ms, diag, rows, cols, c)))
            return H

        monkeypatch.setattr(model, "_assemble", spy)
        for g in (0.0, 0.05):
            if which == "chain":
                grid = fock.lattice_grid(128, [-16, -12, -8, -5, 5, 8, 12, 16], 0.2)
                ms = model.ModelSpec(nonrel, ff, grid, g)
                model.build_full_H(ms, model.full_basis(ms, 128, 1))
                continue
            for disp in (nonrel, relativistic):
                for M, n_max in ((8, 3), (12, 2), (24, 1)):
                    grid = fock.line_grid(M, 1.5, 0.2)
                    ms = model.ModelSpec(disp, ff, grid, g)
                    basis = fock.build_basis(grid, n_max)
                    if which == "fiber":
                        model.build_fiber_H(ms, [0.25], basis)
                    else:
                        model.extended_fiber_H(ms, [0.25], build_tensor_basis(basis))
        assert len(seen) == (2 if which == "chain" else 12)
        for mat, ref in seen:
            assert mat.dtype == ref.dtype and mat.has_canonical_format
            for part in ("indptr", "indices", "data"):
                got, want = getattr(mat, part), getattr(ref, part)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part


class TestFullModel:
    def test_g_zero_block_diagonal_spectrum(self, nonrel, ff):
        L = 16
        grid = fock.lattice_grid(L, [-2, 2], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.0)
        fb = model.full_basis(ms, L, 1)
        H = model.build_full_H(ms, fb).mat.toarray()
        evals = np.sort(np.linalg.eigvalsh(H))
        expect = []
        for p in fb.momenta:
            for state in fb.boson.occupations().tolist():
                expect.append(float(nonrel.omega(np.array([p])))
                              + float(np.dot(state, ms.boson_omega())))
        assert np.abs(evals - np.sort(expect)).max() < 1e-12

    def test_total_momentum_commutes_exactly(self, lattice_setup):
        _, fb, H = lattice_setup
        Pt = oracles.total_momentum_op(fb)
        comm = H.mat @ Pt - Pt @ H.mat
        assert comm.nnz == 0 or np.abs(comm.toarray()).max() == 0.0

    def test_fiber_consistency(self, lattice_setup):
        ms, fb, H = lattice_setup
        blocks = oracles.momentum_blocks(fb)
        Hd = H.mat.toarray()
        for m_tot in (0, 2, -3):
            idx = blocks[m_tot]
            ev_block = np.linalg.eigvalsh(Hd[np.ix_(idx, idx)])
            P = 2 * np.pi * m_tot / fb.n_sites
            Hf = oracles.wrapped_fiber_H(ms, [P], fb.boson)
            ev_fiber = np.linalg.eigvalsh(Hf.mat.toarray())
            assert np.abs(ev_block - ev_fiber).max() < 1e-10

    @pytest.mark.parametrize("L", [7, 31])
    def test_odd_chain(self, nonrel, ff, L):
        grid = fock.lattice_grid(L, [-3, -2, 2, 3], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.3)
        fb = model.full_basis(ms, L, 1)
        assert np.array_equal(fb.positions(), np.arange(-(L // 2), L // 2 + 1))
        H = model.build_full_H(ms, fb)
        assert H.shape == (L * fb.boson.size,) * 2
        Pt = oracles.total_momentum_op(fb)
        assert np.abs((H.mat @ Pt - Pt @ H.mat).toarray()).max() == 0.0
        Hd = H.mat.toarray()
        blocks = oracles.momentum_blocks(fb)
        assert sorted(blocks) == list(range(-(L // 2), L // 2 + 1))
        for m_tot, idx in blocks.items():
            Hf = oracles.wrapped_fiber_H(ms, [2 * np.pi * m_tot / L], fb.boson)
            assert np.abs(np.linalg.eigvalsh(Hd[np.ix_(idx, idx)])
                          - np.linalg.eigvalsh(Hf.mat.toarray())).max() < 1e-12

    @pytest.mark.parametrize("L", [8, 9, 32, 33])
    def test_to_position_fft_matches_phase_matrix(self, nonrel, ff, L):
        grid = fock.lattice_grid(L, [-2, 3], 0.2)
        fb = model.full_basis(model.ModelSpec(nonrel, ff, grid, 0.05), L, 2)
        rng = np.random.default_rng(L)
        vec = rng.normal(size=fb.size) + 1j * rng.normal(size=fb.size)
        pos = fb.to_position(vec)
        assert pos.shape == (L, fb.boson.size)
        assert np.abs(pos - oracles.to_position(fb, vec)).max() < 1e-13
        assert np.linalg.norm(pos) == pytest.approx(np.linalg.norm(vec), rel=1e-13)

    def test_off_lattice_mode_rejected(self, nonrel, ff):
        grid = fock.line_grid(4, 1.0, 0.2)  # midpoints are not dual-lattice points
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        with pytest.raises(model.IncompatibleGridError):
            model.full_basis(ms, 32, 1)

