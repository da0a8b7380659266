"""Randomized identity suite for the operator algebra.

Each identity is evaluated as a worst-case matrix defect over seeded random
draws; creation-type identities are restricted to the guarded sector
N <= n_max - 1 where the truncated algebra is exact.  The suite is the
engine behind the ``algebra`` subcommand and the first acceptance criterion.
"""

from __future__ import annotations

import numpy as np

from . import fock, split


def _rand_vec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _rand_mat(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _whermitian(grid, A):
    return (A + fock.weighted_adjoint(grid, grid, A)) / 2.0


def _wunitary(rng, grid):
    M = grid.n_modes
    Q, _ = np.linalg.qr(_rand_mat(rng, M))
    w = np.sqrt(grid.weights)
    return Q / w[:, None] * w[None, :]


def _norm(op) -> float:
    mat = op.mat if hasattr(op, "mat") else op
    arr = mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)
    return float(np.abs(arr).max())


def run_algebra_suite(n_modes: int = 4, n_max: int = 3, draws: int = 100,
                      kmax: float = 1.0, sigma: float = 0.2, seed: int = 2024,
                      corrupt: bool = False) -> dict:
    """Run every algebra identity; returns per-identity worst defects.

    With ``corrupt=True`` the creation operator entering the CCR check is
    deliberately perturbed (test fixture for failure propagation).
    """
    rng = np.random.default_rng(seed)
    grid = fock.line_grid(n_modes, kmax, sigma)
    basis = fock.build_basis(grid, n_max)
    if n_max == 0:
        return {"defects": {}, "vacuous": True, "draws": 0,
                "note": "n_max=0: guarded sector empty, identities hold vacuously"}
    M = grid.n_modes
    guard = fock.guarded_projector(basis)
    ident = fock.identity_op(basis)
    N_op = fock.number_op(basis)

    dgrid = split.doubled_grid(grid)
    basis_sum = fock.build_basis(dgrid, n_max)
    left = fock.build_basis(grid, n_max)
    right = fock.build_basis(grid, n_max)
    tb = split.build_tensor_basis(left, right, joint_cap=n_max)
    U = split.tensor_iso_U(basis_sum, tb)
    guard_sum = fock.guarded_projector(basis_sum)
    ntot_pairs = tb.pair_numbers().sum(axis=1)
    guard_pairs = np.diag((ntot_pairs <= n_max - 1).astype(complex))
    N_pair = (split.tensor_factor_ops(tb, op_left=N_op).mat
              + split.tensor_factor_ops(tb, op_right=N_op).mat)

    defects: dict[str, float] = {}

    def rec(name, value):
        defects[name] = max(defects.get(name, 0.0), float(value))

    for _ in range(draws):
        g1 = _rand_vec(rng, M)
        g2 = _rand_vec(rng, M)
        a_dag1 = fock.creation_op(basis, g1)
        if corrupt:
            bad = a_dag1.mat.tolil()
            bad[0, min(1, basis.size - 1)] += 0.5
            a_dag1 = fock.SparseOperator(bad.tocsr(), False, basis, basis)
        a_dag2 = fock.creation_op(basis, g2)
        a1 = a_dag1.adjoint()

        # CCR
        comm = (a1 @ a_dag2) - (a_dag2 @ a1)
        rec("ccr", _norm((comm - fock.weighted_inner(grid, g1, g2) * ident) @ guard))
        rec("ccr_same_type", max(_norm((a_dag1 @ a_dag2) - (a_dag2 @ a_dag1)),
                                 _norm((a1 @ a_dag2.adjoint()) - (a_dag2.adjoint() @ a1))))

        # functor identities
        b = _rand_mat(rng, M)
        G = fock.Gamma(basis, b)
        rec("geq1", _norm(((G @ a_dag1) - (fock.creation_op(basis, b @ g1) @ G)) @ guard))
        bstar = fock.weighted_adjoint(grid, grid, b)
        rec("geq2", _norm((G @ fock.annihilation_op(basis, bstar @ g1))
                          - (fock.annihilation_op(basis, g1) @ G)))
        q = _wunitary(rng, grid)
        Gq = fock.Gamma(basis, q)
        rec("geq3", _norm(((Gq @ fock.annihilation_op(basis, g1))
                           - (fock.annihilation_op(basis, q @ g1) @ Gq)) @ guard))
        rec("geq4", _norm(((Gq @ fock.field_op(basis, g1))
                           - (fock.field_op(basis, q @ g1) @ Gq)) @ guard))

        # dGamma and the mixed functor
        bh = _whermitian(grid, _rand_mat(rng, M))
        dG = fock.dGamma(basis, bh)
        phi = fock.field_op(basis, g1)
        lhs = 1j * ((dG @ phi) - (phi @ dG))
        rec("dgamma_phi", _norm((lhs - fock.field_op(basis, 1j * (bh @ g1))) @ guard))
        b2 = _rand_mat(rng, M)
        rec("dgamma2_collapse", _norm(fock.dGamma2(basis, np.eye(M), b2) - fock.dGamma(basis, b2)))
        rec("gamma_dgamma", _norm((G @ fock.dGamma(basis, b2)) - fock.dGamma2(basis, b, b @ b2)))
        rec("gamma_dgamma_comm",
            _norm(((G @ fock.dGamma(basis, b2)) - (fock.dGamma(basis, b2) @ G))
                  - fock.dGamma2(basis, b, b @ b2 - b2 @ b)))

        # Schwarz bound for the mixed functor
        r1 = _rand_mat(rng, M)
        r2 = _rand_mat(rng, M)
        qm = _rand_mat(rng, M)
        qm = qm / max(1.0, fock.weighted_opnorm(grid, grid, qm))
        r2s = fock.weighted_adjoint(grid, grid, r2)
        u = _rand_vec(rng, basis.size)
        v = _rand_vec(rng, basis.size)
        lhs_s = abs(complex(np.vdot(u, fock.dGamma2(basis, qm, r2s @ r1).mat @ v)))
        rhs_s = (np.sqrt(max(0.0, float(np.vdot(u, fock.dGamma(basis, r2s @ r2).mat @ u).real)))
                 * np.sqrt(max(0.0, float(np.vdot(v, fock.dGamma(basis, fock.weighted_adjoint(grid, grid, r1) @ r1).mat @ v).real))))
        rec("lemma_dgamma_schwarz", max(0.0, lhs_s - rhs_s))

        # tensor isomorphism
        vac_sum = np.zeros(basis_sum.size); vac_sum[0] = 1.0
        target = np.zeros(tb.size); target[tb.index[(0, 0)]] = 1.0
        rec("ueq0_vacuum", np.abs(U.mat @ vac_sum - target).max())
        h_pair = np.concatenate([g1, g2])
        cs = fock.creation_op(basis_sum, np.concatenate([g1, np.zeros(M)]))
        lhsU = (U @ cs @ U.adjoint()).mat.toarray()
        rhsU = split.tensor_factor_ops(tb, op_left=a_dag1).mat.toarray()
        rec("ueq0_creation", np.abs((lhsU - rhsU) @ guard_pairs).max())
        an = fock.annihilation_op(basis_sum, h_pair)
        rhs_a = (split.tensor_factor_ops(tb, op_left=fock.annihilation_op(basis, g1)).mat
                 + split.tensor_factor_ops(tb, op_right=fock.annihilation_op(basis, g2)).mat)
        rec("ueq1_annihilation", _norm((U @ an) - fock.SparseOperator((rhs_a @ U.mat).tocsr())))
        d0 = rng.normal(size=M)
        dinf = rng.normal(size=M)
        lhs3 = (U @ fock.dGamma(basis_sum, np.concatenate([d0, dinf])) @ U.adjoint()).mat.toarray()
        rhs3 = (split.tensor_factor_ops(tb, op_left=fock.dGamma(basis, d0)).mat
                + split.tensor_factor_ops(tb, op_right=fock.dGamma(basis, dinf)).mat).toarray()
        rec("ueq3_dgamma", np.abs(lhs3 - rhs3).max())
        rec("u_isometry", _norm((U.adjoint() @ U) - fock.identity_op(basis_sum)))

        # binomial spot check (needs the two-boson sector): amplitude of
        # a*(v)^2 Omega with v = (e_i, e_j)
        if n_max >= 2:
            i, j = rng.integers(0, M, size=2)
            vv = np.concatenate([np.eye(M)[i] / np.sqrt(grid.weights[i]),
                                 np.eye(M)[j] / np.sqrt(grid.weights[j])])
            cv = fock.creation_op(basis_sum, vv)
            two = U.mat @ (cv.mat @ (cv.mat @ vac_sum))
            li = left.index[tuple(1 if t == i else 0 for t in range(M))]
            ri = right.index[tuple(1 if t == j else 0 for t in range(M))]
            amp = two[tb.index[(li, ri)]]
            rec("ueq2_binomial", abs(amp - np.sqrt(2.0) * np.sqrt(2.0)))

        # splitting map with an isometric pair
        th = rng.uniform(0.1, np.pi / 2 - 0.1, size=M)
        pair_iso = split.SplitPair(grid, np.diag(np.cos(th)), np.diag(np.sin(th)))
        BG = split.breve_gamma(pair_iso, basis, tb, basis_sum=basis_sum)
        rec("breve_isometry", _norm(fock.SparseOperator((BG.mat.conj().T @ BG.mat).tocsr())
                                    - fock.identity_op(basis)))
        lhs_a = BG.mat @ fock.creation_op(basis, g1).mat
        rhs_ag = (split.tensor_factor_ops(tb, op_left=fock.creation_op(basis, pair_iso.j0 @ g1)).mat
                  + split.tensor_factor_ops(tb, op_right=fock.creation_op(basis, pair_iso.jinf @ g1)).mat) @ BG.mat
        rec("ugamma_a", np.abs((lhs_a - rhs_ag).toarray() @ np.diag(
            (basis.total_numbers() <= n_max - 1).astype(complex))).max())
        lhs_p = BG.mat @ fock.field_op(basis, g1).mat
        rhs_p = (split.tensor_factor_ops(tb, op_left=fock.field_op(basis, pair_iso.j0 @ g1)).mat
                 + split.tensor_factor_ops(tb, op_right=fock.field_op(basis, pair_iso.jinf @ g1)).mat) @ BG.mat
        rec("ugamma_phi", np.abs((lhs_p - rhs_p).toarray() @ np.diag(
            (basis.total_numbers() <= n_max - 1).astype(complex))).max())
        rec("breve_number", _norm(fock.SparseOperator(((BG.mat @ N_op.mat) - (N_pair @ BG.mat)).tocsr())))

        # partition pair: ugamma-o and the right inverse
        um = rng.uniform(0.2, 0.8, size=M)
        Qs = 0.1 * rng.normal(size=(M, M))
        j0 = np.diag(um) + (Qs + Qs.T)
        pair_part = split.SplitPair(grid, j0, np.eye(M) - j0)
        BGP = split.breve_gamma(pair_part, basis, tb, basis_sum=basis_sum)
        om = grid.omega_mod
        lhs_o = (BGP.mat @ fock.dGamma(basis, om).mat
                 - (split.tensor_factor_ops(tb, op_left=fock.dGamma(basis, om)).mat
                    + split.tensor_factor_ops(tb, op_right=fock.dGamma(basis, om)).mat) @ BGP.mat)
        c0 = np.diag(om) @ pair_part.j0 - pair_part.j0 @ np.diag(om)
        cinf = np.diag(om) @ pair_part.jinf - pair_part.jinf @ np.diag(om)
        rhs_o = -split.dbreve_gamma2(pair_part, c0, cinf, basis, tb, basis_sum=basis_sum).mat
        rec("ugamma_o", np.abs((lhs_o - rhs_o).toarray()).max())
        I_op = split.scattering_ident(tb, basis)
        rec("igamma", _norm(fock.SparseOperator((I_op.mat @ BGP.mat).tocsr())
                            - fock.identity_op(basis)))

        # two-term Cauchy-Schwarz for the mixed splitting map
        k0 = _whermitian(grid, _rand_mat(rng, M))
        kinf = _whermitian(grid, _rand_mat(rng, M))
        jstack = pair_iso
        ut = _rand_vec(rng, tb.size)
        vt = _rand_vec(rng, basis.size)
        dbg = split.dbreve_gamma2(jstack, k0, kinf, basis, tb, basis_sum=basis_sum)
        lhs_u = abs(complex(np.vdot(ut, dbg.mat @ vt)))
        abs_k0 = fock.weighted_abs(grid, k0)
        abs_kinf = fock.weighted_abs(grid, kinf)
        t_l = split.tensor_factor_ops(tb, op_left=fock.dGamma(basis, abs_k0)).mat
        t_r = split.tensor_factor_ops(tb, op_right=fock.dGamma(basis, abs_kinf)).mat
        rhs_u = (np.sqrt(max(0.0, float(np.vdot(ut, t_l @ ut).real)))
                 * np.sqrt(max(0.0, float(np.vdot(vt, fock.dGamma(basis, abs_k0).mat @ vt).real)))
                 + np.sqrt(max(0.0, float(np.vdot(ut, t_r @ ut).real)))
                 * np.sqrt(max(0.0, float(np.vdot(vt, fock.dGamma(basis, abs_kinf).mat @ vt).real))))
        rec("lemma_udgamma", max(0.0, lhs_u - rhs_u))

    # cap-dependent norm diagnostics for the identification map
    i_norms = {}
    Nl, Nr = tb.pair_numbers().T
    for kk in (1, 2):
        wts = np.where(Nr <= kk, (1.0 + Nl) ** (-kk), 0.0)
        I_op = split.scattering_ident(tb, basis)
        i_norms[f"I_weight_k{kk}"] = float(np.linalg.norm(
            I_op.mat.toarray() * wts[None, :], 2))

    tol = 1e-12
    failing = sorted(name for name, d in defects.items() if d > tol)
    return {
        "defects": {k: defects[k] for k in sorted(defects)},
        "max_defect": max(defects.values()),
        "tolerance": tol,
        "failing": failing,
        "passed": not failing,
        "draws": draws,
        "i_norm_diagnostics": i_norms,
        "vacuous": False,
    }
