"""Randomized identity suite for the operator algebra.

Each identity is evaluated as a worst-case matrix defect over seeded random
draws; creation-type identities are restricted to the guarded sector
N <= n_max - 1 where the truncated algebra is exact.  The suite is the
engine behind the ``algebra`` subcommand and the first acceptance criterion.

Every identity is evaluated on dense numpy arrays.  What does not depend on
the draw is built once per suite: the one-leg generator stacks
(``Generators``, from ``fock``'s own constructors), the nonzeros of a*(e_j)
and the diagonals of dGamma(e_j) on the doubled grid, the tensor lift as an
index gather (``split.tensor_lift``), U as its permutation
(``TensorBasis.perm``), the fusion map I, the guards as column masks,
and the checks that involve none of the draws.  A draw forms each operator
that is linear in its coefficients with one ``tensordot`` and applies U as
an index gather; only Gamma, dGamma2 and the splitting maps built on them
are nonlinear in the draw and go through the sector recursion every draw,
which reads its slot tables, sector schedule and row lookups from the bases.
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


def _norm(arr) -> float:
    return float(np.abs(arr).max())


class Generators:
    """Dense generator stacks on ``basis``, built by ``fock``'s constructors.

    ``creation[j]`` is ``fock.creation_op(basis, e_j)``, ``field`` stacks
    ``fock.field_op`` of e_j over that of i e_j, and ``hopping[i, j]`` is
    ``fock.dGamma(basis, E_ij)`` for the unit mode matrix E_ij.  Each of these
    operators is linear in its mode data (the field real-linear), so the
    methods form it for any coefficients with one ``tensordot``.  The stacks
    are stored complex, so the product with complex coefficients casts nothing.
    """

    def __init__(self, basis: fock.OccupationBasis):
        M, n = basis.grid.n_modes, basis.size
        eye = np.eye(M)
        self.creation = np.stack([fock.creation_op(basis, e).toarray() for e in eye]
                                 ).astype(complex)
        self.field = np.stack([fock.field_op(basis, c * e).toarray()
                               for c in (1.0, 1j) for e in eye]).astype(complex)
        self.hopping = np.stack([fock.dGamma(basis, np.outer(ei, ej)).toarray()
                                 for ei in eye for ej in eye]
                                ).astype(complex).reshape(M, M, n, n)

    def creation_op(self, h) -> np.ndarray:
        return np.tensordot(h, self.creation, 1)

    def annihilation_op(self, h) -> np.ndarray:
        return self.creation_op(h).conj().T

    def field_op(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=complex)
        return np.tensordot(np.concatenate([h.real, h.imag]), self.field, 1)

    def dGamma(self, b) -> np.ndarray:
        b = np.asarray(b)
        return np.tensordot(np.diag(b) if b.ndim == 1 else b, self.hopping, 2)


def _sparse_creation(basis: fock.OccupationBasis):
    """a*(h) on ``basis`` as a scatter of the nonzeros of ``fock.creation_op(basis, e_j)``.

    For the doubled grid, where a dense 2M x n x n stack would cost megabytes
    per product; every entry belongs to one mode, since it adds one boson.
    """
    parts = [fock.creation_op(basis, e).tocoo() for e in np.eye(basis.grid.n_modes)]
    flat = np.concatenate([c.row * basis.size + c.col for c in parts])
    value = np.concatenate([c.data for c in parts])
    mode = np.repeat(np.arange(len(parts)), [c.nnz for c in parts])

    def creation_op(h) -> np.ndarray:
        out = np.zeros(basis.size * basis.size, dtype=complex)
        out[flat] = value * h[mode]
        return out.reshape(basis.size, basis.size)

    return creation_op


def run_algebra_suite(n_modes: int = 4, n_max: int = 3, draws: int = 100,
                      sigma: float = 0.2, seed: int = 2024,
                      corrupt: bool = False) -> dict:
    """Run every algebra identity; returns per-identity worst defects.

    With ``corrupt=True`` the creation operator entering the CCR check is
    deliberately perturbed (test fixture for failure propagation).
    """
    rng = np.random.default_rng(seed)
    grid = fock.line_grid(n_modes, 1.0, sigma)
    basis = fock.build_basis(grid, n_max)
    if n_max == 0:
        return {"defects": {}, "vacuous": True, "draws": 0,
                "note": "n_max=0: guarded sector empty, identities hold vacuously"}
    M, n = grid.n_modes, basis.size
    eye = np.eye(n)
    guard = np.flatnonzero(basis.total_numbers() <= n_max - 1)
    N_op = fock.number_op(basis)
    N = N_op.toarray()
    gen = Generators(basis)

    tb = split.build_tensor_basis(basis)
    basis_sum = tb.sum_basis
    lift = split.tensor_lift(tb)
    guard_pairs = np.flatnonzero(tb.pair_numbers().sum(axis=1) <= n_max - 1)
    # U is a bijection here (no energy cap): U X = X[s], X U = X[:, t]
    t = tb.perm
    s = np.argsort(t)
    sum_creation = _sparse_creation(basis_sum)
    sum_numbers = np.stack([fock.dGamma(basis_sum, e).diagonal()
                            for e in np.eye(2 * M)], axis=1)
    # number operators are diagonal; their pair lifts are kept as diagonals
    N_pair = (split.tensor_factor_ops(tb, op_left=N_op)
              + split.tensor_factor_ops(tb, op_right=N_op)).diagonal()
    dG_om = gen.dGamma(grid.omega_mod)
    dG_om_pair = np.diagonal(lift(dG_om) + lift(None, dG_om))
    I_op = split.scattering_ident(tb).toarray()

    defects: dict[str, float] = {}

    def rec(name, value):
        defects[name] = max(defects.get(name, 0.0), float(value))

    # the checks that involve no draw
    U = split.tensor_iso_U(tb)
    vac_sum = np.zeros(basis_sum.size)
    vac_sum[0] = 1.0
    target = np.zeros(tb.size)
    target[tb.lookup([[0, 0]])] = 1.0
    rec("ueq0_vacuum", np.abs(U @ vac_sum - target).max())
    rec("u_isometry", _norm((U.conj().T @ U).toarray() - np.eye(basis_sum.size)))

    for _ in range(draws):
        g1 = _rand_vec(rng, M)
        g2 = _rand_vec(rng, M)
        c1 = gen.creation_op(g1)
        a_dag1 = c1
        if corrupt:
            a_dag1 = c1.copy()
            a_dag1[0, min(1, n - 1)] += 0.5
        a_dag2 = gen.creation_op(g2)
        a1 = a_dag1.conj().T
        ann1, ann2 = c1.conj().T, a_dag2.conj().T

        # CCR
        comm = (a1 @ a_dag2) - (a_dag2 @ a1)
        rec("ccr", _norm((comm - fock.weighted_inner(grid, g1, g2) * eye)[:, guard]))
        rec("ccr_same_type", max(_norm((a_dag1 @ a_dag2) - (a_dag2 @ a_dag1)),
                                 _norm((a1 @ ann2) - (ann2 @ a1))))

        # functor identities
        b = _rand_mat(rng, M)
        G = fock.Gamma(basis, b)
        rec("geq1", _norm(((G @ a_dag1) - (gen.creation_op(b @ g1) @ G))[:, guard]))
        bstar = fock.weighted_adjoint(grid, grid, b)
        rec("geq2", _norm((G @ gen.annihilation_op(bstar @ g1)) - (ann1 @ G)))
        q = _wunitary(rng, grid)
        Gq = fock.Gamma(basis, q)
        rec("geq3", _norm(((Gq @ ann1) - (gen.annihilation_op(q @ g1) @ Gq))[:, guard]))
        phi = gen.field_op(g1)
        rec("geq4", _norm(((Gq @ phi) - (gen.field_op(q @ g1) @ Gq))[:, guard]))

        # dGamma and the mixed functor
        bh = _whermitian(grid, _rand_mat(rng, M))
        dG = gen.dGamma(bh)
        lhs = 1j * ((dG @ phi) - (phi @ dG))
        rec("dgamma_phi", _norm((lhs - gen.field_op(1j * (bh @ g1)))[:, guard]))
        b2 = _rand_mat(rng, M)
        dG2 = gen.dGamma(b2)
        rec("dgamma2_collapse", _norm(fock.dGamma2(basis, np.eye(M), b2) - dG2))
        rec("gamma_dgamma", _norm((G @ dG2) - fock.dGamma2(basis, b, b @ b2)))
        rec("gamma_dgamma_comm",
            _norm(((G @ dG2) - (dG2 @ G)) - fock.dGamma2(basis, b, b @ b2 - b2 @ b)))

        # Schwarz bound for the mixed functor
        r1 = _rand_mat(rng, M)
        r2 = _rand_mat(rng, M)
        qm = _rand_mat(rng, M)
        qm = qm / max(1.0, fock.weighted_opnorm(grid, grid, qm))
        r2s = fock.weighted_adjoint(grid, grid, r2)
        u = _rand_vec(rng, n)
        v = _rand_vec(rng, n)
        lhs_s = abs(complex(np.vdot(u, fock.dGamma2(basis, qm, r2s @ r1) @ v)))
        rhs_s = (np.sqrt(max(0.0, float(np.vdot(u, gen.dGamma(r2s @ r2) @ u).real)))
                 * np.sqrt(max(0.0, float(np.vdot(v, gen.dGamma(fock.weighted_adjoint(grid, grid, r1) @ r1) @ v).real))))
        rec("lemma_dgamma_schwarz", max(0.0, lhs_s - rhs_s))

        # tensor isomorphism; lhs and rhs are reused and then dropped, so that
        # at most one pair of pair-basis matrices is alive at a time
        lhs = sum_creation(np.concatenate([g1, np.zeros(M)]))[np.ix_(s, s)]
        rec("ueq0_creation", np.abs((lhs - lift(a_dag1))[:, guard_pairs]).max())
        lhs = sum_creation(np.concatenate([g1, g2])).conj().T[s]
        rhs = (lift(ann1) + lift(None, ann2))[:, t]
        rec("ueq1_annihilation", _norm(lhs - rhs))
        d0 = rng.normal(size=M)
        dinf = rng.normal(size=M)
        lhs = np.diag((sum_numbers @ np.concatenate([d0, dinf]))[s])
        rhs = lift(gen.dGamma(d0)) + lift(None, gen.dGamma(dinf))
        rec("ueq3_dgamma", np.abs(lhs - rhs).max())

        # binomial spot check (needs the two-boson sector): amplitude of
        # a*(v)^2 Omega with v = (e_i, e_j)
        if n_max >= 2:
            i, j = rng.integers(0, M, size=2)
            vv = np.concatenate([np.eye(M)[i] / np.sqrt(grid.weights[i]),
                                 np.eye(M)[j] / np.sqrt(grid.weights[j])])
            lhs = sum_creation(vv)
            two = (lhs @ lhs[:, 0])[s]
            # the one-boson states e_i, e_j and the pair (e_i, e_j)
            amp = two[tb.lookup([[basis.up[0, i], basis.up[0, j]]])[0]]
            rec("ueq2_binomial", abs(amp - np.sqrt(2.0) * np.sqrt(2.0)))
        del lhs, rhs

        # splitting map with j0* j0 + jinf* jinf = 1; the pairs are complex so
        # every product below runs in the dtype the pinned reference used
        th = rng.uniform(0.1, np.pi / 2 - 0.1, size=M)
        j0_iso, jinf_iso = np.diag(np.cos(th) + 0j), np.diag(np.sin(th) + 0j)
        BG = split.breve_gamma(j0_iso, jinf_iso, tb)
        rec("breve_isometry", _norm(BG.conj().T @ BG - eye))
        rhs_ag = (lift(gen.creation_op(j0_iso @ g1))
                  + lift(None, gen.creation_op(jinf_iso @ g1))) @ BG
        rec("ugamma_a", _norm(((BG @ c1) - rhs_ag)[:, guard]))
        rhs_p = (lift(gen.field_op(j0_iso @ g1))
                 + lift(None, gen.field_op(jinf_iso @ g1))) @ BG
        rec("ugamma_phi", _norm(((BG @ phi) - rhs_p)[:, guard]))
        rec("breve_number", _norm((BG @ N) - (N_pair[:, None] * BG)))

        # partition pair: ugamma-o and the right inverse
        um = rng.uniform(0.2, 0.8, size=M)
        Qs = 0.1 * rng.normal(size=(M, M))
        j0 = np.diag(um) + (Qs + Qs.T) + 0j
        jinf = np.eye(M) - j0
        BGP = split.breve_gamma(j0, jinf, tb)
        lhs_o = (BGP @ dG_om) - (dG_om_pair[:, None] * BGP)
        om = np.diag(grid.omega_mod)
        c0 = om @ j0 - j0 @ om
        cinf = om @ jinf - jinf @ om
        rhs_o = -split.dbreve_gamma2(j0, jinf, c0, cinf, tb)
        rec("ugamma_o", np.abs(lhs_o - rhs_o).max())
        rec("igamma", _norm((I_op @ BGP) - eye))

        # two-term Cauchy-Schwarz for the mixed splitting map
        k0 = _whermitian(grid, _rand_mat(rng, M))
        kinf = _whermitian(grid, _rand_mat(rng, M))
        ut = _rand_vec(rng, tb.size)
        vt = _rand_vec(rng, n)
        dbg = split.dbreve_gamma2(j0_iso, jinf_iso, k0, kinf, tb)
        lhs_u = abs(complex(np.vdot(ut, dbg @ vt)))
        dG_k0 = gen.dGamma(fock.weighted_abs(grid, k0))
        dG_kinf = gen.dGamma(fock.weighted_abs(grid, kinf))
        rhs_u = (np.sqrt(max(0.0, float(np.vdot(ut, lift(dG_k0) @ ut).real)))
                 * np.sqrt(max(0.0, float(np.vdot(vt, dG_k0 @ vt).real)))
                 + np.sqrt(max(0.0, float(np.vdot(ut, lift(None, dG_kinf) @ ut).real)))
                 * np.sqrt(max(0.0, float(np.vdot(vt, dG_kinf @ vt).real))))
        rec("lemma_udgamma", max(0.0, lhs_u - rhs_u))

    # cap-dependent norm diagnostics for the identification map
    i_norms = {}
    Nl, Nr = tb.pair_numbers().T
    for kk in (1, 2):
        wts = np.where(Nr <= kk, (1.0 + Nl) ** (-kk), 0.0)
        i_norms[f"I_weight_k{kk}"] = float(np.linalg.norm(I_op * wts[None, :], 2))

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
