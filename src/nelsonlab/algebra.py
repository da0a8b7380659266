"""Randomized identity suite for the operator algebra.

Each identity is evaluated as a worst-case matrix defect over seeded random
draws; creation-type identities are restricted to the guarded sector
N <= n_max - 1 where the truncated algebra is exact.  The suite is the
engine behind the ``algebra`` subcommand and the first acceptance criterion.

What does not depend on the draw is built once per suite: the one-leg
generator stacks (``Generators``, from ``fock``'s own constructors), the
nonzeros of a*(e_j) and the diagonals of dGamma(e_j) on the doubled grid,
the tensor lift as an index gather (``split.TensorLift``), U as its
permutation (``TensorBasis.perm``), the fusion map I, the guards as column
masks, the support plans of U's identities, and the checks that involve
none of the draws.  A draw forms each operator that is linear in its
coefficients with one ``tensordot``; only Gamma, dGamma2 and the splitting
maps built on them are nonlinear in the draw and go through the sector
recursion every draw, which reads its slot tables, sector schedule and row
lookups from the bases, and each Gamma is formed once per draw and mode map
and read again by the dGamma2 beside it.

Identities whose two sides are dense products are evaluated on dense numpy
arrays, one dense product of the same operands each, so every defect is
rounded as it always was.  U's identities compare two scatters instead
(``_UIdentities``): the doubled-grid creation scatter, placed in pair
coordinates by U's permutation, against one-leg lifts.  Each is evaluated
on the union of the two sides' structural supports, outside which both are
exactly zero, so the 165 x 165 sides are never formed and each worst entry
is the one the dense difference gives; a diagonal comparison is one vector.
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


class _SparseCreation:
    """a*(h) on ``basis`` as a scatter of the nonzeros of ``fock.creation_op(basis, e_j)``.

    For the doubled grid, where a dense 2M x n x n stack would cost megabytes
    per product; every entry belongs to one mode, since it adds one boson.
    a*(h) holds ``values(h)`` at (``row``, ``col``).
    """

    def __init__(self, basis: fock.OccupationBasis):
        parts = [fock.creation_op(basis, e).tocoo() for e in np.eye(basis.grid.n_modes)]
        self.size = basis.size
        self.row = np.concatenate([c.row for c in parts])
        self.col = np.concatenate([c.col for c in parts])
        self.value = np.concatenate([c.data for c in parts])
        self.mode = np.repeat(np.arange(len(parts)), [c.nnz for c in parts])

    def values(self, h) -> np.ndarray:
        return self.value * h[self.mode]

    def __call__(self, h) -> np.ndarray:
        out = np.zeros(self.size * self.size, dtype=complex)
        out[self.row * self.size + self.col] = self.values(h)
        return out.reshape(self.size, self.size)


class _SupportPlan:
    """Both sides of an identity on the union of their structural supports.

    ``puts`` lists flat positions, one array per scatter that builds a side;
    outside their union both sides are exactly zero, so the largest entry of
    |lhs - rhs| is the largest over the union.  ``gap(lhs, *rhs)`` writes the
    scatters' values in order, the first into the left side and the rest
    into the right, a later one adding into an earlier one where they meet,
    and returns that largest entry.
    """

    def __init__(self, *puts):
        union = np.unique(np.concatenate(puts))
        self.size = len(union)
        self.at = [np.searchsorted(union, put) for put in puts]

    def gap(self, lhs, *rhs) -> float:
        side = np.zeros((2, self.size), dtype=complex)
        side[0, self.at[0]] = lhs
        side[1, self.at[1]] = rhs[0]
        for at, part in zip(self.at[2:], rhs[1:]):
            side[1, at] += part
        return float(np.abs(side[0] - side[1]).max(initial=0.0))


class _UIdentities:
    """The draw-dependent identities of U, the tensor isomorphism, evaluated
    without forming their pair-basis sides.

    Built once per suite: a*(h) on the doubled grid (``_SparseCreation``),
    its number diagonals, and the support plans of ``ueq0_creation`` and
    ``ueq1_annihilation``.  U places the doubled-grid entry (row, col) at the
    pair entry (t[row], t[col]), t = ``tb.perm``, so the creation scatter
    lands in pair coordinates directly; a lift's support is its leg's
    creation (or annihilation) pattern lifted, plus the entry that
    ``corrupt`` perturbs.  ``ueq3_dgamma`` compares diagonal operators, so
    its support is the diagonal.  The suite's pair space has no energy cap,
    so U is a bijection and ``s``, the inverse of t, applies U to vectors.
    """

    def __init__(self, gen: Generators, tb: split.TensorBasis, lift: split.TensorLift,
                 corrupt: bool = False):
        basis, M = tb.basis, tb.basis.grid.n_modes
        self.gen, self.tb, self.M = gen, tb, M
        self.left, self.right = tb.pairs.T
        t, n_pairs = tb.perm, tb.size
        self.s = np.argsort(t)
        self.sum_creation = _SparseCreation(tb.sum_basis)
        self.sum_numbers = np.stack([fock.dGamma(tb.sum_basis, e).diagonal()
                                     for e in np.eye(2 * M)], axis=1)
        creates = np.any(gen.creation != 0, axis=0)
        a_dag1 = creates.copy()
        if corrupt:
            a_dag1[0, min(1, basis.size - 1)] = True
        guard = tb.pair_numbers().sum(axis=1) <= basis.n_max - 1
        row, col = t[self.sum_creation.row], t[self.sum_creation.col]
        self.guarded = guard[col]
        put, self.gather0 = lift.on(a_dag1)
        keep = guard[put % n_pairs]
        put, self.gather0 = put[keep], self.gather0[keep]
        self.ueq0 = _SupportPlan((row * n_pairs + col)[self.guarded], put)
        (put_l, self.gather_l), (put_r, self.gather_r) = (lift.on(creates.T, right)
                                                          for right in (False, True))
        self.ueq1 = _SupportPlan(col * n_pairs + row, put_l, put_r)

    def creation(self, g1, a_dag1) -> float:
        """ueq0: U a*(g1 + 0) U* = a*(g1) x 1 on the guarded pairs."""
        lhs = self.sum_creation.values(np.concatenate([g1, np.zeros(self.M)]))
        return self.ueq0.gap(lhs[self.guarded], np.take(a_dag1, self.gather0))

    def annihilation(self, g1, g2, ann1, ann2) -> float:
        """ueq1: U a(g1 + g2) U* = a(g1) x 1 + 1 x a(g2)."""
        lhs = np.conj(self.sum_creation.values(np.concatenate([g1, g2])))
        return self.ueq1.gap(lhs, np.take(ann1, self.gather_l), np.take(ann2, self.gather_r))

    def dgamma(self, d0, dinf) -> float:
        """ueq3: U dGamma(d0 + dinf) U* = dGamma(d0) x 1 + 1 x dGamma(dinf)."""
        lhs = (self.sum_numbers @ np.concatenate([d0, dinf]))[self.s]
        rhs = (self.gen.dGamma(d0).diagonal()[self.left]
               + self.gen.dGamma(dinf).diagonal()[self.right])
        return float(np.abs(lhs - rhs).max())

    def binomial(self, i, j) -> float:
        """ueq2: the amplitude of a*(v)^2 Omega with v = (e_i, e_j) on the pair
        (e_i, e_j) is sqrt(2) sqrt(2)."""
        M, basis = self.M, self.tb.basis
        w = basis.grid.weights
        vv = np.concatenate([np.eye(M)[i] / np.sqrt(w[i]), np.eye(M)[j] / np.sqrt(w[j])])
        lhs = self.sum_creation(vv)
        two = (lhs @ lhs[:, 0])[self.s]
        # the one-boson states e_i, e_j and the pair (e_i, e_j)
        amp = two[self.tb.lookup([[basis.up[0, i], basis.up[0, j]]])[0]]
        return abs(amp - np.sqrt(2.0) * np.sqrt(2.0))


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
    lift = split.TensorLift(tb)
    left, right = tb.pairs.T
    u_ids = _UIdentities(gen, tb, lift, corrupt)
    # diagonal operators and their pair lifts are kept as diagonals
    N_pair = (split.tensor_factor_ops(tb, op_left=N_op)
              + split.tensor_factor_ops(tb, op_right=N_op)).diagonal()
    dG_om = gen.dGamma(grid.omega_mod)
    dG_om_pair = dG_om.diagonal()[left] + dG_om.diagonal()[right]
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
        rec("gamma_dgamma", _norm((G @ dG2) - fock.dGamma2(basis, b, b @ b2, gamma_a=G)))
        rec("gamma_dgamma_comm",
            _norm(((G @ dG2) - (dG2 @ G)) - fock.dGamma2(basis, b, b @ b2 - b2 @ b, gamma_a=G)))

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

        # tensor isomorphism
        rec("ueq0_creation", u_ids.creation(g1, a_dag1))
        rec("ueq1_annihilation", u_ids.annihilation(g1, g2, ann1, ann2))
        d0 = rng.normal(size=M)
        dinf = rng.normal(size=M)
        rec("ueq3_dgamma", u_ids.dgamma(d0, dinf))
        # binomial spot check (needs the two-boson sector)
        if n_max >= 2:
            rec("ueq2_binomial", u_ids.binomial(*rng.integers(0, M, size=2)))

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
        rhs_o = -split.dbreve_gamma2(j0, jinf, c0, cinf, tb, breve_j=BGP)
        rec("ugamma_o", np.abs(lhs_o - rhs_o).max())
        rec("igamma", _norm((I_op @ BGP) - eye))

        # two-term Cauchy-Schwarz for the mixed splitting map
        k0 = _whermitian(grid, _rand_mat(rng, M))
        kinf = _whermitian(grid, _rand_mat(rng, M))
        ut = _rand_vec(rng, tb.size)
        vt = _rand_vec(rng, n)
        dbg = split.dbreve_gamma2(j0_iso, jinf_iso, k0, kinf, tb, breve_j=BG)
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
