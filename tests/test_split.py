import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from nelsonlab import fock, split


@pytest.fixture(scope="module")
def setup(grid4):
    basis = fock.build_basis(grid4, 3)
    tb = split.build_tensor_basis(basis)
    U = split.tensor_iso_U(tb)
    return basis, tb.sum_basis, tb, U


def test_tensor_basis_dimension(setup):
    basis, basis_sum, tb, _ = setup
    nb = basis.total_numbers()
    count = sum(1 for i in range(basis.size) for j in range(basis.size)
                if nb[i] + nb[j] <= 3)
    assert tb.size == count == basis_sum.size
    assert basis_sum.grid.n_modes == 8 and basis_sum.n_max == 3


def test_u_is_isometry(setup):
    _, basis_sum, _, U = setup
    UU = (U.conj().T @ U).toarray()
    assert np.abs(UU - np.eye(basis_sum.size)).max() < 1e-12


def test_u_vacuum(setup):
    _, basis_sum, tb, U = setup
    col = U[:, 0].toarray().ravel()
    assert col[tb.lookup([[0, 0]])[0]] == 1.0
    assert np.count_nonzero(col) == 1


def test_u_intertwines_creation(setup, rng):
    basis, basis_sum, tb, U = setup
    guard = np.diag((tb.pair_numbers().sum(axis=1) <= 2).astype(float))
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    cs = fock.creation_op(basis_sum, np.concatenate([h, np.zeros(4)]))
    lhs = (U @ cs @ U.conj().T).toarray()
    rhs = split.tensor_factor_ops(tb, op_left=fock.creation_op(basis, h)).toarray()
    assert np.abs((lhs - rhs) @ guard).max() < 1e-13


def test_u_intertwines_dgamma_diagonal(setup, rng):
    basis, basis_sum, tb, U = setup
    b0 = rng.normal(size=4)
    binf = rng.normal(size=4)
    lhs = (U @ fock.dGamma(basis_sum, np.concatenate([b0, binf])) @ U.conj().T).toarray()
    rhs = (split.tensor_factor_ops(tb, op_left=fock.dGamma(basis, b0))
           + split.tensor_factor_ops(tb, op_right=fock.dGamma(basis, binf))).toarray()
    assert np.abs(lhs - rhs).max() < 1e-13


def test_binomial_spot_check(setup, grid4):
    """The two-boson mixed column of U carries binom(2,1)^(1/2) = sqrt(2)."""
    basis, basis_sum, tb, U = setup
    w = grid4.weights
    v = np.concatenate([np.eye(4)[1] / math.sqrt(w[1]), np.eye(4)[2] / math.sqrt(w[2])])
    cv = fock.creation_op(basis_sum, v)
    vac = np.zeros(basis_sum.size)
    vac[0] = 1.0
    two = U @ (cv @ (cv @ vac))
    li, ri = oracles.rows_of(basis, [[0, 1, 0, 0], [0, 0, 1, 0]])
    amp = two[tb.lookup([[li, ri]])[0]]
    assert abs(amp - math.sqrt(math.comb(2, 1)) * math.sqrt(2.0)) < 1e-13


def test_breve_gamma_isometry_and_vacuum(setup, grid4, rng):
    basis, basis_sum, tb, _ = setup
    th = rng.uniform(0.1, 1.4, size=4)
    BG = split.breve_gamma(np.diag(np.cos(th)), np.diag(np.sin(th)), tb)
    GG = BG.conj().T @ BG
    assert np.abs(GG - np.eye(basis.size)).max() < 1e-12
    col = BG[:, 0]
    assert abs(col[tb.lookup([[0, 0]])[0]] - 1.0) < 1e-14
    # non-isometric pair: breve* breve = Gamma(j*j)
    u = rng.uniform(0.2, 0.8, size=4)
    j0, jinf = np.diag(u), np.diag(1 - u)
    BG2 = split.breve_gamma(j0, jinf, tb)
    jj = (fock.weighted_adjoint(grid4, grid4, j0) @ j0
          + fock.weighted_adjoint(grid4, grid4, jinf) @ jinf)
    G = fock.Gamma(basis, jj)
    assert np.abs(BG2.conj().T @ BG2 - G).max() < 1e-12


def test_breve_gamma_number_intertwining(setup, grid4, rng):
    basis, basis_sum, tb, _ = setup
    th = rng.uniform(0.1, 1.4, size=4)
    BG = split.breve_gamma(np.diag(np.cos(th)), np.diag(np.sin(th)), tb)
    Npair = (split.tensor_factor_ops(tb, op_left=fock.number_op(basis))
             + split.tensor_factor_ops(tb, op_right=fock.number_op(basis)))
    dev = BG @ fock.number_op(basis).toarray() - Npair @ BG
    assert np.abs(dev).max() < 1e-13


def test_breve_gamma_routes_all_left(setup, grid4, rng):
    basis, basis_sum, tb, _ = setup
    BG = split.breve_gamma(np.eye(4), np.zeros((4, 4)), tb)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    out = BG @ v
    expect = np.zeros(tb.size, dtype=complex)
    rows = np.stack([np.arange(basis.size), np.zeros(basis.size, dtype=int)], axis=1)
    expect[tb.lookup(rows)] = v
    assert np.abs(out - expect).max() < 1e-14


def test_scattering_ident_examples(setup, grid4, rng):
    basis, basis_sum, tb, _ = setup
    I = split.scattering_ident(tb)
    # I(Omega x Omega) = Omega
    col = I[:, tb.lookup([[0, 0]])[0]].toarray().ravel()
    assert col[0] == 1.0 and np.count_nonzero(col) == 1
    # right inverse for a smooth non-diagonal partition
    u = rng.uniform(0.2, 0.8, size=4)
    Q = 0.05 * rng.normal(size=(4, 4))
    j0 = np.diag(u) + Q + Q.T
    BG = split.breve_gamma(j0, np.eye(4) - j0, tb)
    dev = I @ BG - np.eye(basis.size)
    assert np.abs(dev).max() < 1e-12


def test_scattering_ident_product_rule(setup, grid4, rng):
    basis, basis_sum, tb, _ = setup
    I = split.scattering_ident(tb)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    guard = (basis.total_numbers() <= 2).astype(float)
    phi = (rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)) * guard
    rv = fock.creation_op(basis, h)[:, 0].toarray().ravel()
    pi, pj = tb.pairs.T
    vec = phi[pi] * rv[pj]
    rhs = fock.creation_op(basis, h) @ phi
    assert np.abs(I @ vec - rhs).max() < 1e-13


def test_i_norm_reports_finite(setup):
    basis, basis_sum, tb, _ = setup
    I = split.scattering_ident(tb)
    Nl = Nr = tb.basis.total_numbers()
    for k in (1, 2):
        wts = np.array([(1.0 + Nl[i]) ** (-k) if Nr[j] <= k else 0.0
                        for (i, j) in tb.pairs])
        nrm = np.linalg.norm(I.toarray() * wts[None, :], 2)
        assert np.isfinite(nrm)


def test_ugamma_o_identity(setup, grid4, rng):
    basis, basis_sum, tb, _ = setup
    u = rng.uniform(0.2, 0.8, size=4)
    Q = 0.1 * rng.normal(size=(4, 4))
    j0 = np.diag(u) + Q + Q.T
    jinf = np.eye(4) - j0
    om = grid4.omega_mod
    BG = split.breve_gamma(j0, jinf, tb)
    lhs = (BG @ fock.dGamma(basis, om).toarray()
           - (split.tensor_factor_ops(tb, op_left=fock.dGamma(basis, om))
              + split.tensor_factor_ops(tb, op_right=fock.dGamma(basis, om))) @ BG)
    c0 = np.diag(om) @ j0 - j0 @ np.diag(om)
    cinf = np.diag(om) @ jinf - jinf @ np.diag(om)
    rhs = -split.dbreve_gamma2(j0, jinf, c0, cinf, tb, breve_j=BG)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_dbreve_gamma2_zero_pair(setup, grid4):
    basis, basis_sum, tb, _ = setup
    j0, jinf = np.eye(4), np.zeros((4, 4))
    Z = split.dbreve_gamma2(j0, jinf, np.zeros((4, 4)), np.zeros((4, 4)), tb,
                            breve_j=split.breve_gamma(j0, jinf, tb))
    assert np.count_nonzero(Z) == 0


def test_udgamma_cauchy_schwarz(setup, grid4, rng):
    from nelsonlab.fock import weighted_abs

    basis, basis_sum, tb, _ = setup
    th = rng.uniform(0.1, 1.4, size=4)
    j0, jinf = np.diag(np.cos(th)), np.diag(np.sin(th))
    BG = split.breve_gamma(j0, jinf, tb)
    for _ in range(5):
        k0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k0 = (k0 + fock.weighted_adjoint(grid4, grid4, k0)) / 2
        kinf = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        kinf = (kinf + fock.weighted_adjoint(grid4, grid4, kinf)) / 2
        dbg = split.dbreve_gamma2(j0, jinf, k0, kinf, tb, breve_j=BG)
        u = rng.normal(size=tb.size) + 1j * rng.normal(size=tb.size)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        lhs = abs(complex(np.vdot(u, dbg @ v)))
        a0 = weighted_abs(grid4, k0)
        ainf = weighted_abs(grid4, kinf)
        rhs = (math.sqrt(max(0.0, np.vdot(u, split.tensor_factor_ops(tb, op_left=fock.dGamma(basis, a0)) @ u).real))
               * math.sqrt(max(0.0, np.vdot(v, fock.dGamma(basis, a0) @ v).real))
               + math.sqrt(max(0.0, np.vdot(u, split.tensor_factor_ops(tb, op_right=fock.dGamma(basis, ainf)) @ u).real))
               * math.sqrt(max(0.0, np.vdot(v, fock.dGamma(basis, ainf) @ v).real)))
        assert lhs <= rhs + 1e-10


# "square" names the one case left of the square/energy-capped pair the tests
# below ran before the energy cap was removed; it keeps the case's old name
@pytest.mark.parametrize("n_max", [2], ids=["square"])
def test_splitting_maps_equal_U_times_functor(grid4, rng, n_max):
    """breve_gamma and dbreve_gamma2 place the functor's rows by U's
    permutation; that equals the sparse product U Gamma (U dGamma2) exactly."""
    source = fock.build_basis(grid4, n_max)
    tb = split.build_tensor_basis(source)
    basis_sum = fock.build_basis(split.doubled_grid(grid4), n_max)
    assert np.array_equal(tb.sum_basis.modes, basis_sum.modes)
    U = split.tensor_iso_U(tb)
    j0, jinf, b0, binf = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                          for _ in range(4))
    j = split.stack_pair(j0, jinf)
    G = fock.Gamma(source, j, basis_out=basis_sum)
    D = fock.dGamma2(source, j, split.stack_pair(b0, binf), basis_out=basis_sum)
    BG = split.breve_gamma(j0, jinf, tb)
    DBG = split.dbreve_gamma2(j0, jinf, b0, binf, tb, breve_j=BG)
    for got, want in ((BG, U @ G), (DBG, U @ D)):
        assert isinstance(got, np.ndarray) and got.shape == (tb.size, source.size)
        assert np.array_equal(got, want)


def test_breve_gamma_refuses_mismatched_pair(setup):
    """A (5, 4) j0 over a (3, 4) jinf stacks to the (8, 4) shape of a 2M x M
    map on four modes; the pair itself is not M x M and must be refused."""
    _, _, tb, _ = setup
    with pytest.raises(fock.DimensionMismatchError):
        split.breve_gamma(np.ones((5, 4)), np.ones((3, 4)), tb)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n_max", [3], ids=["square"])
def test_stacked_splitting_maps_equal_single_calls(grid4, batch, n_max):
    """Stacks (B, M, M) of the pairs give, bit for bit, the splitting maps of
    B single calls, breve_gamma and dbreve_gamma2 reading the stack's own
    breve_gamma."""
    rng = np.random.default_rng(batch)
    tb = split.build_tensor_basis(fock.build_basis(grid4, n_max))
    j0, jinf, b0, binf = (rng.normal(size=(batch, 4, 4)) + 1j * rng.normal(size=(batch, 4, 4))
                          for _ in range(4))
    BG = split.breve_gamma(j0, jinf, tb)
    DBG = split.dbreve_gamma2(j0, jinf, b0, binf, tb, breve_j=BG)
    assert BG.shape == DBG.shape == (batch, tb.size, tb.basis.size)
    for k in range(batch):
        BG_k = split.breve_gamma(j0[k], jinf[k], tb)
        assert np.array_equal(BG[k], BG_k)
        assert np.array_equal(DBG[k], split.dbreve_gamma2(j0[k], jinf[k], b0[k], binf[k], tb,
                                                          breve_j=BG_k))


def test_stacked_pairs_must_match(setup):
    """Two stacks of pairs must have equal shapes with square last axes."""
    _, _, tb, _ = setup
    for j0, jinf in ((np.ones((2, 4, 4)), np.ones((3, 4, 4))),
                     (np.ones((2, 4, 5)), np.ones((2, 4, 5))), (np.ones(4), np.ones(4))):
        with pytest.raises(fock.DimensionMismatchError):
            split.breve_gamma(j0, jinf, tb)


def test_breve_gamma_at_48_modes_fits_in_2_gib():
    """The pair basis at M=48, n_max=2 has 4753 states; the dense splitting
    map of the isometric pair (j0, jinf), which criterion 1 and the oracle of
    the factorized W_+ splitting use, must build in bounded memory.  It runs
    in a child process whose address space is capped at 2 GiB."""
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from nelsonlab import fock, split
grid = fock.line_grid(48, 1.5, 0.2)
basis = fock.build_basis(grid, 2)
tb = split.build_tensor_basis(basis)
assert tb.size == 4753
theta = np.linspace(0.0, np.pi / 2, grid.n_modes)
BG = split.breve_gamma(np.diag(np.cos(theta)), np.diag(np.sin(theta)), tb)
v = np.random.default_rng(0).normal(size=basis.size)
assert abs(np.linalg.norm(BG @ v) - np.linalg.norm(v)) < 1e-10
"""
    src = str(Path(split.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
