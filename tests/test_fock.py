import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from nelsonlab import fock, split


def _grid_from_points(points, sigma=0.2):
    pts = np.asarray(points, dtype=float)[:, None]
    kn = np.abs(pts[:, 0])
    return fock.ModeGrid(dim=1, points=pts, weights=np.ones(len(pts)),
                         omega_free=kn, omega_mod=fock.omega_modified(kn, sigma),
                         sigma=sigma, meta={"kind": "line", "spacing": 1.0})


def test_basis_counts_stars_and_bars():
    # three modes, two bosons: binomial(3 + 2, 2) = 10 states
    g3 = _grid_from_points([0.3, 0.7, 1.1])
    assert fock.build_basis(g3, 2).size == 10
    grid = fock.line_grid(6, 1.0, 0.2)
    assert fock.build_basis(grid, 2).size == math.comb(6 + 2, 2)


def test_basis_nmax_zero_is_vacuum(grid4):
    basis = fock.build_basis(grid4, 0)
    assert basis.size == 1
    assert basis.occupations().tolist() == [[0, 0, 0, 0]]
    assert basis.modes.shape == (1, 0)


def test_basis_ordering_graded_then_lex(basis4):
    totals = basis4.total_numbers()
    assert np.all(np.diff(totals) >= 0)
    states = [tuple(s) for s in basis4.occupations().tolist()]
    for n in range(4):
        sector = [s for s in states if sum(s) == n]
        assert sector == sorted(sector)
    assert len(set(states)) == len(states)
    assert np.array_equal(basis4.index(basis4.modes), np.arange(basis4.size))


def test_basis_determinism_bit_exact(grid4):
    a = fock.build_basis(grid4, 3)
    b = fock.build_basis(fock.line_grid(4, 1.0, 0.2), 3)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.energies(), b.energies())


def test_grid_rejects_zero_mode():
    with pytest.raises(fock.GridError):
        fock.line_grid(5, 1.0, 0.2)  # odd midpoint grid hits k = 0
    with pytest.raises(fock.GridError):
        fock.lattice_grid(8, [0, 1], 0.2)


def test_grid_rejects_no_modes():
    """An empty mode list is refused at the grid, not later inside the basis
    enumeration."""
    with pytest.raises(fock.GridError, match="no modes"):
        fock.lattice_grid(8, [], 0.2)


def test_single_mode_ladder_matrix():
    grid = fock.ModeGrid(dim=1, points=np.array([[0.5]]), weights=np.array([1.0]),
                         omega_free=np.array([0.5]), omega_mod=np.array([0.5]),
                         sigma=0.2, meta={"kind": "line", "spacing": 1.0})
    basis = fock.build_basis(grid, 2)
    a_dag = fock.creation_op(basis, np.array([1.0])).toarray()
    expect = np.zeros((3, 3))
    expect[1, 0] = 1.0
    expect[2, 1] = math.sqrt(2.0)
    assert np.abs(a_dag - expect).max() == 0.0


def test_creation_on_vacuum_gives_weighted_profile(basis4, grid4, rng):
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    out = fock.creation_op(basis4, h) @ fock.FockVector.vacuum(basis4).amps
    for j, idx in enumerate(oracles.rows_of(basis4, np.eye(4, dtype=int))):
        assert out[idx] == pytest.approx(math.sqrt(grid4.weights[j]) * h[j], abs=1e-15)


def test_annihilation_kills_vacuum(basis4, rng):
    h = rng.normal(size=4)
    out = fock.creation_op(basis4, h).conj().T @ fock.FockVector.vacuum(basis4).amps
    assert np.abs(out).max() == 0.0


def test_ccr_on_guarded_sector(basis4, grid4, rng):
    guard = basis4.total_numbers() <= basis4.n_max - 1
    ident = sp.identity(basis4.size, format="csr")
    for _ in range(5):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        a_g, c_h = fock.creation_op(basis4, g).conj().T, fock.creation_op(basis4, h)
        comm = a_g @ c_h - c_h @ a_g
        dev = (comm - fock.weighted_inner(grid4, g, h) * ident).toarray()[:, guard]
        assert np.abs(dev).max() < 1e-12


def test_same_type_commutators_vanish_everywhere(basis4, rng):
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    c1, c2 = fock.creation_op(basis4, g), fock.creation_op(basis4, h)
    assert np.abs(((c1 @ c2) - (c2 @ c1)).toarray()).max() < 1e-13
    a1, a2 = c1.conj().T, c2.conj().T
    assert np.abs(((a1 @ a2) - (a2 @ a1)).toarray()).max() < 1e-13


def test_field_op_hermitian_and_vacuum_moments(grid4, rng):
    basis = fock.build_basis(grid4, 2)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = fock.field_op(basis, h)
    assert (phi - phi.conj().T).count_nonzero() == 0
    vac = fock.FockVector.vacuum(basis).amps
    first = np.vdot(vac, phi @ vac)
    assert abs(first) == 0.0
    # <Omega, phi(h)^2 Omega> = ||h||_w^2 / 2 (dense evaluation oracle)
    second = np.vdot(vac, (phi @ (phi @ vac)))
    expect = fock.weighted_inner(grid4, h, h).real / 2.0
    assert complex(second).real == pytest.approx(expect, rel=1e-13)


def test_field_relative_bound_matrix_inequality(grid4, basis4, rng):
    """+-phi(h) <= alpha dGamma(|k|) + (1/alpha) sum w |h|^2/|k| as matrices."""
    kn = grid4.omega_free
    dg = fock.dGamma(basis4, kn).toarray()
    for alpha in (0.5, 1.0, 2.0):
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi = fock.field_op(basis4, h).toarray()
        c = float(np.sum(grid4.weights * np.abs(h) ** 2 / kn))
        bound = alpha * dg + (c / alpha) * np.eye(basis4.size)
        for sign in (1, -1):
            evals = np.linalg.eigvalsh(bound - sign * phi)
            assert evals.min() >= -1e-10


def test_annihilation_estim_bound(grid4, basis4, rng):
    """||a(h) psi|| <= (sum w |h|^2/|k|)^(1/2) ||dGamma(|k|)^(1/2) psi||."""
    kn = grid4.omega_free
    dg = fock.dGamma(basis4, kn).toarray()
    sq = np.diag(np.sqrt(np.diag(dg).real))
    for _ in range(5):
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = rng.normal(size=basis4.size) + 1j * rng.normal(size=basis4.size)
        lhs = np.linalg.norm(fock.creation_op(basis4, h).conj().T @ psi)
        c = math.sqrt(float(np.sum(grid4.weights * np.abs(h) ** 2 / kn)))
        assert lhs <= c * np.linalg.norm(sq @ psi) + 1e-12


def test_creation_number_bound(grid4, basis4, rng):
    """||a*(h)(N+1)^(-1/2)|| <= ||h||_w (dense norm on a small basis)."""
    n = basis4.total_numbers()
    scale = np.diag(1.0 / np.sqrt(n + 1.0))
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    op = fock.creation_op(basis4, h).toarray() @ scale
    assert np.linalg.norm(op, 2) <= math.sqrt(fock.weighted_inner(grid4, h, h).real) + 1e-12


def test_dgamma_identity_is_number(basis4):
    N = fock.dGamma(basis4, np.ones(4))
    assert np.abs((N - fock.number_op(basis4)).toarray()).max() == 0.0


def test_dgamma_hermitian_flag_consistency(grid4, basis4, rng):
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    bw = (b + fock.weighted_adjoint(grid4, grid4, b)) / 2
    op = fock.dGamma(basis4, bw)
    assert (op - op.conj().T).count_nonzero() == 0
    op2 = fock.dGamma(basis4, b)
    assert (op2 - op2.conj().T).count_nonzero() > 0


def test_dgamma_number_bound(grid4, basis4, rng):
    """||dGamma(b)(N+1)^(-1)|| <= ||b|| for random b (dense check)."""
    n = basis4.total_numbers()
    scale = np.diag(1.0 / (n + 1.0))
    for _ in range(3):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = np.linalg.norm(fock.dGamma(basis4, b).toarray() @ scale, 2)
        assert lhs <= fock.weighted_opnorm(grid4, grid4, b) + 1e-10


WEIGHTED_GRIDS = [fock.line_grid(4, 1.0, 0.2), fock.lattice_grid(16, [1, 2, -3], 0.2),
                  fock.radial_grid(2, 1.0, 0.2)]


@pytest.mark.parametrize("grid", WEIGHTED_GRIDS, ids=["line", "lattice", "radial"])
def test_weighted_helpers_take_stacks(grid):
    """The weighted inner product, adjoint, operator norm and |X| of one
    mode vector or matrix equal, bit for bit, the 2-d oracles; a stack
    (leading batch axes) gives each slice's result alone."""
    M = grid.n_modes
    rng = np.random.default_rng(31)
    g, h = rng.normal(size=(2, 3, M)) + 1j * rng.normal(size=(2, 3, M))
    b = rng.normal(size=(3, M, M)) + 1j * rng.normal(size=(3, M, M))
    herm = (b + fock.weighted_adjoint(grid, grid, b)) / 2.0
    inner, adj = fock.weighted_inner(grid, g, h), fock.weighted_adjoint(grid, grid, b)
    norms, absolute = fock.weighted_opnorm(grid, grid, b), fock.weighted_abs(grid, herm)
    for k in range(3):
        one = fock.weighted_inner(grid, g[k], h[k])
        assert type(one) is complex and one == oracles.weighted_inner(grid, g[k], h[k])
        assert inner[k] == one
        assert np.array_equal(fock.weighted_adjoint(grid, grid, b[k]),
                              oracles.weighted_adjoint(grid, b[k]))
        assert np.array_equal(adj[k], oracles.weighted_adjoint(grid, b[k]))
        norm = fock.weighted_opnorm(grid, grid, b[k])
        assert type(norm) is float and norms[k] == norm
        assert norm == float(np.linalg.norm(fock.to_ortho(grid, grid, b[k]), 2))
        assert np.array_equal(fock.weighted_abs(grid, herm[k]),
                              oracles.weighted_fn(grid, herm[k], np.abs))
        assert np.array_equal(absolute[k], fock.weighted_abs(grid, herm[k]))


def test_position_calculus_unmoved_by_stacks():
    """``dynamics.YCalc`` is a ``WeightedSpectrum`` of the real position
    matrix; its spectrum and f(y) equal the 2-d oracle bit for bit."""
    from nelsonlab import dynamics, mourre
    for grid in (fock.line_grid(12, 1.5, 0.2), fock.radial_grid(2, 1.0, 0.2)):
        assert np.array_equal(dynamics.YCalc(grid).fn(np.cos),
                              oracles.weighted_fn(grid, mourre.build_position_op(grid), np.cos))


@pytest.mark.parametrize("n_max", range(5))
def test_rank_binomial_table_exact(n_max):
    """``_rank``'s table C(a, b), a < M + n_max and b <= n_max + 1, equals
    ``math.comb`` (zero for b > a) up to M = 200."""
    for M in (1, 2, 7, 200):
        table = fock._binomials(M + n_max, n_max + 1)
        assert table.dtype == np.int64
        assert table.tolist() == [[math.comb(a, b) for b in range(n_max + 2)]
                                  for a in range(M + n_max)]


def test_dgamma_positivity(grid4, basis4):
    evals = np.linalg.eigvalsh(fock.dGamma(basis4, grid4.omega_free).toarray())
    assert evals.min() >= -1e-14


def test_gamma_on_vacuum(basis4, rng):
    b = rng.normal(size=(4, 4))
    col = fock.Gamma(basis4, b)[:, 0]
    expect = np.zeros(basis4.size)
    expect[0] = 1.0
    assert np.abs(col - expect).max() == 0.0


def test_gamma_indicator_is_soft_projector():
    grid = fock.line_grid(8, 1.2, 0.3)  # two soft modes at |k| = 0.15
    basis = fock.build_basis(grid, 2)
    chi = (grid.omega_free > 0.3).astype(float)
    G = fock.Gamma(basis, chi)
    keep = fock.interacting_mask(basis)
    assert np.abs(G - np.diag(keep)).max() < 1e-13
    assert np.count_nonzero(keep) < basis.size


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("target", ["square", "doubled-grid"])
def test_stacked_gamma_maps_equal_single_calls(grid4, batch, target):
    """A stack (B, M_out, M_in) of mode maps gives, bit for bit, the maps of
    B single calls: Gamma, and dGamma2 with and without gamma_a, on the
    basis and for the rectangular map onto the doubled grid; a single map
    with a stack of b and its own Gamma read as gamma_a broadcasts over the
    stack."""
    rng = np.random.default_rng(batch)
    source = fock.build_basis(grid4, 3)
    out = (fock.build_basis(split.doubled_grid(grid4), 3) if target == "doubled-grid"
           else None)
    shape = (batch, (out or source).grid.n_modes, grid4.n_modes)
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    G = fock.Gamma(source, a, basis_out=out)
    D = fock.dGamma2(source, a, b, basis_out=out)
    D_read = fock.dGamma2(source, a, b, basis_out=out, gamma_a=G)
    D_shared = fock.dGamma2(source, a[0], b, basis_out=out,
                            gamma_a=fock.Gamma(source, a[0], basis_out=out))
    assert G.shape == D.shape == (batch, (out or source).size, source.size)
    for k in range(batch):
        G_k = fock.Gamma(source, a[k], basis_out=out)
        assert np.array_equal(G[k], G_k)
        assert np.array_equal(D[k], fock.dGamma2(source, a[k], b[k], basis_out=out))
        assert np.array_equal(D_read[k], fock.dGamma2(source, a[k], b[k], basis_out=out,
                                                      gamma_a=G_k))
        assert np.array_equal(D_shared[k], fock.dGamma2(source, a[0], b[k], basis_out=out))


def test_stacked_gamma_maps_check_shapes(basis4, rng):
    """The last two axes of a stack must match the grids, and a 1-d map is
    still a diagonal."""
    with pytest.raises(fock.DimensionMismatchError):
        fock.Gamma(basis4, np.ones((3, 4, 5)))
    with pytest.raises(fock.DimensionMismatchError):
        fock.dGamma2(basis4, np.ones((2, 4, 4)), np.ones((2, 3, 4)))
    with pytest.raises(fock.DimensionMismatchError):
        fock.dGamma2(basis4, np.eye(4), np.ones((2, 4, 4)), gamma_a=np.ones((2, 5, 5)))
    d = rng.normal(size=4)
    assert np.array_equal(fock.Gamma(basis4, d), fock.Gamma(basis4, np.diag(d)))
    assert np.array_equal(fock.dGamma2(basis4, d, 2 * d),
                          fock.dGamma2(basis4, np.diag(d), np.diag(2 * d)))


def test_omega_modified_hypothesis_bounds():
    sigma = 0.2
    s = np.linspace(1e-9, 3 * sigma, 4001)
    w = fock.omega_modified(s, sigma)
    assert np.all(w >= s - 1e-14)
    assert np.all(w >= sigma / 2 - 1e-10)
    assert np.abs(w[s >= sigma] - s[s >= sigma]).max() == 0.0
    slopes = np.diff(w) / np.diff(s)
    assert slopes.min() > 0.0
    assert slopes.max() <= 1.0 + 1e-12


def test_omega_modified_subadditive_on_grid():
    sigma = 0.2
    ks = np.linspace(-0.8, 0.8, 33)
    om = lambda s: fock.omega_modified(np.abs(s), sigma)
    worst = max(float(om(a + b) - om(a) - om(b)) for a in ks for b in ks)
    assert worst <= 1e-12


def test_dimension_mismatch_errors(basis4):
    with pytest.raises(fock.DimensionMismatchError):
        fock.creation_op(basis4, np.ones(3))
    with pytest.raises(fock.DimensionMismatchError):
        fock.dGamma(basis4, np.ones((3, 3)))


def test_radial_grid_structure():
    g = fock.radial_grid(4, 1.2, 0.2)
    assert g.dim == 3
    assert g.n_modes == 24
    assert np.all(g.weights > 0)
    basis = fock.build_basis(g, 1)
    assert basis.size == 25
