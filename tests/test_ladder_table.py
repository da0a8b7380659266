"""Ladder-table builders against the per-state loop oracles in ``oracles.py``.

Every builder that does no floating-point rounding beyond the loop version's
must agree exactly: equal values, equal sparsity and no stored zeros.  The
sector recursions behind ``Gamma`` and ``dGamma2`` multiply in another order
than the oracle, so they get a 1e-13 relative tolerance, and
``dGamma_expectation``, which sums <psi, dGamma(b) psi> through the one-boson
density matrix, gets 1e-12; ``apply_creation`` and ``apply_annihilation`` sum
over slots or modes instead of sparse rows and get 1e-14.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from nelsonlab import fock, model, split

GRIDS = {
    1: fock.lattice_grid(8, [1], 0.2),
    4: fock.line_grid(4, 1.0, 0.2),
    8: fock.line_grid(8, 1.6, 0.2),
}
# energy caps that cut through boson-number sectors (M = 4, 8) or drop the top
# sectors (M = 1, one state per sector)
CAPS = {1: 1.2, 4: 0.9, 8: 1.3}
BASES = ([(M, n, None) for M in (1, 4, 8) for n in range(4)]
         + [(M, 3, CAPS[M]) for M in (1, 4, 8)])


def basis_id(spec):
    M, n, cap = spec
    return f"M{M}-n{n}" + ("" if cap is None else f"-cap{cap}")


@pytest.fixture(scope="module", params=BASES, ids=basis_id)
def basis(request):
    M, n, cap = request.param
    return fock.build_basis(GRIDS[M], n, cap)


def assert_exact(a, b):
    a = a.tocsr(copy=True)
    b = b.tocsr(copy=True)
    a.sum_duplicates()
    b.sum_duplicates()
    assert a.shape == b.shape
    assert np.all(a.data != 0) and np.all(b.data != 0)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def assert_close(a, b, rel=1e-13):
    """A dense array ``a`` against the oracle's sparse matrix ``b``."""
    b = b.toarray()
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= rel * max(1.0, np.abs(b).max(initial=0.0))


def rand_mat(rng, M, N=None):
    N = M if N is None else N
    return rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))


def test_ladder_table_matches_states(basis):
    assert basis.occ.shape == basis.up.shape == (basis.size, basis.grid.n_modes)
    assert [tuple(r) for r in basis.occ.tolist()] == list(basis.states)
    for c, state in enumerate(basis.states):
        for j in range(basis.grid.n_modes):
            target = state[:j] + (state[j] + 1,) + state[j + 1:]
            assert basis.up[c, j] == basis.index.get(target, -1)


def test_basis_index_tables_match_states(basis):
    """``down``, the slot tables, the sector schedule and the row lookup,
    against the states looked up one at a time in ``basis.index``."""
    M = basis.grid.n_modes
    assert basis.down.shape == basis.up.shape
    assert (basis.slot_mode.shape == basis.slot_root.shape == basis.slot_parent.shape
            == (basis.size, min(basis.n_max, M)))
    for c, state in enumerate(basis.states):
        occupied = [j for j in range(M) if state[j]]
        for j in range(M):
            parent = state[:j] + (state[j] - 1,) + state[j + 1:]
            assert basis.down[c, j] == (basis.index[parent] if state[j] else -1)
        slots = list(zip(basis.slot_mode[c], basis.slot_root[c], basis.slot_parent[c]))
        assert [j for j, _, _ in slots[:len(occupied)]] == occupied
        for j, root, parent in slots[:len(occupied)]:
            assert root == math.sqrt(state[j]) and parent == basis.down[c, j]
        assert all(root == 0 and parent == -1 for _, root, parent in slots[len(occupied):])
    assert len(basis.sectors) == basis.n_max
    for n, (cols, first, parents, scale) in enumerate(basis.sectors, start=1):
        assert cols.tolist() == [c for c, s in enumerate(basis.states) if sum(s) == n]
        for c, j, p, inv in zip(cols, first, parents, scale):
            state = basis.states[c]
            assert j == next(k for k in range(M) if state[k]) and p == basis.down[c, j]
            assert inv == 1.0 / math.sqrt(state[j])
    assert np.array_equal(basis.lookup(basis.occ), np.arange(basis.size))
    assert np.all(basis.lookup(basis.occ + basis.n_max + 1) == -1)


def test_basis_index_tables_are_read_only(basis):
    """Every operator built on a basis shares its tables, so none may be written."""
    tb = split.build_tensor_basis(basis, basis)
    tables = [basis.occ, basis.up, basis.down, basis.slot_mode, basis.slot_root,
              basis.slot_parent, *(t for sector in basis.sectors for t in sector)]
    tables += [lookup.order for lookup in (basis.lookup, tb.lookup)]
    tables += [lookup.sorted_keys for lookup in (basis.lookup, tb.lookup)]
    for table in tables:
        assert not table.flags.writeable


def test_creation_op_exact(basis):
    rng = np.random.default_rng(1)
    M = basis.grid.n_modes
    h = rng.normal(size=M) + 1j * rng.normal(size=M)
    h[0] = 0.0
    assert_exact(fock.creation_op(basis, h).mat, oracles.creation_op(basis, h).mat)


def test_dGamma_exact(basis):
    rng = np.random.default_rng(2)
    grid = basis.grid
    M = grid.n_modes
    b = rand_mat(rng, M)
    herm = (b + fock.weighted_adjoint(grid, grid, b)) / 2.0
    for op in (b, herm, grid.omega_mod, np.zeros(M)):
        new, old = fock.dGamma(basis, op), oracles.dGamma(basis, op)
        assert_exact(new.mat, old.mat)
        assert new.hermitian == old.hermitian


@pytest.mark.parametrize("M", [1, 4, 8])
def test_dGamma_capped_is_compressed_uncapped(M):
    full = fock.build_basis(GRIDS[M], 3)
    capped = fock.build_basis(GRIDS[M], 3, CAPS[M])
    assert 0 < capped.size < full.size
    b = rand_mat(np.random.default_rng(3), M)
    keep = [full.index[s] for s in capped.states]
    compressed = fock.dGamma(full, b).mat[keep][:, keep]
    assert_exact(fock.dGamma(capped, b).mat, compressed)


def test_gamma_and_dgamma2_square(basis):
    rng = np.random.default_rng(4)
    M = basis.grid.n_modes
    a, b = rand_mat(rng, M), rand_mat(rng, M)
    assert_close(fock.Gamma(basis, a), oracles.Gamma(basis, a).mat)
    assert_close(fock.dGamma2(basis, a, b), oracles.dGamma2(basis, a, b).mat)


@pytest.mark.parametrize("spec", [(1, 3, None), (4, 2, None), (4, 3, None), (4, 3, 0.9)],
                         ids=basis_id)
def test_gamma_and_dgamma2_onto_doubled_grid(spec):
    M, n, cap = spec
    source = fock.build_basis(GRIDS[M], n, cap)
    target = fock.build_basis(split.doubled_grid(GRIDS[M]), n, cap)
    rng = np.random.default_rng(5)
    a, b = rand_mat(rng, 2 * M, M), rand_mat(rng, 2 * M, M)
    assert_close(fock.Gamma(source, a, basis_out=target),
                 oracles.Gamma(source, a, basis_out=target).mat)
    assert_close(fock.dGamma2(source, a, b, basis_out=target),
                 oracles.dGamma2(source, a, b, basis_out=target).mat)


def test_gamma_projects_onto_smaller_target():
    source = fock.build_basis(GRIDS[4], 3)
    target = fock.build_basis(GRIDS[4], 2, CAPS[4])
    a = rand_mat(np.random.default_rng(6), 4)
    assert_close(fock.Gamma(source, a, basis_out=target),
                 oracles.Gamma(source, a, basis_out=target).mat)


# (1, 11, 22): fused occupations up to 22, past the int64 range of 22!
TENSOR_SPECS = [(1, 3, 3, None), (1, 11, 22, None), (4, 2, 2, None), (4, 3, 3, None),
                (4, 3, 2, None), (4, 3, 3, 0.9), (8, 2, 2, None)]


def tensor_id(spec):
    M, n, cap, e_cap = spec
    return f"M{M}-n{n}-joint{cap}" + ("" if e_cap is None else f"-cap{e_cap}")


@pytest.fixture(scope="module", params=TENSOR_SPECS, ids=tensor_id)
def tensor(request):
    M, n, cap, e_cap = request.param
    left = fock.build_basis(GRIDS[M], n, e_cap)
    right = fock.build_basis(GRIDS[M], n, e_cap)
    return left, right, split.build_tensor_basis(left, right, joint_cap=cap), e_cap


def test_tensor_basis_order(tensor):
    left, right, tb, _ = tensor
    pairs = oracles.build_tensor_basis(left, right, tb.joint_cap)
    assert [tuple(p) for p in tb.pairs.tolist()] == list(pairs)
    assert tb.index == {p: n for n, p in enumerate(pairs)}


def test_tensor_iso_U_exact(tensor):
    left, _, tb, e_cap = tensor
    n_max = min(tb.joint_cap, left.n_max)
    basis_sum = fock.build_basis(split.doubled_grid(left.grid), n_max, e_cap)
    assert_exact(split.tensor_iso_U(basis_sum, tb).mat,
                 oracles.tensor_iso_U(basis_sum, tb).mat)


def test_tensor_iso_U_rejects_small_joint_cap():
    grid = GRIDS[4]
    left = fock.build_basis(grid, 3)
    tb = split.build_tensor_basis(left, left, joint_cap=2)
    basis_sum = fock.build_basis(split.doubled_grid(grid), 3)
    for builder in (split.tensor_iso_U, oracles.tensor_iso_U):
        with pytest.raises(split.IncompatibleCapsError):
            builder(basis_sum, tb)


def test_scattering_ident_exact(tensor):
    left, _, tb, _ = tensor
    for n_max in (tb.joint_cap, 1):
        target = fock.build_basis(left.grid, n_max, left.e_cap)
        new, old = split.scattering_ident(tb, target), oracles.scattering_ident(tb, target)
        assert_exact(new.mat, old.mat)
        assert new.info == old.info


def test_tensor_factor_ops_exact(tensor):
    left, right, tb, _ = tensor
    rng = np.random.default_rng(7)
    M = left.grid.n_modes
    opl = fock.creation_op(left, rng.normal(size=M))
    opr = fock.dGamma(right, rand_mat(rng, M))
    for l, r in ((opl, opr), (opl, None), (None, opr), (None, None)):
        new = split.tensor_factor_ops(tb, op_left=l, op_right=r)
        old = oracles.tensor_factor_ops(tb, op_left=l, op_right=r)
        assert_exact(new.mat, old.mat)
        assert new.hermitian == old.hermitian


@pytest.mark.parametrize("L, modes, n_max, e_cap", [
    (32, [-16, -12, -8, -5, 5, 8, 12, 16], 1, None),
    (12, [-3, -1, 2, 4], 2, None),
    (12, [-3, -1, 2, 4], 2, 2.0),
])
def test_full_H_exact(L, modes, n_max, e_cap):
    grid = fock.lattice_grid(L, modes, 0.2)
    ms = model.ModelSpec(model.DispersionLaw("nonrel", 1.0), model.FormFactor(1.0, 1.0, 0.2),
                         grid, 0.05)
    fb = model.full_basis(ms, L, n_max, e_cap)
    om_e = ms.disp.omega(fb.momenta[:, None])
    om_b = np.array(fb.boson.states, dtype=float) @ ms.boson_omega()
    diag = (om_e[:, None] + om_b[None, :]).ravel().astype(complex)
    c = oracles.full_H_coupling(ms, fb)
    assert c.nnz > 0
    H = model.build_full_H(ms, fb).mat
    assert H.dtype == np.float64
    assert_exact(H, (sp.diags(diag) + c + c.conj().T).tocsr())


EXPECTATION_BASES = {
    **{f"line-M{M}-n{n}": (fock.line_grid(M, 1.0, 0.2), n, None)
       for M in (2, 4, 6) for n in range(4)},
    **{f"one-mode-n{n}": (GRIDS[1], n, None) for n in range(4)},
    "line-M4-n3-cap0.9": (GRIDS[4], 3, CAPS[4]),
    "lattice-M4-n2": (fock.lattice_grid(12, [-3, -1, 2, 4], 0.2), 2, None),
    "radial-M12-n2": (fock.radial_grid(2, 1.0, 0.2), 2, None),
}


@pytest.fixture(scope="module", params=list(EXPECTATION_BASES), ids=str)
def expectation_basis(request):
    return fock.build_basis(*EXPECTATION_BASES[request.param])


def mode_matrices(rng, grid):
    """Complex non-Hermitian, weighted-Hermitian and 1-D diagonal mode operators."""
    b = rand_mat(rng, grid.n_modes)
    diag = rng.normal(size=grid.n_modes) + 1j * rng.normal(size=grid.n_modes)
    return b, (b + fock.weighted_adjoint(grid, grid, b)) / 2.0, diag


def oracle_expectation(basis, b, psi):
    return complex(np.vdot(psi, oracles.dGamma(basis, b).mat @ psi))


def assert_rel(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want)


def test_dGamma_expectation_matches_oracle(expectation_basis):
    basis = expectation_basis
    rng = np.random.default_rng(8)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    for b in mode_matrices(rng, basis.grid):
        assert_rel(fock.dGamma_expectation(basis, b, psi), oracle_expectation(basis, b, psi))


def test_dGamma_expectation_weighted_rows(expectation_basis):
    basis = expectation_basis
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(5, basis.size)) + 1j * rng.normal(size=(5, basis.size))
    wts = rng.normal(size=5)
    for b in mode_matrices(rng, basis.grid):
        per_row = [oracle_expectation(basis, b, row) for row in rows]
        assert_rel(fock.dGamma_expectation(basis, b, rows, wts), np.dot(wts, per_row))
        assert_rel(fock.dGamma_expectation(basis, b, rows), sum(per_row))


def test_dGamma_expectation_rejects_wrong_shapes():
    basis = fock.build_basis(GRIDS[4], 2)
    psi = np.ones(basis.size)
    bad = [(np.eye(5), psi, None), (np.ones(3), psi, None), (np.eye(4), psi[1:], None),
           (np.eye(4), np.ones((2, basis.size)), np.ones(3)),
           (np.eye(4), psi, np.ones(1)), (np.eye(4), np.ones((1, 1, basis.size)), None)]
    for b, state, wts in bad:
        with pytest.raises(fock.DimensionMismatchError):
            fock.dGamma_expectation(basis, b, state, wts)


def test_apply_ladders_match_oracle(expectation_basis):
    """a*(h) psi and a(h) psi by gathers, for one state and for rows, against
    the loop oracle's a*(h) and its adjoint."""
    basis = expectation_basis
    rng = np.random.default_rng(10)
    M = basis.grid.n_modes
    h = rng.normal(size=M) + 1j * rng.normal(size=M)
    c = oracles.creation_op(basis, h).mat
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    rows = rng.normal(size=(3, basis.size)) + 1j * rng.normal(size=(3, basis.size))
    for state in (psi, rows):
        for got, op in ((fock.apply_creation(basis, h, state), c),
                        (fock.apply_annihilation(basis, h, state), c.conj().T)):
            want = (op @ state.T).T
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(want).max(initial=0.0))


def test_apply_ladders_reject_wrong_shapes():
    basis = fock.build_basis(GRIDS[4], 2)
    for apply in (fock.apply_creation, fock.apply_annihilation):
        for h, state in ((np.ones(3), np.ones(basis.size)), (np.ones(4), np.ones(basis.size - 1)),
                         (np.ones(4), np.ones((1, 1, basis.size)))):
            with pytest.raises(fock.DimensionMismatchError):
                apply(basis, h, state)
