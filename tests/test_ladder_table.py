"""Ladder-table builders against the per-state loop oracles in ``oracles.py``.

The basis tables themselves (the occupations of ``modes``, ``edges``,
``up`` and the filled slots) must equal, element for element, the tables
read off the oracle's own enumeration, ``index`` must rank each of the
oracle's states at its position, and the occupations, energies and tensor
pairs must equal those it enumerates.  Every builder that does no
floating-point rounding beyond the loop version's must agree exactly: equal
values, equal sparsity and no stored zeros.  The
sector recursions behind ``Gamma`` and ``dGamma2`` multiply in another order
than the oracle, so they get a 1e-13 relative tolerance; against the
full-row recursion, whose nonzero terms they keep in order, they are equal
bit for bit.  ``dGamma_expectation``, which sums <psi, dGamma(b) psi>
through the one-boson density matrix, gets 1e-12.
"""

import math
import tracemalloc

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
BASES = [(M, n) for M in (1, 4, 8) for n in range(4)]


def basis_id(spec):
    M, n = spec
    return f"M{M}-n{n}"


@pytest.fixture(scope="module", params=BASES, ids=basis_id)
def basis(request):
    M, n = request.param
    return fock.build_basis(GRIDS[M], n)


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


def oracle_tables(basis):
    """The occupations, ``edges``, ``up`` and the slot tables of ``basis``,
    read off the oracle's enumeration one state at a time.  ``up`` has a row
    for each state below the top sector, and each of its entries is in the
    basis.  A state's slots are its occupied modes, ascending; the padding
    slots after them hold root 0 and parent -1 and mode -1, which no filled
    slot has."""
    states, index = oracles.states_of(basis)
    M, n_slots = basis.grid.n_modes, min(basis.n_max, basis.grid.n_modes)
    edges = [0]
    for n in range(basis.n_max + 1):
        edges.append(edges[-1] + sum(1 for s in states if sum(s) == n))
    up = [[index[s[:j] + (s[j] + 1,) + s[j + 1:]] for j in range(M)]
          for s in states if sum(s) < basis.n_max]
    slot_mode, slot_root, slot_parent = [], [], []
    for s in states:
        occupied = [j for j in range(M) if s[j]]
        pad = [-1] * (n_slots - len(occupied))
        slot_mode.append(occupied + pad)
        slot_root.append([math.sqrt(s[j]) for j in occupied] + [0.0] * len(pad))
        slot_parent.append([index[s[:j] + (s[j] - 1,) + s[j + 1:]] for j in occupied] + pad)
    shape = (len(states), n_slots)
    return {"occ": np.array(states, dtype=np.int64).reshape(len(states), M),
            "edges": np.array(edges, dtype=np.int64),
            "up": np.array(up, dtype=np.int64).reshape(len(up), M),
            "slot_mode": np.array(slot_mode, dtype=np.int64).reshape(shape),
            "slot_root": np.array(slot_root, dtype=float).reshape(shape),
            "slot_parent": np.array(slot_parent, dtype=np.int64).reshape(shape)}


def assert_tables_match_oracle(basis):
    want = oracle_tables(basis)
    got = {"occ": basis.occupations(), "edges": basis.edges, "up": basis.up,
           "slot_mode": np.where(basis.slot_root > 0, basis.slot_mode, -1),
           "slot_root": basis.slot_root, "slot_parent": basis.slot_parent}
    for name, table in got.items():
        assert table.shape == want[name].shape and np.array_equal(table, want[name]), name
    M = basis.grid.n_modes
    assert [basis.edges[n + 1] - basis.edges[n] for n in range(basis.n_max + 1)] == \
        [math.comb(M + n - 1, n) for n in range(basis.n_max + 1)]


def assert_rank_matches_oracle(basis):
    """``index`` ranks every tuple of the basis at its own row, and each of
    the oracle's states, written as its ascending mode tuple padded with M,
    at its position in the oracle's enumeration."""
    M = basis.grid.n_modes
    tuples = [sorted(np.repeat(np.arange(M), s).tolist()) for s in oracles.states_of(basis)[0]]
    tuples = np.array([t + [M] * (basis.n_max - len(t)) for t in tuples], dtype=np.int64)
    assert np.array_equal(basis.index(basis.modes), np.arange(basis.size))
    assert np.array_equal(basis.index(tuples), np.arange(basis.size))
    assert np.array_equal(basis.modes, tuples)


def assert_enumeration_matches_oracle(basis):
    """The occupations, boson numbers and energies of the basis, and the
    pairs of its tensor basis, equal to the oracle's enumeration."""
    states, _ = oracles.states_of(basis)
    occ = oracles.occupation_table(basis)
    assert np.array_equal(basis.occupations(), occ)
    assert np.array_equal(basis.total_numbers(), [sum(s) for s in states])
    # each state's omega over its tuple, one boson at a time in ascending modes
    energies = []
    for s in states:
        e = 0.0
        for j in np.repeat(np.arange(basis.grid.n_modes), s):
            e += basis.grid.omega_mod[j]
        energies.append(e)
    assert np.array_equal(basis.energies(), np.array(energies).reshape(basis.size))
    pairs = np.array(oracles.build_tensor_basis(basis), dtype=np.int64).reshape(-1, 2)
    assert np.array_equal(split.build_tensor_basis(basis).pairs, pairs)


def test_ladder_table_matches_states(basis):
    assert_enumeration_matches_oracle(basis)


def test_basis_index_tables_match_states(basis):
    """Every table and the rank, against the oracle's states looked up one
    at a time."""
    assert_tables_match_oracle(basis)
    assert_rank_matches_oracle(basis)


# every kind of grid the package builds
ORACLE_GRIDS = {
    "line": fock.line_grid(6, 1.0, 0.2),
    "lattice": fock.lattice_grid(12, [-3, -1, 2, 4], 0.2),
    "radial": fock.radial_grid(2, 1.0, 0.2),
    "doubled": split.doubled_grid(fock.line_grid(4, 1.0, 0.2)),
}


ORACLE_CASES = [(kind, n) for kind in ORACLE_GRIDS for n in range(4)]


# the ids keep the "nocap" prefix the cases had while build_basis also took an
# energy cap, so that each case runs under its old name
@pytest.mark.parametrize("kind, n_max", ORACLE_CASES,
                         ids=[f"nocap-{n}-{kind}" for kind, n in ORACLE_CASES])
def test_basis_tables_equal_oracle_enumeration(kind, n_max):
    basis = fock.build_basis(ORACLE_GRIDS[kind], n_max)
    assert_tables_match_oracle(basis)
    assert_rank_matches_oracle(basis)
    assert_enumeration_matches_oracle(basis)


def test_build_basis_lookups_do_not_grow_with_modes(monkeypatch):
    """``build_basis`` ranks one batch of tuples per sector and one per
    tuple position (the slot parents), at most 2 n_max, whatever the mode
    count."""
    calls = []
    original = fock._rank

    def spy(tuples, M, edges):
        calls.append(len(tuples))
        return original(tuples, M, edges)

    monkeypatch.setattr(fock, "_rank", spy)
    for M in (4, 16, 48):
        for n_max in range(4):
            calls.clear()
            fock.build_basis(fock.line_grid(M, 1.5, 0.2), n_max)
            assert len(calls) <= 2 * n_max


def test_basis_index_tables_are_read_only(basis):
    """Every operator built on a basis shares its tables, so none may be written."""
    tb = split.build_tensor_basis(basis)
    tables = [basis.modes, basis.edges, basis.up, basis.slot_mode, basis.slot_root,
              basis.slot_parent, tb.perm]
    for table in tables:
        assert not table.flags.writeable


def test_creation_op_exact(basis):
    rng = np.random.default_rng(1)
    M = basis.grid.n_modes
    h = rng.normal(size=M) + 1j * rng.normal(size=M)
    h[0] = 0.0
    assert_exact(fock.creation_op(basis, h), oracles.creation_op(basis, h))


def test_dGamma_exact(basis):
    rng = np.random.default_rng(2)
    grid = basis.grid
    M = grid.n_modes
    b = rand_mat(rng, M)
    herm = (b + fock.weighted_adjoint(grid, grid, b)) / 2.0
    for op in (b, herm, grid.omega_mod, np.zeros(M)):
        new, old = fock.dGamma(basis, op), oracles.dGamma(basis, op)
        assert_exact(new, old)


def test_gamma_and_dgamma2_square(basis):
    rng = np.random.default_rng(4)
    M = basis.grid.n_modes
    a, b = rand_mat(rng, M), rand_mat(rng, M)
    assert_close(fock.Gamma(basis, a), oracles.Gamma(basis, a))
    assert_close(fock.dGamma2(basis, a, b), oracles.dGamma2(basis, a, b))


@pytest.mark.parametrize("spec", [(1, 3), (4, 2), (4, 3)], ids=basis_id)
def test_gamma_and_dgamma2_onto_doubled_grid(spec):
    M, n = spec
    source = fock.build_basis(GRIDS[M], n)
    target = fock.build_basis(split.doubled_grid(GRIDS[M]), n)
    rng = np.random.default_rng(5)
    a, b = rand_mat(rng, 2 * M, M), rand_mat(rng, 2 * M, M)
    assert_close(fock.Gamma(source, a, basis_out=target),
                 oracles.Gamma(source, a, basis_out=target))
    assert_close(fock.dGamma2(source, a, b, basis_out=target),
                 oracles.dGamma2(source, a, b, basis_out=target))


def test_gamma_projects_onto_smaller_target():
    """Onto a target with a smaller n_max, the top input sector is projected out."""
    source = fock.build_basis(GRIDS[4], 3)
    target = fock.build_basis(GRIDS[4], 2)
    a = rand_mat(np.random.default_rng(6), 4)
    assert_close(fock.Gamma(source, a, basis_out=target),
                 oracles.Gamma(source, a, basis_out=target))


def assert_equals_full_rows(source, target, a, b):
    """Gamma and dGamma2 (also from a given Gamma) equal the full-row
    recursion bit for bit: the block recursion keeps every nonzero term of
    the full sum, in its order."""
    G, D = oracles.full_row_recursion(source, target, a, b)
    Gn = fock.Gamma(source, a, basis_out=target)
    for new, old in ((Gn, G), (fock.dGamma2(source, a, b, basis_out=target), D),
                     (fock.dGamma2(source, a, b, basis_out=target, gamma_a=Gn), D)):
        assert np.array_equal(new, old) and new.tobytes() == old.tobytes()


def test_sector_blocks_equal_full_rows_square(basis):
    """Every square basis."""
    rng = np.random.default_rng(7)
    M = basis.grid.n_modes
    assert_equals_full_rows(basis, basis, rand_mat(rng, M), rand_mat(rng, M))


@pytest.mark.parametrize("spec", [(1, 3), (4, 2), (4, 3)], ids=basis_id)
def test_sector_blocks_equal_full_rows_onto_doubled_grid(spec):
    M, n = spec
    source = fock.build_basis(GRIDS[M], n)
    target = fock.build_basis(split.doubled_grid(GRIDS[M]), n)
    rng = np.random.default_rng(8)
    assert_equals_full_rows(source, target, rand_mat(rng, 2 * M, M), rand_mat(rng, 2 * M, M))


@pytest.mark.parametrize("flip", [False, True], ids=["smaller-target", "larger-target"])
def test_sector_blocks_equal_full_rows_across_caps(flip):
    """The bases of ``test_gamma_projects_onto_smaller_target`` (n_max 3
    onto 2), and the same pair the other way round."""
    source = fock.build_basis(GRIDS[4], 3)
    target = fock.build_basis(GRIDS[4], 2)
    if flip:
        source, target = target, source
    rng = np.random.default_rng(9)
    assert_equals_full_rows(source, target, rand_mat(rng, 4), rand_mat(rng, 4))


def test_dgamma2_refuses_gamma_of_other_shape():
    source = fock.build_basis(GRIDS[4], 2)
    a = rand_mat(np.random.default_rng(10), 4)
    with pytest.raises(fock.DimensionMismatchError):
        fock.dGamma2(source, a, a, gamma_a=np.zeros((source.size, source.size - 1), dtype=complex))


# (1, 22): fused occupations up to 22, past the int64 range of 22!
TENSOR_SPECS = [(1, 3), (1, 22), (4, 2), (4, 3), (8, 2)]


def tensor_id(spec):
    M, n = spec
    return f"M{M}-n{n}-joint{n}"


@pytest.fixture(scope="module", params=TENSOR_SPECS, ids=tensor_id)
def tensor(request):
    M, n = request.param
    basis = fock.build_basis(GRIDS[M], n)
    return basis, split.build_tensor_basis(basis)


def test_tensor_basis_order(tensor):
    basis, tb = tensor
    pairs = oracles.build_tensor_basis(basis)
    assert [tuple(p) for p in tb.pairs.tolist()] == list(pairs)
    assert np.array_equal(tb.lookup(np.array(pairs).reshape(-1, 2)), np.arange(len(pairs)))


def test_tensor_blocks_tile_the_pairs(tensor):
    """``blocks``, built once, tiles the pairs in order: each row slice holds
    all pairs of left sector a and right sector b."""
    basis, tb = tensor
    assert tb.blocks is tb.blocks
    numbers, sizes, stop = basis.total_numbers(), np.diff(basis.edges), 0
    for (a, b), rows in tb.blocks.items():
        assert rows.start == stop and rows.stop - rows.start == sizes[a] * sizes[b]
        left, right = tb.pairs[rows].T
        assert np.all(numbers[left] == a) and np.all(numbers[right] == b)
        stop = rows.stop
    assert stop == tb.size


def test_tensor_lookup_refuses_pairs_outside(tensor):
    """``lookup`` gives -1 for a pair above n_max, which the Galerkin drop
    of ``_one_leg_support`` relies on, and for an index outside the basis."""
    basis, tb = tensor
    top, n = basis.edges[basis.n_max], basis.size
    outside = [[top, 1], [1, top], [top, top], [-1, 0], [0, -1], [n, 0], [0, n], [n, n]]
    assert np.array_equal(tb.lookup(outside), [-1] * len(outside))


def test_tensor_iso_U_exact(tensor):
    basis, tb = tensor
    basis_sum = fock.build_basis(split.doubled_grid(basis.grid), basis.n_max)
    assert np.array_equal(tb.sum_basis.modes, basis_sum.modes)
    assert_exact(split.tensor_iso_U(tb), oracles.tensor_iso_U(basis_sum, tb))


def test_scattering_ident_exact(tensor):
    basis, tb = tensor
    new, old = split.scattering_ident(tb), oracles.scattering_ident(tb)
    assert new.shape == old.shape == (basis.size, tb.size)
    assert_exact(new, old)


def test_every_pair_fuses_inside_the_basis(tensor):
    """Each pair's fused occupation is a state of the basis, so I has one
    entry in every column and U's ``perm`` is a permutation of all pairs."""
    basis, tb = tensor
    occ = basis.occupations()
    fused = oracles.rows_of(basis, occ[tb.pairs[:, 0]] + occ[tb.pairs[:, 1]])
    I = split.scattering_ident(tb).tocsc()
    assert np.all(I.getnnz(axis=0) == 1)
    assert np.array_equal(I.indices, fused)
    assert np.array_equal(np.sort(tb.perm), np.arange(tb.size))


def test_tensor_factor_ops_exact(tensor):
    basis, tb = tensor
    rng = np.random.default_rng(7)
    M = basis.grid.n_modes
    real, cplx = fock.creation_op(basis, rng.normal(size=M)), fock.dGamma(basis, rand_mat(rng, M))
    assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
    for op in (real, cplx, fock.dGamma(basis, basis.grid.omega_mod)):
        for l, r in ((op, None), (None, op)):
            new = split.tensor_factor_ops(tb, op_left=l, op_right=r)
            old = oracles.tensor_factor_ops(tb, op_left=l, op_right=r)
            assert_exact(new, old)
    for l, r in ((real, cplx), (None, None)):
        with pytest.raises(ValueError):
            split.tensor_factor_ops(tb, op_left=l, op_right=r)


def _traced_lift(basis, op):
    """The pair basis and the left lift of ``op``, with the lift's traced peak."""
    tb = split.build_tensor_basis(basis)
    tracemalloc.start()
    try:
        lifted = split.tensor_factor_ops(tb, op_left=op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return tb, lifted, peak


def test_tensor_factor_ops_stays_sparse():
    """One-leg lifts on 2145 and 4753 pairs allocate far less than the dense
    (pairs x pairs) arrays of 74 MB and 361 MB, or the Kronecker product
    before the pairs are picked: a diagonal dGamma, and the fiber H that
    W_plus_probe lifts at M = 48, which must equal the oracle's lift."""
    basis = fock.build_basis(fock.line_grid(32, 1.5, 0.2), 2)
    op = fock.dGamma(basis, basis.grid.omega_mod)
    tb, lifted, peak = _traced_lift(basis, op)
    assert tb.size == 2145 and peak < 40e6
    want = op.diagonal()[tb.pairs[:, 0]]
    assert np.array_equal(lifted.diagonal(), want)
    assert lifted.nnz == np.count_nonzero(want)

    grid = fock.line_grid(48, 1.5, 0.2)
    ms = model.ModelSpec(model.DispersionLaw("nonrel", 1.0), model.FormFactor(1.0, 1.0, 0.2),
                         grid, 0.05)
    basis = fock.build_basis(grid, 2)
    H = model.build_fiber_H(ms, [0.25], basis).mat
    tb, lifted, peak = _traced_lift(basis, H)
    assert (tb.size, lifted.nnz) == (4753, 9797) and peak < 40e6
    assert_exact(lifted, oracles.tensor_factor_ops(tb, op_left=H))


def test_build_tensor_basis_stays_small():
    """33153 pairs of an 8385-state leg are picked by sector blocks, without
    the (8385 x 8385) table of total numbers (over 600 MB)."""
    basis = fock.build_basis(fock.line_grid(128, 1.5, 0.2), 2)
    tracemalloc.start()
    try:
        tb = split.build_tensor_basis(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert (basis.size, tb.size) == (8385, 33153)
    i, j = tb.pairs.T
    total = basis.total_numbers()
    assert np.array_equal(np.lexsort((j, i, total[i] + total[j])), np.arange(tb.size))


def test_build_basis_stays_small():
    """156849 states of 96 modes up to three bosons are held as mode tuples,
    without a (size x M) occupation table (120 MB of int64) or a byte-key
    index of it."""
    grid = fock.line_grid(96, 1.5, 0.2)
    tracemalloc.start()
    try:
        basis = fock.build_basis(grid, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.size == 156849 and peak < 150e6


# the ids keep the "-None" of the energy-cap column the configs had, so that
# each case runs under its old name
FULL_H_CONFIGS = pytest.mark.parametrize("L, modes, n_max", [
    (32, [-16, -12, -8, -5, 5, 8, 12, 16], 1),
    (12, [-3, -1, 2, 4], 2),
], ids=["32-modes0-1-None", "12-modes1-2-None"])


def _chain(L, modes, n_max):
    grid = fock.lattice_grid(L, modes, 0.2)
    ms = model.ModelSpec(model.DispersionLaw("nonrel", 1.0), model.FormFactor(1.0, 1.0, 0.2),
                         grid, 0.05)
    return ms, model.full_basis(ms, L, n_max)


@FULL_H_CONFIGS
def test_full_H_exact(L, modes, n_max):
    ms, fb = _chain(L, modes, n_max)
    om_e = ms.disp.omega(fb.momenta[:, None])
    om_b = np.array(oracles.states_of(fb.boson)[0], dtype=float) @ ms.boson_omega()
    diag = (om_e[:, None] + om_b[None, :]).ravel().astype(complex)
    c = oracles.full_H_coupling(ms, fb)
    assert c.nnz > 0
    H = model.build_full_H(ms, fb).mat
    assert H.dtype == np.float64
    assert_exact(H, (sp.diags(diag) + c + c.conj().T).tocsr())


@FULL_H_CONFIGS
def test_full_H_blocks_are_the_fibers(L, modes, n_max):
    """Each total-momentum block of the chain H is the fiber H(2 pi m / L):
    its coupling bit for bit, its diagonal up to the zone wrap's rounding."""
    ms, fb = _chain(L, modes, n_max)
    H = model.build_full_H(ms, fb).mat.toarray()
    for m, idx in oracles.momentum_blocks(fb).items():
        b = idx % fb.boson.size
        F = oracles.wrapped_fiber_H(ms, 2 * np.pi * m / L, fb.boson).mat.toarray()
        block, fiber = H[np.ix_(idx, idx)], F[np.ix_(b, b)]
        off = ~np.eye(len(idx), dtype=bool)
        assert np.array_equal(block[off], fiber[off])
        assert np.abs(np.diag(block) - np.diag(fiber)).max() <= 1e-14


EXPECTATION_BASES = {
    **{f"line-M{M}-n{n}": (fock.line_grid(M, 1.0, 0.2), n)
       for M in (2, 4, 6) for n in range(4)},
    **{f"one-mode-n{n}": (GRIDS[1], n) for n in range(4)},
    "lattice-M4-n2": (fock.lattice_grid(12, [-3, -1, 2, 4], 0.2), 2),
    "radial-M12-n2": (fock.radial_grid(2, 1.0, 0.2), 2),
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
    return complex(np.vdot(psi, oracles.dGamma(basis, b) @ psi))


def assert_rel(got, want, rel=1e-12):
    assert abs(got - want) <= rel * abs(want)


def test_dGamma_expectation_matches_oracle(expectation_basis):
    basis = expectation_basis
    rng = np.random.default_rng(8)
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    for b in mode_matrices(rng, basis.grid):
        assert_rel(fock.dGamma_expectation(basis, b, psi), oracle_expectation(basis, b, psi))


def test_dGamma_expectation_rejects_wrong_shapes():
    basis = fock.build_basis(GRIDS[4], 2)
    psi = np.ones(basis.size)
    bad = [(np.eye(5), psi), (np.ones(3), psi), (np.eye(4), psi[1:]),
           (np.eye(4), np.ones((2, basis.size))), (np.eye(4), np.ones((1, 1, basis.size)))]
    for b, state in bad:
        with pytest.raises(fock.DimensionMismatchError):
            fock.dGamma_expectation(basis, b, state)
