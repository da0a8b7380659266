"""One coupling layout per fiber family, checked against the one-shot assembly.

Every Hamiltonian built from a shared ``model.CouplingLayout`` is the one
``oracles.one_shot_fiber_H`` assembles from scratch, stored entry for entry
with the same block split; the dispersion scan and criterion 7's sweep,
which share a layout, mode sums, a window and a g = 0 commutator across
their points, give the results of building everything per point.
"""

import math

import numpy as np
import pytest

import oracles
from nelsonlab import fock, model, mourre, spectral

GRIDS = {
    "line-8-2": (lambda: fock.line_grid(8, 1.5, 0.2), 2),
    "line-24-3": (lambda: fock.line_grid(24, 1.5, 0.2), 3),
    "lattice": (lambda: fock.lattice_grid(32, [-6, -3, 3, 6], 0.2), 2),
    "radial": (lambda: fock.radial_grid(2, 1.5, 0.2), 2),
}


def _same(got, want):
    """Equal bit for bit: arrays by dtype and bytes, lists item by item,
    anything else by its exact repr."""
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return repr(got) == repr(want)


def _same_csr(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_shared_layout_builds_the_one_shot_hamiltonians(name, nonrel):
    """At P = 0 (the vacuum's diagonal entry is 0, so it is not stored) and
    P > 0, both dispersion switches and g in {0, 0.01, 0.05}, the H written
    into one layout is the one-shot H bit for bit, blocks included; every H
    storing the whole coupling pattern shares the layout's labels."""
    make, n_max = GRIDS[name]
    grid = make()
    basis = fock.build_basis(grid, n_max)
    ff = model.FormFactor(1.0, 1.0, 0.2)
    layout = model.fiber_layout(model.ModelSpec(nonrel, ff, grid, 0.05), basis)
    for p in (0.0, 0.3):
        P = np.array([p] + [0.0] * (grid.dim - 1))
        for use_modified in (True, False):
            for g in (0.0, 0.01, 0.05):
                ms = model.ModelSpec(nonrel, ff, grid, g, use_modified)
                H = model.build_fiber_H(ms, P, basis, layout=layout)
                ref = oracles.one_shot_fiber_H(ms, P, basis)
                _same_csr(H.mat, ref.mat)
                assert H.blocks.dtype == ref.blocks.dtype
                assert H.blocks.tobytes() == ref.blocks.tobytes()
                assert (H.layout is layout) == (g != 0)
    assert layout.labels is not None


def test_layout_of_another_basis_or_kappa_is_refused(nonrel):
    grid = fock.line_grid(8, 1.5, 0.2)
    basis = fock.build_basis(grid, 2)
    ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.05)
    layout = model.fiber_layout(ms, basis)
    model.build_fiber_H(ms, [0.25], basis, layout=layout)
    with pytest.raises(ValueError, match="another basis or kappa_sigma"):
        model.build_fiber_H(ms, [0.25], fock.build_basis(grid, 2), layout=layout)
    other = model.ModelSpec(nonrel, model.FormFactor(2.0, 1.0, 0.2), grid, 0.05)
    with pytest.raises(ValueError, match="another basis or kappa_sigma"):
        model.build_fiber_H(other, [0.25], basis, layout=layout)


def test_dispersion_curve_at_the_fiber_inputs(nonrel, basis2925, monkeypatch):
    """The fiber benchmark's scan (24 modes, n_max = 3, g = 0.05, 4 momenta)
    equals the scan that assembles every H and every mode sum per point."""
    ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), basis2925.grid, 0.05)
    momenta = np.linspace(0.0, 0.8, 4)
    got = spectral.dispersion_scan(ms, momenta, basis2925, tol=1e-10, beta=0.9)
    fiber_diagonal = model.fiber_diagonal
    monkeypatch.setattr(spectral, "build_fiber_H", oracles.one_shot_fiber_H)
    monkeypatch.setattr(spectral, "fiber_diagonal",
                        lambda ms, P, basis, **_: fiber_diagonal(ms, P, basis))
    want = spectral.dispersion_scan(ms, momenta, basis2925, tol=1e-10, beta=0.9)
    assert got.converged.all()
    for name, value in vars(want).items():
        assert _same(getattr(got, name), value), name


def _criterion_7(nonrel, n_modes, g_values):
    ff = model.FormFactor(1.0, 1.0, 0.1)
    grid = fock.line_grid(n_modes, 1.6, 0.1)
    basis = fock.build_basis(grid, 2)
    C = model.quadrature_C(ff, grid)
    return ((lambda gg: model.ModelSpec(nonrel, ff, grid, gg)), g_values, [0.25], basis, 0.32,
            lambda gg: math.sqrt(2.0 * (0.32 + gg * gg * C)))


@pytest.mark.parametrize("n_modes,g_values", [(8, [0.01, 0.02, 0.04, 0.08]),
                                              (32, [0.0, 0.02, 0.04])])
def test_mourre_sweep_equals_the_one_shot_scans(nonrel, n_modes, g_values, monkeypatch):
    """Criterion 7's sweep, and one on 32 modes whose soft modes leave a
    strict subset of interacting rows with g = 0 inside the sweep, give the
    whole report of scans that each build H, slice and densify its window and
    form the commutator from scratch."""
    args = _criterion_7(nonrel, n_modes, g_values)
    basis = args[3]
    if n_modes == 32:
        assert np.count_nonzero(fock.interacting_mask(basis)) < basis.size
    got = mourre.mourre_sweep(*args)
    monkeypatch.setattr(mourre, "mourre_scan", oracles.one_shot_scan)
    want = mourre.mourre_sweep(*args)
    assert repr(got) == repr(want)
    ms0 = args[0](0.0)
    conj = mourre.build_conjugate(ms0, basis)
    assert got["stats"]["commutator_nnz_g0"] == \
        oracles.one_shot_commutator(ms0, [0.25], basis, conj).nnz


def test_commutator_from_its_base_is_the_one_shot_commutator(nonrel):
    """base - g phi(i a kappa_sigma) is the commutator formed from scratch,
    the same CSR bit for bit."""
    args = _criterion_7(nonrel, 8, [])
    ms0, basis = args[0](0.0), args[3]
    conj = mourre.build_conjugate(ms0, basis)
    base = mourre.commutator_iHA(ms0, [0.25], basis, conj)
    for g in (0.0, 0.01, 0.05):
        ms = args[0](g)
        _same_csr(mourre.commutator_iHA(ms, [0.25], basis, conj, base=base),
                  oracles.one_shot_commutator(ms, [0.25], basis, conj))


def test_one_gershgorin_pass_per_hamiltonian(nonrel, basis2925, monkeypatch):
    """An iterative ground state reads H's row discs once: the block
    intervals and the bound on lambda_k share them."""
    ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), basis2925.grid, 0.05)
    H = model.build_fiber_H(ms, [0.25], basis2925)
    seen = []
    discs = model._gershgorin_discs

    def spy(mat):
        seen.append(mat is H.mat)
        return discs(mat)

    monkeypatch.setattr(model, "_gershgorin_discs", spy)
    res = spectral.ground_state(H, k=2)
    assert res.meta["method"] == "lobpcg" and seen.count(True) == 1
    lo, hi = discs(H.mat)
    assert H._discs[0].tobytes() == lo.tobytes() and H._discs[1].tobytes() == hi.tobytes()
