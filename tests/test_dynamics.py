import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm as dense_expm

import oracles
from nelsonlab import dynamics, fock, model, spectral


CUTS = dynamics.CutoffFamily(0.3, 0.34, 0.38, 0.42, 0.46, 0.5)


@pytest.fixture(scope="module")
def fiber_setup(ms_default, basis12):
    H = model.build_fiber_H(ms_default, [0.25], basis12)
    return ms_default, basis12, H


@pytest.fixture(scope="module")
def lattice_setup(nonrel, ff):
    L = 64
    grid = fock.lattice_grid(L, [-8, -6, -4, 4, 6, 8], 0.2)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    fb = model.full_basis(ms, L, 1)
    H = model.build_full_H(ms, fb)
    return ms, fb, H


@pytest.fixture(scope="module")
def chain_packet(nonrel, ff):
    """Criterion 9's energy-filtered packet on the L-site chain, by L:
    (H, psi, the calculus that filtered it)."""
    made = {}

    def make(L):
        if L not in made:
            grid = fock.lattice_grid(L, [-16, -12, -8, -5, 5, 8, 12, 16], 0.2)
            ms = model.ModelSpec(nonrel, ff, grid, 0.05)
            fb = model.full_basis(ms, L, 1)
            H = model.build_full_H(ms, fb)
            psi, calc = dynamics.filtered_packet(fb, H, p0=0.05, dp=0.06, sigma_top=0.045,
                                                 width_frac=0.6)
            made[L] = H, psi, calc
        return made[L]

    return make


def live_rows(mat, v) -> np.ndarray:
    """Rows of the pattern components (found by breadth-first search) that
    hold an entry of v that is not exactly 0."""
    label = oracles.pattern_labels(mat)
    return np.isin(label, label[v != 0])


class TestKrylov:
    def test_matches_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        assert basis.size <= 400
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        t = 7.3
        u_k = dynamics.krylov_expm_apply(H.mat, v, t, tol=1e-12)
        u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
        assert np.linalg.norm(u_k - u_d) < 1e-8

    def test_unitarity_long_time(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        u = dynamics.krylov_expm_apply(H.mat, v, 100.0, tol=1e-12)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-10

    def test_backward_inverts_forward(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        u = dynamics.krylov_expm_apply(H.mat, v, 3.0, tol=1e-12)
        back = dynamics.krylov_expm_apply(H.mat, u, -3.0, tol=1e-12)
        assert np.linalg.norm(back - v) < 1e-10

    def test_diagonal_phases_exact(self, nonrel, ff, grid12, basis12, rng):
        ms0 = model.ModelSpec(nonrel, ff, grid12, 0.0)
        H0 = model.build_fiber_H(ms0, [0.25], basis12)
        d = np.real(np.asarray(H0.mat.diagonal()))
        v = rng.normal(size=basis12.size) + 1j * rng.normal(size=basis12.size)
        u = dynamics.krylov_expm_apply(H0.mat, v, 5.0, tol=1e-12)
        assert np.linalg.norm(u - np.exp(-1j * d * 5.0) * v) < 1e-10

    def test_snapshots_match_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        prop = dynamics.Propagation(H, v, np.array([1.0, 2.5]))
        for t, u in dynamics.snapshots(prop):
            u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
            assert np.linalg.norm(u - u_d) < 1e-9

    def test_snapshots_one_krylov_call_per_grid_time(self, fiber_setup, rng, monkeypatch):
        """snapshots steps from one grid time to the next: one call per
        interval, and the same arrays as calling krylov_expm_apply in turn."""
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        times = dynamics.geometric_times(1.0, 20.0, 1.5)
        prop = dynamics.Propagation(H, v, times, step_tol=1e-10)
        real = dynamics.krylov_expm_apply
        calls = []

        def spy(mat, u, dt, tol=1e-10):
            calls.append((dt, tol))
            return real(mat, u, dt, tol=tol)

        monkeypatch.setattr(dynamics, "krylov_expm_apply", spy)
        snaps = list(dynamics.snapshots(prop))
        assert len(calls) == len(times)
        assert [c[1] for c in calls] == [1e-10] * len(times)
        assert [t for t, _ in snaps] == list(times)
        u, t_prev = prop.state, 0.0
        for t, psi in snaps:
            u = real(H.mat, u, t - t_prev, tol=1e-10)
            t_prev = t
            assert np.array_equal(psi, u)

    def test_conservation_track(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        prop = dynamics.Propagation(H, v, times)
        track = dynamics._track_snapshots(prop, lambda p, t: 0.0)
        assert dynamics.check_conservation(track)

    def test_long_time_matches_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        t = 100.0
        u_k = dynamics.krylov_expm_apply(H.mat, v, t, tol=1e-12)
        u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
        assert np.linalg.norm(u_k - u_d) < 1e-8

    def test_zero_tolerance_terminates_and_matches_dense_expm(self, fiber_setup, rng):
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        u_k = dynamics.krylov_expm_apply(H.mat, v, 1.0, tol=0.0)
        u_d = dense_expm(-1j * H.mat.toarray()) @ v
        assert np.linalg.norm(u_k - u_d) < 1e-8

    @pytest.mark.parametrize("dt", [1.0, 12.0, 29.0])
    def test_matches_upcasting_reference_bit_for_bit(self, ms_default, dt):
        """Casting the shifted operator to complex once changes no bit of the series."""
        grid = fock.line_grid(24, 1.5, 0.2)
        ms = model.ModelSpec(ms_default.disp, ms_default.ff, grid, ms_default.g)
        H = model.build_fiber_H(ms, [0.25], fock.build_basis(grid, 3))
        assert H.mat.dtype == np.float64
        rng = np.random.default_rng(29)
        v = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
        v /= np.linalg.norm(v)
        np.testing.assert_array_equal(dynamics.krylov_expm_apply(H.mat, v, dt, tol=1e-11),
                                      oracles.chebyshev_expm_apply(H.mat, v, dt, tol=1e-11))

    def test_connected_H_reproduces_the_single_interval_bits(self, rng):
        """On a matrix with one component the block centring is the global
        Gershgorin interval: the same bits as the single-interval series."""
        X = rng.normal(size=(60, 60))
        mat = sp.csr_matrix(X + X.T)
        assert model.Hamiltonian(mat).chebyshev.components == 1
        v = rng.normal(size=60) + 1j * rng.normal(size=60)
        for dt in (1.0, 12.0, 29.0):
            np.testing.assert_array_equal(
                dynamics.krylov_expm_apply(mat, v, dt, tol=1e-11),
                oracles.chebyshev_expm_apply(mat, v, dt, tol=1e-11, per_component=False))

    def test_gershgorin_interval_contains_spectrum(self, fiber_setup, lattice_setup):
        """Each component c of the pattern has one centre a_c, its block's
        eigenvalues lie in [a_c - b, a_c + b], b is the widest block's
        Gershgorin half-width and no wider than the global one."""
        for H in (fiber_setup[2], lattice_setup[2]):
            op = H.chebyshev
            label = oracles.pattern_labels(H.mat)
            assert op.components == label.max() + 1 > 1
            dense = H.mat.toarray()
            widths = []
            for c in range(op.components):
                rows = np.flatnonzero(label == c)
                assert np.all(op.centres[rows] == op.centres[rows[0]])
                ev = np.linalg.eigvalsh(dense[np.ix_(rows, rows)])
                a_c = op.centres[rows[0]]
                assert a_c - op.half_width <= ev[0] and ev[-1] <= a_c + op.half_width
                widths.append(model._gershgorin_interval(H.mat[rows][:, rows])[1])
            assert op.half_width == max(widths)
            assert op.half_width < model._gershgorin_interval(H.mat)[1]
            assert np.abs(np.linalg.eigvalsh(op.shifted.toarray())).max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("which", ["line12-n3", "lattice32"])
    def test_block_centred_series_matches_dense_expm(self, nonrel, ff, which):
        if which == "line12-n3":
            grid = fock.line_grid(12, 1.5, 0.2)
            H = model.build_fiber_H(model.ModelSpec(nonrel, ff, grid, 0.05), [0.25],
                                    fock.build_basis(grid, 3))
        else:
            grid = fock.lattice_grid(32, [-8, -6, -4, 4, 6, 8], 0.2)
            ms = model.ModelSpec(nonrel, ff, grid, 0.05)
            H = model.build_full_H(ms, model.full_basis(ms, 32, 1))
        assert H.chebyshev.components > 1
        rng = np.random.default_rng(5)
        v = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
        v /= np.linalg.norm(v)
        for t in (1.0, 29.0, 100.0):
            u_d = dense_expm(-1j * t * H.mat.toarray()) @ v
            assert np.linalg.norm(dynamics.krylov_expm_apply(H, v, t, tol=1e-12) - u_d) < 1e-8

    def test_one_chebyshev_operator_per_hamiltonian(self, ms_default, basis12, rng,
                                                    monkeypatch):
        """One fiber H that is ground-stated, given a ``SpectralCalculus``,
        propagated over a 12-interval grid, propagated again and ``replace``d
        splits into its blocks once: every consumer reads ``H.blocks``."""
        H = model.build_fiber_H(ms_default, [0.25], basis12)
        calls = []
        components = model.pattern_components

        def spy_components(mat):
            calls.append(mat.shape)
            return components(mat)

        monkeypatch.setattr(model, "pattern_components", spy_components)
        assert spectral.ground_state(H, k=2).meta["method"] == "dense"
        calc = spectral.SpectralCalculus(H)
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        assert len(times) == 12
        v = rng.normal(size=basis12.size) + 1j * rng.normal(size=basis12.size)
        prop = dynamics.Propagation(H, v / np.linalg.norm(v), times)
        track = dynamics._track_snapshots(prop, lambda p, t: 0.0)
        assert dynamics.check_conservation(track)
        list(dynamics.snapshots(dynamics.Propagation(H, v[::-1].copy(), times)))
        list(dynamics.snapshots(replace(prop, state=v)))
        assert calls == [H.shape]
        assert sum(len(idx) for idx, _, _ in calc.groups) == H.chebyshev.components > 1

    def test_bare_matrix_must_be_exactly_hermitian(self, fiber_setup, rng):
        """A bare CSR matrix is wrapped in a ``Hamiltonian``, so one that is
        not exactly Hermitian is refused rather than propagated, whatever
        blocks the vector lives on, none included."""
        _, basis, H = fiber_setup
        skewed = H.mat.tolil()
        skewed[0, 1] += 1e-15
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        on_first = np.where(live_rows(H.mat, np.eye(basis.size)[0]), v, 0)
        for u in (v, on_first, np.zeros(basis.size)):
            with pytest.raises(ValueError):
                dynamics.krylov_expm_apply(skewed.tocsr(), u, 1.0)

    @pytest.mark.parametrize("kind", [complex, float])
    def test_input_vector_is_never_written(self, fiber_setup, rng, kind):
        """The recurrence reuses its buffers, from a copy of the input: the
        caller's vector and the propagation's state keep their values."""
        _, basis, H = fiber_setup
        v = rng.normal(size=basis.size).astype(kind)
        if kind is complex:
            v += 1j * rng.normal(size=basis.size)
        kept = v.copy()
        for mat in (H, H.mat):
            dynamics.krylov_expm_apply(mat, v, 7.3)
            assert np.array_equal(v, kept)
        prop = dynamics.Propagation(H, v, dynamics.geometric_times(1.0, 20.0, 1.5))
        state = prop.state.copy()
        list(dynamics.snapshots(prop))
        assert np.array_equal(v, kept) and np.array_equal(prop.state, state)

    def test_single_state_fiber_evolves_by_exact_phase(self, ms_default, grid12):
        # n_max = 0: H is 1 x 1, so the Gershgorin interval has zero width
        H = model.build_fiber_H(ms_default, [0.25], fock.build_basis(grid12, 0))
        E = H.mat.toarray()[0, 0].real
        v = np.array([0.6 - 0.8j])
        for t in (3.0, -7.5):
            u = dynamics.krylov_expm_apply(H.mat, v, t, tol=1e-12)
            assert np.abs(u - np.exp(-1j * E * t) * v).max() < 1e-14

    def test_single_state_components_turn_by_their_own_phase(self, ms_default, basis12):
        """A state that is a component of its own turns by exp(-i H_ii t): to
        the series tolerance next to wider blocks, and exactly when every
        component is a single state (g = 0), where no series is summed."""
        H = model.build_fiber_H(ms_default, [0.25], basis12)
        label = oracles.pattern_labels(H.mat)
        single = np.flatnonzero(np.bincount(label)[label] == 1)
        assert single.size and H.chebyshev.half_width > 0
        d = H.mat.diagonal()
        for t in (1.0, 29.0, 100.0):
            for i in single:
                e = np.zeros(basis12.size, dtype=complex)
                e[i] = 1.0
                u = dynamics.krylov_expm_apply(H, e, t, tol=1e-12)
                assert abs(u[i] - np.exp(-1j * d[i] * t)) <= 1e-12
                assert np.count_nonzero(u) == 1
        ms0 = model.ModelSpec(ms_default.disp, ms_default.ff, ms_default.grid, 0.0)
        H0 = model.build_fiber_H(ms0, [0.25], basis12)
        assert H0.chebyshev.components == basis12.size and H0.chebyshev.shifted is None
        v = np.arange(basis12.size) + 1j
        assert np.array_equal(dynamics.krylov_expm_apply(H0, v, 5.0),
                              np.exp(-1j * H0.mat.diagonal() * 5.0) * v)

    def test_chebyshev_coefficients_are_bessel(self):
        from scipy.special import jv

        for x in (0.3, -7.0, 250.0):
            c = dynamics._chebyshev_coefficients(x, 1e-14)
            k = np.arange(len(c))
            ref = (2 - (k == 0)) * (-1j) ** k * jv(k, x)
            assert np.abs(c - ref).max() < 1e-13
            assert 2 * np.abs(jv(np.arange(len(c), len(c) + 200), x)).sum() <= 1e-14

    @pytest.mark.parametrize("tol", [1e-11, 1e-12, 1e-13])
    def test_chebyshev_degree_follows_the_bessel_tail(self, tol):
        """The series is as long as the exact tail sum of 2 |J_k(x)| needs, and
        at most two terms longer: the rounding floor of the FFT coefficients
        does not keep it running."""
        from scipy.special import jv

        for x in (0.5, 5.0, 50.0, 250.0, 750.0, 1500.0):
            k = np.arange(int(2 * x) + 200)
            exact = (2 - (k == 0)) * np.abs(jv(k, x))
            needed = max(int(np.count_nonzero(np.cumsum(exact[::-1])[::-1] > tol)), 1)
            assert needed <= len(dynamics._chebyshev_coefficients(x, tol)) <= needed + 2, x


class TestSupport:
    """The series on the blocks a state lives on, against the exact
    block-wise calculus."""

    @pytest.mark.parametrize("which", ["chain64", "chain128", "fiber-ground", "two-blocks"])
    def test_restricted_series_matches_the_calculus(self, chain_packet, ms_default, basis12,
                                                    which):
        if which.startswith("chain"):
            H, v, calc = chain_packet(int(which[5:]))
        else:
            H = model.build_fiber_H(ms_default, [0.25], basis12)
            calc = spectral.SpectralCalculus(H)
            if which == "fiber-ground":
                res = spectral.ground_state(H, k=2)
                assert res.meta["method"] == "dense"
                v = res.ground_vector.amps
            else:
                label = oracles.pattern_labels(H.mat)
                sizes = np.bincount(label)
                pick = np.argsort(-sizes, kind="stable")[[0, 1]]
                widths = [model._gershgorin_interval(H.mat[label == c][:, label == c])[1]
                          for c in pick]
                assert widths[0] != widths[1]
                rng = np.random.default_rng(34)
                v = np.where(np.isin(label, pick), rng.normal(size=H.shape[0]), 0.0) + 0j
        live = live_rows(H.mat, v)
        op = H.chebyshev_for(v)
        assert not live.all() and np.array_equal(op.rows, np.flatnonzero(live))
        assert op.components == {"chain64": 7, "chain128": 13, "fiber-ground": 1,
                                 "two-blocks": 2}[which]
        for t in (1.0, 29.0, 100.0):
            u = dynamics.krylov_expm_apply(H, v, t, tol=1e-10)
            exact = calc.fn(lambda lam: np.exp(-1j * lam * t), v)
            assert np.linalg.norm(u - exact) <= 1e-9 * np.linalg.norm(v)
            assert np.all(u[~live] == 0)

    def test_dressed_state_lives_on_its_solved_blocks(self, ms_default, basis2925):
        """At the fiber benchmark's inputs (M = 24, n_max = 3, P = 0.25, dim
        2925) the LOBPCG ground vector is exactly 0 off the ground block, the
        455 rows its k = 1 solve ran on (its k = 2 solve would run on 3
        blocks, 637 rows), so ``W_estimate`` propagates those rows alone; its
        track is that of the dense ground-block vector."""
        ms = model.ModelSpec(ms_default.disp, ms_default.ff, basis2925.grid, ms_default.g)
        H = model.build_fiber_H(ms, [0.25], basis2925)
        psi = dynamics.dressed_state(ms, [0.25], basis2925).amps
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        stats = dynamics.chebyshev_stats(dynamics.Propagation(H, psi, times))
        assert (stats["live_blocks"], stats["live_rows"], stats["dim"]) == (1, 455, 2925)
        calc = spectral.SpectralCalculus(H)
        exact = calc.window_vectors(calc.vals.min())[:, 0]
        ycalc = dynamics.YCalc(basis2925.grid)
        track, oracle = (dynamics.W_estimate(dynamics.Propagation(H, v, times), basis2925,
                                             CUTS, ycalc).values for v in (psi, exact))
        assert np.abs(track - oracle).max() <= 1e-12

    def test_half_width_is_the_widest_live_blocks(self, chain_packet):
        """At L = 128 the packet lives on 13 of the 128 total-momentum
        blocks, 117 of 1152 rows; the widest of them sets b, and the grid's
        series is 229 terms against 390 for the whole matrix."""
        H, psi, _ = chain_packet(128)
        prop = dynamics.Propagation(H, psi, dynamics.geometric_times(1.0, 100.0, 1.5))
        stats = dynamics.chebyshev_stats(prop)
        label = oracles.pattern_labels(H.mat)
        live = np.unique(label[psi != 0])
        widths = [model._gershgorin_interval(H.mat[label == c][:, label == c])[1] for c in live]
        assert stats["chebyshev_half_width"] == max(widths) < H.chebyshev.half_width
        assert (stats["chebyshev_components"], stats["live_blocks"], stats["live_rows"]) == \
            (128, len(live), np.count_nonzero(np.isin(label, live))) == (128, 13, 117)
        whole = sum(len(dynamics._chebyshev_coefficients(H.chebyshev.half_width * dt, 1e-11))
                    for dt in np.diff(prop.times, prepend=0.0))
        assert stats["series_terms"] == 229 < whole == 390

    @pytest.mark.parametrize("which", ["fiber", "chain"])
    def test_full_support_is_the_whole_matrix_operator(self, fiber_setup, chain_packet, which):
        H = fiber_setup[2] if which == "fiber" else chain_packet(64)[0]
        rng = np.random.default_rng(35)
        v = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
        assert H.chebyshev_for(v) is H.chebyshev and H.chebyshev.rows is None
        for dt in (1.0, 29.0):
            np.testing.assert_array_equal(dynamics.krylov_expm_apply(H, v, dt, tol=1e-11),
                                          oracles.chebyshev_expm_apply(H.mat, v, dt, tol=1e-11))

    def test_zero_vector_gives_exact_zeros_and_builds_nothing(self, ms_default, basis12,
                                                              monkeypatch):
        H = model.build_fiber_H(ms_default, [0.25], basis12)
        built = []
        operator = model.Hamiltonian._chebyshev_operator

        def spy(self, live):
            built.append(live)
            return operator(self, live)

        monkeypatch.setattr(model.Hamiltonian, "_chebyshev_operator", spy)
        for v in (np.zeros(basis12.size), np.zeros(basis12.size, dtype=complex)):
            for dt in (0.0, 3.0):
                u = dynamics.krylov_expm_apply(H, v, dt)
                assert u.dtype == complex and u.shape == v.shape and not np.any(u)
        stats = dynamics.chebyshev_stats(dynamics.Propagation(H, np.zeros(basis12.size),
                                                              np.array([1.0, 2.0])))
        assert (stats["live_blocks"], stats["live_rows"], stats["series_terms"]) == (0, 0, 0)
        assert built == []

    def test_phase_shortcuts_on_a_support(self, ms_default, basis12, monkeypatch):
        """dt = 0 returns v on its support, and a support of single-state
        blocks (b = 0) next to wider blocks turns by exact phases: no series
        is summed."""
        H = model.build_fiber_H(ms_default, [0.25], basis12)
        label = oracles.pattern_labels(H.mat)
        single = np.bincount(label)[label] == 1
        assert single.any() and H.chebyshev.half_width > 0
        summed = []
        coefficients = dynamics._chebyshev_coefficients
        monkeypatch.setattr(dynamics, "_chebyshev_coefficients",
                            lambda x, tol: summed.append(x) or coefficients(x, tol))
        v = np.where(single, np.arange(basis12.size) + 1j, 0)
        op = H.chebyshev_for(v)
        assert op.half_width == 0.0 and op.shifted is None and op.components == single.sum()
        d = H.mat.diagonal()
        assert np.array_equal(dynamics.krylov_expm_apply(H, v, 5.0),
                              np.where(single, np.exp(-1j * d * 5.0) * v, 0))
        ground = spectral.ground_state(H, k=2).ground_vector.amps
        assert np.array_equal(dynamics.krylov_expm_apply(H, ground, 0.0), ground + 0j)
        assert summed == []

    def test_one_restricted_operator_per_support(self, chain_packet, monkeypatch):
        """A propagation over a 12-interval grid builds the operator on its
        support once and never the whole-matrix one; only the last support is
        kept, and H is split once."""
        H0, psi, _ = chain_packet(64)
        H = model.Hamiltonian(H0.mat)
        built, split = [], []
        operator, components = model.Hamiltonian._chebyshev_operator, model.pattern_components

        def spy(self, live):
            built.append(int(np.count_nonzero(live)))
            return operator(self, live)

        monkeypatch.setattr(model.Hamiltonian, "_chebyshev_operator", spy)
        monkeypatch.setattr(model, "pattern_components",
                            lambda mat: split.append(mat.shape) or components(mat))
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        assert len(times) == 12
        snaps = list(dynamics.snapshots(dynamics.Propagation(H, psi, times)))
        live = live_rows(H.mat, psi)
        assert all(np.all(u[~live] == 0) and np.all(u[live] != 0) for _, u in snaps)
        label = oracles.pattern_labels(H.mat)
        n = len(np.unique(label[live]))
        assert built == [n] and "chebyshev" not in H.__dict__
        other = np.where(live, 0, 1.0)
        dynamics.krylov_expm_apply(H, other, 1.0)
        dynamics.krylov_expm_apply(H, other, 2.0)
        dynamics.krylov_expm_apply(H, psi, 1.0)
        assert built == [n, label.max() + 1 - n, n] and split == [H.shape]


class TestGeometricTimes:
    def test_grid_that_never_reaches_t_max_is_rejected(self):
        # in a child process with bounded address space and time, so a
        # regressed guard fails the test instead of hanging or eating memory
        code = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from nelsonlab.dynamics import geometric_times
for args in [(1.0, 100.0, 1.0), (1.0, 100.0, 0.5), (0.0, 100.0, 1.5), (-1.0, 100.0, 1.5),
             (20.0, 10.0, 1.5)]:
    try:
        geometric_times(*args)
    except ValueError:
        continue
    sys.exit(f"no ValueError for {args}")
"""
        src = str(Path(dynamics.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, done.stderr


class TestCutoffs:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(dynamics.ConfigWindowError):
            dynamics.CutoffFamily(0.5, 0.4, 0.38, 0.42, 0.46, 0.5)

    def test_partition_sums_to_one(self):
        s = np.linspace(0, 1, 201)
        assert np.abs(CUTS.j0(s) + CUTS.jinf(s) - 1.0).max() < 1e-15

    def test_chi_gamma_support(self):
        assert CUTS.chi_gamma(0.3) == 0.0
        assert CUTS.chi_gamma(0.46) == 0.0
        assert CUTS.chi_gamma(0.5) == 1.0

    def test_j0_chi_gamma_product_vanishes(self):
        s = np.linspace(0, 1.5, 301)
        assert np.abs(CUTS.j0(s) * CUTS.chi_gamma(s)).max() == 0.0


class TestElectronProbe:
    def test_zero_cutoff_gives_zero_track(self, lattice_setup):
        ms, fb, H = lattice_setup
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.06, 0.045, 0.6)
        times = dynamics.geometric_times(1.0, 10.0, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.electron_velocity_probe(ms, fb, prop, lambda s: np.zeros_like(s))
        assert np.abs(track.values).max() == 0.0

    def test_free_ballistic_slow_packet(self, nonrel, ff):
        """g=0 packet with v < beta: F-tail expectation decays monotonically.

        Smoke scale (L = 64); the 1e-3 acceptance threshold needs L = 128 and
        is exercised in the acceptance suite."""
        L = 64
        grid = fock.lattice_grid(L, [4], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.0)
        fb = model.full_basis(ms, L, 0)
        H = model.build_full_H(ms, fb)
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.08, 0.045, 0.6)
        times = dynamics.geometric_times(1.0, 50.0, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.electron_velocity_probe(ms, fb, prop,
                                                 dynamics.rising_cutoff(0.4, 0.5))
        assert track.values[-1] < 3e-2  # L=64 filter-edge resolution floor
        tail = track.values[len(track.values) // 2:]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_zone_margin_validator(self, lattice_setup):
        ms, fb, H = lattice_setup
        fast = dynamics.gaussian_electron_state(fb, 0.95 * np.pi, 0.05)
        with pytest.raises(dynamics.ProbePreconditionError):
            dynamics.validate_zone_margin(fb, fast)

    def test_filter_leak_precondition(self, lattice_setup):
        ms, fb, H = lattice_setup
        with pytest.raises(dynamics.ProbePreconditionError):
            dynamics.filtered_packet(fb, H, 0.05, 0.06, -1.0, 0.5)

    def test_momentum_conservation(self, lattice_setup, rng):
        ms, fb, H = lattice_setup
        psi, _ = dynamics.filtered_packet(fb, H, 0.05, 0.06, 0.045, 0.6)
        times = dynamics.geometric_times(1.0, 20.0, 1.6)
        Pt = oracles.total_momentum_op(fb)
        m1, m2 = [], []
        for _, v in dynamics.snapshots(dynamics.Propagation(H, psi, times)):
            m1.append(np.vdot(v, Pt @ v).real)
            m2.append(np.vdot(v, Pt @ (Pt @ v)).real)
        assert np.abs(np.array(m1) - m1[0]).max() < 1e-9
        assert np.abs(np.array(m2) - m2[0]).max() < 1e-9


class TestW:
    def test_dressed_packet_w_vanishes(self, fiber_setup):
        ms, basis, H = fiber_setup
        psiP = dynamics.dressed_state(ms, [0.25], basis)
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 100.0, 1.5)
        prop = dynamics.Propagation(H, psiP.amps, times)
        track = dynamics.W_estimate(prop, basis, CUTS, ycalc)
        assert track.final() < 1e-6

    def test_one_boson_w_stays_inside_the_horizon(self, fiber_setup):
        """Negative control of ``dressed_w_vanishes``: a*(h) Omega on the
        12-mode fiber, judged at t <= 0.8 y_max / gamma where the cutoff can
        still see it, keeps w near 0.75."""
        ms, basis, H = fiber_setup
        k = ms.grid.points[:, 0]
        psi = dynamics.one_boson_state(basis, np.exp(-((k - 0.8) ** 2) / (2 * 0.3 ** 2)))
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 0.8 * ycalc.y_max / CUTS.gamma, 1.5)
        track = dynamics.W_estimate(dynamics.Propagation(H, psi, times), basis, CUTS, ycalc)
        assert track.final() > 0.5

    def test_free_boson_w_goes_to_one(self):
        sigma = 0.2
        heavy = model.DispersionLaw("nonrel", 1.0e8)  # decoupled electron
        grid = fock.line_grid(192, 2.0, sigma)
        ff = model.FormFactor(1.0, 1.0, sigma)
        ms = model.ModelSpec(heavy, ff, grid, 0.0, use_modified=True)
        basis = fock.build_basis(grid, 1)
        H = model.build_fiber_H(ms, [0.0], basis)
        k = grid.points[:, 0]
        h = np.exp(-((k - 0.8) ** 2) / (2 * 0.1 ** 2))  # group speed 1 > gamma
        psi = dynamics.one_boson_state(basis, h)
        ycalc = dynamics.YCalc(grid)
        t_max = 0.75 * ycalc.y_max
        times = dynamics.geometric_times(2.0, t_max, 1.5)
        prop = dynamics.Propagation(H, psi, times)
        track = dynamics.W_estimate(prop, basis, CUTS, ycalc)
        assert abs(track.final() - 1.0) <= 0.05

    def test_excited_state_w_positive_and_cap_stable(self, ms_default, grid12):
        # positivity window: gamma in (beta, 1 - 2 beta) with beta < 1/3
        poscuts = dynamics.CutoffFamily(0.25, 0.28, 0.31, 0.35, 0.40, 0.45)
        finals = []
        for n_max in (2, 3):
            basis = fock.build_basis(grid12, n_max)
            H = model.build_fiber_H(ms_default, [0.25], basis)
            res = spectral.ground_state(H, k=2, tol=1e-11)
            rng = np.random.default_rng(5)
            v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
            v[~fock.interacting_mask(basis)] = 0.0
            gsv = res.ground_vector.amps
            v = v - gsv * np.vdot(gsv, v)
            calc = spectral.SpectralCalculus(H)
            v = calc.fn(dynamics.energy_window(1.2)) @ v
            v = v - gsv * np.vdot(gsv, v)
            v /= np.linalg.norm(v)
            ycalc = dynamics.YCalc(grid12)
            t_max = 0.8 * ycalc.y_max / poscuts.gamma
            times = dynamics.geometric_times(1.0, t_max, 1.5)
            prop = dynamics.Propagation(H, v, times)
            track = dynamics.W_estimate(prop, basis, poscuts, ycalc,
                                        positivity_mode=True)
            finals.append(track.final())
        assert min(finals) > 0.0
        assert abs(finals[0] - finals[1]) <= 0.2 * max(finals)

    @pytest.mark.parametrize("t_max", [6.0, 20.0])
    def test_w_assembles_no_dGamma(self, fiber_setup, monkeypatch, t_max):
        """W(t) reads <dGamma(b)> from the one-boson density matrix: no sparse
        dGamma is built, however long the time grid."""
        calls = []
        real = fock.dGamma

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fock, "dGamma", counting)
        monkeypatch.setattr(dynamics, "dGamma", counting)
        ms, basis, H = fiber_setup
        psi = dynamics.dressed_state(ms, [0.25], basis).amps
        prop = dynamics.Propagation(H, psi, dynamics.geometric_times(1.0, t_max, 1.5))
        track = dynamics.W_estimate(prop, basis, CUTS, dynamics.YCalc(ms.grid))
        assert len(track.values) == len(prop.times)
        assert calls == []

    def test_positivity_mode_window_enforced(self, fiber_setup):
        ms, basis, H = fiber_setup
        bad = dynamics.CutoffFamily(0.4, 0.45, 0.5, 0.55, 0.6, 0.65)
        prop = dynamics.Propagation(H, fock.FockVector.vacuum(basis).amps,
                                    dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.raises(dynamics.ConfigWindowError):
            dynamics.W_estimate(prop, basis, bad, dynamics.YCalc(ms.grid),
                                positivity_mode=True)


@pytest.fixture(scope="module")
def small_fiber(nonrel):
    sigma = 0.2
    grid = fock.line_grid(8, 1.2, sigma)
    ff = model.FormFactor(1.0, 1.0, sigma)
    ms = model.ModelSpec(nonrel, ff, grid, 0.05)
    basis = fock.build_basis(grid, 2)
    H = model.build_fiber_H(ms, [0.25], basis)
    return ms, basis, H


class TestWPlus:
    def test_dressed_packet_both_norms_vanish(self, small_fiber):
        ms, basis, H = small_fiber
        psiP = dynamics.dressed_state(ms, [0.25], basis)
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 16.0, 1.5)
        prop = dynamics.Propagation(H, psiP.amps, times)
        track = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, ycalc, f_window=1.2)
        assert track.values[-1] < 1e-8
        assert max(track.extras["outer_vacuum_norms"]) < 1e-8

    def test_outer_vacuum_exact_routing(self, small_fiber, rng):
        ms, basis, H = small_fiber
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        v /= np.linalg.norm(v)
        ycalc = dynamics.YCalc(ms.grid)
        times = dynamics.geometric_times(1.0, 6.0, 1.5)
        prop = dynamics.Propagation(H, v, times)
        track = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, ycalc, f_window=1.2)
        assert track.verdicts["outer_vacuum_small"]

    def test_jinf_zero_routes_outer_vacuum(self, small_fiber, rng):
        from nelsonlab.split import build_tensor_basis, breve_gamma

        ms, basis, H = small_fiber
        M = ms.grid.n_modes
        tb = build_tensor_basis(basis)
        BG = breve_gamma(np.eye(M), np.zeros((M, M)), tb)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        out = BG @ v
        outer_vacuum = tb.pair_numbers()[:, 1] == 0
        assert np.linalg.norm(out[outer_vacuum]) == pytest.approx(np.linalg.norm(out), abs=1e-14)

    @pytest.mark.parametrize("use_modified", [True, False], ids=["modified", "free"])
    def test_extended_fiber_intertwines_splitting_and_fusion_at_g0(self, nonrel, use_modified):
        """At g = 0, Gamma-breve(j) H(P) = H_ext Gamma-breve(j) for j = (1, 0)
        and (0, 1), and H(P) I = I H_ext, exactly: the inner leg of an outer
        state r sits at P - K_r, and the outer photons move with the
        dispersion H was built with (|k| at use_modified=False)."""
        from nelsonlab.split import breve_gamma, build_tensor_basis, scattering_ident

        grid = fock.line_grid(8, 1.5, 0.2)
        ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.0,
                             use_modified=use_modified)
        basis = fock.build_basis(grid, 2)
        H = model.build_fiber_H(ms, [0.25], basis)
        tb = build_tensor_basis(basis)
        Hext = model.extended_fiber_H(ms, [0.25], tb).mat.toarray()
        eye, zero = np.eye(grid.n_modes), np.zeros((grid.n_modes,) * 2)
        for j in ((eye, zero), (zero, eye)):
            BG = breve_gamma(*j, tb)
            assert np.array_equal(BG @ H.mat.toarray(), Hext @ BG)
        I = scattering_ident(tb).toarray()
        assert np.array_equal(H.mat.toarray() @ I, I @ Hext)

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_extended_fiber_is_the_sum_of_shifted_fibers(self, nonrel, n_max):
        """Each outer-state block of H_ext is H(P - K_r) on N <= n_max - n_r
        plus E_r, and no entry joins two blocks."""
        from nelsonlab.split import build_tensor_basis

        grid = fock.line_grid(8, 1.5, 0.2)
        ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.05)
        basis = fock.build_basis(grid, n_max)
        P = np.array([0.25])
        tb = build_tensor_basis(basis)
        Hext = model.extended_fiber_H(ms, P, tb).mat
        inner, outer = tb.pairs.T
        rows, cols = Hext.nonzero()
        assert np.array_equal(outer[rows], outer[cols])
        N, K = basis.total_numbers(), basis.boson_momenta()
        for r in range(basis.size):
            pairs = np.flatnonzero(outer == r)
            keep = np.flatnonzero(N <= n_max - N[r])
            assert np.array_equal(inner[pairs], keep)
            shifted = model.build_fiber_H(ms, P - K[r], basis).mat.toarray()[np.ix_(keep, keep)]
            E_r = basis.occupations([r])[0] @ ms.boson_omega()
            block = Hext[pairs][:, pairs].toarray()
            assert np.abs(block - (shifted + E_r * np.eye(len(keep)))).max() <= 1e-14

    def test_extended_fiber_of_a_real_fiber_is_real(self, small_fiber):
        """H_ext is float64 when H(P) is, and its coupling is H(P)'s lifted
        onto the inner leg by ``tensor_factor_ops``, entry for entry."""
        from nelsonlab.split import build_tensor_basis, tensor_factor_ops

        ms, basis, H = small_fiber
        assert H.mat.dtype == np.float64
        tb = build_tensor_basis(basis)
        Hext = model.extended_fiber_H(ms, [0.25], tb).mat
        assert Hext.dtype == np.float64
        lift = tensor_factor_ops(tb, op_left=H.mat - sp.diags(H.mat.diagonal()))
        assert lift.dtype == complex and not lift.imag.count_nonzero()
        off = Hext - sp.diags(Hext.diagonal())
        assert not (off - lift.real).count_nonzero()

    def test_probe_refuses_a_hamiltonian_off_the_fiber(self, small_fiber):
        ms, basis, H = small_fiber
        prop = dynamics.Propagation(H, fock.FockVector.vacuum(basis).amps,
                                    dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.raises(ValueError, match="fiber H"):
            dynamics.W_plus_probe(ms, [0.3], prop, CUTS, dynamics.YCalc(ms.grid), f_window=1.2)

    def test_probe_refuses_a_state_the_window_annihilates(self, small_fiber):
        """The window below 0.01 lies under the fiber's spectrum, which starts
        near P^2 / 2 = 0.031."""
        ms, basis, H = small_fiber
        prop = dynamics.Propagation(H, dynamics.dressed_state(ms, [0.25], basis).amps,
                                    dynamics.geometric_times(1.0, 2.0, 1.5))
        with pytest.raises(dynamics.ProbePreconditionError, match="annihilates"):
            dynamics.W_plus_probe(ms, [0.25], prop, CUTS, dynamics.YCalc(ms.grid),
                                  f_window=0.01)

    @pytest.mark.parametrize("M,n_max", [(8, 3), (12, 2), (12, 3), (32, 2)])
    def test_factorized_splitting_matches_breve_gamma(self, M, n_max, rng):
        """W_+'s splitting (Gamma(j0) x Gamma(jinf)) I* phi equals the dense
        splitting map on phi, with j the position cutoffs at two times."""
        from nelsonlab.split import (apply_breve_gamma, breve_gamma, build_tensor_basis,
                                     scattering_ident)

        grid = fock.line_grid(M, 1.5, 0.2)
        basis = fock.build_basis(grid, n_max)
        tb = build_tensor_basis(basis)
        fusion_adj = scattering_ident(tb).conj().T
        ycalc = dynamics.YCalc(grid)
        phi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        for t in (1.5, 5.0):
            j0 = ycalc.fn(lambda lam: CUTS.j0(np.abs(lam) / t))
            jinf = ycalc.fn(lambda lam: CUTS.jinf(np.abs(lam) / t))
            dense = breve_gamma(j0, jinf, tb) @ phi
            assert np.abs(apply_breve_gamma(j0, jinf, tb, phi, fusion_adj) - dense).max() <= 1e-13

    def test_one_calculus_and_no_dense_splitting(self, small_fiber, monkeypatch):
        """One probe call builds one SpectralCalculus (H_ext's, which also
        filters the initial state), never the dense breve_gamma and never the
        doubled-grid basis."""
        from nelsonlab import split

        def refuse(*args, **kwargs):
            raise AssertionError("the dense splitting path was taken")

        built = []

        class Counted(spectral.SpectralCalculus):
            def __init__(self, *args, **kwargs):
                built.append(args[0].shape[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(split, "breve_gamma", refuse)
        monkeypatch.setattr(split.TensorBasis, "sum_basis", property(refuse))
        monkeypatch.setattr(dynamics, "SpectralCalculus", Counted)
        ms, basis, H = small_fiber
        prop = dynamics.Propagation(H, dynamics.dressed_state(ms, [0.25], basis).amps,
                                    dynamics.geometric_times(1.0, 4.0, 1.5))
        track = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, dynamics.YCalc(ms.grid),
                                      f_window=1.2)
        assert built == [track.extras["extended_dim"]]
        assert track.verdicts["outer_vacuum_small"]

    def test_all_inner_routing_fails_the_outer_vacuum_verdict(self, nonrel, rng):
        """Negative control: with j0 = 1 and jinf = 0 every boson is routed
        inner, so the outer vacuum carries all of W_+ phi and the verdict
        must come out false on a random state."""

        class AllInner(dynamics.CutoffFamily):
            def j0(self, s):
                return np.ones_like(np.asarray(s, float))

            def jinf(self, s):
                return np.zeros_like(np.asarray(s, float))

        grid = fock.line_grid(8, 1.5, 0.2)
        ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.05)
        basis = fock.build_basis(grid, 2)
        H = model.build_fiber_H(ms, [0.25], basis)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        prop = dynamics.Propagation(H, v / np.linalg.norm(v), dynamics.geometric_times(1, 6, 1.5))
        ycalc = dynamics.YCalc(grid)
        track = dynamics.W_plus_probe(ms, [0.25], prop, AllInner(), ycalc, f_window=1.2)
        assert not track.verdicts["outer_vacuum_small"]
        assert max(track.extras["outer_vacuum_norms"]) > 0.1
        real = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, ycalc, f_window=1.2)
        assert real.verdicts["outer_vacuum_small"]

    def test_runs_past_the_old_pair_cap(self, nonrel, rng):
        """line_grid(16) at n_max = 3 has 6545 pairs; no array is larger than
        basis x basis, and the largest H_ext block is within the calculus limit."""
        grid = fock.line_grid(16, 1.5, 0.2)
        ms = model.ModelSpec(nonrel, model.FormFactor(1.0, 1.0, 0.2), grid, 0.05)
        basis = fock.build_basis(grid, 3)
        H = model.build_fiber_H(ms, [0.25], basis)
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        prop = dynamics.Propagation(H, v / np.linalg.norm(v), dynamics.geometric_times(1, 4, 1.5))
        track = dynamics.W_plus_probe(ms, [0.25], prop, CUTS, dynamics.YCalc(grid), f_window=1.2)
        assert track.extras["extended_dim"] == 6545
        assert track.extras["largest_block"] <= spectral.DENSE_CUTOFF
        assert track.verdicts["outer_vacuum_small"]


class TestFiberFullConsistency:
    def test_translation_invariant_observable_matches(self, nonrel, ff):
        """<N(t)> for a momentum-concentrated dressed state: the full-model
        run equals the fiber run at the packet's momentum."""
        L = 32
        grid = fock.lattice_grid(L, [-6, -3, 3, 6], 0.2)
        ms = model.ModelSpec(nonrel, ff, grid, 0.05)
        fb = model.full_basis(ms, L, 2)
        Hfull = model.build_full_H(ms, fb)
        m_tot = 2
        P = 2 * np.pi * m_tot / L
        blocks = oracles.momentum_blocks(fb)
        idx = blocks[m_tot]
        rng = np.random.default_rng(8)
        amps = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        psi_full = np.zeros(fb.size, dtype=complex)
        psi_full[idx] = amps / np.linalg.norm(amps)
        Hfib = oracles.wrapped_fiber_H(ms, [P], fb.boson)
        # match the block state to the fiber by boson content
        psi_fib = np.zeros(fb.boson.size, dtype=complex)
        for pos, i in enumerate(idx):
            psi_fib[i % fb.boson.size] = psi_full[i]
        Nfib = fock.number_op(fb.boson)
        Nfull = oracles.lift_boson_op(fb, Nfib)
        for t in (2.0, 5.0):
            uf = dynamics.krylov_expm_apply(Hfull.mat, psi_full, t, tol=1e-12)
            ub = dynamics.krylov_expm_apply(Hfib.mat, psi_fib, t, tol=1e-12)
            a = np.vdot(uf, Nfull @ uf).real
            b = np.vdot(ub, Nfib @ ub).real
            assert abs(a - b) < 1e-8
