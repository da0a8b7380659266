"""Conjugate operator, explicit commutator, virial and positive-commutator checks.

The conjugate operator is A = dGamma(a) with the one-boson generator
a = (v y + y v)/2, where y is the photon position i d/dk and v the group
velocity along y (k/|k| for the free dispersion, grad omega for the
modified one).  Every supported grid is a set of rays of equally spaced
modes: the line and lattice grids one ray in the order of k, the radial grid
one ray per angular direction.  y is i times central differences along each
ray, symmetrized once in the weighted inner product, so that it is
weighted-Hermitian (exactly so for equal weights).

The explicit commutator is assembled in the three-term form

    [iH(P), A] = dGamma(|v|^2) - grad Omega(P - K) . dGamma(v) - g phi(i a kappa_sigma)

with every one-particle object sampled on the grid.  Because y is a grid
operator, the explicit form and the direct matrix commutator i(HA - AH) of
``numerical_commutator`` differ by O(mesh^2) in the first two terms on
smooth states (trace([X, Y]) = 0 forbids an exact finite-dimensional
realization of the continuum identity).

The positive-commutator scan samples r(phi) on the spectral window of H
inside Ran Gamma(chi_i), the states of ``fock.interacting_mask``, on which H
is diagonalized densely.  A coupling sweep assembles no H per coupling: H's
interacting rows are densified once, with the coupling at g = 1, and the
g = 0 commutator is formed once, so that each coupling's window matrix is
diag + g V and its commutator base - g phi(i a kappa_sigma), bit for bit
what assembling H(g) and the commutator at g gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .fock import (
    GridError,
    ModeGrid,
    OccupationBasis,
    dGamma,
    field_op,
    interacting_mask,
    omega_modified_grad,
    weighted_adjoint,
)
from .model import CouplingLayout, ModelSpec, build_fiber_H, fiber_layout


class UnsupportedGridError(GridError):
    """Grid has no structure usable for finite differences."""


class EmptySubspaceError(ValueError):
    """Requested spectral window contains no admissible vectors."""


# ---------------------------------------------------------------------------
# Position operator and conjugate operator
# ---------------------------------------------------------------------------

def _central_difference(n: int, h: float) -> np.ndarray:
    """Central differences with one-sided boundary rows, spacing h."""
    D = np.zeros((n, n))
    i = np.arange(1, n - 1)
    D[i, i - 1] = -0.5 / h
    D[i, i + 1] = 0.5 / h
    if n >= 2:
        D[0, 0], D[0, 1] = -1.0 / h, 1.0 / h
        D[n - 1, n - 2], D[n - 1, n - 1] = -1.0 / h, 1.0 / h
    return D


def _rays(grid: ModeGrid) -> tuple[np.ndarray, float]:
    """(n_rays, length) mode indices of the grid's rays, in order along each
    ray, and their common step."""
    kind = grid.meta.get("kind")
    if kind in ("line", "lattice"):
        k = grid.points[:, 0]
        order = np.argsort(k)
        if not np.allclose(np.diff(np.diff(k[order])), 0.0, atol=1e-9):
            raise UnsupportedGridError("non-uniform 1-d grid")
        return order[None, :], float(k[order][1] - k[order][0])
    if kind == "radial":
        # mode r * n_ang + a sits at radius r on direction a
        rays = np.arange(grid.n_modes).reshape(grid.meta["n_r"], grid.meta["n_ang"]).T
        return rays, grid.meta["dr"]
    raise UnsupportedGridError(f"unsupported grid kind {kind!r}")


def build_position_op(grid: ModeGrid) -> np.ndarray:
    """Position matrix y = i d/dk along the grid's rays, weighted-Hermitian.

    Supported structures: 1-d line and lattice grids (one ray) and the d = 3
    radial grid (one ray per angular direction).  Non-uniform 1-d and
    unstructured grids raise UnsupportedGridError.
    """
    rays, h = _rays(grid)
    iD = 1j * _central_difference(rays.shape[1], h)
    y = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
    for ray in rays:
        y[np.ix_(ray, ray)] = iD
    # equal weights enter the adjoint as an exact factor 1
    return (y + weighted_adjoint(grid, grid, y)) / 2.0


def group_velocity(grid: ModeGrid, use_modified: bool) -> np.ndarray:
    """(M, d) boson group velocity samples: k/|k| or grad omega."""
    pts = np.atleast_2d(grid.points)[:, :grid.dim]
    kn = grid.omega_free[:, None]
    khat = pts / kn
    if not use_modified:
        return khat
    return omega_modified_grad(grid.omega_free, grid.sigma)[:, None] * khat


@dataclass
class ConjugateOp:
    """Dilation-type conjugate operator dGamma((v y + y v)/2) on a fiber basis,
    with the commutator's two coupling-independent operators: dGamma(|v|^2)
    and phi(i a kappa_sigma), the field term before its factor g.  They
    hold for the grid, dispersion switch, form factor and basis it was built
    for."""

    A: sp.csr_matrix
    mesh: float
    dgamma_v2: sp.csr_matrix
    field_a: sp.csr_matrix


def build_conjugate(ms: ModelSpec, basis: OccupationBasis) -> ConjugateOp:
    """Assemble y, a = (v y + y v)/2 and A = dGamma(a), which must come out
    exactly Hermitian, and the commutator's dGamma(|v|^2) and
    phi(i a kappa_sigma); none of them depends on the coupling g."""
    grid = ms.grid
    y = build_position_op(grid)
    vel = group_velocity(grid, ms.use_modified)
    # velocity along the ray: the k axis in d = 1, the radius on the radial grid
    v = vel[:, 0] if grid.dim == 1 else np.linalg.norm(vel, axis=1)
    a = (v[:, None] * y + y * v[None, :]) / 2.0
    A = dGamma(basis, a)
    if (A - A.conj().T).count_nonzero():
        raise AssertionError("conjugate operator lost hermiticity")
    mesh = (grid.meta.get("spacing") or grid.meta.get("dr")
            or float(np.min(np.diff(np.sort(grid.points[:, 0])))))
    # dGamma(|v|^2) equals N for the free dispersion
    dgamma_v2 = dGamma(basis, np.sum(vel * vel, axis=1))
    field_a = field_op(basis, 1j * (a @ ms.coupling_samples()))
    return ConjugateOp(A=A, mesh=float(mesh), dgamma_v2=dgamma_v2, field_a=field_a)


# ---------------------------------------------------------------------------
# Commutator
# ---------------------------------------------------------------------------

def commutator_iHA(ms: ModelSpec, P, basis: OccupationBasis,
                   conj: ConjugateOp, *, base: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Explicit three-term form of [iH(P), A] on the fiber basis; the first
    and the third term's operator are read off ``conj``, which must have been
    built for the grid, dispersion switch, form factor and basis of this H.
    ``base`` is this commutator at g = 0 for the same P and dispersion,
    already formed, or None to form it here; the commutator at g is then
    base - g phi(i a kappa_sigma)."""
    if base is None:
        P = np.atleast_1d(np.asarray(P, dtype=float))
        vel = group_velocity(ms.grid, ms.use_modified)
        # term 2: -grad Omega(P - K(n)) . dGamma(v), diagonal in occupation
        K = basis.boson_momenta()
        gradO = ms.disp.grad(P[None, :] - K)
        dgv = basis.mode_sum(vel)
        diag2 = -np.sum(gradO * dgv, axis=1)
        t2 = sp.diags(diag2, format="csr")
        # term 1, dGamma(|v|^2), plus term 2: real diagonals
        base = (conj.dgamma_v2 + t2).tocsr()
    if ms.g == 0.0:
        return base
    # term 3, -g phi(i a kappa_sigma), a field, so the sum is exactly Hermitian
    return (base - (ms.g * conj.field_a)).tocsr()


def numerical_commutator(H: sp.csr_matrix, A: sp.csr_matrix) -> sp.csr_matrix:
    """Direct matrix commutator i(HA - AH) of two matrices."""
    mat = 1j * (H @ A - A @ H)
    return ((mat + mat.conj().T) / 2.0).tocsr()


def virial_residual(comm: sp.csr_matrix, psi) -> float:
    """|<psi, [iH, A] psi>| / ||psi||^2, for eigenvector candidates psi."""
    v = psi.amps if hasattr(psi, "amps") else np.asarray(psi)
    n2 = float(np.vdot(v, v).real)
    return abs(complex(np.vdot(v, comm @ v))) / n2


# ---------------------------------------------------------------------------
# Positive-commutator scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _FiberParts:
    """The coupling-free parts of criterion 7's scans on one fiber at P for
    one electron dispersion.  ``idx`` are the rows of ``interacting_mask``;
    ``diag`` and ``coupling`` are H's diagonal and g = 1 coupling on them,
    dense, so that the window matrix at g is diag + g coupling, the entries
    of H(g) sliced out bit for bit (each entry is one term plus an exact
    zero, and g c / sqrt(2) is ``_assemble``'s product).  ``base`` is the
    g = 0 commutator."""

    idx: np.ndarray
    diag: np.ndarray
    coupling: np.ndarray
    base: sp.csr_matrix


def _fiber_parts(ms: ModelSpec, P, basis: OccupationBasis, conj: ConjugateOp,
                 layout: CouplingLayout | None = None) -> _FiberParts:
    """H(P) at g = 1, whose coupling entries are c / sqrt(2) exactly, with
    its interacting rows densified once, and the g = 0 commutator."""
    H = build_fiber_H(replace(ms, g=1.0), P, basis, layout=layout)
    idx = np.flatnonzero(interacting_mask(basis))
    window = H.mat[idx][:, idx].toarray()
    diag = np.diag(np.diag(window))
    return _FiberParts(idx, diag, window - diag,
                       commutator_iHA(replace(ms, g=0.0), P, basis, conj))


def _window_subspace(parts: _FiberParts, g: float, size: int, sigma_win: float):
    """Orthonormal frame of Ran E_Sigma(H) within Ran Gamma(chi_i), with the
    ground state removed, of H at coupling g on a basis of ``size`` states;
    also returns the window matrix, H on the rows of ``interacting_mask``,
    which is diagonalized densely, and the ground energy."""
    window = parts.diag + g * parts.coupling
    vals, vecs = np.linalg.eigh(window)
    inside = vals <= sigma_win
    if not np.any(inside):
        raise EmptySubspaceError("no spectrum in the requested window")
    frame = np.zeros((size, int(np.sum(inside))), dtype=complex)
    frame[parts.idx, :] = vecs[:, inside]
    # drop the ground state (first column)
    frame = frame[:, 1:]
    if frame.shape[1] == 0:
        raise EmptySubspaceError("window contains only the ground state")
    return window, frame, float(vals[0])


def mourre_scan(ms: ModelSpec, P, basis: OccupationBasis, sigma_win: float,
                beta: float, conj: ConjugateOp, sample_count: int = 64,
                seed: int = 11, *, parts: _FiberParts | None = None) -> dict:
    """Sample r(phi) = <phi,[iH,A]phi> - (1-beta) <phi,N phi> on the window.

    phi are seeded random unit vectors in Ran E_Sigma(H) (cap) Ran Gamma(chi_i),
    orthogonal to the computed ground state.  Returns min r, the positivity
    deficit max(0, -min r), and per-sample values.  ``conj`` must have been
    built for the grid, dispersion switch, form factor and basis of ``ms``;
    ``parts`` are ``_fiber_parts`` for them, P and the dispersion of ``ms``,
    already formed, or None to form them here.
    """
    if parts is None:
        parts = _fiber_parts(ms, P, basis, conj)
    _, frame, e0 = _window_subspace(parts, ms.g, basis.size, sigma_win)
    comm = commutator_iHA(ms, P, basis, conj, base=parts.base)
    rng = np.random.default_rng(seed)
    m = frame.shape[1]
    coeffs = rng.normal(size=(sample_count, m)) + 1j * rng.normal(size=(sample_count, m))
    # column x of Phi is sample x
    Phi = frame @ (coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)).T
    n = basis.total_numbers()[:, None]
    values = np.sum(Phi.conj() * (comm @ Phi - (1.0 - beta) * n * Phi), axis=0).real
    min_r = float(values.min())
    return {
        "min_r": min_r,
        "deficit": max(0.0, -min_r),
        "per_sample": values.tolist(),
        "window_dim": m,
        "ground_energy": e0,
        "mesh": conj.mesh,
        "beta": beta,
        "sigma_window": sigma_win,
    }


def mourre_sweep(ms_factory, g_values, P, basis: OccupationBasis,
                 sigma_win: float, beta_fn, sample_count: int = 64,
                 seed: int = 11) -> dict:
    """Run mourre_scan over a coupling sweep and fit how min_r moves with g.

    ms_factory(g) must return the model at coupling g; beta_fn(g) the velocity
    bound used in r.  Each row records C(g) = |min_r(g) - min_r(0)| / g, and
    ``loglog_slope`` is the slope of log C(g) against log g, that is of
    log(|min_r(g) - min_r(0)| / g): a slope of 1 means |min_r(g) - min_r(0)|
    grows as g^2, not linearly.  The sign is not fitted.  On criterion 7's
    pinned inputs (line_grid(8, 1.6, 0.1), n_max = 2, P = 0.25, window 0.32)
    min_r rises with g, so the fit measures a quadratic gain in positivity,
    not a loss.  ``shift_signs`` gives the sign of min_r(g) - min_r(0) per
    row, and ``soft_modes`` counts the grid's modes with |k| <= sigma, the
    only ones whose omega_mod depends on sigma.

    The conjugate operator and the commutator's coupling-independent terms
    are built once, from ms_factory(0.0), and every scan reads them, so the
    factory's models must share one grid, dispersion switch and form factor;
    a model that does not raises ``ValueError``.  They share one
    ``fiber_layout`` too, and each electron dispersion among them one
    ``_fiber_parts``: H's interacting rows densified once and the g = 0
    commutator formed once, from which each coupling's window matrix and
    commutator follow bit for bit, with no H assembled per coupling.  The
    ``eigh`` of each window stays per coupling.  ``stats`` records the
    basis dimension, the stored entries of A and of the g = 0 commutator,
    and the window dimension.
    """
    ms0 = ms_factory(0.0)
    conj = build_conjugate(ms0, basis)
    layout = fiber_layout(ms0, basis)
    parts = {ms0.disp: _fiber_parts(ms0, P, basis, conj, layout)}
    base = mourre_scan(ms0, P, basis, sigma_win, beta_fn(0.0), conj,
                       sample_count=sample_count, seed=seed, parts=parts[ms0.disp])
    rows = []
    for gg in g_values:
        ms = ms_factory(gg)
        if not (ms.grid is ms0.grid and ms.use_modified == ms0.use_modified
                and ms.ff == ms0.ff):
            raise ValueError("the sweep's models do not share one grid, "
                             "dispersion switch and form factor")
        if ms.disp not in parts:
            parts[ms.disp] = _fiber_parts(ms, P, basis, conj, layout)
        rep = mourre_scan(ms, P, basis, sigma_win, beta_fn(gg), conj,
                          sample_count=sample_count, seed=seed, parts=parts[ms.disp])
        fitted_c = abs(rep["min_r"] - base["min_r"]) / gg if gg > 0 else 0.0
        rows.append((float(gg), rep["min_r"], fitted_c))
    gs = np.array([r[0] for r in rows])
    cs = np.array([r[2] for r in rows])
    good = (gs > 0) & (cs > 0)
    slope = math.nan
    if np.sum(good) >= 2:
        slope = float(np.polyfit(np.log(gs[good]), np.log(cs[good]), 1)[0])
    return {
        "min_r0": base["min_r"],
        "per_sample_g0": base["per_sample"],
        "rows": rows,
        "loglog_slope": slope,
        "fitted_points": int(np.sum(good)),
        "shift_signs": [int(np.sign(r[1] - base["min_r"])) for r in rows],
        "soft_modes": int(np.count_nonzero(basis.grid.soft_mask())),
        "window_dim": base["window_dim"],
        "mesh": base["mesh"],
        "stats": {"dim": basis.size, "conjugate_nnz": int(conj.A.nnz),
                  "commutator_nnz_g0": int(parts[ms0.disp].base.nnz),
                  "window_dim": base["window_dim"]},
    }
