"""Conjugate operator, explicit commutator, virial and positive-commutator checks.

The conjugate operator is A = dGamma(a) with the one-boson generator
a = (v . y + y . v)/2, where v is the boson group velocity (k/|k| for the
free dispersion, grad omega for the modified one) and y is a finite-difference
realization of i d/dk, weight-symmetrized so that it is exactly Hermitian in
the weighted inner product.

The explicit commutator is assembled in the three-term form

    [iH(P), A] = dGamma(|v|^2) - grad Omega(P - K) . dGamma(v) - g phi(i a kappa_sigma)

with every one-particle object sampled on the grid.  Because y is a grid
operator, the explicit form and the direct matrix commutator i(HA - AH)
differ by O(mesh^2) in the first two terms; tolerances in this module carry
that scale explicitly (trace([X, Y]) = 0 forbids an exact finite-dimensional
realization of the continuum identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import (
    GridError,
    ModeGrid,
    OccupationBasis,
    SparseOperator,
    dGamma,
    field_op,
    interacting_projector,
    omega_modified_grad,
)
from .model import ModelSpec, build_fiber_H


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
    for i in range(1, n - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    if n >= 2:
        D[0, 0], D[0, 1] = -1.0 / h, 1.0 / h
        D[n - 1, n - 2], D[n - 1, n - 1] = -1.0 / h, 1.0 / h
    return D


def build_position_op(grid: ModeGrid) -> list[np.ndarray]:
    """Per-axis position matrices y = i d/dk, Hermitian in the weighted product.

    Supported structures: 1-d line and lattice grids (single axis) and the
    d = 3 radial grid (derivative along the radius on each angular ray).
    Unstructured grids raise UnsupportedGridError.
    """
    kind = grid.meta.get("kind")
    if kind in ("line", "lattice"):
        # uniform weights: plain symmetrization is the weighted one, bit-exact
        k = np.atleast_2d(grid.points)[:, 0]
        order = np.argsort(k)
        if not np.allclose(np.diff(np.diff(k[order])), 0.0, atol=1e-9):
            raise UnsupportedGridError("non-uniform 1-d grid")
        h = float(k[order][1] - k[order][0])
        D = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
        D[np.ix_(order, order)] = _central_difference(grid.n_modes, h)
        A = 1j * D
        y = (A + A.conj().T) / 2.0
        return [y]
    if kind == "radial":
        # nonuniform weights: symmetrize in the orthonormal gauge
        n_r = grid.meta["n_r"]
        dr = grid.meta["dr"]
        n_ang = grid.meta["n_ang"]
        Dr = _central_difference(n_r, dr)
        y = np.zeros((grid.n_modes, grid.n_modes), dtype=complex)
        for a in range(n_ang):
            idx = np.array([r * n_ang + a for r in range(n_r)])
            y[np.ix_(idx, idx)] = 1j * Dr
        w = np.sqrt(grid.weights)
        yo = w[:, None] * y / w[None, :]
        yo = (yo + yo.conj().T) / 2.0
        return [yo / w[:, None] * w[None, :]]
    raise UnsupportedGridError(f"unsupported grid kind {kind!r}")


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
    """Dilation-type conjugate operator dGamma((v.y + y.v)/2) on a fiber basis."""

    grid: ModeGrid
    y_ops: list
    a_op: np.ndarray
    A: SparseOperator
    mesh: float


def build_conjugate(ms: ModelSpec, basis: OccupationBasis) -> ConjugateOp:
    """Assemble y, a = (v.y + y.v)/2 and A = dGamma(a)."""
    grid = ms.grid
    y_ops = build_position_op(grid)
    vel = group_velocity(grid, ms.use_modified)
    if grid.meta.get("kind") == "radial":
        # y acts radially; v.y contracts with the radial speed
        vr = np.linalg.norm(vel, axis=1)
        a = (np.diag(vr) @ y_ops[0] + y_ops[0] @ np.diag(vr)) / 2.0
    else:
        a = np.zeros_like(y_ops[0])
        for axis, y in enumerate(y_ops):
            v = np.diag(vel[:, axis])
            a = a + (v @ y + y @ v) / 2.0
    A = dGamma(basis, a)
    if not A.hermitian:
        raise AssertionError("conjugate operator lost hermiticity")
    mesh = grid.meta.get("spacing") or grid.meta.get("dr") or 0.0
    if not mesh:
        k = np.atleast_2d(grid.points)[:, 0]
        mesh = float(np.min(np.diff(np.sort(k))))
    return ConjugateOp(grid=grid, y_ops=y_ops, a_op=a, A=A, mesh=float(mesh))


# ---------------------------------------------------------------------------
# Commutator
# ---------------------------------------------------------------------------

def commutator_iHA(ms: ModelSpec, P, basis: OccupationBasis,
                   conj: ConjugateOp) -> SparseOperator:
    """Explicit three-term form of [iH(P), A] on the fiber basis."""
    P = np.atleast_1d(np.asarray(P, dtype=float))
    grid = ms.grid
    vel = group_velocity(grid, ms.use_modified)
    # term 1: dGamma(|v|^2); equals N for the free dispersion
    t1 = dGamma(basis, np.sum(vel * vel, axis=1))
    # term 2: -grad Omega(P - K(n)) . dGamma(v), diagonal in occupation
    K = basis.boson_momenta()
    gradO = ms.disp.grad(P[None, :] - K)
    dgv = basis.occ @ vel
    diag2 = -np.sum(gradO * dgv, axis=1)
    t2 = SparseOperator(sp.diags(diag2, format="csr"), True, basis, basis)
    # term 3: -g phi(i a kappa_sigma)
    out = t1 + t2
    if ms.g != 0.0:
        t3 = field_op(basis, 1j * (conj.a_op @ ms.coupling_samples()))
        out = out - (ms.g * t3)
    mat = (out.mat + out.mat.conj().T) / 2.0
    return SparseOperator(mat.tocsr(), True, basis, basis)


def numerical_commutator(H: SparseOperator, A: SparseOperator) -> SparseOperator:
    """Direct matrix commutator i(HA - AH)."""
    mat = 1j * (H.mat @ A.mat - A.mat @ H.mat)
    mat = (mat + mat.conj().T) / 2.0
    return SparseOperator(mat.tocsr(), True, H.basis_out, H.basis_in)


def smooth_test_states(basis: OccupationBasis, count: int = 8,
                       seed: int = 23) -> list[np.ndarray]:
    """Seeded guarded-sector states built from smooth, boundary-tapered
    mode profiles (Gaussians in k times a bump vanishing at the grid edge)."""
    from .fock import creation_op

    grid = basis.grid
    k = np.atleast_2d(grid.points)[:, 0]
    kmax = float(np.abs(k).max())
    with np.errstate(divide="ignore", over="ignore"):
        taper = np.where(np.abs(k) < kmax,
                         np.exp(-1.0 / np.maximum(1.0 - (k / kmax) ** 2, 1e-300)), 0.0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c1, c2 = rng.uniform(-0.6 * kmax, 0.6 * kmax, size=2)
        s = 0.35 * kmax
        h1 = taper * np.exp(-((k - c1) ** 2) / (2 * s * s))
        h2 = taper * np.exp(-((k - c2) ** 2) / (2 * s * s))
        v = np.zeros(basis.size, dtype=complex)
        v[0] = 1.0
        a1 = creation_op(basis, h1).mat
        a2 = creation_op(basis, h2).mat
        v = v + a1 @ v + 0.5 * (a2 @ (a1 @ v))
        guard = (basis.total_numbers() <= basis.n_max - 1).astype(float)
        v = v * guard
        out.append(v / np.linalg.norm(v))
    return out


def explicit_vs_numerical_defect(ms: ModelSpec, P, basis: OccupationBasis,
                                 conj: ConjugateOp, count: int = 8,
                                 seed: int = 23) -> float:
    """Quadratic-form gap between the explicit three-term commutator and
    i(HA - AH) on smooth guarded-sector states; scales as mesh^2.

    The comparison is stated on smooth tapered states because a grid y cannot
    reproduce the continuum chain rule on rough vectors at any mesh (and
    trace([X, Y]) = 0 forbids dGamma(|v|^2) = i[dGamma(omega), A] exactly)."""
    H = build_fiber_H(ms, P, basis)
    expl = commutator_iHA(ms, P, basis, conj)
    num = numerical_commutator(H, conj.A)
    D = expl.mat - num.mat
    worst = 0.0
    for v in smooth_test_states(basis, count, seed):
        worst = max(worst, abs(complex(np.vdot(v, D @ v))))
    return worst


def virial_residual(H: SparseOperator, comm: SparseOperator,
                    psi) -> float:
    """|<psi, [iH, A] psi>| / ||psi||^2, for eigenvector candidates psi."""
    v = psi.amps if hasattr(psi, "amps") else np.asarray(psi)
    n2 = float(np.vdot(v, v).real)
    return abs(complex(np.vdot(v, comm.mat @ v))) / n2


# ---------------------------------------------------------------------------
# Positive-commutator scan
# ---------------------------------------------------------------------------

def _window_subspace(ms: ModelSpec, P, basis: OccupationBasis, sigma_win: float):
    """Orthonormal frame of Ran E_Sigma(H) within Ran Gamma(chi_i), with the
    ground state removed; also returns (H, ground energy)."""
    H = build_fiber_H(ms, P, basis)
    idx = np.nonzero(interacting_projector(basis).mat.diagonal() > 0.5)[0]
    Hi = H.dense()[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(Hi)
    inside = vals <= sigma_win
    if not np.any(inside):
        raise EmptySubspaceError("no spectrum in the requested window")
    frame = np.zeros((basis.size, int(np.sum(inside))), dtype=complex)
    frame[idx, :] = vecs[:, inside]
    # drop the ground state (first column)
    frame = frame[:, 1:]
    if frame.shape[1] == 0:
        raise EmptySubspaceError("window contains only the ground state")
    return H, frame, float(vals[0])


def mourre_scan(ms: ModelSpec, P, basis: OccupationBasis, sigma_win: float,
                beta: float, sample_count: int = 64, seed: int = 11) -> dict:
    """Sample r(phi) = <phi,[iH,A]phi> - (1-beta) <phi,N phi> on the window.

    phi are seeded random unit vectors in Ran E_Sigma(H) (cap) Ran Gamma(chi_i),
    orthogonal to the computed ground state.  Returns min r, the positivity
    deficit max(0, -min r), and per-sample values.
    """
    H, frame, e0 = _window_subspace(ms, P, basis, sigma_win)
    conj = build_conjugate(ms, basis)
    comm = commutator_iHA(ms, P, basis, conj)
    from .fock import number_op

    N = number_op(basis)
    rng = np.random.default_rng(seed)
    m = frame.shape[1]
    coeffs = rng.normal(size=(sample_count, m)) + 1j * rng.normal(size=(sample_count, m))
    values = []
    for c in coeffs:
        phi = frame @ (c / np.linalg.norm(c))
        r = float(np.vdot(phi, comm.mat @ phi).real
                  - (1.0 - beta) * np.vdot(phi, N.mat @ phi).real)
        values.append(r)
    values = np.array(values)
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
    """Run mourre_scan over a coupling sweep and fit the positivity loss.

    ms_factory(g) must return the model at coupling g; beta_fn(g) the velocity
    bound used in r.  The fitted constant is C(g) = (min_r(0) - min_r(g))/g,
    realizing the linear-in-g loss term of the positive-commutator bound;
    the log-log slope of the degradation min_r(0) - min_r(g) against g is
    reported (expected ~1: the commutator depends on g through the field term).
    """
    base = mourre_scan(ms_factory(0.0), P, basis, sigma_win, beta_fn(0.0),
                       sample_count=sample_count, seed=seed)
    rows = []
    for gg in g_values:
        rep = mourre_scan(ms_factory(gg), P, basis, sigma_win, beta_fn(gg),
                          sample_count=sample_count, seed=seed)
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
        "window_dim": base["window_dim"],
        "mesh": base["mesh"],
    }


def eigencount_probe(ms: ModelSpec, P, basis: OccupationBasis,
                     tol: float = 1e-10) -> dict:
    """Count eigenvalues of H restricted to Ran Gamma(chi_i) below the
    continuum edge surrogate E_g + Delta(P)/2 (expected: exactly one).

    On a truncated grid every point of the would-be continuum is a matrix
    eigenvalue, so the uniqueness statement is probed strictly below the
    two-particle threshold rather than up to an arbitrary window.
    """
    from .spectral import delta_gap

    idx = np.nonzero(interacting_projector(basis).mat.diagonal() > 0.5)[0]
    H = build_fiber_H(ms, P, basis)
    vals = np.linalg.eigvalsh(H.dense()[np.ix_(idx, idx)])
    dg = delta_gap(ms, P, basis, tol=tol) if ms.use_modified else None
    if dg is None or not np.isfinite(dg) or dg <= 0:
        edge = vals[0] + (vals[1] - vals[0]) / 2 if len(vals) > 1 else vals[0] + 1.0
    else:
        edge = vals[0] + dg / 2.0
    return {"count": int(np.sum(vals <= edge)), "edge": float(edge),
            "ground": float(vals[0])}
