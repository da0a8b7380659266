"""Truncated bosonic Fock spaces over discretized mode grids.

The one-boson space is a finite set of momentum modes ``k_j`` with quadrature
weights ``w_j``, carrying the weighted inner product

    <g, h>_w = sum_j w_j conj(g_j) h_j .

Discrete ladder operators are orthonormalized, ``a_j = a(e_j)/sqrt(w_j)``, so
the canonical commutation relations are weight-free and ladder matrix elements
are exact integer roots.  Smeared operators absorb the weights:

    a*(h) = sum_j sqrt(w_j) h_j a*_j ,       a(h) = a*(h)^dagger .

Truncation convention: the basis keeps total occupation N <= n_max and a*(h)
projects out of the top shell (Galerkin truncation).  Operator identities that
involve a creation operator therefore hold exactly only on the guarded sector
N <= n_max - 1; number-conserving identities hold on the whole basis.

A basis is one table of mode tuples, ``modes``: row c lists the occupied
modes of state c ascending, one entry per boson, padded with M.  Sector n
(N = n) is the rows ``edges[n]:edges[n + 1]``, in ascending lexicographic
order of the occupation vectors, whose closed-form rank (the multiset
combinatorial number system) is ``OccupationBasis.index``.  Every parent
c - e_j of a state is in the basis, and so is every child c + e_j of a state
below the top sector.  ``build_basis`` derives from the tuples, once and
read-only, the slot tables (per state, its runs of equal modes: mode
``slot_mode``, sqrt(length) ``slot_root`` and parent row ``slot_parent``)
and the ladder table ``up[c, j]`` = c + e_j below the top sector.  Every
operator is an index gather on these tables; sums sum_j n_j x_j are
``mode_sum(x)``, and occupation numbers are formed only on the rows that
read them (``occupations``).  The sector recursion maps input sector n to
output sector n only, through the slots s < min(n, M) and sector n - 1.
``dGamma_expectation`` reads <psi, dGamma(b) psi> from the M x M
one-boson density matrix rho_ij = <a_i psi, a_j psi>, one gather on ``up``
(a_j psi vanishes on the top sector), without assembling dGamma(b).

The field operator follows the symmetric normalization

    phi(h) = (a(h) + a*(h)) / sqrt(2) .

Operators are ``scipy.sparse.csr_matrix`` objects.  Creation, field, number
and ``dGamma`` operators take the dtype of their coefficients: real mode data
give float64 matrices, complex data complex ones; a(h) is the adjoint
``creation_op(basis, h).conj().T``.  The Gamma-type maps, ``Gamma`` and
``dGamma2``, fill every sector they map and return the dense complex array
their recursion builds; ``dGamma2`` reads Gamma(a) when the caller has
already formed it.  Hamiltonians are ``model.Hamiltonian``.  The states with
no soft-mode boson, the range of Gamma(chi_i), are one boolean mask over the
basis, ``interacting_mask``; a caller that needs the projector builds
``sp.diags(mask)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp


class GridError(ValueError):
    """Invalid mode grid (no modes, zero mode, bad weights, unsupported structure)."""


class BasisError(ValueError):
    """Invalid basis configuration (a negative n_max)."""


class DimensionMismatchError(ValueError):
    """Operator or coefficient vector does not match the mode count."""


# ---------------------------------------------------------------------------
# Mode grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Discretized single-boson momentum space.

    Attributes
    ----------
    dim:        spatial dimension d in {1, 2, 3}.
    points:     (M, d) array of momentum nodes; no node may sit at k = 0.
    weights:    (M,) positive quadrature weights (momentum-space volumes).
    omega_free: (M,) samples of |k|.
    omega_mod:  (M,) samples of the modified dispersion (>= |k|, >= sigma/2,
                equal to |k| beyond sigma).
    sigma:      infrared scale used to build omega_mod.
    meta:       ``kind``, finite-difference mesh, doubled-grid ``copy_labels``.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
    omega_free: np.ndarray
    omega_mod: np.ndarray
    sigma: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "omega_free", np.asarray(self.omega_free, dtype=float))
        object.__setattr__(self, "omega_mod", np.asarray(self.omega_mod, dtype=float))
        if pts.shape[0] != self.n_modes:
            raise GridError("points/weights length mismatch")
        if self.n_modes == 0:
            raise GridError("grid has no modes")
        if np.any(self.weights <= 0):
            raise GridError("quadrature weights must be positive")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms == 0.0):
            raise GridError("grid places a node at k = 0")
        labels = self.meta.get("copy_labels")
        keys = (
            [(labels[i], *pts[i]) for i in range(len(pts))]
            if labels is not None else [tuple(p) for p in pts]
        )
        if len(set(keys)) != len(pts):
            raise GridError("grid points must be distinct")
        if np.any(self.omega_mod < self.omega_free - 1e-12):
            raise GridError("omega_mod must dominate |k|")
        if np.any(self.omega_mod < self.sigma / 2 - 1e-12):
            raise GridError("omega_mod must stay above sigma/2")
        outside = norms > self.sigma
        if np.any(np.abs(self.omega_mod[outside] - self.omega_free[outside]) > 1e-12):
            raise GridError("omega_mod must equal |k| beyond sigma")

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    def soft_mask(self) -> np.ndarray:
        """Boolean mask of soft modes, |k| <= sigma."""
        return self.omega_free <= self.sigma


def weighted_inner(grid: ModeGrid, g, h):
    """<g, h>_w, a complex; stacks of g and h give the array of them."""
    out = np.sum(grid.weights * np.conj(g) * np.asarray(h), axis=-1)
    return complex(out) if out.ndim == 0 else out

def weighted_adjoint(grid_out: ModeGrid, grid_in: ModeGrid, r: np.ndarray) -> np.ndarray:
    """Adjoint of a mode matrix r: h_in -> h_out (or of each of a stack of them)
    w.r.t. the weighted inner products.

    The weight ratio is formed first so that equal weights contribute an
    exact factor 1 (the adjoint of a symmetrized matrix is then bit-equal)."""
    ratio = grid_out.weights[None, :] / grid_in.weights[:, None]
    return r.conj().swapaxes(-1, -2) * ratio

def to_ortho(grid_out: ModeGrid, grid_in: ModeGrid, b: np.ndarray) -> np.ndarray:
    """Convert a coefficient-gauge mode matrix to the orthonormal gauge."""
    ratio = np.sqrt(grid_out.weights)[:, None] / np.sqrt(grid_in.weights)[None, :]
    return b * ratio

def weighted_opnorm(grid_out: ModeGrid, grid_in: ModeGrid, b: np.ndarray):
    """||b|| in the orthonormal gauge, a float; a stack gives the array of them."""
    norms = np.linalg.norm(to_ortho(grid_out, grid_in, b), 2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


class WeightedSpectrum:
    """Functions of a weighted-Hermitian coefficient-gauge mode matrix X,
    through one eigendecomposition of X symmetrized in the orthonormal gauge
    (one stacked ``eigh`` for a stack of X)."""

    def __init__(self, grid: ModeGrid, X: np.ndarray):
        w = np.sqrt(grid.weights)
        Xo = w[:, None] * X / w[None, :]
        Xo = (Xo + Xo.conj().swapaxes(-1, -2)) / 2.0
        self.evals, self.evecs = np.linalg.eigh(Xo)
        self.w = w

    def fn(self, f) -> np.ndarray:
        """Coefficient-gauge matrix of f(X), or the stack of them."""
        core = (self.evecs * f(self.evals)[..., None, :]) @ self.evecs.conj().swapaxes(-1, -2)
        return core / self.w[:, None] * self.w[None, :]


def weighted_abs(grid: ModeGrid, X: np.ndarray) -> np.ndarray:
    """|X| for a weighted-Hermitian coefficient-gauge matrix, or a stack of them."""
    return WeightedSpectrum(grid, X).fn(np.abs)


def _switch(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1 (exp-based partition)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def omega_modified(s, sigma: float):
    """Modified boson dispersion on |k| = s.

    Squared-mass blend sqrt(s^2 + (sigma^2/4) u(s)) with u a smooth switch
    from 1 (s <= sigma/2) to 0 (s >= sigma).  Satisfies omega >= max(s, sigma/2),
    omega = s beyond sigma, 0 < omega' <= 1 away from 0.
    """
    s = np.asarray(s, dtype=float)
    u = 1.0 - _switch((2.0 * s - sigma) / sigma)
    return np.sqrt(s * s + (sigma * sigma / 4.0) * u)


def omega_modified_grad(s, sigma: float):
    """Radial derivative of the modified dispersion (central difference with
    step 1e-6 sigma).

    Exact value 1 is returned beyond sigma, where omega coincides with |k|.
    """
    s = np.asarray(s, dtype=float)
    h = 1e-6 * max(sigma, 1e-12)
    lo = np.maximum(s - h, 0.0)
    hi = s + h
    grad = (omega_modified(hi, sigma) - omega_modified(lo, sigma)) / (hi - lo)
    return np.where(s >= sigma, 1.0, grad)


def line_grid(n_modes: int, kmax: float, sigma: float) -> ModeGrid:
    """Symmetric midpoint grid on [-kmax, kmax] in d = 1 (even n_modes, no k=0)."""
    if n_modes <= 0 or n_modes % 2 != 0:
        raise GridError("line_grid requires a positive even mode count (no k = 0)")
    h = 2.0 * kmax / n_modes
    pts = (-kmax + (np.arange(n_modes) + 0.5) * h)[:, None]
    w = np.full(n_modes, h)
    kn = np.abs(pts[:, 0])
    return ModeGrid(
        dim=1, points=pts, weights=w,
        omega_free=kn, omega_mod=omega_modified(kn, sigma), sigma=sigma,
        meta={"kind": "line", "spacing": h},
    )


def lattice_grid(n_sites: int, mode_indices: Sequence[int], sigma: float) -> ModeGrid:
    """Boson modes on the dual lattice of an L-site chain: k = 2 pi m / L, m != 0."""
    L = n_sites
    m = np.asarray(sorted(mode_indices), dtype=int)
    if np.any(m == 0):
        raise GridError("lattice modes must avoid m = 0")
    if np.any(np.abs(m) > L // 2):
        raise GridError("lattice mode index outside the Brillouin zone")
    pts = (2.0 * np.pi * m / L)[:, None]
    w = np.full(len(m), 2.0 * np.pi / L)
    kn = np.abs(pts[:, 0])
    return ModeGrid(
        dim=1, points=pts, weights=w,
        omega_free=kn, omega_mod=omega_modified(kn, sigma), sigma=sigma,
        meta={"kind": "lattice"},
    )


def radial_grid(n_r: int, kmax: float, sigma: float) -> ModeGrid:
    """d = 3 product grid: radial midpoints x octahedral angular nodes.

    Angular quadrature uses the six axis directions with equal weights; the
    radial weight carries the r^2 Jacobian.
    """
    n_ang = 6
    dr = kmax / n_r
    radii = (np.arange(n_r) + 0.5) * dr
    dirs = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=float)
    pts = np.concatenate([r * dirs for r in radii])
    w_ang = 4.0 * np.pi / n_ang
    w = np.concatenate([np.full(n_ang, r * r * dr * w_ang) for r in radii])
    kn = np.linalg.norm(pts, axis=1)
    return ModeGrid(
        dim=3, points=pts, weights=w,
        omega_free=kn, omega_mod=omega_modified(kn, sigma), sigma=sigma,
        meta={"kind": "radial", "n_r": n_r, "dr": dr, "n_ang": n_ang},
    )


# ---------------------------------------------------------------------------
# Occupation bases and vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OccupationBasis:
    """Graded-lexicographic occupation basis: row c of ``modes``
    (size x n_max) is state c's ascending mode tuple, padded with M.

    Slot s < min(n_max, M) of state r is its s-th run of equal modes i:
    ``slot_mode[r, s]`` = i, ``slot_root[r, s]`` = sqrt(n_i(r)) and
    ``slot_parent[r, s]`` = r - e_i; a padding slot has mode 0, root 0 and
    parent -1.  ``up[c, j]`` (edges[n_max] x M) is the row of c + e_j.
    """

    grid: ModeGrid
    n_max: int
    modes: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)
    slot_mode: np.ndarray = field(repr=False)
    slot_root: np.ndarray = field(repr=False)
    slot_parent: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.modes)

    def total_numbers(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_max + 1), np.diff(self.edges))

    def index(self, tuples) -> np.ndarray:
        """The row of each ascending mode tuple, one per row of an integer
        array padded with M, of at most n_max modes."""
        return _rank(tuples, self.grid.n_modes, self.edges)

    def occupations(self, rows=slice(None)) -> np.ndarray:
        """The occupation numbers n_j of ``rows`` (all rows by default), one
        row of M integers per state."""
        tuples = self.modes[rows]
        out = np.zeros((len(tuples), self.grid.n_modes + 1), dtype=np.int64)
        for column in tuples.T:
            out[np.arange(len(tuples)), column] += 1
        return out[:, :-1]

    def mode_sum(self, x) -> np.ndarray:
        """sum_j n_j x_j per state for mode data x of shape (M, ...): x over
        each state's mode tuple, added in ascending mode order."""
        x = np.asarray(x)
        padded = np.concatenate([x, np.zeros_like(x[:1])])
        out = np.zeros((self.size,) + x.shape[1:], dtype=x.dtype)
        for column in self.modes.T:
            out += padded[column]
        return out

    def energies(self) -> np.ndarray:
        return self.mode_sum(self.grid.omega_mod)

    def boson_momenta(self) -> np.ndarray:
        """(size, d) array of total boson momentum per state."""
        return self.mode_sum(self.grid.points)


def _binomials(count: int, top: int) -> np.ndarray:
    """C(a, b) for a < count, b <= top: C(a, b - 1) (a - b + 1) / b, exact in int64."""
    binom = np.ones((count, top + 1), dtype=np.int64)
    for b in range(1, top + 1):
        binom[:, b] = binom[:, b - 1] * (np.arange(count, dtype=np.int64) - b + 1) // b
    return binom


def _rank(tuples, M: int, edges: np.ndarray) -> np.ndarray:
    """Closed-form rows of ascending mode tuples over M modes: the tuple
    i_0 <= ... <= i_{n-1} is row edges[n] + sum_s C(M - 2 - i_s + n - s, n - s)."""
    t = np.asarray(tuples, dtype=np.int64)
    n_max = len(edges) - 2
    binom = _binomials(M + n_max, n_max + 1)
    n = np.count_nonzero(t < M, axis=1)
    rest = n[:, None] - np.arange(t.shape[1])
    # a padding entry (rest <= 0) reads C(0, 1) = 0
    inside = rest > 0
    return edges[n] + binom[np.where(inside, M - 2 - t + rest, 0),
                            np.where(inside, rest, 1)].sum(axis=1)


def build_basis(grid: ModeGrid, n_max: int) -> OccupationBasis:
    """Enumerate occupation states with N <= n_max: sector n appends to each
    tuple of sector n - 1 every mode from its last one on, which makes every
    state once, and scatters each new tuple to its rank."""
    if n_max < 0:
        raise BasisError("n_max must be nonnegative")
    M = grid.n_modes
    edges = np.cumsum([0] + [math.comb(M + n - 1, n) for n in range(n_max + 1)])
    modes = np.full((edges[-1], n_max), M, dtype=np.int64)
    tuples = np.zeros((1, 0), dtype=np.int64)
    for n in range(1, n_max + 1):
        last = tuples[:, -1] if n > 1 else np.zeros(1, dtype=np.int64)
        count = M - last
        parent = np.repeat(np.arange(len(tuples)), count)
        mode = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count) + last[parent]
        tuples = np.column_stack([tuples[parent], mode])
        modes[_rank(tuples, M, edges), :n] = tuples
    shape = (edges[-1], min(n_max, M))
    slot_mode, slot_root = np.zeros(shape, dtype=np.int64), np.zeros(shape)
    slot_parent = np.full(shape, -1, dtype=np.int64)
    # the run number of each entry, and the entries that end a run
    run = np.cumsum(np.diff(modes, axis=1, prepend=-1) != 0, axis=1) - 1
    ends = (modes < M) & (np.diff(modes, axis=1, append=M + 1) != 0)
    for e in range(n_max):
        c = np.flatnonzero(ends[:, e])
        s, mode = run[c, e], modes[c, e]
        slot_mode[c, s] = mode
        slot_root[c, s] = np.sqrt(np.count_nonzero(modes[c] == mode[:, None], axis=1))
        slot_parent[c, s] = _rank(np.delete(modes[c], e, axis=1), M, edges)
    # every state c is p + e_j for each of its filled slots (j, p), which
    # writes every entry: each state below the top sector has all its children
    up = np.empty((edges[n_max], M), dtype=np.int64)
    c, s = np.nonzero(slot_parent >= 0)
    up[slot_parent[c, s], slot_mode[c, s]] = c
    # shared by every operator built on this basis
    for table in (modes, edges, up, slot_mode, slot_root, slot_parent):
        table.flags.writeable = False
    return OccupationBasis(grid=grid, n_max=n_max, modes=modes, edges=edges, up=up,
                           slot_mode=slot_mode, slot_root=slot_root, slot_parent=slot_parent)


@dataclass
class FockVector:
    """Complex amplitude vector over an occupation basis."""

    basis: OccupationBasis
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.ascontiguousarray(self.amps, dtype=complex)
        if self.amps.shape != (self.basis.size,):
            raise DimensionMismatchError("amplitude length != basis size")
        if not (np.all(np.isfinite(self.amps.real)) and np.all(np.isfinite(self.amps.imag))):
            raise ValueError("non-finite amplitudes")

    @classmethod
    def vacuum(cls, basis: OccupationBasis) -> "FockVector":
        amps = np.zeros(basis.size, dtype=complex)
        amps[0] = 1.0
        return cls(basis, amps)


# ---------------------------------------------------------------------------
# Sparse operators
# ---------------------------------------------------------------------------

def _coo(basis: OccupationBasis, rows, cols, data) -> sp.csr_matrix:
    return sp.coo_matrix((data, (rows, cols)), shape=(basis.size, basis.size)).tocsr()


def _check_modes(basis: OccupationBasis, h) -> np.ndarray:
    h = np.asarray(h)
    if h.shape != (basis.grid.n_modes,):
        raise DimensionMismatchError("mode coefficient length != mode count")
    return h


def _creation_entries(basis: OccupationBasis, h):
    """(rows, cols, modes, values) of a*(h)'s entries: c -> c + e_j with
    sqrt(n_j(c) + 1) sqrt(w_j) h_j, for nonzero amplitudes and c below the
    top sector."""
    amp = np.sqrt(basis.grid.weights) * _check_modes(basis, h)
    modes = np.flatnonzero(amp)
    up = basis.up
    src = np.repeat(np.arange(len(up)), len(modes))
    j = np.tile(modes, len(up))
    return up[src, j], src, j, np.sqrt(basis.occupations(slice(len(up)))[src, j] + 1) * amp[j]


def creation_op(basis: OccupationBasis, h) -> sp.csr_matrix:
    """Smeared creation operator a*(h) = sum_j sqrt(w_j) h_j a*_j.

    States pushed past n_max are projected out.
    """
    rows, cols, _, data = _creation_entries(basis, h)
    return _coo(basis, rows, cols, data)


def field_op(basis: OccupationBasis, h) -> sp.csr_matrix:
    """phi(h) = (a(h) + a*(h)) / sqrt(2); exactly Hermitian by construction."""
    c = creation_op(basis, h)
    return ((c + c.conj().T) / math.sqrt(2.0)).tocsr()


def number_op(basis: OccupationBasis) -> sp.csr_matrix:
    return sp.diags(basis.total_numbers().astype(float), format="csr")


def _as_mode_matrix(basis: OccupationBasis, b) -> np.ndarray:
    M = basis.grid.n_modes
    b = np.asarray(b)
    if b.ndim == 1:
        if b.shape != (M,):
            raise DimensionMismatchError("diagonal mode operator length != mode count")
        return np.diag(b)
    if b.shape != (M, M):
        raise DimensionMismatchError("mode operator must be M x M")
    return b


def dGamma(basis: OccupationBasis, b) -> sp.csr_matrix:
    """Additive second quantization: sum_i 1 x ... b ... x 1 per sector.

    Number conserving, hence exact on the whole truncated basis.  A diagonal
    ``b`` yields the diagonal operator with value sum_j n_j b_jj.  A ``b``
    that is weighted-Hermitian up to 1e-13 relative is symmetrized first, so
    its dGamma is exactly Hermitian.
    """
    b = _as_mode_matrix(basis, b)
    bo = to_ortho(basis.grid, basis.grid, b)
    defect = float(np.abs(bo - bo.conj().T).max()) if bo.size else 0.0
    scale = float(np.abs(bo).max()) if bo.size else 0.0
    if 0.0 < defect <= 1e-13 * max(scale, 1.0):
        bo = (bo + bo.conj().T) / 2.0
    up = basis.up
    below = basis.occupations(slice(len(up)))
    # sum_j n_j b_jj in ascending modes, one integer count n_j per slot
    diag = np.zeros(basis.size, dtype=bo.dtype)
    for mode, root in zip(basis.slot_mode.T, basis.slot_root.T):
        diag += np.rint(root * root) * bo[mode, mode]
    c = np.flatnonzero(diag)
    rows, cols, data = [c], [c], [diag[c]]
    # b_ij a*_i a_j maps the child c = up[p, j] to up[p, i]
    for j in range(bo.shape[1]):
        i = np.flatnonzero(bo[:, j])
        i = i[i != j]
        p = np.repeat(np.arange(len(up)), len(i))
        i = np.tile(i, len(up))
        c = up[p, j]
        rows.append(up[p, i])
        cols.append(c)
        data.append(bo[i, j] * np.sqrt((below[p, j] + 1) * (below[p, i] + 1)))
    return _coo(basis, np.concatenate(rows), np.concatenate(cols), np.concatenate(data))


def _check_state(basis: OccupationBasis, psi) -> np.ndarray:
    psi = np.asarray(psi)
    if psi.shape != (basis.size,):
        raise DimensionMismatchError("state length != basis size")
    return psi


def dGamma_expectation(basis: OccupationBasis, b, psi) -> complex:
    """<psi, dGamma(b) psi> for one state (n,) without assembling dGamma(b).

    With the one-boson density matrix rho_ij = <a_i psi, a_j psi> the value
    is sum_ij bo_ij rho_ij, bo the orthonormal-gauge b.  Column j of
    A = [a_j psi] is one gather on the ladder table,
    (a_j psi)[p] = sqrt(n_j(p) + 1) psi[up[p, j]], and rho = A^H A.  The
    rows of ``up`` are the states below the top sector; on the top sector
    every a_j psi is zero (at n_max = 0, A has no rows).
    """
    bo = to_ortho(basis.grid, basis.grid, _as_mode_matrix(basis, b))
    psi = _check_state(basis, psi)
    up = basis.up
    A = psi[up] * np.sqrt(basis.occupations(slice(len(up))) + 1)
    return complex(np.sum(bo * (A.conj().T @ A)))


def _sector_recursion(basis_in: OccupationBasis, basis_out: OccupationBasis | None,
                      a, b=None, G=None):
    """Dense Gamma(a) and, if ``b`` is given, dGamma2(a, b), sector by sector.

    A 1-d map is diagonal; basis_out defaults to basis_in.  Each state c of
    sector n is a*_j |p> / sqrt(n_j(c)) for its parent p in sector n - 1
    (j = first occupied mode of c), and

        Gamma(a) a*_j = a*(a e_j) Gamma(a),
        dGamma2(a, b) a*_j = a*(b e_j) Gamma(a) + a*(a e_j) dGamma2(a, b).

    Both maps conserve the boson number, so the columns of input sector n
    are nonzero only on the rows of output sector n, and a* reaches those
    rows from the rows of sector n - 1 through their slots s < min(n, M)
    alone: every other row and slot would add an exact zero.  The recursion
    fills that block only, in the slot order of the full sum, so each
    nonzero entry is rounded as it would be there.  A target with a smaller
    n_max projects out the input sectors above it: the recursion stops at
    the last sector the two bases share.  The row and column ranges of the
    sectors are read from the ``edges`` of both bases, each input column's
    j, p and 1 / sqrt(n_j(c)) from slot 0 of ``basis_in`` and a* from the
    slot tables of ``basis_out``.  A given ``G``,
    Gamma(a) as this recursion returns it, is read instead of rebuilt.

    Mode maps of two or more axes may carry leading batch axes: a stack
    (..., M_out, M_in) of maps is one recursion over all of them, every
    slice computed by the same elementwise steps as a single map, so each
    slice of the result equals, bit for bit, the map of that slice alone.
    ``a``, ``b`` and ``G`` broadcast against each other on these axes
    (Gamma(1) can serve a stack of ``b``); the results carry them in front
    of (basis_out.size, basis_in.size).
    """
    basis_out = basis_out or basis_in
    shape = (basis_out.size, basis_in.size)

    def ortho(m):
        m = np.asarray(m, dtype=complex)
        if m.ndim == 1:
            m = np.diag(m)
        if m.shape[-2:] != (basis_out.grid.n_modes, basis_in.grid.n_modes):
            raise DimensionMismatchError("mode operator shape does not match the grids")
        return to_ortho(basis_out.grid, basis_in.grid, m)

    ao = ortho(a)
    bo = None if b is None else ortho(b)
    modes, roots, parents = basis_out.slot_mode, basis_out.slot_root, basis_out.slot_parent

    build = G is None
    if build:
        G = np.zeros(ao.shape[:-2] + shape, dtype=complex)
        G[..., 0, 0] = 1.0
    elif G.shape[-2:] != shape:
        raise DimensionMismatchError("Gamma(a) does not match the bases")
    D = None
    if bo is not None:
        D = np.zeros(np.broadcast_shapes(ao.shape[:-2], bo.shape[:-2], G.shape[:-2]) + shape,
                     dtype=complex)
    for n in range(1, min(basis_in.n_max, basis_out.n_max) + 1):
        # output sector n is rows lo:hi; its parents lie in rows :lo, and a
        # padding slot's parent -1 (root 0) reads the finite row lo - 1
        lo, hi = basis_out.edges[n:n + 2]
        cols = slice(*basis_in.edges[n:n + 2])
        j, p = basis_in.slot_mode[cols, 0], basis_in.slot_parent[cols, 0]
        scale = 1.0 / basis_in.slot_root[cols, 0]
        slots = [(roots[lo:hi, s, None], modes[lo:hi, s], parents[lo:hi, s])
                 for s in range(min(n, modes.shape[1]))]

        def create(coef, V):
            # column k is a*(coef[..., :, k]) V[..., :, k] on rows lo:hi: row r
            # collects sqrt(n_i(r)) coef[i, k] V[r - e_i, k] over its slots
            batch = np.broadcast_shapes(coef.shape[:-2], V.shape[:-2])
            out = np.zeros(batch + (hi - lo, V.shape[-1]), dtype=complex)
            for root, mode, parent in slots:
                out += root * coef[..., mode, :] * V[..., parent, :]
            return out

        Gp = G[..., :lo, p]
        if build:
            G[..., lo:hi, cols] = create(ao[..., j], Gp) * scale
        if bo is not None:
            D[..., lo:hi, cols] = (create(bo[..., j], Gp) + create(ao[..., j], D[..., :lo, p])
                                   ) * scale
    return G, D


def Gamma(basis_in: OccupationBasis, b, basis_out: OccupationBasis | None = None) -> np.ndarray:
    """Multiplicative second quantization b x ... x b per sector, dense.

    ``b`` maps mode coefficients of basis_in.grid to those of basis_out.grid
    (rectangular allowed).  Sectors above the target's n_max are projected.
    A stack (..., M_out, M_in) of maps gives the stack of their Gammas, each
    slice bit-equal to the Gamma of that map alone; a 1-d ``b`` is diagonal.
    """
    return _sector_recursion(basis_in, basis_out, b)[0]


def dGamma2(basis_in: OccupationBasis, a, b, basis_out: OccupationBasis | None = None,
            gamma_a: np.ndarray | None = None) -> np.ndarray:
    """Mixed second quantization sum_j a x ... b(j-th) ... x a per sector, dense.

    ``gamma_a``, if given, must be ``Gamma(basis_in, a, basis_out)`` for this
    same ``a``, already formed; the recursion reads it instead of building it
    again, with the same result.  Only its shape is checked: a Gamma of
    another mode map gives a wrong dGamma2 without an error.  ``a``, ``b``
    and ``gamma_a`` may be stacks with leading batch axes that broadcast
    against each other; each slice of the result is bit-equal to the
    dGamma2 of that slice alone.
    """
    return _sector_recursion(basis_in, basis_out, a, b, gamma_a)[1]


def interacting_mask(basis: OccupationBasis) -> np.ndarray:
    """Ran Gamma(chi_i) as a boolean mask over the basis: the states with no
    boson in a soft mode |k| <= sigma, the grid's sigma."""
    return ~np.any(np.append(basis.grid.soft_mask(), False)[basis.modes], axis=1)
