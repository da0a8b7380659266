"""Closed-form electron dispersions, form factors, and Hamiltonian assembly.

The fiber Hamiltonian at total momentum P is

    H(P) = Omega(P - sum_j n_j k_j) + dGamma(omega) + g phi(kappa_sigma)

on an occupation basis; omega is |k| or the modified dispersion depending on
``use_modified``.  One assembly ``_assemble`` builds every Hamiltonian as a
diagonal plus g phi(kappa_sigma) from ``fock``'s creation entries: the fiber;
W_+'s extended fiber H x 1 + 1 x dGamma(omega), the entries on the inner
leg; and the full d = 1 model on an L-site chain in the electron-momentum x
occupation product basis, the entries tiled over the electron momenta, its
boson modes on the dual lattice so that total momentum (mod 2 pi) is
conserved exactly.  The entries sit in a ``CouplingLayout``, built once per
basis and kappa_sigma: the entries, the CSR pattern of diagonal plus
coupling plus adjoint, and the order COO -> CSR writes them in.  Each
assembly only writes its diagonal and g c / sqrt(2) into that pattern, so a
family of fibers (over P, g or the dispersion switch) shares one layout
(``fiber_layout``), and with every coupling entry stored one block split.

Operators are ``scipy.sparse.csr_matrix`` objects; ``Hamiltonian`` holds the
CSR matrix, refused unless exactly Hermitian, with its occupation basis.  It
also carries, each built on first use, its one block split ``blocks`` (the
blocks of H's finest direct sum along the basis, ``pattern_components``,
which ``spectral`` diagonalizes one by one), the Gershgorin interval of
each block, by which ``spectral.ground_state`` drops blocks that cannot
hold its lowest eigenvalues, and the ``ChebyshevOperator`` on the split:
the shifted operator 2 (H - diag(a_c)) / b that
``dynamics.krylov_expm_apply`` recurses with, each block centred on its
own a_c and b the widest one's half-width, on every row (``chebyshev``) or
on the blocks a vector lives on (``chebyshev_for``, kept for the last such
support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fock import (
    ModeGrid,
    OccupationBasis,
    _coo,
    _creation_entries,
    _switch,
)
from .split import TensorBasis, _one_leg_support


class IncompatibleGridError(ValueError):
    """Boson mode is not on the dual lattice of the electron chain."""


class ConfigWindowError(ValueError):
    """Thresholds or cutoffs outside the admissible window."""


# ---------------------------------------------------------------------------
# Dispersion laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispersionLaw:
    """Electron dispersion in closed form: nonrelativistic or relativistic."""

    kind: str
    mass: float = 1.0

    def __post_init__(self):
        if self.kind not in ("nonrel", "rel"):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    def omega(self, p):
        """Energy at momentum p; p has component shape (..., d), or scalar."""
        p = np.asarray(p, dtype=float)
        p2 = p * p if p.ndim == 0 else np.sum(p * p, axis=-1)
        if self.kind == "nonrel":
            return p2 / (2.0 * self.mass)
        return np.sqrt(p2 + self.mass ** 2)

    def grad(self, p):
        """Gradient of the dispersion; p and the result have shape (..., d)."""
        p = np.asarray(p, dtype=float)
        if self.kind == "nonrel":
            return p / self.mass
        om = np.sqrt(np.sum(p * p, axis=-1, keepdims=True) + self.mass ** 2)
        return p / om

    def grad_norm(self, p) -> np.ndarray:
        return np.linalg.norm(self.grad(p), axis=-1)

    def hessian_sup(self) -> float:
        """B = sup over p of the spectral norm of the second derivative."""
        return 1.0 / self.mass


def o_beta(disp: DispersionLaw, beta: float) -> float:
    """Largest energy threshold forcing |grad Omega| <= beta below it.

    Closed forms M beta^2 / 2 (nonrelativistic) and M / sqrt(1 - beta^2)
    (relativistic, +inf from beta = 1).  The map beta -> O_beta is
    non-decreasing and continuous from the left, and tends to inf Omega as
    beta -> 0+.
    """
    if beta <= 0:
        raise ConfigWindowError("beta must be positive")
    if disp.kind == "nonrel":
        return disp.mass * beta * beta / 2.0
    if beta >= 1.0:
        return math.inf
    return disp.mass / math.sqrt(1.0 - beta * beta)


def velocity_bound(disp: DispersionLaw, energy: float) -> float:
    """sup {|grad Omega(p)| : Omega(p) <= energy}, the inverse of ``o_beta``.

    Closed forms sqrt(2E/M) (nonrelativistic) and sqrt(1 - (M/E)^2)
    (relativistic); 0 where no momentum has energy above the minimum.
    """
    M = disp.mass
    if disp.kind == "nonrel":
        return math.sqrt(max(2.0 * energy / M, 0.0))
    return math.sqrt(max(1.0 - (M / energy) ** 2, 0.0)) if energy > M else 0.0


def quadrature_C(ff: "FormFactor", grid: ModeGrid) -> float:
    """C = sum_j w_j kappa(k_j)^2 / |k_j| (uses the full kappa: sigma-free)."""
    return float(np.sum(grid.weights * ff.kappa(grid.omega_free) ** 2 / grid.omega_free))


def g_beta(disp: DispersionLaw, ff: "FormFactor", beta: float, grid: ModeGrid) -> float:
    """Coupling threshold min(1, (1-b)^{3/2} / 3 sqrt(BC), (1-b)^2 / 3B(C + O_b)),
    the middle term +inf when the coupling function vanishes (C = 0)."""
    if beta >= 1:
        raise ConfigWindowError("beta must be below 1")
    B = disp.hessian_sup()
    C = quadrature_C(ff, grid)
    Ob = o_beta(disp, beta)
    return min(
        1.0,
        (1.0 - beta) ** 1.5 / (3.0 * math.sqrt(B * C)) if C > 0 else math.inf,
        (1.0 - beta) ** 2 / (3.0 * B * (C + Ob)),
    )


# ---------------------------------------------------------------------------
# Form factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormFactor:
    """Smooth compactly supported radial bump with an infrared switch.

    kappa(k) = kappa0 exp(-1 / (1 - (|k|/lam)^2)) inside |k| < lam, zero
    outside; kappa_sigma(k) = kappa(k) chi(|k|/sigma) with chi a mollified
    step vanishing below 1 and equal to 1 above 2.
    """

    kappa0: float = 1.0
    lam: float = 1.0
    sigma: float = 0.2

    def __post_init__(self):
        if self.kappa0 < 0 or self.lam <= 0 or self.sigma <= 0:
            raise ValueError("form factor parameters must be positive")

    def kappa(self, knorm):
        s = np.asarray(knorm, dtype=float) / self.lam
        out = np.zeros_like(s)
        inside = s < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = self.kappa0 * np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    def chi(self, s):
        return _switch(np.asarray(s, dtype=float) - 1.0)

    def kappa_sigma(self, knorm):
        kn = np.asarray(knorm, dtype=float)
        return self.kappa(kn) * self.chi(kn / self.sigma)


# ---------------------------------------------------------------------------
# Model specification and fiber Hamiltonian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Dispersion + form factor + grid + coupling, with the dispersion switch."""

    disp: DispersionLaw
    ff: FormFactor
    grid: ModeGrid
    g: float
    use_modified: bool = True

    def __post_init__(self):
        if abs(self.grid.sigma - self.ff.sigma) > 1e-12:
            raise ValueError("grid omega_mod was built with a different sigma")

    def boson_omega(self) -> np.ndarray:
        return self.grid.omega_mod if self.use_modified else self.grid.omega_free

    def coupling_samples(self) -> np.ndarray:
        return self.ff.kappa_sigma(self.grid.omega_free)


def _gershgorin_discs(mat: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of each row's Gershgorin disc of a Hermitian CSR
    matrix, read off its nonzeros: diagonal -+ off-diagonal absolute row sum."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    d = np.real(mat.diagonal())
    r = np.bincount(rows, weights=np.abs(mat.data), minlength=n) - np.abs(d)
    return d - r, d + r


def _gershgorin_interval(mat: sp.csr_matrix) -> tuple[float, float]:
    """Centre and half-width of the union of the Gershgorin discs of a
    Hermitian CSR matrix."""
    lo, hi = _gershgorin_discs(mat)
    lo, hi = float(np.min(lo)), float(np.max(hi))
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def pattern_components(mat: sp.csr_matrix) -> np.ndarray:
    """Component label of each row of a square CSR matrix: the connected
    components of its stored pattern, where an imaginary or zero value is
    still an edge.  On a Hermitian matrix they are the blocks of its finest
    direct-sum splitting along the basis (the chain's total-momentum fibers,
    a fiber's sets of states linked by the coupling)."""
    # imported here: only callers that split a matrix pay for scipy.sparse.csgraph
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_matrix((np.ones(len(mat.indices), dtype=np.int8),
                             mat.indices, mat.indptr), shape=mat.shape)
    return connected_components(pattern, directed=False)[1]


@dataclass(frozen=True, eq=False)
class ChebyshevOperator:
    """H centred block by block: each block c of H (``Hamiltonian.blocks``)
    has its own Gershgorin interval [a_c - b_c, a_c + b_c].  The operator
    acts on ``rows``, the rows of some of H's blocks in ascending order, or
    on every row when ``rows`` is None.  ``centres`` holds a_c on each of
    those rows, ``half_width`` is the widest of those blocks' b = max_c b_c,
    and ``shifted`` is A = 2 (H - diag(centres)) / b on those rows,
    complex128, whose spectrum lies in [-2, 2] since the shift is constant
    on each block of H's direct sum; None when b is 0, where every such
    block is a multiple of 1 (at g = 0 each fiber state is a block of its
    own).  ``components`` counts those blocks."""

    centres: np.ndarray
    half_width: float
    components: int
    shifted: sp.csr_matrix | None
    rows: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """An exactly Hermitian CSR matrix with the occupation basis it acts on
    (None on the chain and on the pair space); a matrix in another sparse
    format is stored as CSR.  ``layout`` is the ``CouplingLayout`` whose
    every coupling entry the matrix stores, or None."""

    mat: sp.csr_matrix
    basis: OccupationBasis | None = None
    layout: CouplingLayout | None = None

    def __post_init__(self):
        object.__setattr__(self, "mat", self.mat.tocsr())
        if (self.mat - self.mat.conj().T).count_nonzero():
            raise ValueError("a Hamiltonian must be exactly Hermitian")

    @property
    def shape(self) -> tuple:
        return self.mat.shape

    @cached_property
    def blocks(self) -> np.ndarray:
        """The block label of each row (``pattern_components``), found on
        first use and shared by the Chebyshev centring and the spectral
        calculus of this Hamiltonian.  With a ``layout`` they are the
        layout's, found once for every Hamiltonian that stores its whole
        coupling pattern: a zero diagonal entry joins no two blocks."""
        shared = self.layout
        if shared is not None and shared.labels is not None:
            return shared.labels
        label = pattern_components(self.mat)
        if shared is not None:
            label.flags.writeable = False
            shared.labels = label
        return label

    @cached_property
    def _discs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's Gershgorin disc (``_gershgorin_discs``), found once."""
        return _gershgorin_discs(self.mat)

    @cached_property
    def _block_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends of each block's Gershgorin interval, the
        union of its rows' discs: every eigenvalue of the block lies in it."""
        label = self.blocks
        n_comp = int(label.max()) + 1
        lo_rows, hi_rows = self._discs
        lo = np.full(n_comp, np.inf)
        hi = np.full(n_comp, -np.inf)
        np.minimum.at(lo, label, lo_rows)
        np.maximum.at(hi, label, hi_rows)
        return lo, hi

    @cached_property
    def chebyshev(self) -> ChebyshevOperator:
        """The ``ChebyshevOperator`` on every row, built on first use and
        shared by every propagation of this Hamiltonian; cast to complex
        once, so that no matvec with a complex vector upcasts it again.  On
        a connected matrix it is the global Gershgorin interval, bit for
        bit."""
        return self._chebyshev_operator(None)

    def chebyshev_for(self, v: np.ndarray) -> ChebyshevOperator | None:
        """The ``ChebyshevOperator`` on the live blocks of v, those holding
        an entry of v that is not exactly 0; None when v is 0.  Every block
        is invariant under exp(-i t H), so the other rows of v stay 0.  With
        every block live it is ``chebyshev``; otherwise it is built from the
        same split and the same per-block intervals, and kept for the last
        support only, which is the support of a propagation all along its
        grid."""
        live = np.zeros(len(self._block_intervals[0]), dtype=bool)
        live[self.blocks[np.asarray(v) != 0]] = True
        if live.all():
            return self.chebyshev
        if not live.any():
            return None
        # kept in the instance dict, as ``cached_property`` keeps its values
        last = self.__dict__.get("_chebyshev_last")
        if last is None or not np.array_equal(last[0], live):
            last = self.__dict__["_chebyshev_last"] = (live, self._chebyshev_operator(live))
        return last[1]

    def _chebyshev_operator(self, live: np.ndarray | None) -> ChebyshevOperator:
        """The operator on the blocks where ``live`` is true, or on all."""
        lo, hi = self._block_intervals
        centre, width = 0.5 * (hi + lo), 0.5 * (hi - lo)
        label, mat, rows = self.blocks, self.mat, None
        if live is not None:
            rows = np.flatnonzero(live[label])
            label, mat, width = label[rows], mat[rows][:, rows], width[live]
        centres = centre[label]
        b = float(np.max(width))
        n_comp = len(width)
        if b == 0.0:
            return ChebyshevOperator(centres, b, n_comp, None, rows)
        A = (mat - sp.diags(centres, format="csr")) * (2.0 / b)
        return ChebyshevOperator(centres, b, n_comp, A.astype(complex, copy=False), rows)


def fiber_mode_sums(ms: ModelSpec, basis: OccupationBasis) -> np.ndarray:
    """(size, d + 1) boson momentum K and energy E per state, one mode sum;
    the same at every P and coupling."""
    return basis.mode_sum(np.column_stack([ms.grid.points, ms.boson_omega()]))


def fiber_diagonal(ms: ModelSpec, P, basis: OccupationBasis, pairs=None, *,
                   mode_sums: np.ndarray | None = None) -> np.ndarray:
    """Omega(P - K) + E per state, or per (left, right) row of ``pairs``,
    with K and E read off ``mode_sums`` (``fiber_mode_sums``, formed here
    when None)."""
    KE = fiber_mode_sums(ms, basis) if mode_sums is None else mode_sums
    if KE.shape != (basis.size, ms.grid.points.shape[1] + 1):
        raise ValueError("mode sums of another basis or grid")
    KE = KE if pairs is None else KE[pairs[:, 0]] + KE[pairs[:, 1]]
    pe = np.atleast_1d(np.asarray(P, dtype=float))[None, :] - KE[:, :-1]
    return ms.disp.omega(pe) + KE[:, -1]


@dataclass(eq=False)
class CouplingLayout:
    """Where the coupling of a family of n x n Hamiltonians sits, built once.

    ``rows``, ``cols`` and ``c`` are the creation entries of phi(kappa_sigma)
    (``fock._creation_entries``, or their lift to the pair space or the
    chain) and ``half`` is c / sqrt(2).  ``order`` is the permutation that
    COO -> CSR applies to the values [diagonal, coupling, adjoint] of
    ``_assemble``, and ``indices``/``indptr`` are that whole pattern in CSR,
    in the index dtype scipy gives it; no position repeats, so COO -> CSR
    sums nothing.  A fiber layout (``fiber_layout``) also keeps the
    ``basis`` and the samples ``kappa`` it was built for.  ``labels`` are the
    block labels of the whole pattern, filled by the first Hamiltonian that
    stores every coupling entry and shared by every later one
    (``Hamiltonian.blocks``).
    """

    rows: np.ndarray
    cols: np.ndarray
    c: np.ndarray
    half: np.ndarray
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    basis: OccupationBasis | None = None
    kappa: np.ndarray | None = None
    labels: np.ndarray | None = field(default=None, repr=False)


def _layout(rows, cols, c, n: int, basis: OccupationBasis | None = None,
            kappa: np.ndarray | None = None) -> CouplingLayout:
    """The ``CouplingLayout`` of the creation entries c at (rows, cols) of
    an n x n matrix.  COO -> CSR orders the entries by (row, column), which
    one stable sort of row * n + column gives when no position repeats."""
    on = np.arange(n)
    r = np.concatenate([on, rows, cols])
    q = np.concatenate([on, cols, rows])
    key = r * n + q
    order = np.argsort(key, kind="stable")
    if np.any(np.diff(key[order]) == 0):
        raise ValueError("the coupling entries repeat a position")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    # the CSR constructor picks the index dtype COO -> CSR would
    pattern = sp.csr_matrix((np.ones(len(key)), q[order], indptr), shape=(n, n))
    return CouplingLayout(rows, cols, c, c * (1.0 / math.sqrt(2.0)), order,
                          pattern.indices, pattern.indptr, basis, kappa)


def _assemble(ms: ModelSpec, diag: np.ndarray, layout: CouplingLayout,
              basis: OccupationBasis | None = None) -> Hamiltonian:
    """diag(diag) plus g / sqrt(2) times the layout's creation entries and
    their adjoint, rounded as g * field_op would be, written into the
    layout's CSR pattern as COO -> CSR would write them; its zeros (a zero
    diagonal entry, every coupling entry at g = 0) are not stored.  With
    every coupling entry stored, H shares the layout's block labels."""
    n = len(diag)
    up = ms.g * layout.half
    data = np.concatenate([diag, up, up.conj()])[layout.order]
    mat = sp.csr_matrix((data, layout.indices.copy(), layout.indptr.copy()), shape=(n, n))
    mat.eliminate_zeros()
    return Hamiltonian(mat, basis, layout if np.all(up != 0) else None)


def fiber_layout(ms: ModelSpec, basis: OccupationBasis) -> CouplingLayout:
    """The ``CouplingLayout`` of the fiber Hamiltonians on ``basis`` with the
    form factor and grid of ``ms``: the same at every P, coupling and
    dispersion switch."""
    kappa = ms.coupling_samples()
    rows, cols, _, c = _creation_entries(basis, kappa)
    return _layout(rows, cols, c, basis.size, basis, kappa)


def build_fiber_H(ms: ModelSpec, P, basis: OccupationBasis, *,
                  layout: CouplingLayout | None = None,
                  mode_sums: np.ndarray | None = None) -> Hamiltonian:
    """Fiber Hamiltonian at total momentum P on the occupation basis.

    ``layout`` is ``fiber_layout`` for this basis and kappa_sigma, already
    formed, or None to build it here; one built for another basis or
    kappa_sigma raises ``ValueError``.  ``mode_sums`` is
    ``fiber_mode_sums(ms, basis)``, already formed, or None; only its shape
    is checked, so the sums of another dispersion switch give a wrong H
    without an error.
    """
    if layout is None:
        layout = fiber_layout(ms, basis)
    elif layout.basis is not basis or not np.array_equal(layout.kappa, ms.coupling_samples()):
        raise ValueError("the coupling layout was built for another basis or kappa_sigma")
    return _assemble(ms, fiber_diagonal(ms, P, basis, mode_sums=mode_sums), layout, basis)


def extended_fiber_H(ms: ModelSpec, P, tb: TensorBasis) -> Hamiltonian:
    """H_ext = H(P) x 1 + 1 x dGamma(omega) on the pairs (inner, outer r):
    the direct sum over r of H(P - K_r) + E_r on N <= n_max - n_r.  Its
    outer-vacuum block is ``build_fiber_H(ms, P, tb.basis)`` bit for bit."""
    basis = tb.basis
    up, src, _, c = _creation_entries(basis, ms.coupling_samples())
    a_dag = _coo(basis, up, src, c)
    rows, cols, k = _one_leg_support(tb, a_dag.indptr, a_dag.indices, right=False)
    return _assemble(ms, fiber_diagonal(ms, P, basis, tb.pairs),
                     _layout(rows, cols, a_dag.data[k], tb.size))


# ---------------------------------------------------------------------------
# Full d = 1 lattice model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FullBasis:
    """Electron-momentum x occupation product basis on an L-site chain.

    Index layout: i = e_idx * boson.size + b_idx.  Electron momenta are
    2 pi m / L and positions are x = m for m = -(L//2) .. L - 1 - L//2
    (L values, odd L included).
    """

    n_sites: int
    momenta: np.ndarray
    mode_m: np.ndarray
    boson: OccupationBasis

    @property
    def size(self) -> int:
        return self.n_sites * self.boson.size

    def positions(self) -> np.ndarray:
        L = self.n_sites
        return np.arange(L, dtype=float) - L // 2

    def to_position(self, vec: np.ndarray) -> np.ndarray:
        """(L, nb) position-basis amplitudes of the electron leg: the unitary
        DFT sum_p e^{i p x} psi(p) / sqrt(L), as a centered inverse FFT."""
        psi = vec.reshape(self.n_sites, self.boson.size)
        return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(psi, axes=0), axis=0, norm="ortho"),
                               axes=0)


def full_basis(ms: ModelSpec, n_sites: int, n_max: int) -> FullBasis:
    """Product basis, validating that boson modes sit on the dual lattice."""
    from .fock import build_basis

    L = n_sites
    k = np.atleast_2d(ms.grid.points)[:, 0]
    m = k * L / (2.0 * np.pi)
    m_int = np.rint(m).astype(int)
    if ms.grid.dim != 1 or np.any(np.abs(m - m_int) > 1e-9):
        raise IncompatibleGridError("boson modes must be dual-lattice momenta 2 pi m / L")
    momenta = 2.0 * np.pi * (np.arange(L) - L // 2) / L
    boson = build_basis(ms.grid, n_max)
    return FullBasis(n_sites=L, momenta=momenta, mode_m=m_int, boson=boson)


def build_full_H(ms: ModelSpec, fb: FullBasis) -> Hamiltonian:
    """Full Hamiltonian Omega(p) x 1 + 1 x dGamma(omega) + g phi(G_x).

    The interaction shifts the electron momentum by -k_j (mod 2 pi) when a
    mode-j boson is created, so total momentum is conserved exactly.
    """
    L, nb = fb.n_sites, fb.boson.size
    om_e = ms.disp.omega(fb.momenta[:, None])
    diag = (om_e[:, None] + fb.boson.mode_sum(ms.boson_omega())[None, :]).ravel()
    up, b, j, c = _creation_entries(fb.boson, ms.coupling_samples())
    e = np.arange(L)[:, None]
    # e^{-i k_j x}: electron momentum index e -> e - m_j (mod L), see FullBasis
    rows = ((e - fb.mode_m[j]) % L * nb + up).ravel()
    cols = (e * nb + b).ravel()
    return _assemble(ms, diag, _layout(rows, cols, np.tile(c, L), fb.size))
