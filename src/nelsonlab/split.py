"""Fock tensor isomorphism, boson splitting, and the scattering identification.

Both legs of the splitting are the same Fock space, so the pair space is one
basis paired with itself up to its n_max, laid out in sector blocks, and a
pair's row is arithmetic on the leg's sector edges.  The doubled one-boson
space h + h is a 2M-mode grid; U maps its Fock space, with the same n_max,
onto the pairs, and in occupation coordinates it is a permutation: a
doubled-grid tuple splits into its modes below M and the rest, each ranked
on the leg.  The doubled-grid basis and U are built once, on first use.

breve_gamma(j0, jinf, tb) is the splitting map Gamma-breve(j) = U Gamma(j),
routing each boson through the M x M pair (j0, jinf), and scattering_ident
the fusion map I = Gamma(iota) U* with iota(h0, hinf) = h0 + hinf.  Both
conserve the boson number, so they are exact on N <= n_max; only the one-leg
lifts of operators that raise it are Galerkin projected.  The splitting maps
are dense, their rows placed by U's permutation; dbreve_gamma2 reads Gamma(j)
from the caller's breve_gamma of the same pair.  apply_breve_gamma applies
Gamma-breve(j) to one vector as (Gamma(j0) x Gamma(jinf)) I*, one product per
pair of sectors of ``TensorBasis.blocks``.  A one-leg lift is a sparse
matrix of the leg's entries (``tensor_factor_ops``), or a product taken
block by block over op's nonzero sector blocks (``one_leg_product``), never
formed; ``TensorLift`` gathers a leg's support on a pattern of entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fock import (
    DimensionMismatchError,
    Gamma,
    ModeGrid,
    OccupationBasis,
    build_basis,
    dGamma2,
)


def doubled_grid(grid: ModeGrid) -> ModeGrid:
    """Disjoint union grid for h + h: first M modes = '0' copy, last M = 'inf'."""
    labels = np.concatenate([np.zeros(grid.n_modes, dtype=int),
                             np.ones(grid.n_modes, dtype=int)])
    return ModeGrid(
        dim=grid.dim,
        points=np.vstack([grid.points, grid.points]),
        weights=np.concatenate([grid.weights, grid.weights]),
        omega_free=np.concatenate([grid.omega_free, grid.omega_free]),
        omega_mod=np.concatenate([grid.omega_mod, grid.omega_mod]),
        sigma=grid.sigma,
        meta={"kind": "doubled", "copy_labels": labels},
    )


def stack_pair(j0: np.ndarray, jinf: np.ndarray) -> np.ndarray:
    """Stack two M x M mode operators into the 2M x M map h -> h + h; two
    stacks (..., M, M) of them give the stack (..., 2M, M)."""
    j0, jinf = np.asarray(j0, dtype=complex), np.asarray(jinf, dtype=complex)
    if j0.ndim < 2 or j0.shape[-2] != j0.shape[-1] or jinf.shape != j0.shape:
        raise DimensionMismatchError("split operators must be M x M")
    return np.concatenate([j0, jinf], axis=-2)


@dataclass(frozen=True, eq=False)
class TensorBasis:
    """A basis paired with itself: ``pairs`` is an (n_pairs, 2) array of
    (left index, right index) rows with total boson number at most n_max,
    laid out in sector blocks, each left-major.  ``blocks`` is that layout,
    (a, b) -> rows in pair order, ``rows`` the slice of the pairs of left
    sector a and right sector b.  ``sum_basis`` (the same n_max on the
    doubled grid) and ``perm`` are built on first use."""

    basis: OccupationBasis
    pairs: np.ndarray
    blocks: dict

    @property
    def size(self) -> int:
        return len(self.pairs)

    def lookup(self, pairs) -> np.ndarray:
        """The row of each (left, right) pair of an (n, 2) array, the start
        of its sector block plus its left-major place there; -1 where an
        index is outside the basis or the pair is above n_max."""
        edges, n_max, n = self.basis.edges, self.basis.n_max, self.basis.size
        i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        a, b = (np.searchsorted(edges, np.clip(k, 0, n - 1), side="right") - 1 for k in (i, j))
        start = np.zeros((n_max + 1, n_max + 1), dtype=np.int64)
        start[tuple(zip(*self.blocks))] = [rows.start for rows in self.blocks.values()]
        row = start[a, b] + (i - edges[a]) * np.diff(edges)[b] + j - edges[b]
        return np.where((i >= 0) & (i < n) & (j >= 0) & (j < n) & (a + b <= n_max), row, -1)

    @cached_property
    def sum_basis(self) -> OccupationBasis:
        return build_basis(doubled_grid(self.basis.grid), self.basis.n_max)

    @cached_property
    def perm(self) -> np.ndarray:
        """U as its permutation: the pair row of each doubled-grid state.

        Every doubled-grid state (n_0 | n_inf) maps to the pair state
        |n_0> x |n_inf> with unit amplitude.  Both sides hold every
        occupation of total N <= n_max, so ``perm`` is a permutation of the
        pairs.
        """
        M, modes = self.basis.grid.n_modes, self.sum_basis.modes
        left = np.where(modes < M, modes, M)
        right = np.sort(np.where(modes >= M, modes - M, M), axis=1)
        t = self.lookup(np.stack([self.basis.index(left), self.basis.index(right)], axis=1))
        t.flags.writeable = False
        return t

    def pair_numbers(self) -> np.ndarray:
        return self.basis.total_numbers()[self.pairs]


def build_tensor_basis(basis: OccupationBasis) -> TensorBasis:
    """Pairs with total boson number at most ``basis.n_max``, in ascending
    (total N, left index, right index) order: for ascending total T, sector
    a times sector T - a for ascending a, each block left-major."""
    edges, pairs, blocks, start = basis.edges, [], {}, 0
    for a, b in ((a, T - a) for T in range(basis.n_max + 1) for a in range(T + 1)):
        i, j = np.arange(*edges[a:a + 2]), np.arange(*edges[b:b + 2])
        pairs.append(np.stack([np.repeat(i, len(j)), np.tile(j, len(i))], axis=1))
        blocks[a, b] = slice(start, start + len(pairs[-1]))
        start = blocks[a, b].stop
    return TensorBasis(basis=basis, pairs=np.concatenate(pairs), blocks=blocks)


def tensor_iso_U(tb: TensorBasis) -> sp.csr_matrix:
    """Unitary from the Fock space over h + h onto the pair basis: one unit
    entry per column, in the row ``tb.perm`` gives."""
    n = tb.sum_basis.size
    return sp.coo_matrix((np.ones(n), (tb.perm, np.arange(n))),
                         shape=(tb.size, n), dtype=complex).tocsr()


def _placed_by_perm(functor, maps, tb: TensorBasis, **kwargs) -> np.ndarray:
    """U functor(basis, *maps, basis_out=sum_basis): U is a permutation, so
    the functor's rows are placed by ``tb.perm``, one on every pair.  Leading
    batch axes of the maps carry through."""
    placed = functor(tb.basis, *maps, basis_out=tb.sum_basis, **kwargs)
    out = np.empty(placed.shape[:-2] + (tb.size, tb.basis.size), dtype=complex)
    out[..., tb.perm, :] = placed
    return out


def breve_gamma(j0: np.ndarray, jinf: np.ndarray, tb: TensorBasis) -> np.ndarray:
    """Splitting map U Gamma(j): F -> F x F for the pair j = (j0, jinf), dense.

    Stacks (..., M, M) of pairs give the stack of their maps, each slice
    bit-equal to the map of that pair alone."""
    return _placed_by_perm(Gamma, (stack_pair(j0, jinf),), tb)


def apply_breve_gamma(j0: np.ndarray, jinf: np.ndarray, tb: TensorBasis, phi: np.ndarray,
                      fusion_adj: sp.csr_matrix) -> np.ndarray:
    """breve_gamma(j0, jinf, tb) @ phi without forming it or the doubled grid:

        Gamma-breve(j) = (Gamma(j0) x Gamma(jinf)) I*,

    I* the adjoint of the fusion map ``scattering_ident(tb)``, which the
    caller forms once and passes as ``fusion_adj``.  I* phi, laid out as
    the basis x basis matrix X with X[pairs] = I* phi, is mapped to
    Gamma(j0) X Gamma(jinf)^T.
    This is exact on N <= n_max: each Gamma conserves its own leg's boson
    number, so it keeps every pair's total.

    The same conservation makes both Gammas block diagonal by sector, and
    X is nonzero only on the sector pairs (a, b) with a + b <= n_max, which
    are the ``blocks`` of the pair basis: each block of pairs is
    sector a times sector b, left-major, and maps to
    G0[a, a] X[a, b] Ginf[b, b]^T.
    """
    x = fusion_adj @ phi
    G0, Ginf = Gamma(tb.basis, j0), Gamma(tb.basis, jinf)
    out = np.empty(tb.size, dtype=np.result_type(x, G0, Ginf))
    edges = tb.basis.edges
    for (a, b), rows in tb.blocks.items():
        left, right = slice(*edges[a:a + 2]), slice(*edges[b:b + 2])
        block = x[rows].reshape(edges[a + 1] - edges[a], edges[b + 1] - edges[b])
        out[rows] = (G0[left, left] @ block @ Ginf[right, right].T).ravel()
    return out


def dbreve_gamma2(j0: np.ndarray, jinf: np.ndarray, b0: np.ndarray, binf: np.ndarray,
                  tb: TensorBasis, *, breve_j: np.ndarray) -> np.ndarray:
    """Mixed splitting map U dGamma(j, (b0, binf)): F -> F x F, dense.

    ``breve_j`` must be ``breve_gamma(j0, jinf, tb)`` for this same pair,
    already formed: its rows at ``tb.perm`` are Gamma(j), which the recursion
    reads.  Only its shape is checked: the splitting map of another pair
    gives a wrong result without an error.  Stacks (..., M, M) of the four
    maps, with the stack of their ``breve_j``, give the stack of the maps.
    """
    return _placed_by_perm(dGamma2, (stack_pair(j0, jinf), stack_pair(b0, binf)), tb,
                           gamma_a=breve_j[..., tb.perm, :])


def scattering_ident(tb: TensorBasis) -> sp.csr_matrix:
    """Fusion map I: F x F -> F with I(phi x a*(h_1)..a*(h_n) Omega) = a*(h_1)..a*(h_n) phi.

    Matrix elements are products of binomial square roots,
    prod_m binom(nL_m + nR_m, nL_m)^(1/2).  A pair's fused state has the
    pair's total boson number, so it is in the basis: every column holds one
    entry.
    """
    basis, top = tb.basis, tb.basis.n_max + 1
    left, right = basis.modes[tb.pairs.T]
    fused = basis.index(np.sort(np.concatenate([left, right], axis=1), axis=1)[:, :top - 1])
    # per slot of the fused state: its n_m, and the left leg's n_m
    n = np.rint(np.square(basis.slot_root[fused])).astype(np.int64)
    nl = np.count_nonzero(left[:, None, :] == basis.slot_mode[fused][:, :, None], axis=2)
    # Pascal table of exact binomials (fixed-width factorials overflow past 20!)
    binom = np.array([[math.comb(m, k) for k in range(top)] for m in range(top)], dtype=float)
    amp = np.prod(binom[n, np.minimum(nl, n)], axis=1)
    return sp.coo_matrix((np.sqrt(amp), (fused, np.arange(tb.size))),
                         shape=(basis.size, tb.size), dtype=complex).tocsr()


def _one_leg_support(tb: TensorBasis, indptr, indices, right: bool):
    """(p, q, k) of a one-leg lift: for each pair p = (i, j) and stored entry
    k = (i, i') of the leg matrix (CSR ``indptr``/``indices``), the pair
    q = (i', j), mirrored for the right leg; q above n_max is dropped."""
    own, other = tb.pairs[:, ::-1].T if right else tb.pairs.T
    count = np.diff(indptr)[own]
    p = np.repeat(np.arange(tb.size), count)
    k = np.arange(len(p)) + np.repeat(indptr[own] - (np.cumsum(count) - count), count)
    legs = (other[p], indices[k])
    q = tb.lookup(np.stack(legs if right else legs[::-1], axis=1))
    keep = q >= 0
    return p[keep], q[keep], k[keep]


class TensorLift:
    """One-leg lifts of leg matrices as index gathers.

    ``support[right]`` holds, for the left (0) or right (1) leg, the flat
    pair positions p * n + q that ``_one_leg_support`` gives for the full
    leg pattern and the flat leg entries gathered there, computed once.
    ``on(pattern, right)`` restricts a leg's support to the entries a
    boolean leg pattern marks.
    """

    def __init__(self, tb: TensorBasis):
        n, m = tb.size, tb.basis.size
        full = (np.arange(m + 1) * m, np.tile(np.arange(m), m))
        self.support = tuple((p * n + q, k) for p, q, k in
                             (_one_leg_support(tb, *full, right) for right in (False, True)))

    def on(self, pattern, right: bool = False):
        """(pair positions, leg entries) of one leg's lift where ``pattern``
        (a boolean leg matrix) is set."""
        put, gather = self.support[right]
        keep = np.asarray(pattern).ravel()[gather]
        return put[keep], gather[keep]


def one_leg_product(tb: TensorBasis, op: np.ndarray, x: np.ndarray,
                    right: bool = False) -> np.ndarray:
    """(op x 1) x, or with ``right`` (1 x op) x, for dense leg matrices op
    and x of shape (..., pairs, c), leading axes broadcast.  Pair block
    (a, b) adds op[sector a, sector a'] times block (a', b), one stacked
    matmul for each sector a' whose block of op is nonzero somewhere in the
    stack (a* has them at a' = a - 1, phi at a -+ 1, dGamma at a; the right
    leg likewise in b); a source block above n_max is outside the basis:
    the Galerkin drop."""
    edges, n_max, sizes = tb.basis.edges, tb.basis.n_max, np.diff(tb.basis.edges)
    live = op.reshape((-1,) + op.shape[-2:]).any(axis=0)
    live = np.logical_or.reduceat(np.logical_or.reduceat(live, edges[:-1], 0), edges[:-1], 1)
    lead, c = x.shape[:-2], x.shape[-1]
    out = np.zeros(np.broadcast_shapes(op.shape[:-2], lead) + x.shape[-2:],
                   dtype=np.result_type(op, x))
    for (a, b), rows in tb.blocks.items():
        own, other = (b, a) if right else (a, b)
        for src in (s for s in range(n_max - other + 1) if live[own, s]):
            block = op[..., edges[own]:edges[own + 1], edges[src]:edges[src + 1]]
            if right:
                xs = x[..., tb.blocks[a, src], :].reshape(lead + (sizes[a], -1, c))
                part = block[..., None, :, :] @ xs
            else:
                part = block @ x[..., tb.blocks[src, b], :].reshape(lead + (sizes[src], -1))
            out[..., rows, :] += part.reshape(out.shape[:-2] + (-1, c))
    return out


def tensor_factor_ops(tb: TensorBasis, op_left: sp.csr_matrix | None = None,
                      op_right: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Lift op_left x 1 (or 1 x op_right) onto the pair basis, exactly one leg,
    from the op's own stored entries; pairs pushed above n_max are projected
    out (Galerkin)."""
    if (op_left is None) == (op_right is None):
        raise ValueError("a tensor lift takes exactly one leg")
    op = sp.csr_matrix(op_right if op_left is None else op_left)
    p, q, k = _one_leg_support(tb, op.indptr, op.indices, op_left is None)
    mat = sp.csr_matrix((op.data[k].astype(complex), (p, q)), shape=(tb.size, tb.size))
    mat.eliminate_zeros()
    return mat
