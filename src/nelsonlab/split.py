"""Fock tensor isomorphism, boson splitting, and the scattering identification.

The doubled one-boson space h + h is realized as a 2M-mode grid (two copies of
the base grid).  The unitary U maps its Fock space onto the tensor product of
two Fock spaces over the base grid; in occupation coordinates U is a
permutation isometry, the binomial weights of the sector formula being
absorbed by the occupation-state normalization.

breve_gamma realizes the splitting map Gamma-breve(j) = U Gamma(j) routing each
boson through the pair (j0, jinf), and scattering_ident the fusion map
I = Gamma(iota) U* with iota(h0, hinf) = h0 + hinf.  All maps are Galerkin
projected onto the configured caps; pairs that overflow under I get zero columns.
breve_gamma and dbreve_gamma2 are dense, like the ``fock`` functors they are
built from; U is never multiplied, its permutation places their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fock import (
    DimensionMismatchError,
    Gamma,
    ModeGrid,
    OccupationBasis,
    RowIndex,
    _row_index,
    build_basis,
    dGamma2,
    weighted_adjoint,
)


class IncompatibleCapsError(ValueError):
    """Caps on the two sides of the tensor isomorphism do not match."""


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
        meta={"kind": "doubled", "base": grid, "copy_labels": labels},
    )


def stack_pair(j0: np.ndarray, jinf: np.ndarray) -> np.ndarray:
    """Stack two M x M mode operators into the 2M x M map h -> h + h."""
    return np.vstack([np.asarray(j0, dtype=complex), np.asarray(jinf, dtype=complex)])


@dataclass
class SplitPair:
    """Pair of mode operators (j0, jinf) with its recorded algebraic property."""

    grid: ModeGrid
    j0: np.ndarray
    jinf: np.ndarray
    isometric: bool = field(init=False)
    partition: bool = field(init=False)

    def __post_init__(self):
        self.j0 = np.asarray(self.j0, dtype=complex)
        self.jinf = np.asarray(self.jinf, dtype=complex)
        M = self.grid.n_modes
        if self.j0.shape != (M, M) or self.jinf.shape != (M, M):
            raise DimensionMismatchError("split operators must be M x M")
        adj0 = weighted_adjoint(self.grid, self.grid, self.j0)
        adjinf = weighted_adjoint(self.grid, self.grid, self.jinf)
        eye = np.eye(M)
        self.isometric = bool(np.abs(adj0 @ self.j0 + adjinf @ self.jinf - eye).max() < 1e-10)
        self.partition = bool(np.abs(self.j0 + self.jinf - eye).max() < 1e-10)

    def stacked(self) -> np.ndarray:
        return stack_pair(self.j0, self.jinf)


@dataclass(frozen=True, eq=False)
class TensorBasis:
    """Pairs of occupation states with independent caps and a joint total cap.

    ``pairs`` is an (n_pairs, 2) array of (left index, right index) rows;
    ``lookup`` maps an array of pair rows back to their rows (-1 where absent).
    """

    left: OccupationBasis
    right: OccupationBasis
    joint_cap: int
    pairs: np.ndarray
    lookup: RowIndex = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def pair_numbers(self) -> np.ndarray:
        pi, pj = self.pairs.T
        return np.stack([self.left.total_numbers()[pi], self.right.total_numbers()[pj]], axis=1)

    def to_csv(self) -> str:
        left, right = self.left.occ.tolist(), self.right.occ.tolist()
        lines = ["index,left_occupation,right_occupation"]
        for n, (i, j) in enumerate(self.pairs.tolist()):
            lines.append(f"{n},{';'.join(map(str, left[i]))},{';'.join(map(str, right[j]))}")
        return "\n".join(lines) + "\n"


def build_tensor_basis(left: OccupationBasis, right: OccupationBasis,
                       joint_cap: int) -> TensorBasis:
    """Pairs with total boson number at most ``joint_cap``, in ascending
    (total N, left index, right index) order.

    The legs are graded by boson number, so total T is the blocks of left
    sector a times right sector T - a for ascending a, each left-major."""
    nl, nr = left.total_numbers(), right.total_numbers()
    blocks = []
    for T in range(joint_cap + 1):
        for a in range(max(0, T - right.n_max), min(T, left.n_max) + 1):
            i, j = np.flatnonzero(nl == a), np.flatnonzero(nr == T - a)
            blocks.append(np.stack([np.repeat(i, len(j)), np.tile(j, len(i))], axis=1))
    pairs = np.concatenate(blocks)
    return TensorBasis(left=left, right=right, joint_cap=joint_cap, pairs=pairs,
                       lookup=_row_index(pairs))


def tensor_iso_perm(basis_sum: OccupationBasis, tb: TensorBasis) -> np.ndarray:
    """U as its permutation: the tensor-basis row of each doubled-grid state.

    In occupation coordinates every doubled-grid state (n_0 | n_inf) maps to
    the pair state |n_0> x |n_inf| with unit amplitude; the sector formula's
    binomial(n, k)^(1/2) factors are carried by the occupation normalization.
    The rows are found by the lookups the leg and pair bases carry.
    Raises IncompatibleCapsError when a source state has no target pair.
    """
    M = tb.left.grid.n_modes
    if basis_sum.grid.n_modes != 2 * M:
        raise DimensionMismatchError("source basis must live on the doubled grid")
    il = tb.left.lookup(basis_sum.occ[:, :M])
    ir = tb.right.lookup(basis_sum.occ[:, M:])
    if np.any(il < 0) or np.any(ir < 0):
        raise IncompatibleCapsError(
            "tensor caps cannot represent a source state; "
            "need left/right caps >= source n_max and matching energy caps")
    t = tb.lookup(np.stack([il, ir], axis=1))
    if np.any(t < 0):
        raise IncompatibleCapsError("joint cap below source n_max")
    return t


def tensor_iso_U(basis_sum: OccupationBasis, tb: TensorBasis) -> sp.csr_matrix:
    """Unitary from the Fock space over h + h onto the tensor-product basis:
    one unit entry per column, in the row ``tensor_iso_perm`` gives."""
    t = tensor_iso_perm(basis_sum, tb)
    return sp.coo_matrix((np.ones(basis_sum.size), (t, np.arange(basis_sum.size))),
                         shape=(tb.size, basis_sum.size), dtype=complex).tocsr()


def _placed_by_U(functor, maps, source: OccupationBasis, tb: TensorBasis,
                 basis_sum: OccupationBasis | None) -> np.ndarray:
    """U functor(source, *maps, basis_out=basis_sum), basis_sum defaulting to
    the source caps on the doubled grid.  U is a permutation isometry, so the
    functor's rows are placed by ``tensor_iso_perm``; the other pairs get zero
    rows."""
    if basis_sum is None:
        basis_sum = build_basis(doubled_grid(source.grid), source.n_max, source.e_cap)
    out = np.zeros((tb.size, source.size), dtype=complex)
    out[tensor_iso_perm(basis_sum, tb)] = functor(source, *maps, basis_out=basis_sum)
    return out


def breve_gamma(sp_pair: SplitPair, source: OccupationBasis, tb: TensorBasis,
                basis_sum: OccupationBasis | None = None) -> np.ndarray:
    """Splitting map U Gamma(j): F -> F x F for the pair j = (j0, jinf), dense."""
    return _placed_by_U(Gamma, (sp_pair.stacked(),), source, tb, basis_sum)


def dbreve_gamma2(sp_pair: SplitPair, b0: np.ndarray, binf: np.ndarray,
                  source: OccupationBasis, tb: TensorBasis,
                  basis_sum: OccupationBasis | None = None) -> np.ndarray:
    """Mixed splitting map U dGamma(j, (b0, binf)): F -> F x F, dense."""
    return _placed_by_U(dGamma2, (sp_pair.stacked(), stack_pair(b0, binf)),
                        source, tb, basis_sum)


def scattering_ident(tb: TensorBasis, target: OccupationBasis) -> sp.csr_matrix:
    """Fusion map I: F x F -> F with I(phi x a*(h_1)..a*(h_n) Omega) = a*(h_1)..a*(h_n) phi.

    Matrix elements are products of binomial square roots,
    prod_m binom(nL_m + nR_m, nL_m)^(1/2).  Pairs whose fused state exceeds the
    target caps are projected out: their columns are zero.
    """
    if target.grid.n_modes != tb.left.grid.n_modes:
        raise DimensionMismatchError("target grid must match the tensor factors")
    pi, pj = tb.pairs.T
    nl, nr = tb.left.occ[pi], tb.right.occ[pj]
    fused = nl + nr
    t = target.lookup(fused)
    keep = np.flatnonzero(t >= 0)
    # Pascal table of exact binomials (fixed-width factorials overflow past 20!)
    top = fused.max(initial=0) + 1
    binom = np.array([[math.comb(n, k) for k in range(top)] for n in range(top)], dtype=float)
    amp = np.prod(binom[fused, nl], axis=1)
    return sp.coo_matrix((np.sqrt(amp[keep]), (t[keep], keep)), shape=(target.size, tb.size),
                         dtype=complex).tocsr()


def tensor_lift(tb: TensorBasis):
    """Lift of dense leg matrices onto the pair basis, as index gathers.

    Returns ``lift(op_left=None, op_right=None)``, whose entry (p, q) for
    pairs p = (i, j) and q = (i', j') is op_left[i, i'] op_right[j, j'], a
    leg left as None being the identity.  Pairs outside the joint cap are
    absent, which is the Galerkin projection.  A one-leg lift is nonzero only
    where the other leg agrees (j = j' for op_left); that support, as flat
    positions in the result and in the leg matrix, is computed here once per
    leg, and a call writes the gathered entries into zeros of the op's dtype.
    Two legs (or none) take one flat-index gather (or Kronecker mask) per leg.
    """
    n = tb.size
    il, ir = tb.pairs.T
    legs = ((il, tb.left.size), (ir, tb.right.size))

    def support(idx, size, other):
        p, q = np.nonzero(other[:, None] == other[None, :])
        return p * n + q, idx[p] * size + idx[q]

    one_leg = (support(il, tb.left.size, ir), support(ir, tb.right.size, il))

    def lift(op_left=None, op_right=None) -> np.ndarray:
        if (op_left is None) != (op_right is None):
            op, (put, gather) = ((op_left, one_leg[0]) if op_right is None
                                 else (op_right, one_leg[1]))
            op = np.asarray(op)
            out = np.zeros(n * n, dtype=op.dtype)
            out[put] = np.take(op, gather)
            return out.reshape(n, n)
        left, right = (idx[:, None] == idx[None, :] if op is None
                       else np.take(op, idx[:, None] * size + idx[None, :])
                       for op, (idx, size) in zip((op_left, op_right), legs))
        return left * right

    return lift


def tensor_factor_ops(tb: TensorBasis, op_left: sp.csr_matrix | None = None,
                      op_right: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """Lift op_left x op_right (identity when None) onto the pair basis.

    The sparse Kronecker product restricted to the pair rows and columns:
    pairs pushed outside the joint cap are projected out (Galerkin)."""
    legs = (sp.identity(leg.size, format="csr") if op is None else op
            for op, leg in ((op_left, tb.left), (op_right, tb.right)))
    idx = tb.pairs[:, 0] * tb.right.size + tb.pairs[:, 1]
    mat = sp.kron(*legs, format="csr")[idx][:, idx].astype(complex)
    mat.eliminate_zeros()
    return mat

