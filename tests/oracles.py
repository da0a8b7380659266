"""Per-state loop builders kept as independent references.

These are the occupation-loop constructions that the package's ladder-table
builders replaced.  The oracles enumerate their own states: ``states_of`` is
the per-state recursion that ``fock.build_basis`` replaced, giving a tuple
list and a dict from tuple to position for a basis's grid and caps.  The
builders look every target state up in that dict one state (or pair) at a
time and never read ``basis.occ``, ``basis.up`` or the slot tables, so
``tests/test_ladder_table.py`` can compare the vectorized builders and the
basis tables themselves against them.  ``momentum_blocks`` groups the chain's
product basis by total momentum, one state at a time.  ``lift_boson_op`` forms the Kronecker product 1 x op that the chain
probes apply without forming it.  ``DenseCalculus`` is the one-``eigh``
functional calculus that the block-wise ``SpectralCalculus`` replaced, and
``to_position`` the phase-matrix DFT that ``FullBasis.to_position`` computes
by FFT.  ``line_position_op`` is the 1-d position matrix y built as the
plain Hermitian part of i times central differences in sorted order, which
``mourre.build_position_op`` builds through the weighted adjoint on every
grid.  ``full_row_recursion`` is the sector recursion as it was before it
was restricted to each sector's block: it reads the basis's slot tables and
sector schedule like the package, and sums over every row and slot.
``chebyshev_expm_apply`` is the Chebyshev propagator with the shifted
operator left in H's dtype, so that every matvec upcasts it to the complex
vector's dtype again.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from nelsonlab.dynamics import _chebyshev_coefficients
from nelsonlab.fock import (
    _as_mode_matrix,
    _check_modes,
    _coo,
    to_ortho,
)
from nelsonlab.spectral import _gershgorin_interval


def _occupations(n_modes: int, total: int):
    """All occupation tuples with given total, in ascending lexicographic order."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _occupations(n_modes - 1, total - first):
            yield (first,) + rest


def states_of(basis) -> tuple:
    """The occupation tuples of ``basis``'s grid with N <= n_max (and energy
    <= e_cap if set), by N and then ascending lexicographically, and the dict
    from each tuple to its position."""
    grid, e_cap = basis.grid, basis.e_cap
    states = [s for total in range(basis.n_max + 1) for s in _occupations(grid.n_modes, total)
              if e_cap is None or float(np.dot(s, grid.omega_mod)) <= e_cap]
    return states, {s: i for i, s in enumerate(states)}


def basis_csv(grid, states) -> str:
    """``OccupationBasis.to_csv`` written from an enumeration; the energies are
    the same occupation-array product, so the digits agree."""
    en = np.array(states, dtype=np.int64).reshape(len(states), grid.n_modes) @ grid.omega_mod
    lines = ["index,occupation,total_n,energy"]
    for i, s in enumerate(states):
        lines.append(f"{i},{';'.join(str(n) for n in s)},{sum(s)},{en[i]:.17g}")
    return "\n".join(lines) + "\n"


def tensor_csv(left_states, right_states, pairs) -> str:
    """``TensorBasis.to_csv`` written from enumerations and a pair list."""
    lines = ["index,left_occupation,right_occupation"]
    for n, (i, j) in enumerate(pairs):
        l = ";".join(str(x) for x in left_states[i])
        r = ";".join(str(x) for x in right_states[j])
        lines.append(f"{n},{l},{r}")
    return "\n".join(lines) + "\n"


def line_position_op(grid) -> np.ndarray:
    """y = (A + A^H)/2 with A = i D, D central differences (one-sided end
    rows) on the modes sorted by k, for a uniform 1-d grid."""
    k = grid.points[:, 0]
    order = np.argsort(k)
    n, h = len(k), float(k[order][1] - k[order][0])
    D = np.zeros((n, n))
    for i in range(1, n - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    D[0, 0], D[0, 1] = -1.0 / h, 1.0 / h
    D[n - 1, n - 2], D[n - 1, n - 1] = -1.0 / h, 1.0 / h
    Dk = np.zeros((n, n), dtype=complex)
    Dk[np.ix_(order, order)] = D
    A = 1j * Dk
    return (A + A.conj().T) / 2.0


def creation_op(basis, h) -> sp.csr_matrix:
    h = _check_modes(basis, h)
    amp = np.sqrt(basis.grid.weights) * h
    states, index = states_of(basis)
    rows, cols, data = [], [], []
    for i, state in enumerate(states):
        if sum(state) >= basis.n_max:
            continue
        for j in np.nonzero(amp)[0]:
            target = state[:j] + (state[j] + 1,) + state[j + 1:]
            t = index.get(target)
            if t is None:
                continue
            rows.append(t)
            cols.append(i)
            data.append(math.sqrt(state[j] + 1) * amp[j])
    return _coo(basis, rows, cols, data)


def dGamma(basis, b) -> sp.csr_matrix:
    b = _as_mode_matrix(basis, b)
    bo = to_ortho(basis.grid, basis.grid, b)
    defect = float(np.abs(bo - bo.conj().T).max()) if bo.size else 0.0
    scale = float(np.abs(bo).max()) if bo.size else 0.0
    herm = defect <= 1e-13 * max(scale, 1.0)
    if herm and defect > 0.0:
        bo = (bo + bo.conj().T) / 2.0
    rows, cols, data = [], [], []
    offdiag = [(i, j) for i in range(bo.shape[0]) for j in range(bo.shape[1])
               if i != j and bo[i, j] != 0]
    states, index = states_of(basis)
    for c, state in enumerate(states):
        diag = sum(n * bo[j, j] for j, n in enumerate(state) if n)
        if diag != 0:
            rows.append(c)
            cols.append(c)
            data.append(diag)
        for (i, j) in offdiag:
            nj = state[j]
            if nj == 0:
                continue
            target = list(state)
            target[j] -= 1
            target[i] += 1
            t = index.get(tuple(target))
            if t is None:
                continue
            rows.append(t)
            cols.append(c)
            data.append(bo[i, j] * math.sqrt(nj * (state[i] + 1)))
    return _coo(basis, rows, cols, data)


def elementary_ladders(basis) -> list:
    M = basis.grid.n_modes
    states, index = states_of(basis)
    ladders = []
    for i in range(M):
        rows, cols, data = [], [], []
        for c, state in enumerate(states):
            if sum(state) >= basis.n_max:
                continue
            target = state[:i] + (state[i] + 1,) + state[i + 1:]
            t = index.get(target)
            if t is None:
                continue
            rows.append(t)
            cols.append(c)
            data.append(math.sqrt(state[i] + 1))
        ladders.append(sp.coo_matrix((data, (rows, cols)),
                                     shape=(len(states), len(states)), dtype=complex).tocsr())
    return ladders


def _combined_creators(basis_out, bo: np.ndarray) -> np.ndarray:
    stack = np.stack([L.toarray() for L in elementary_ladders(basis_out)])
    return np.tensordot(bo.T, stack, axes=(1, 0))


def Gamma(basis_in, b, basis_out=None) -> sp.csr_matrix:
    basis_out = basis_out or basis_in
    b = np.asarray(b, dtype=complex)
    if b.ndim == 1:
        b = np.diag(b)
    bo = to_ortho(basis_out.grid, basis_in.grid, b)
    B = _combined_creators(basis_out, bo)
    out = np.zeros((basis_out.size, basis_in.size), dtype=complex)
    for c, state in enumerate(states_of(basis_in)[0]):
        vec = np.zeros(basis_out.size, dtype=complex)
        vec[0] = 1.0
        norm = 1.0
        for j, nj in enumerate(state):
            for _ in range(nj):
                vec = B[j] @ vec
            norm *= math.factorial(nj)
        out[:, c] = vec / math.sqrt(norm)
    return sp.csr_matrix(out)


def dGamma2(basis_in, a, b, basis_out=None) -> sp.csr_matrix:
    basis_out = basis_out or basis_in
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim == 1:
        a = np.diag(a)
    if b.ndim == 1:
        b = np.diag(b)
    ao = to_ortho(basis_out.grid, basis_in.grid, a)
    bo = to_ortho(basis_out.grid, basis_in.grid, b)
    A = _combined_creators(basis_out, ao)
    B = _combined_creators(basis_out, bo)
    out = np.zeros((basis_out.size, basis_in.size), dtype=complex)
    for c, state in enumerate(states_of(basis_in)[0]):
        norm = 1.0
        for nj in state:
            norm *= math.factorial(nj)
        total = np.zeros(basis_out.size, dtype=complex)
        for j, nj in enumerate(state):
            if nj == 0:
                continue
            vec = np.zeros(basis_out.size, dtype=complex)
            vec[0] = 1.0
            vec = B[j] @ vec
            for l, nl in enumerate(state):
                reps = nl - (1 if l == j else 0)
                for _ in range(reps):
                    vec = A[l] @ vec
            total += nj * vec
        out[:, c] = total / math.sqrt(norm)
    return sp.csr_matrix(out)


def full_row_recursion(basis_in, basis_out, a, b=None):
    """The sector recursion of ``fock._sector_recursion`` summed over every
    row of ``basis_out`` and every slot: each created column is a*(coef) of
    the whole previous column, so it adds an exact zero wherever the boson
    numbers do not match.  Returns dense (Gamma(a), dGamma2(a, b) or None);
    the package's block recursion keeps every nonzero term in this order, so
    the two must be equal bit for bit."""
    basis_out = basis_out or basis_in

    def ortho(m):
        m = np.asarray(m, dtype=complex)
        if m.ndim == 1:
            m = np.diag(m)
        return to_ortho(basis_out.grid, basis_in.grid, m)

    ao = ortho(a)
    bo = None if b is None else ortho(b)
    modes, roots, parents = basis_out.slot_mode, basis_out.slot_root, basis_out.slot_parent

    def create(coef, V):
        out = np.zeros((basis_out.size, V.shape[1]), dtype=complex)
        for s in range(modes.shape[1]):
            out += roots[:, s, None] * coef[modes[:, s]] * V[parents[:, s]]
        return out

    G = np.zeros((basis_out.size, basis_in.size), dtype=complex)
    G[0, 0] = 1.0
    D = np.zeros_like(G) if bo is not None else None
    for c, j, p, scale in basis_in.sectors:
        G[:, c] = create(ao[:, j], G[:, p]) * scale
        if bo is not None:
            D[:, c] = (create(bo[:, j], G[:, p]) + create(ao[:, j], D[:, p])) * scale
    return G, D


def full_H_coupling(ms, fb) -> sp.coo_matrix:
    """Creation half of the full-chain interaction g phi(G_x), each entry
    rounded as the fiber's g phi(kappa_sigma) stores it:
    g ((sqrt(n_j + 1) sqrt(w_j) kappa_j) (1 / sqrt 2))."""
    L = fb.n_sites
    nb = fb.boson.size
    rows, cols, data = [], [], []
    amp = np.sqrt(ms.grid.weights) * ms.coupling_samples()
    m_e = np.rint(fb.momenta * L / (2 * np.pi)).astype(int)
    idx_of_m = {mm: i for i, mm in enumerate(m_e)}
    states, index = states_of(fb.boson)
    for b_idx, state in enumerate(states):
        if sum(state) >= fb.boson.n_max:
            continue
        for j in np.nonzero(amp)[0]:
            target = state[:j] + (state[j] + 1,) + state[j + 1:]
            t_idx = index.get(target)
            if t_idx is None:
                continue
            val = ms.g * ((math.sqrt(state[j] + 1) * amp[j]) * (1.0 / math.sqrt(2.0)))
            dm = int(fb.mode_m[j])
            for e_idx in range(L):
                e_t = idx_of_m[((m_e[e_idx] - dm) + L // 2) % L - L // 2]
                rows.append(e_t * nb + t_idx)
                cols.append(e_idx * nb + b_idx)
                data.append(val)
    return sp.coo_matrix((data, (rows, cols)), shape=(fb.size, fb.size), dtype=complex)


def momentum_blocks(fb) -> dict:
    """Product-basis indices grouped by wrapped total momentum index
    m_e + sum_j n_j m_j, the electron index running slowest."""
    L = fb.n_sites
    states, _ = states_of(fb.boson)
    m_e = np.rint(fb.momenta * L / (2 * np.pi)).astype(int)
    blocks: dict[int, list] = {}
    for e, me in enumerate(m_e):
        for b, state in enumerate(states):
            tot = int(me) + sum(n * int(m) for n, m in zip(state, fb.mode_m))
            blocks.setdefault((tot + L // 2) % L - L // 2, []).append(e * len(states) + b)
    return {m: np.array(blocks[m]) for m in sorted(blocks)}


def lift_boson_op(fb, op) -> sp.csr_matrix:
    """1 x op on the electron-momentum x occupation product basis."""
    return sp.kron(sp.identity(fb.n_sites, dtype=complex, format="csr"), op, format="csr")


def to_position(fb, vec) -> np.ndarray:
    """(L, nb) position amplitudes sum_p e^{i p x} psi(p) / sqrt(L) by an explicit L x L matrix."""
    L = fb.n_sites
    phase = np.exp(1j * np.outer(fb.positions(), fb.momenta)) / math.sqrt(L)
    return phase @ vec.reshape(L, fb.boson.size)


def chebyshev_expm_apply(mat, v, dt, tol=1e-10) -> np.ndarray:
    """exp(-i dt H) v by the Chebyshev series of ``dynamics.krylov_expm_apply``,
    with A = 2 (H - a) / b kept in H's dtype and upcast by each matvec."""
    a, b = _gershgorin_interval(mat)
    phase = np.exp(-1j * a * dt)
    if b == 0.0 or dt == 0:
        return phase * v
    c = _chebyshev_coefficients(b * dt, tol)
    A = (mat - a * sp.identity(mat.shape[0], format="csr")) * (2.0 / b)
    w_prev = np.asarray(v, dtype=complex)
    w = 0.5 * (A @ w_prev)
    out = c[0] * w_prev
    for ck in c[1:]:
        out += ck * w
        w_prev, w = w, A @ w - w_prev
    return phase * out


class DenseCalculus:
    """f(H) from one dense ``eigh`` of the whole matrix."""

    def __init__(self, H):
        self.vals, self.vecs = np.linalg.eigh(H.mat.toarray())

    def fn(self, f) -> np.ndarray:
        return (self.vecs * f(self.vals)[None, :]) @ self.vecs.conj().T

    def projector(self, sigma: float) -> np.ndarray:
        return self.fn(lambda lam: (lam <= sigma).astype(float))


def build_tensor_basis(basis) -> tuple:
    """Pairs of ``basis``'s states with total N <= n_max, in ascending
    (total N, left index, right index) order."""
    nb = [sum(s) for s in states_of(basis)[0]]
    pairs = []
    for total in range(basis.n_max + 1):
        for i in range(len(nb)):
            if nb[i] > total:
                continue
            for j in range(len(nb)):
                if nb[i] + nb[j] == total:
                    pairs.append((i, j))
    return tuple(pairs)


def tensor_iso_U(basis_sum, tb) -> sp.csr_matrix:
    M = tb.basis.grid.n_modes
    index = states_of(tb.basis)[1]
    pair_index = {p: n for n, p in enumerate(map(tuple, tb.pairs.tolist()))}
    rows, cols, data = [], [], []
    for c, state in enumerate(states_of(basis_sum)[0]):
        rows.append(pair_index[(index[state[:M]], index[state[M:]])])
        cols.append(c)
        data.append(1.0)
    return sp.coo_matrix((data, (rows, cols)), shape=(tb.size, basis_sum.size),
                         dtype=complex).tocsr()


def scattering_ident(tb) -> sp.csr_matrix:
    states, index = states_of(tb.basis)
    rows, cols, data = [], [], []
    for c, (il, ir) in enumerate(tb.pairs):
        nl = states[il]
        nr = states[ir]
        fused = tuple(a + b for a, b in zip(nl, nr))
        t = index.get(fused)
        if t is None:
            continue
        amp = 1.0
        for a, b in zip(nl, nr):
            if a and b:
                amp *= math.comb(a + b, a)
        rows.append(t)
        cols.append(c)
        data.append(math.sqrt(amp))
    return sp.coo_matrix((data, (rows, cols)), shape=(tb.basis.size, tb.size),
                         dtype=complex).tocsr()


def _leg_groups(tb):
    tmp_r: dict[int, list] = {}
    tmp_l: dict[int, list] = {}
    for n, (i, j) in enumerate(tb.pairs):
        tmp_r.setdefault(j, []).append((n, i))
        tmp_l.setdefault(i, []).append((n, j))
    by_right = {j: (np.array([n for n, _ in lst]), np.array([i for _, i in lst]))
                for j, lst in tmp_r.items()}
    by_left = {i: (np.array([n for n, _ in lst]), np.array([j for _, j in lst]))
               for i, lst in tmp_l.items()}
    return by_right, by_left


def tensor_factor_ops(tb, op_left=None, op_right=None) -> sp.csr_matrix:
    """One-leg lift: on the pairs that share the other leg's state, the block
    of the leg matrix, one group at a time."""
    by_right, by_left = _leg_groups(tb)
    groups, dense = ((by_right, op_left.toarray()) if op_right is None
                     else (by_left, op_right.toarray()))
    rows, cols, vals = [], [], []
    for pidx, idx in groups.values():
        block = dense[np.ix_(idx, idx)]
        r, c = np.nonzero(block)
        rows.append(pidx[r])
        cols.append(pidx[c])
        vals.append(block[r, c])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(tb.size, tb.size), dtype=complex).tocsr()
