"""Per-state loop builders kept as independent references.

These are the occupation-loop constructions that the package's ladder-table
builders replaced.  The oracles enumerate their own states: ``states_of`` is
the per-state recursion that ``fock.build_basis`` replaced, giving a tuple
list and a dict from tuple to position for a basis's grid and n_max, and
``rows_of`` looks occupation vectors up in that dict.  The builders look
every target state up in that dict one state (or pair) at a time and never
read ``basis.modes``, ``basis.up``, the slot tables or the ranks, so
``tests/test_ladder_table.py`` can compare the vectorized builders and the
basis tables themselves against them.  ``momentum_blocks`` groups the chain's
product basis by total momentum, one state at a time, and
``total_momentum_op`` is its diagonal total momentum, for the exact
[H, P_tot] = 0 checks.  ``smooth_test_states`` are the smooth guarded-sector
states on which the explicit and the numerical commutator of ``mourre`` are
compared.  ``lift_boson_op``
forms the Kronecker product 1 x op of a boson operator on the chain, and
``wrapped_fiber_H`` the fiber H(P) with its electron momentum wrapped into
the zone, which the chain's total-momentum blocks are compared with.
``three_sum_assembly`` is ``model._assemble``'s matrix summed from three
sparse matrices, the diagonal, the creation entries and their adjoint.
``one_shot_fiber_H`` is the fiber H(P) as it was assembled before the
coupling layout: fresh creation entries and one COO -> CSR per call.
``one_shot_window_subspace``, ``one_shot_commutator`` and ``one_shot_scan``
are criterion 7's scan at one coupling as it was before the sweep shared
one window and one g = 0 commutator: each builds its H and its commutator
from scratch.
``DenseCalculus`` is the one-``eigh`` functional calculus that the
block-wise ``SpectralCalculus`` replaced, and
``to_position`` the phase-matrix DFT that ``FullBasis.to_position`` computes
by FFT.  ``line_position_op`` is the 1-d position matrix y built as the
plain Hermitian part of i times central differences in sorted order, which
``mourre.build_position_op`` builds through the weighted adjoint on every
grid.  ``dense_lift`` is the dense one-leg lift of a dense leg matrix, which
the algebra suite applies block by block without forming it.
``draw`` is one draw of the algebra suite read and derived one call at a
time, with the 2-d weighted helpers (``weighted_inner``,
``weighted_adjoint``, ``weighted_fn``) that ``fock`` had before they took
stacks.  ``full_row_recursion`` is the sector recursion as it was before it
was restricted to each sector's block: it reads the basis's slot tables and
sector edges like the package, and sums over every row and slot.
``chebyshev_expm_apply`` is the Chebyshev propagator with the shifted
operator left in H's dtype, so that every matvec upcasts it to the complex
vector's dtype again, and each block's centre found by a loop over the
components that ``pattern_labels`` finds by breadth-first search; it also
runs the series on H's one global interval, as the propagator did before
it centred each block.
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
    _creation_entries,
    interacting_mask,
    to_ortho,
)
from nelsonlab import model
from nelsonlab.mourre import group_velocity
from nelsonlab.model import _gershgorin_interval


def _occupations(n_modes: int, total: int):
    """All occupation tuples with given total, in ascending lexicographic order."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _occupations(n_modes - 1, total - first):
            yield (first,) + rest


def states_of(basis) -> tuple:
    """The occupation tuples of ``basis``'s grid with N <= n_max, by N and
    then ascending lexicographically, and the dict from each tuple to its
    position."""
    states = [s for total in range(basis.n_max + 1)
              for s in _occupations(basis.grid.n_modes, total)]
    return states, {s: i for i, s in enumerate(states)}


def rows_of(basis, occupations) -> np.ndarray:
    """The row of each occupation vector (one per row) in ``basis``, read
    off the index dict of ``states_of``."""
    index = states_of(basis)[1]
    return np.array([index[tuple(o)] for o in np.asarray(occupations).tolist()], dtype=int)


def occupation_table(basis) -> np.ndarray:
    """The (size, M) occupation numbers of ``states_of``'s states."""
    return np.array(states_of(basis)[0], dtype=np.int64).reshape(-1, basis.grid.n_modes)


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
    for n in range(1, basis_in.n_max + 1):
        c = np.arange(basis_in.edges[n], basis_in.edges[n + 1])
        j, p = basis_in.slot_mode[c, 0], basis_in.slot_parent[c, 0]
        scale = 1.0 / basis_in.slot_root[c, 0]
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


def three_sum_assembly(ms, diag, rows, cols, c) -> sp.csr_matrix:
    """``model._assemble``'s matrix as the sum of three sparse matrices,
    diag(diag) + up + up^*, up the creation entries g ((c) (1 / sqrt 2)) at
    (rows, cols), as the assembly formed it before it wrote one COO."""
    n = len(diag)
    up = sp.coo_matrix((ms.g * (c * (1.0 / math.sqrt(2.0))), (rows, cols)), shape=(n, n))
    return (sp.diags(diag) + up + up.conj().T).tocsr()


def one_shot_fiber_H(ms, P, basis, **_):
    """``model.build_fiber_H`` with no layout: the creation entries found
    again, the diagonal and both coupling halves written as one COO and
    converted to CSR, zeros dropped.  Sharing arguments are ignored."""
    rows, cols, _, c = _creation_entries(basis, ms.coupling_samples())
    n = basis.size
    KE = basis.mode_sum(np.column_stack([ms.grid.points, ms.boson_omega()]))
    diag = ms.disp.omega(np.atleast_1d(np.asarray(P, dtype=float))[None, :] - KE[:, :-1]) \
        + KE[:, -1]
    up = ms.g * (c * (1.0 / math.sqrt(2.0)))
    on = np.arange(n)
    mat = sp.coo_matrix((np.concatenate([diag, up, up.conj()]),
                         (np.concatenate([on, rows, cols]), np.concatenate([on, cols, rows]))),
                        shape=(n, n)).tocsr()
    mat.eliminate_zeros()
    return model.Hamiltonian(mat, basis)


def one_shot_window_subspace(ms, P, basis, sigma_win):
    """Criterion 7's window at the coupling of ``ms``: H built from scratch,
    its interacting rows sliced and densified, one ``eigh``; the frame
    without the ground state, and the ground energy."""
    H = one_shot_fiber_H(ms, P, basis)
    idx = np.flatnonzero(interacting_mask(basis))
    vals, vecs = np.linalg.eigh(H.mat[idx][:, idx].toarray())
    inside = vals <= sigma_win
    frame = np.zeros((basis.size, int(np.sum(inside))), dtype=complex)
    frame[idx, :] = vecs[:, inside]
    return frame[:, 1:], float(vals[0])


def one_shot_commutator(ms, P, basis, conj) -> sp.csr_matrix:
    """The three-term [iH(P), A] with its g = 0 part formed again."""
    P = np.atleast_1d(np.asarray(P, dtype=float))
    vel = group_velocity(ms.grid, ms.use_modified)
    gradO = ms.disp.grad(P[None, :] - basis.boson_momenta())
    out = conj.dgamma_v2 + sp.diags(-np.sum(gradO * basis.mode_sum(vel), axis=1), format="csr")
    if ms.g != 0.0:
        out = out - (ms.g * conj.field_a)
    return out.tocsr()


def one_shot_scan(ms, P, basis, sigma_win, beta, conj, sample_count=64, seed=11, **_) -> dict:
    """``mourre.mourre_scan`` from ``one_shot_window_subspace`` and
    ``one_shot_commutator``; sharing arguments are ignored."""
    frame, e0 = one_shot_window_subspace(ms, P, basis, sigma_win)
    comm = one_shot_commutator(ms, P, basis, conj)
    rng = np.random.default_rng(seed)
    m = frame.shape[1]
    coeffs = rng.normal(size=(sample_count, m)) + 1j * rng.normal(size=(sample_count, m))
    Phi = frame @ (coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)).T
    n = basis.total_numbers()[:, None]
    values = np.sum(Phi.conj() * (comm @ Phi - (1.0 - beta) * n * Phi), axis=0).real
    min_r = float(values.min())
    return {"min_r": min_r, "deficit": max(0.0, -min_r), "per_sample": values.tolist(),
            "window_dim": m, "ground_energy": e0, "mesh": conj.mesh, "beta": beta,
            "sigma_window": sigma_win}


def wrapped_fiber_H(ms, P, basis):
    """The fiber H(P) with its electron momentum P - K(n) wrapped into the
    zone [-pi, pi), as the chain's total-momentum block 2 pi m / L sees it:
    ``model.build_fiber_H``'s coupling, bit for bit, on the wrapped diagonal."""
    H = model.build_fiber_H(ms, P, basis).mat
    occ = occupation_table(basis)
    pe = np.atleast_1d(np.asarray(P, dtype=float))[None, :] - occ @ ms.grid.points
    pe = (pe + np.pi) % (2 * np.pi) - np.pi
    diag = ms.disp.omega(pe) + occ @ ms.boson_omega()
    return model.Hamiltonian(H - sp.diags(H.diagonal()) + sp.diags(diag), basis)


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


def pattern_labels(mat) -> np.ndarray:
    """Connected-component label of each row of a square sparse matrix's
    stored pattern, by breadth-first search one row at a time; components
    are numbered in the order of their first row."""
    mat = sp.csr_matrix(mat)
    label = np.full(mat.shape[0], -1)
    n_comp = 0
    for start in range(mat.shape[0]):
        if label[start] >= 0:
            continue
        label[start] = n_comp
        queue = [start]
        while queue:
            row = queue.pop()
            for col in mat.indices[mat.indptr[row]:mat.indptr[row + 1]]:
                if label[col] < 0:
                    label[col] = n_comp
                    queue.append(col)
        n_comp += 1
    return label


def chebyshev_expm_apply(mat, v, dt, tol=1e-10, per_component=True) -> np.ndarray:
    """exp(-i dt H) v by the Chebyshev series of ``dynamics.krylov_expm_apply``,
    with A = 2 (H - D) / b kept in H's dtype and upcast by each matvec.

    With ``per_component`` D holds, on each connected component of H's
    pattern (``pattern_labels``), the centre of the Gershgorin interval of
    that component's block, found in a loop over the components, and b is
    the largest of their half-widths; without it D and b are the centre and
    half-width of H's one global Gershgorin interval."""
    mat = sp.csr_matrix(mat)
    n = mat.shape[0]
    if per_component:
        label = pattern_labels(mat)
        centres, b = np.empty(n), 0.0
        for c in range(label.max() + 1):
            rows = np.flatnonzero(label == c)
            a_c, b_c = _gershgorin_interval(mat[rows][:, rows])
            centres[rows] = a_c
            b = max(b, b_c)
    else:
        a, b = _gershgorin_interval(mat)
        centres = np.full(n, a)
    phase = np.exp(-1j * centres * dt)
    if b == 0.0 or dt == 0:
        return phase * v
    c = _chebyshev_coefficients(b * dt, tol)
    A = (mat - sp.diags(centres)) * (2.0 / b)
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
        t = index[fused]
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


def dense_lift(tb, op, right=False) -> np.ndarray:
    """op x 1 (or 1 x op with ``right``) on the pair basis as a dense matrix
    in op's dtype: on the pairs that share the other leg's state, the block
    of the dense leg matrix ``op``, one group at a time."""
    by_right, by_left = _leg_groups(tb)
    out = np.zeros((tb.size, tb.size), dtype=op.dtype)
    for pidx, idx in (by_left if right else by_right).values():
        out[np.ix_(pidx, pidx)] = op[np.ix_(idx, idx)]
    return out


def total_momentum_op(fb) -> sp.csr_matrix:
    """Diagonal total momentum p + dGamma(k) of the chain, reduced to the
    zone: the flat index m_e + sum_j n_j m_j per product-basis state, wrapped
    mod L."""
    L = fb.n_sites
    m_e = np.rint(fb.momenta * L / (2 * np.pi)).astype(int)
    tot = (m_e[:, None] + (occupation_table(fb.boson) @ fb.mode_m)[None, :]).ravel()
    vals = (2.0 * np.pi / L) * ((tot + L // 2) % L - L // 2)
    return sp.diags(vals, format="csr")


def smooth_test_states(basis, count: int = 8, seed: int = 23) -> np.ndarray:
    """(count, size) seeded guarded-sector unit states built from smooth,
    boundary-tapered mode profiles (Gaussians in k times a bump vanishing at
    the grid edge): row x is (1 + a*(h1) + a*(h2) a*(h1) / 2) Omega, cut to
    N <= n_max - 1, with a* the loop-built ``creation_op``."""
    k = np.atleast_2d(basis.grid.points)[:, 0]
    kmax = float(np.abs(k).max())
    with np.errstate(divide="ignore", over="ignore"):
        taper = np.where(np.abs(k) < kmax,
                         np.exp(-1.0 / np.maximum(1.0 - (k / kmax) ** 2, 1e-300)), 0.0)
    rng = np.random.default_rng(seed)
    guard = basis.total_numbers() <= basis.n_max - 1
    vac = np.eye(basis.size, 1, dtype=complex)[:, 0]
    out = np.zeros((count, basis.size), dtype=complex)
    for x in range(count):
        c1, c2 = rng.uniform(-0.6 * kmax, 0.6 * kmax, size=2)
        s = 0.35 * kmax
        one = creation_op(basis, taper * np.exp(-((k - c1) ** 2) / (2 * s * s))) @ vac
        two = creation_op(basis, taper * np.exp(-((k - c2) ** 2) / (2 * s * s))) @ one
        v = (vac + one + 0.5 * two) * guard
        out[x] = v / np.linalg.norm(v)
    return out


def weighted_inner(grid, g, h) -> complex:
    """<g, h>_w of two vectors, as ``fock`` formed it before it took stacks."""
    return complex(np.sum(grid.weights * np.conj(g) * np.asarray(h)))


def weighted_adjoint(grid, r) -> np.ndarray:
    """The weighted adjoint of one mode matrix on one grid, with ``.T``."""
    return r.conj().T * (grid.weights[None, :] / grid.weights[:, None])


def weighted_fn(grid, X, f) -> np.ndarray:
    """f(X) of one weighted-Hermitian mode matrix, by one 2-d ``eigh``."""
    w = np.sqrt(grid.weights)
    Xo = w[:, None] * X / w[None, :]
    Xo = (Xo + Xo.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(Xo)
    core = (evecs * f(evals)[None, :]) @ evecs.conj().T
    return core / w[:, None] * w[None, :]


def draw(rng, grid, n: int, n_pairs: int, binomial: bool) -> dict:
    """One draw of the algebra suite as it was formed one draw at a time:
    the rng read call by call in the suite's order, and every mode vector
    and M x M map formed from them by 2-d code."""
    M = grid.n_modes
    w = np.sqrt(grid.weights)

    def vec(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    def mat():
        return rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))

    def herm(A):
        return (A + weighted_adjoint(grid, A)) / 2.0

    g1, g2, b = vec(M), vec(M), mat()
    q = np.linalg.qr(mat())[0] / w[:, None] * w[None, :]
    bh = herm(mat())
    b2, r1, r2, qm = mat(), mat(), mat(), mat()
    qm = qm / max(1.0, float(np.linalg.norm(to_ortho(grid, grid, qm), 2)))
    r2s = weighted_adjoint(grid, r2)
    u, v = vec(n), vec(n)
    d0, dinf = rng.normal(size=M), rng.normal(size=M)
    pair = {"pair": rng.integers(0, M, size=2)} if binomial else {}
    th = rng.uniform(0.1, np.pi / 2 - 0.1, size=M)
    j0_iso, jinf_iso = np.diag(np.cos(th) + 0j), np.diag(np.sin(th) + 0j)
    um = rng.uniform(0.2, 0.8, size=M)
    Qs = 0.1 * rng.normal(size=(M, M))
    j0 = np.diag(um) + (Qs + Qs.T) + 0j
    jinf = np.eye(M) - j0
    om = np.diag(grid.omega_mod)
    k0, kinf = herm(mat()), herm(mat())
    ut, vt = vec(n_pairs), vec(n)
    return {
        "g1": g1, "g2": g2, "inner": weighted_inner(grid, g1, g2),
        "b": b, "b_g1": b @ g1, "bstar_g1": weighted_adjoint(grid, b) @ g1,
        "q": q, "q_g1": q @ g1, "bh": bh, "i_bh_g1": 1j * (bh @ g1),
        "b2": b2, "b_b2": b @ b2, "b_comm_b2": b @ b2 - b2 @ b,
        "qm": qm, "r2s_r1": r2s @ r1, "r2s_r2": r2s @ r2,
        "r1s_r1": weighted_adjoint(grid, r1) @ r1,
        "u": u, "v": v, "d0": d0, "dinf": dinf, **pair,
        "j0_iso": j0_iso, "jinf_iso": jinf_iso, "j0_g1": j0_iso @ g1, "jinf_g1": jinf_iso @ g1,
        "j0": j0, "jinf": jinf, "c0": om @ j0 - j0 @ om, "cinf": om @ jinf - jinf @ om,
        "k0": k0, "kinf": kinf,
        "abs_k0": weighted_fn(grid, k0, np.abs), "abs_kinf": weighted_fn(grid, kinf, np.abs),
        "ut": ut, "vt": vt,
    }
