"""Dressed one-electron states and spectral verification utilities.

Every dense eigendecomposition of a Hamiltonian is ``SpectralCalculus``'s:
one ``eigh`` per block of H's one block split (``model.Hamiltonian.blocks``,
the connected components of its stored pattern), blocks of equal size
batched.  Ground states up to dimension 2000 take their lowest pairs from
it; above it they are computed by LOBPCG preconditioned with the Jacobi
diagonal of H, which dominates at small coupling, from a fixed,
deterministic real start block (the lowest-diagonal unit vectors plus a
small seeded perturbation), on the blocks of that split that can hold one
of the k lowest eigenvalues: a Gershgorin bound on lambda_k, with no
solve, drops the others, and the eigenvectors are exactly zero on their
rows.  Both paths take a ``model.Hamiltonian``, whose
matrix is exactly Hermitian by construction.  Operators are real whenever
their coefficients are (the default model's fiber and chain Hamiltonians
are float64), so both paths then run in real arithmetic.  Functional
calculus for energy cutoffs f(H) and spectral windows E_Sigma is
spectral-projection based throughout; f(H) v is applied block by block
without forming the n x n matrix f(H).

The scans are the dispersion curve with its sandwich margins, the
second-order perturbative energy and the soft-boson mass of a state, read
off the states outside ``fock.interacting_mask``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import FockVector, OccupationBasis, interacting_mask
from .model import (
    ConfigWindowError,
    Hamiltonian,
    ModelSpec,
    _gershgorin_interval,
    build_fiber_H,
    fiber_diagonal,
    fiber_layout,
    fiber_mode_sums,
    o_beta,
    quadrature_C,
    velocity_bound,
)

DENSE_CUTOFF = 2000
LOBPCG_MAX_ITER = 200  # cap on LOBPCG's block iterations
JACOBI_SHIFT = 1e-3  # preconditioner shift, as a fraction of the Gershgorin width
START_SEED = 7  # seed of the start block's perturbation


class ConvergenceError(RuntimeError):
    """Eigen-iteration failed to reach the requested residual tolerance."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# Eigensolvers
# ---------------------------------------------------------------------------

def _start_block(diag: np.ndarray, k: int) -> np.ndarray:
    """The k lowest-diagonal unit vectors plus a small deterministic real
    perturbation (reproducible runs)."""
    rng = np.random.default_rng(START_SEED)
    X = rng.normal(size=(len(diag), k))
    X *= 1e-2 / np.linalg.norm(X, axis=0)
    X[np.argsort(diag, kind="stable")[:k], np.arange(k)] += 1.0
    return X / np.linalg.norm(X, axis=0)


def lanczos_lowest(mat: sp.csr_matrix, k: int, tol: float):
    """k lowest eigenpairs by Jacobi-preconditioned LOBPCG (Knyazev 2001).

    The fiber H is diagonally dominant at small coupling, so the block
    iteration is preconditioned by 1 / (diag(H) - lo + delta), with lo the
    Gershgorin lower bound of H and delta = ``JACOBI_SHIFT`` times the
    Gershgorin width (finite also on a row without off-diagonal entries).
    Returns (eigenvalues ascending, eigenvectors, matvec count), the count
    being the number of columns H was applied to.  Raises ``ConvergenceError``
    when a residual exceeds tol (1 + |lambda|) or ``LOBPCG_MAX_ITER``
    iterations did not converge; lobpcg's own warnings are not passed on.
    Raises ``ValueError`` on fewer than 5k rows, where lobpcg would switch to
    a dense solve of its own.
    """
    # imported here: only the iterative path pays for scipy.sparse.linalg
    from scipy.sparse.linalg import lobpcg

    if mat.shape[0] < 5 * k:
        raise ValueError(f"LOBPCG needs at least 5k = {5 * k} rows for k = {k}, "
                         f"got {mat.shape[0]}")
    d = np.real(mat.diagonal())
    centre, half = _gershgorin_interval(mat)
    jacobi = 1.0 / (d - (centre - half) + JACOBI_SHIFT * 2.0 * half)
    counts = {"matvecs": 0, "steps": 0}

    def apply_H(X):
        counts["matvecs"] += X.shape[1]
        return mat @ X

    def precondition(R):
        counts["steps"] += 1
        return jacobi[:, None] * R

    X = _start_block(d, k).astype(np.result_type(mat.dtype, np.float64), copy=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the loop stops a decade below tol: the final Rayleigh-Ritz pass on
        # the best iterate can raise a residual slightly
        vals, vecs, history = lobpcg(apply_H, X, M=precondition, tol=0.1 * tol,
                                     maxiter=LOBPCG_MAX_ITER, largest=False,
                                     retResidualNormsHistory=True)
    resid = np.atleast_1d(history[-1])
    if counts["steps"] > LOBPCG_MAX_ITER or np.any(resid > tol * (1.0 + np.abs(vals))):
        raise ConvergenceError("LOBPCG did not converge",
                               {"iterations": counts["matvecs"],
                                "residuals": resid.tolist()})
    return vals, vecs, counts["matvecs"]


@dataclass
class SpectralResult:
    """Eigenvalue/eigenvector bundle with residuals and solver provenance."""

    eigenvalues: np.ndarray
    eigenvectors: list
    residuals: np.ndarray
    gap: float
    meta: dict = field(default_factory=dict)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_vector(self) -> FockVector:
        return self.eigenvectors[0]


def _lowest_blocks(H: Hamiltonian, k: int) -> tuple[np.ndarray, int]:
    """The rows, ascending, of the blocks of H that can hold one of its k
    lowest eigenvalues, and the number of those blocks.

    By Cauchy interlacing on the principal submatrix of the k lowest-diagonal
    rows, lambda_k(H) <= mu, the largest upper end of those rows' Gershgorin
    discs.  A block whose Gershgorin interval starts above mu holds no
    eigenvalue <= lambda_k and is dropped.  The others, taken in ascending
    lower end, are topped up by the next ones until they hold 5k rows, the
    least ``lanczos_lowest`` accepts; an extra block loses no eigenvalue.
    """
    d = np.real(H.mat.diagonal())
    mu = np.max(H._discs[1][np.argsort(d, kind="stable")[:k]])
    lo = H._block_intervals[0]
    order = np.argsort(lo, kind="stable")
    held = np.cumsum(np.bincount(H.blocks)[order])
    count = max(np.count_nonzero(lo <= mu), int(np.searchsorted(held, 5 * k)) + 1)
    keep = np.zeros(len(lo), dtype=bool)
    keep[order[:count]] = True
    return np.flatnonzero(keep[H.blocks]), int(np.count_nonzero(keep))


def ground_state(H: Hamiltonian, k: int = 2, tol: float = 1e-10) -> SpectralResult:
    """k lowest eigenpairs of a Hamiltonian.

    Up to DENSE_CUTOFF the k lowest pairs of ``SpectralCalculus(H)``, so each
    eigenvector is exactly zero off its block (method ``"dense"``).  Above
    it ``lanczos_lowest`` (Jacobi-preconditioned LOBPCG) from the real start
    block, in the operator's own dtype (float64 for a real Hamiltonian), on
    the bare submatrix of the blocks that can hold one of the k lowest
    eigenvalues (``_lowest_blocks``), each eigenvector exactly zero on every
    other row, with ``iterations`` counting matvecs.  ``meta`` records the
    ``rows`` and ``blocks`` solved, all of them on the dense path.  Both
    paths must pass the same residual check on the whole of H.  The
    ground-state phase is fixed so that the vacuum amplitude (or, if it
    vanishes, the largest amplitude) is nonnegative real.  The eigenvectors
    are ``FockVector``s on ``H.basis``, or plain arrays when H has no basis.
    """
    n = H.shape[0]
    k = min(k, n)
    if n <= DENSE_CUTOFF:
        calc = SpectralCalculus(H)
        vals = np.sort(calc.vals)[:k]
        vecs = calc.window_vectors(vals[-1])[:, :k]
        iters = 0
        method = "dense"
        rows, blocks = n, int(H.blocks.max()) + 1
    else:
        solved, blocks = _lowest_blocks(H, k)
        rows = len(solved)
        try:
            vals, sub, iters = lanczos_lowest(H.mat[solved][:, solved], k, tol)
        except ConvergenceError as exc:
            exc.diagnostics["rows"] = rows
            raise
        vecs = np.zeros((n, k), dtype=sub.dtype)
        vecs[solved] = sub
        method = "lobpcg"
    resid = np.array([
        float(np.linalg.norm(H.mat @ vecs[:, i] - vals[i] * vecs[:, i]))
        for i in range(k)
    ])
    if np.any(resid > max(tol, 1e-9) * (1.0 + np.abs(vals))):
        raise ConvergenceError(
            "eigen residuals above tolerance",
            {"residuals": resid.tolist(), "iterations": iters, "method": method,
             "rows": rows})
    for i in range(k):
        a = vecs[0, i]
        ref = a if abs(a) > 1e-12 else vecs[np.argmax(np.abs(vecs[:, i])), i]
        phase = ref / abs(ref)
        vecs[:, i] = vecs[:, i] / phase
    gap = float(vals[1] - vals[0]) if k >= 2 else math.nan
    basis = H.basis
    fvs = [FockVector(basis, vecs[:, i]) if basis is not None else vecs[:, i]
           for i in range(k)]
    return SpectralResult(
        eigenvalues=vals, eigenvectors=fvs, residuals=resid, gap=gap,
        meta={"method": method, "iterations": iters, "tol": tol, "dim": n,
              "rows": rows, "blocks": blocks},
    )


# ---------------------------------------------------------------------------
# Spectral-projection functional calculus
# ---------------------------------------------------------------------------

class SpectralCalculus:
    """Eigendecomposition of a Hamiltonian block by block, reused for f(H).

    The blocks are ``H.blocks``, the connected components of H's stored
    sparsity pattern, which H's Chebyshev operator shares, so the full
    chain splits into its total-momentum fibers without being told about
    them.  Components of equal size are stacked and diagonalized
    by one batched ``eigh``; ``groups`` holds one (index, eigenvalue,
    eigenvector) triple per size, shaped (B, s), (B, s) and (B, s, s), and
    ``vals`` all eigenvalues in group order.  ``limit`` caps the size of the
    largest component, since the cost is per component: the L = 1024 chain
    (dimension 9216) is 1024 components of 9.  A larger component raises
    ``ConfigWindowError``, so a command refuses it as a config error.
    """

    def __init__(self, H: Hamiltonian, limit: int = DENSE_CUTOFF):
        n = H.shape[0]
        label = H.blocks
        sizes = np.bincount(label)
        if sizes.max() > limit:
            raise ConfigWindowError(f"dense functional calculus capped at component size {limit}, "
                                    f"largest component {sizes.max()}")
        order = np.argsort(label, kind="stable")
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n) - starts[label[order]]
        slot = np.empty(len(sizes), dtype=np.intp)
        coo = H.mat.tocoo()
        self.n = n
        self.groups = []
        for s in np.unique(sizes):
            comps = np.flatnonzero(sizes == s)
            slot[comps] = np.arange(len(comps))
            idx = order[(starts[comps][:, None] + np.arange(s)).ravel()].reshape(-1, s)
            hit = sizes[label[coo.row]] == s
            r, c = coo.row[hit], coo.col[hit]
            stack = np.zeros((len(comps), s, s), dtype=H.mat.dtype)
            np.add.at(stack, (slot[label[r]], pos[r], pos[c]), coo.data[hit])
            vals, vecs = np.linalg.eigh(stack)
            self.groups.append((idx, vals, vecs))
        self.vals = np.concatenate([vals.ravel() for _, vals, _ in self.groups])

    def _split(self, values: np.ndarray) -> list:
        """A flat per-eigenvalue array cut back into the groups' (B, s) shapes."""
        cuts = np.cumsum([vals.size for _, vals, _ in self.groups])[:-1]
        return [part.reshape(vals.shape)
                for part, (_, vals, _) in zip(np.split(values, cuts), self.groups)]

    def fn(self, f, v=None) -> np.ndarray:
        """f(H) v for v of shape (n,) or (n, k), or the n x n matrix f(H) as
        f(H) applied to the identity when v is omitted.

        Each block applies its eigenbasis to its rows of v, so with a vector
        no n x n array is formed.
        """
        fvals = self._split(f(self.vals))
        v = np.eye(self.n) if v is None else np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.n:
            raise ValueError(f"f(H) v needs v of shape ({self.n},) or ({self.n}, k)")
        cols = v.reshape(self.n, -1)
        out = np.zeros(cols.shape, dtype=np.result_type(
            cols, *fvals, *(vecs for _, _, vecs in self.groups)))
        for (idx, _, vecs), fv in zip(self.groups, fvals):
            coef = vecs.conj().transpose(0, 2, 1) @ cols[idx]
            out[idx] = vecs @ (fv[:, :, None] * coef)
        return out.reshape(v.shape)

    def window_vectors(self, sigma: float) -> np.ndarray:
        """Eigenvectors with eigenvalue <= sigma as columns, in ascending energy."""
        keep = np.flatnonzero(self.vals <= sigma)
        column = np.full(len(self.vals), -1)
        column[keep[np.argsort(self.vals[keep], kind="stable")]] = np.arange(len(keep))
        dtype = np.result_type(*(vecs for _, _, vecs in self.groups))
        out = np.zeros((self.n, len(keep)), dtype=dtype)
        for (idx, _, vecs), col in zip(self.groups, self._split(column)):
            b, j = np.nonzero(col >= 0)
            out[idx[b], col[b, j][:, None]] = vecs[b, :, j]
        return out


# ---------------------------------------------------------------------------
# Scans and bounds
# ---------------------------------------------------------------------------

def soft_boson_occupancy(psi: FockVector) -> float:
    """Probability mass on basis states with any soft-mode occupation."""
    hit = ~interacting_mask(psi.basis)
    if not np.any(hit):
        return 0.0
    nrm2 = float(np.vdot(psi.amps, psi.amps).real)
    mass = float(np.sum(np.abs(psi.amps[hit]) ** 2))
    return mass / nrm2 if nrm2 > 0 else 0.0


def pt_ground_energy(ms: ModelSpec, P, basis: OccupationBasis) -> float:
    """Second-order perturbative ground energy from the diagonal data.

    With the symmetric field normalization the vacuum couples to the
    one-boson state of mode j with amplitude g sqrt(w_j / 2) kappa_sigma_j,
    so the level shift carries a factor 1/2 relative to the bare
    sum_j w_j kappa_sigma_j^2 / denom.
    """
    P = np.atleast_1d(np.asarray(P, dtype=float))
    grid = ms.grid
    omega = ms.boson_omega()
    kap = ms.coupling_samples()
    e0 = float(ms.disp.omega(P))
    denom = ms.disp.omega(P[None, :] - np.atleast_2d(grid.points)) + omega - e0
    shift = float(np.sum(grid.weights * kap ** 2 / denom)) / 2.0
    return e0 - ms.g ** 2 * shift


@dataclass
class DispersionCurve:
    """Per-momentum ground data with sandwich margins and convergence flags.

    ``methods``, ``matvecs``, ``rows`` and ``max_residuals`` record the two
    solves at each momentum (this dispersion and the other): the solver path,
    their matvecs together, the most rows either solved and their largest
    eigen-residual.  ``methods`` holds None where a solve did not converge.
    """

    momenta: list
    energies: np.ndarray
    free_energies: np.ndarray
    upper_margins: np.ndarray
    lower_margins: np.ndarray
    gaps: np.ndarray
    soft_occupancies: np.ndarray
    free_mod_agree: np.ndarray
    converged: np.ndarray
    methods: list
    matvecs: np.ndarray
    rows: np.ndarray
    max_residuals: np.ndarray


def dispersion_scan(ms: ModelSpec, momenta, basis: OccupationBasis,
                    tol: float = 1e-10, beta: float | None = None) -> DispersionCurve:
    """Ground energies over a momentum list with sandwich-bound margins.

    Lower bounds (1 - a) E_0(P) - (g^2/a) C are evaluated at
    a in {|g|, 1/2, 1}; E_0(P) is the free ground energy on the same
    truncated basis, so every margin is an exact matrix statement up to
    eigensolver noise.  Scan momenta must satisfy Omega(P) <= O_beta, and
    the basis must hold a state besides the vacuum: on the vacuum alone the
    coupling acts on nothing and no gap exists.

    The 2 x len(momenta) Hamiltonians (this dispersion and the other) share
    one ``fiber_layout`` and, at g != 0, its block split; each writes only
    its diagonal, and the diagonals and the free energies read one K and E
    mode sum per dispersion.
    """
    if basis.size < 2:
        raise ConfigWindowError("the dispersion scan needs a basis beyond the vacuum "
                                f"(n_max = {basis.n_max})")
    momenta = [np.atleast_1d(np.asarray(P, dtype=float)) for P in momenta]
    if beta is not None:
        ob = o_beta(ms.disp, beta)
        for P in momenta:
            if float(ms.disp.omega(P)) > ob:
                raise ConfigWindowError(f"scan momentum {P} violates Omega(P) <= O_beta")
    C = quadrature_C(ms.ff, ms.grid)
    alphas = tuple(a for a in (abs(ms.g), 0.5, 1.0) if a > 0)
    ms_other = replace(ms, use_modified=not ms.use_modified)
    # both dispersions share the coupling, so one layout serves every H
    layout = fiber_layout(ms, basis)
    sums, sums_other = fiber_mode_sums(ms, basis), fiber_mode_sums(ms_other, basis)

    def solve_point(P):
        try:
            res = ground_state(build_fiber_H(ms, P, basis, layout=layout, mode_sums=sums),
                               k=2, tol=tol)
            other = ground_state(build_fiber_H(ms_other, P, basis, layout=layout,
                                               mode_sums=sums_other), k=1, tol=tol)
        except ConvergenceError as exc:
            diag = exc.diagnostics
            return None, (None, diag.get("iterations", 0), diag.get("rows", 0),
                          float(np.max(diag.get("residuals", math.nan))))
        # the free (g = 0) fiber's H is its diagonal, the same as at g
        e0 = float(np.min(fiber_diagonal(ms, P, basis, mode_sums=sums)))
        eg = res.ground_energy
        upper = float(ms.disp.omega(P)) - eg
        lower = min(eg - ((1 - a) * e0 - (ms.g ** 2 / a) * C) for a in alphas) \
            if alphas else math.inf
        soft = soft_boson_occupancy(res.ground_vector)
        solver = (res.meta["method"], res.meta["iterations"] + other.meta["iterations"],
                  max(res.meta["rows"], other.meta["rows"]),
                  float(max(res.residuals.max(), other.residuals.max())))
        return (eg, e0, upper, lower, res.gap, soft, abs(eg - other.ground_energy)), solver

    points = [solve_point(P) for P in momenta]
    arr = np.array([r if r is not None else (math.nan,) * 7 for r, _ in points], dtype=float)
    methods, matvecs, rows, residuals = zip(*(solver for _, solver in points))
    return DispersionCurve(
        momenta=momenta,
        energies=arr[:, 0], free_energies=arr[:, 1],
        upper_margins=arr[:, 2], lower_margins=arr[:, 3],
        gaps=arr[:, 4], soft_occupancies=arr[:, 5],
        free_mod_agree=arr[:, 6],
        converged=np.array([r is not None for r, _ in points]),
        methods=list(methods),
        matvecs=np.array(matvecs, dtype=int),
        rows=np.array(rows, dtype=int),
        max_residuals=np.array(residuals, dtype=float),
    )


def grad_bound_check(ms: ModelSpec, sigma_win: float, P,
                     basis: OccupationBasis) -> dict:
    """Spectral norm of |grad Omega(P - dGamma(k))| on the window vs closed form.

    The measured value compresses the diagonal velocity matrix to the span
    of eigenvectors with energy <= sigma_win; the bound is
    sqrt(2 (Sigma + g^2 C)/M) (nonrelativistic) or
    sqrt(1 - M^2/(Sigma + g^2 C)^2) (relativistic).
    """
    P = np.atleast_1d(np.asarray(P, dtype=float))
    M = ms.disp.mass
    bound = velocity_bound(ms.disp, sigma_win + ms.g ** 2 * quadrature_C(ms.ff, ms.grid))
    window = (0.0, M / 18.0) if ms.disp.kind == "nonrel" else (M, 3.0 * M / math.sqrt(8.0))
    H = build_fiber_H(ms, P, basis)
    calc = SpectralCalculus(H)
    V = calc.window_vectors(sigma_win)
    K = basis.boson_momenta()
    vel = ms.disp.grad_norm(P[None, :] - K)
    measured = float(np.linalg.norm((V.conj().T * vel[None, :]) @ V, 2)) if V.size else 0.0
    return {
        "measured": measured,
        "bound": bound,
        "margin": bound - measured,
        "admissible_sigma_window": window,
        "window_dim": int(V.shape[1]),
    }
