"""Randomized identity suite for the operator algebra.

Each identity is evaluated as a worst-case matrix defect over seeded random
draws; creation-type identities are restricted to the guarded sector
N <= n_max - 1 where the truncated algebra is exact.  The suite is the
engine behind the ``algebra`` subcommand and the first acceptance criterion.

The draws are evaluated in stacks of ``DRAW_BATCH``.  Only the rng reads
run draw by draw (``_draw``), in the suite's fixed order; no evaluation
reads the rng, so the stream is the same whatever the stack size.  The mode
vectors and M x M maps formed from the reads are derived once per stack
(``_derive``: stacked QR, norms, ``eigh`` and products), one ``tensordot``
forms a stack of ladder, field or dGamma operators, one sector recursion a
stack of Gamma, dGamma2 or splitting maps (``fock`` and ``split`` take
leading batch axes), and every product is a stacked ``@``.  A stacked
``np.linalg`` call or ``@`` runs the same LAPACK or BLAS routine on each
slice, so each slice is rounded exactly as a single draw would be, and a
defect, the largest entry over the draws, is independent of the batch
size.  One-leg lifts are applied block by block (``split.one_leg_product``),
the Schwarz bounds are stacked quadratic forms, and the binomial spot check
reads the doubled-grid creation entries for the whole stack of pairs.

What does not depend on the draw is built once per suite: the one-leg
generator stacks (``Generators``, from ``fock``'s own constructors), Gamma(1),
the nonzeros of a*(e_j) and the diagonals of dGamma(e_j) on the doubled
grid, the tensor lift as an index gather (``split.TensorLift``), U as its
permutation (``TensorBasis.perm``), the fusion map I, the guards as column
masks, the support plans of U's identities, and the checks that involve
none of the draws.

Identities whose two sides are dense products are evaluated on dense numpy
arrays, one dense product of the same operands each, so every defect is
rounded as it always was.  U's identities compare two scatters instead
(``_UIdentities``): the doubled-grid creation scatter, placed in pair
coordinates by U's permutation, against one-leg lifts.  Each is evaluated
on the union of the two sides' structural supports, outside which both are
exactly zero, so the 165 x 165 sides are never formed and each worst entry
is the one the dense difference gives; a diagonal comparison is one vector.
"""

from __future__ import annotations

import functools

import numpy as np

from . import fock, split


def _diag(x) -> np.ndarray:
    """np.diag of a vector, or of each vector in a stack."""
    out = np.zeros(x.shape + x.shape[-1:], dtype=x.dtype)
    modes = np.arange(x.shape[-1])
    out[..., modes, modes] = x
    return out


def _mv(m, x) -> np.ndarray:
    """m @ x for each matrix m and vector x of a stack."""
    return (m @ x[..., None])[..., 0]


def _norm(arr) -> float:
    return float(np.abs(arr).max())


def _adjoint(ops) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix in a stack."""
    return ops.conj().swapaxes(-1, -2)


def _flat(ops) -> np.ndarray:
    """A matrix, or each matrix in a stack, as its row-major entries."""
    return ops.reshape(ops.shape[:-2] + (-1,))


def _form(u, a_v) -> np.ndarray:
    """<u, A v> for each draw of a stack, from the columns u and A v."""
    return (_adjoint(u) @ a_v)[..., 0, 0]


def _root_form(u, a_u) -> np.ndarray:
    """sqrt(max(0, Re <u, A u>)) for each draw of a stack."""
    return np.sqrt(np.maximum(0.0, _form(u, a_u).real))


class Generators:
    """Dense generator stacks on ``basis``, built by ``fock``'s constructors.

    ``creation[j]`` is ``fock.creation_op(basis, e_j)``, ``field`` stacks
    ``fock.field_op`` of e_j over that of i e_j, and ``hopping[i, j]`` is
    ``fock.dGamma(basis, E_ij)`` for the unit mode matrix E_ij.  Each of these
    operators is linear in its mode data (the field real-linear), so the
    methods form it for any coefficients with one ``tensordot``, and for a
    stack of coefficients (leading batch axes) the stack of operators.  The
    stacks are stored complex, so the product with complex coefficients
    casts nothing.  A 1-d ``b`` of ``dGamma`` is a diagonal.
    """

    def __init__(self, basis: fock.OccupationBasis):
        M, n = basis.grid.n_modes, basis.size
        eye = np.eye(M)
        self.creation = np.stack([fock.creation_op(basis, e).toarray() for e in eye]
                                 ).astype(complex)
        self.field = np.stack([fock.field_op(basis, c * e).toarray()
                               for c in (1.0, 1j) for e in eye]).astype(complex)
        self.hopping = np.stack([fock.dGamma(basis, np.outer(ei, ej)).toarray()
                                 for ei in eye for ej in eye]
                                ).astype(complex).reshape(M, M, n, n)

    def creation_op(self, h) -> np.ndarray:
        return np.tensordot(h, self.creation, 1)

    def annihilation_op(self, h) -> np.ndarray:
        return _adjoint(self.creation_op(h))

    def field_op(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=complex)
        return np.tensordot(np.concatenate([h.real, h.imag], axis=-1), self.field, 1)

    def dGamma(self, b) -> np.ndarray:
        b = np.asarray(b)
        return np.tensordot(np.diag(b) if b.ndim == 1 else b, self.hopping, 2)


class _SupportPlan:
    """Both sides of an identity on the union of their structural supports.

    ``puts`` lists flat positions, one array per scatter that builds a side;
    outside their union both sides are exactly zero, so the largest entry of
    |lhs - rhs| is the largest over the union.  ``gap(lhs, *rhs)`` writes the
    scatters' values in order, the first into the left side and the rest
    into the right, a later one adding into an earlier one where they meet,
    and returns that largest entry; stacks of values give the largest entry
    over the stack.
    """

    def __init__(self, *puts):
        union = np.unique(np.concatenate(puts))
        self.size = len(union)
        self.at = [np.searchsorted(union, put) for put in puts]

    def gap(self, lhs, *rhs) -> float:
        side = np.zeros(np.shape(lhs)[:-1] + (2, self.size), dtype=complex)
        side[..., 0, self.at[0]] = lhs
        side[..., 1, self.at[1]] = rhs[0]
        for at, part in zip(self.at[2:], rhs[1:]):
            side[..., 1, at] += part
        return float(np.abs(side[..., 0, :] - side[..., 1, :]).max(initial=0.0))


class _UIdentities:
    """The draw-dependent identities of U, the tensor isomorphism, evaluated
    without forming their pair-basis sides.

    Built once per suite: a*(h) on the doubled grid, which holds
    ``sum_value * h[sum_mode]`` at (``sum_row``, ``sum_col``), its number
    diagonals ``sum_numbers`` (the occupations), and the support plans of
    ``ueq0_creation`` and ``ueq1_annihilation``.  U places the doubled-grid entry (row, col) at the
    pair entry (t[row], t[col]), t = ``tb.perm``, so the creation scatter
    lands in pair coordinates directly; a lift's support is its leg's
    creation (or annihilation) pattern lifted, plus the entry that
    ``corrupt`` perturbs.  ``ueq3_dgamma`` compares diagonal operators, so
    its support is the diagonal.  U is a bijection, so ``s``, the inverse
    of t, applies U to vectors.
    ``creation``, ``annihilation`` and ``dgamma`` take stacks of draws and
    return the worst defect over the stack; ``binomial`` takes a stack of pairs.
    """

    def __init__(self, gen: Generators, tb: split.TensorBasis, lift: split.TensorLift,
                 corrupt: bool = False):
        basis, M = tb.basis, tb.basis.grid.n_modes
        self.gen, self.tb, self.M = gen, tb, M
        self.left, self.right = tb.pairs.T
        t, n_pairs = tb.perm, tb.size
        self.s = np.argsort(t)
        self.sum_row, self.sum_col, self.sum_mode, self.sum_value = fock._creation_entries(
            tb.sum_basis, np.ones(2 * M))
        self.sum_numbers = tb.sum_basis.occupations().astype(float)
        # a*(v) at (up[c, m], c) for any v with v_m = 1 / sqrt(w_m)
        self.unit = np.empty(tb.sum_basis.up.shape)
        self.unit[self.sum_col, self.sum_mode] = self.sum_creation(
            1.0 / np.sqrt(tb.sum_basis.grid.weights))
        creates = np.any(gen.creation != 0, axis=0)
        a_dag1 = creates.copy()
        if corrupt:
            a_dag1[0, min(1, basis.size - 1)] = True
        guard = tb.pair_numbers().sum(axis=1) <= basis.n_max - 1
        row, col = t[self.sum_row], t[self.sum_col]
        self.guarded = guard[col]
        put, self.gather0 = lift.on(a_dag1)
        keep = guard[put % n_pairs]
        put, self.gather0 = put[keep], self.gather0[keep]
        self.ueq0 = _SupportPlan((row * n_pairs + col)[self.guarded], put)
        (put_l, self.gather_l), (put_r, self.gather_r) = (lift.on(creates.T, right)
                                                          for right in (False, True))
        self.ueq1 = _SupportPlan(col * n_pairs + row, put_l, put_r)

    def sum_creation(self, h) -> np.ndarray:
        """The nonzeros of a*(h) on the doubled grid, for a stack of h."""
        return self.sum_value * h[..., self.sum_mode]

    def creation(self, g1, a_dag1) -> float:
        """ueq0: U a*(g1 + 0) U* = a*(g1) x 1 on the guarded pairs."""
        lhs = self.sum_creation(np.concatenate([g1, np.zeros_like(g1)], axis=-1))
        return self.ueq0.gap(lhs[..., self.guarded], _flat(a_dag1)[..., self.gather0])

    def annihilation(self, g1, g2, ann1, ann2) -> float:
        """ueq1: U a(g1 + g2) U* = a(g1) x 1 + 1 x a(g2)."""
        lhs = np.conj(self.sum_creation(np.concatenate([g1, g2], axis=-1)))
        return self.ueq1.gap(lhs, _flat(ann1)[..., self.gather_l],
                             _flat(ann2)[..., self.gather_r])

    def _number_diagonal(self, d) -> np.ndarray:
        """The diagonal of dGamma(diag(d)) for each d of a stack."""
        return np.diagonal(self.gen.dGamma(_diag(d)), axis1=-2, axis2=-1)

    def dgamma(self, d0, dinf) -> float:
        """ueq3: U dGamma(d0 + dinf) U* = dGamma(d0) x 1 + 1 x dGamma(dinf)."""
        lhs = (self.sum_numbers @ np.concatenate([d0, dinf], axis=-1)[..., None])[..., 0]
        rhs = (self._number_diagonal(d0)[..., self.left]
               + self._number_diagonal(dinf)[..., self.right])
        return float(np.abs(lhs[..., self.s] - rhs).max())

    def binomial(self, pairs) -> float:
        """ueq2: the amplitude of a*(v)^2 Omega with v = (e_i, e_j) on the pair
        (e_i, e_j) is sqrt(2) sqrt(2), for a stack of pairs (i, j): two paths,
        through the one-boson state of either mode of v, i and M + j."""
        up, a = self.tb.sum_basis.up, self.unit
        i, j = pairs[:, 0], self.M + pairs[:, 1]
        amp = a[up[0, i], j] * a[0, i] + a[up[0, j], i] * a[0, j]
        return float(np.abs(amp - np.sqrt(2.0) * np.sqrt(2.0)).max())


DRAW_BATCH = 8
"""Draws per stack.  Larger stacks mean fewer Python-level steps per suite
but more memory: at the defaults a pair-basis stack holds DRAW_BATCH x 165
x 35 complex entries (0.7 MB at 8) and up to six are alive at once.  The
defects do not depend on it."""


def _draw(rng, M: int, n: int, n_pairs: int, binomial: bool) -> dict:
    """One draw's rng reads, in the suite's fixed order; consecutive ``normal``
    reads are one call (the same variates), cut up in order by ``_derive``."""
    draw = {"head": rng.normal(size=6 * M + 14 * M * M + 4 * n)}
    if binomial:  # the binomial spot check needs the two-boson sector
        draw["pair"] = rng.integers(0, M, size=2)
    draw["th"] = rng.uniform(0.1, np.pi / 2 - 0.1, size=M)
    draw["um"] = rng.uniform(0.2, 0.8, size=M)
    draw["tail"] = rng.normal(size=5 * M * M + 2 * n_pairs + 2 * n)
    return draw


class _Variates:
    """A stack of variates (draws x count), read in order: ``real(*shape)``
    is the next piece, of shape (draws, *shape), and ``cplx(*shape)`` is
    ``real(*shape) + 1j * real(*shape)``, the next real, then imaginary parts."""

    def __init__(self, block):
        self.block, self.at = block, 0

    def real(self, *shape) -> np.ndarray:
        start, self.at = self.at, self.at + int(np.prod(shape))
        return self.block[:, start:self.at].reshape(-1, *shape)

    def cplx(self, *shape) -> np.ndarray:
        return self.real(*shape) + 1j * self.real(*shape)


def _derive(grid: fock.ModeGrid, n: int, n_pairs: int, reads: list) -> dict:
    """The inputs of a stack of draws (a list of ``_draw``'s reads): the
    variates, and the mode vectors and M x M maps formed from them once per
    stack, each slice rounded as that draw alone would be."""
    M = grid.n_modes
    draws = {key: np.stack([r[key] for r in reads]) for key in reads[0]}
    adj = functools.partial(fock.weighted_adjoint, grid, grid)
    def herm(A):
        return (A + adj(A)) / 2.0
    head, tail = _Variates(draws["head"]), _Variates(draws["tail"])
    g1, g2, b = head.cplx(M), head.cplx(M), head.cplx(M, M)
    w = np.sqrt(grid.weights)
    q = np.linalg.qr(head.cplx(M, M))[0] / w[:, None] * w[None, :]
    bh = herm(head.cplx(M, M))
    b2, r1, r2, qm = (head.cplx(M, M) for _ in range(4))
    qm = qm / np.maximum(1.0, fock.weighted_opnorm(grid, grid, qm))[:, None, None]
    u, v, d0, dinf = head.cplx(n), head.cplx(n), head.real(M), head.real(M)
    pair = {"pair": draws["pair"]} if "pair" in draws else {}
    # splitting map with j0* j0 + jinf* jinf = 1; the pairs are complex so
    # every product runs in the dtype the pinned reference used
    j0_iso, jinf_iso = _diag(np.cos(draws["th"]) + 0j), _diag(np.sin(draws["th"]) + 0j)
    # partition pair for ugamma-o and the right inverse
    Qs = 0.1 * tail.real(M, M)
    j0 = _diag(draws["um"]) + (Qs + Qs.swapaxes(-1, -2)) + 0j
    jinf, om = np.eye(M) - j0, np.diag(grid.omega_mod)
    k0, kinf = herm(tail.cplx(M, M)), herm(tail.cplx(M, M))
    ut, vt = tail.cplx(n_pairs), tail.cplx(n)
    return {
        "g1": g1, "g2": g2, "inner": fock.weighted_inner(grid, g1, g2),
        "b": b, "b_g1": _mv(b, g1), "bstar_g1": _mv(adj(b), g1), "q": q, "q_g1": _mv(q, g1),
        "bh": bh, "i_bh_g1": 1j * _mv(bh, g1),
        "b2": b2, "b_b2": b @ b2, "b_comm_b2": b @ b2 - b2 @ b,
        "qm": qm, "r2s_r1": adj(r2) @ r1, "r2s_r2": adj(r2) @ r2, "r1s_r1": adj(r1) @ r1,
        "u": u, "v": v, "d0": d0, "dinf": dinf, **pair,
        "j0_iso": j0_iso, "jinf_iso": jinf_iso,
        "j0_g1": _mv(j0_iso, g1), "jinf_g1": _mv(jinf_iso, g1),
        "j0": j0, "jinf": jinf, "c0": om @ j0 - j0 @ om, "cinf": om @ jinf - jinf @ om,
        "k0": k0, "kinf": kinf,
        "abs_k0": fock.weighted_abs(grid, k0), "abs_kinf": fock.weighted_abs(grid, kinf),
        "ut": ut, "vt": vt,
    }


class _Suite:
    """The builds no draw changes, made once, and every draw-dependent
    identity evaluated on a stack of draws (``evaluate``), each defect
    recorded as the worst over all stacks so far.

    Each group of identities is one method, so the stacks it forms, the
    pair-basis ones among them, are freed when it returns.
    """

    def __init__(self, basis: fock.OccupationBasis, tb: split.TensorBasis, corrupt: bool):
        grid = basis.grid
        M, n = grid.n_modes, basis.size
        self.basis, self.tb, self.corrupt = basis, tb, corrupt
        self.eye = np.eye(n)
        self.guard = np.arange(basis.edges[basis.n_max])
        N_op = fock.number_op(basis)
        self.N = N_op.diagonal()
        self.gen = gen = Generators(basis)
        self.one = np.eye(M)
        self.gamma_one = fock.Gamma(basis, self.one)
        left, right = tb.pairs.T
        self.u_ids = _UIdentities(gen, tb, split.TensorLift(tb), corrupt)
        # diagonal operators and their pair lifts are kept as diagonals
        # (a product with one is a scaling, without the dense one's zeros)
        self.N_pair = (split.tensor_factor_ops(tb, op_left=N_op)
                       + split.tensor_factor_ops(tb, op_right=N_op)).diagonal()
        self.dG_om = gen.dGamma(grid.omega_mod).diagonal()
        self.dG_om_pair = self.dG_om[left] + self.dG_om[right]
        self.I_op = split.scattering_ident(tb).toarray()
        self.defects: dict[str, float] = {}

    def rec(self, name, value):
        self.defects[name] = max(self.defects.get(name, 0.0), float(value))

    def evaluate(self, d: dict):
        """Every draw-dependent identity on the stack of draws ``d``."""
        gen = self.gen
        c1 = gen.creation_op(d["g1"])
        a_dag1 = c1
        if self.corrupt:
            a_dag1 = c1.copy()
            a_dag1[..., 0, min(1, self.basis.size - 1)] += 0.5
        a_dag2 = gen.creation_op(d["g2"])
        ann1, ann2 = _adjoint(c1), _adjoint(a_dag2)
        phi = gen.field_op(d["g1"])
        self.ccr(d, a_dag1, a_dag2, ann2)
        self.functors(d, a_dag1, ann1, phi)
        self.schwarz(d)
        self.tensor(d, a_dag1, ann1, ann2)
        self.splitting(d, c1, phi)
        self.partition(d)

    def ccr(self, d, a_dag1, a_dag2, ann2):
        a1, guard = _adjoint(a_dag1), self.guard
        comm = (a1 @ a_dag2) - (a_dag2 @ a1)
        self.rec("ccr", _norm((comm - d["inner"][:, None, None] * self.eye)[..., guard]))
        self.rec("ccr_same_type", max(_norm((a_dag1 @ a_dag2) - (a_dag2 @ a_dag1)),
                                      _norm((a1 @ ann2) - (ann2 @ a1))))

    def functors(self, d, a_dag1, ann1, phi):
        """Gamma's intertwining, dGamma and the mixed functor."""
        gen, basis, guard, rec = self.gen, self.basis, self.guard, self.rec
        G = fock.Gamma(basis, d["b"])
        rec("geq1", _norm(((G @ a_dag1) - (gen.creation_op(d["b_g1"]) @ G))[..., guard]))
        rec("geq2", _norm((G @ gen.annihilation_op(d["bstar_g1"])) - (ann1 @ G)))
        Gq = fock.Gamma(basis, d["q"])
        rec("geq3", _norm(((Gq @ ann1) - (gen.annihilation_op(d["q_g1"]) @ Gq))[..., guard]))
        rec("geq4", _norm(((Gq @ phi) - (gen.field_op(d["q_g1"]) @ Gq))[..., guard]))
        dG = gen.dGamma(d["bh"])
        lhs = 1j * ((dG @ phi) - (phi @ dG))
        rec("dgamma_phi", _norm((lhs - gen.field_op(d["i_bh_g1"]))[..., guard]))
        dG2 = gen.dGamma(d["b2"])
        rec("dgamma2_collapse",
            _norm(fock.dGamma2(basis, self.one, d["b2"], gamma_a=self.gamma_one) - dG2))
        rec("gamma_dgamma", _norm((G @ dG2) - fock.dGamma2(basis, d["b"], d["b_b2"], gamma_a=G)))
        rec("gamma_dgamma_comm",
            _norm(((G @ dG2) - (dG2 @ G))
                  - fock.dGamma2(basis, d["b"], d["b_comm_b2"], gamma_a=G)))

    def schwarz(self, d):
        """The Schwarz bound for the mixed functor, as stacked quadratic forms."""
        u, v = d["u"][..., None], d["v"][..., None]
        lhs = np.abs(_form(u, fock.dGamma2(self.basis, d["qm"], d["r2s_r1"]) @ v))
        rhs = (_root_form(u, self.gen.dGamma(d["r2s_r2"]) @ u)
               * _root_form(v, self.gen.dGamma(d["r1s_r1"]) @ v))
        self.rec("lemma_dgamma_schwarz", np.maximum(0.0, lhs - rhs).max())

    def tensor(self, d, a_dag1, ann1, ann2):
        """U's identities."""
        u_ids, rec = self.u_ids, self.rec
        rec("ueq0_creation", u_ids.creation(d["g1"], a_dag1))
        rec("ueq1_annihilation", u_ids.annihilation(d["g1"], d["g2"], ann1, ann2))
        rec("ueq3_dgamma", u_ids.dgamma(d["d0"], d["dinf"]))
        if "pair" in d:
            rec("ueq2_binomial", u_ids.binomial(d["pair"]))

    def splitting(self, d, c1, phi):
        """The isometric splitting map, its intertwining of a*, phi and N, and
        the two-term Cauchy-Schwarz bound of the mixed splitting map, with
        the one-leg lifts applied; each pair-basis stack is freed once read."""
        gen, tb, guard, rec = self.gen, self.tb, self.guard, self.rec
        lift = functools.partial(split.one_leg_product, tb)
        BG = split.breve_gamma(d["j0_iso"], d["jinf_iso"], tb)
        rec("breve_isometry", _norm(_adjoint(BG) @ BG - self.eye))
        rec("breve_number", _norm((BG * self.N) - (self.N_pair[:, None] * BG)))
        BGg = BG[..., guard]
        rhs = (lift(gen.creation_op(d["j0_g1"]), BGg)
               + lift(gen.creation_op(d["jinf_g1"]), BGg, right=True))
        rec("ugamma_a", _norm(BG @ c1[..., guard] - rhs))
        rhs = (lift(gen.field_op(d["j0_g1"]), BGg)
               + lift(gen.field_op(d["jinf_g1"]), BGg, right=True))
        rec("ugamma_phi", _norm(BG @ phi[..., guard] - rhs))
        del BGg, rhs
        ut, vt = d["ut"][..., None], d["vt"][..., None]
        lhs = np.abs(_form(ut, split.dbreve_gamma2(d["j0_iso"], d["jinf_iso"], d["k0"],
                                                   d["kinf"], tb, breve_j=BG) @ vt))
        del BG
        rhs = sum(_root_form(ut, lift(dG, ut, right=right)) * _root_form(vt, dG @ vt)
                  for dG, right in ((gen.dGamma(d["abs_k0"]), False),
                                    (gen.dGamma(d["abs_kinf"]), True)))
        rec("lemma_udgamma", np.maximum(0.0, lhs - rhs).max())

    def partition(self, d):
        """ugamma-o and the right inverse I breve_gamma = 1 for a partition pair."""
        BGP = split.breve_gamma(d["j0"], d["jinf"], self.tb)
        self.rec("igamma", _norm((self.I_op @ BGP) - self.eye))
        mixed = split.dbreve_gamma2(d["j0"], d["jinf"], d["c0"], d["cinf"], self.tb,
                                    breve_j=BGP)
        # lhs - rhs with rhs = -mixed, formed in place
        lhs = BGP * self.dG_om
        lhs -= self.dG_om_pair[:, None] * BGP
        lhs += mixed
        self.rec("ugamma_o", np.abs(lhs).max())


def run_algebra_suite(n_modes: int = 4, n_max: int = 3, draws: int = 100,
                      sigma: float = 0.2, seed: int = 2024,
                      corrupt: bool = False) -> dict:
    """Run every algebra identity; returns per-identity worst defects.

    With ``corrupt=True`` the creation operator entering the CCR check is
    deliberately perturbed (test fixture for failure propagation).  ``stats``
    holds the basis and pair-basis sizes, the draws and how they were
    stacked; the defects do not depend on the stacking.
    """
    rng = np.random.default_rng(seed)
    grid = fock.line_grid(n_modes, 1.0, sigma)
    basis = fock.build_basis(grid, n_max)
    tb = split.build_tensor_basis(basis)
    draws = draws if n_max else 0
    starts = range(0, draws, DRAW_BATCH)
    stats = {"basis": basis.size, "pairs": tb.size, "draws": draws,
             "draw_batch": DRAW_BATCH, "batches": len(starts)}
    if n_max == 0:
        return {"defects": {}, "vacuous": True, "draws": 0, "stats": stats,
                "note": "n_max=0: guarded sector empty, identities hold vacuously"}
    suite = _Suite(basis, tb, corrupt)

    # the checks that involve no draw
    U = split.tensor_iso_U(tb)
    vac_sum = np.zeros(tb.sum_basis.size)
    vac_sum[0] = 1.0
    target = np.zeros(tb.size)
    target[tb.lookup([[0, 0]])] = 1.0
    suite.rec("ueq0_vacuum", np.abs(U @ vac_sum - target).max())
    suite.rec("u_isometry", _norm((U.conj().T @ U).toarray() - np.eye(tb.sum_basis.size)))

    # no evaluation reads the rng, so drawing each stack just before it is
    # evaluated consumes the stream in the per-draw order
    for start in starts:
        reads = [_draw(rng, grid.n_modes, basis.size, tb.size, n_max >= 2)
                 for _ in range(min(DRAW_BATCH, draws - start))]
        suite.evaluate(_derive(grid, basis.size, tb.size, reads))
    defects = suite.defects

    # cap-dependent norm diagnostics for the identification map
    i_norms = {}
    Nl, Nr = tb.pair_numbers().T
    for kk in (1, 2):
        wts = np.where(Nr <= kk, (1.0 + Nl) ** (-kk), 0.0)
        i_norms[f"I_weight_k{kk}"] = float(np.linalg.norm(suite.I_op * wts[None, :], 2))

    tol = 1e-12
    failing = sorted(name for name, d in defects.items() if d > tol)
    return {
        "defects": {k: defects[k] for k in sorted(defects)},
        "max_defect": max(defects.values()),
        "tolerance": tol,
        "failing": failing,
        "passed": not failing,
        "draws": draws,
        "i_norm_diagnostics": i_norms,
        "vacuous": False,
        "stats": stats,
    }
