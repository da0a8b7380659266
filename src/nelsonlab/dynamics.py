"""Chebyshev time evolution and numerical scattering probes.

Time-dependent cutoffs F(|x|/t), chi_gamma(|y|/t), j(|y|/t) are realized by
eigendecomposing the position operators once per run and applying scalar
functions on their spectra, so every cutoff is exactly Hermitian.  The
electron position on the chain is reached through the discrete Fourier
transform of the electron leg.

Time grids are geometric, t_n = t0 * r^n: every convergence statement probed
here is a large-time trend.  All probe verdicts are trend-based with explicit
thresholds; none claims a proof.

Every probe walks its time grid through one loop, ``_track_snapshots``, over
the generator ``snapshots``, which steps ``krylov_expm_apply`` from one grid
time to the next and yields (t, psi_t).  That propagator sums the Chebyshev
series of exp(-i dt H) with each block of the Hermitian H shifted by the
centre of its own Gershgorin interval, which contains the block's spectrum,
so its truncation error is bounded a priori and there is no step control.
Each block is invariant, so the series runs only on the blocks the state
lives on (those where it is not exactly 0, which stay the same along a
propagation) and is as long as the widest of them needs; the chain's
energy-filtered packet lives on 13 of its 128 total-momentum blocks at
L = 128.  The blocks (the split the spectral calculus diagonalizes too),
their centres and the shifted operator are computed once per
``Hamiltonian`` (its cached ``blocks`` and ``chebyshev``, and the operator
on the last support, ``chebyshev_for``), so each interval of the grid and
each further propagation of the same H pay only for their matvecs and one
phase per state; ``chebyshev_stats`` reports that work for a run's
manifest.  The loop returns an ``ObservableTrack``: the probe's measured
value at each grid time and the measured norm and energy drifts of psi_t;
whatever else a probe derives (W_+'s outer-vacuum norms) sits in the
track's extras.

w(t) needs only <dGamma(b)> at each snapshot, which
``fock.dGamma_expectation`` reads from the one-boson density matrix, so no
sparse dGamma(b) is assembled for it.  Energy filters f(H) psi are applied
block by block through ``SpectralCalculus.fn(f, psi)``, never as an n x n
matrix.

W_+ splits its one vector phi = dGamma(chi_t) psi_t by the factorization
Gamma-breve(j) = (Gamma(j0) x Gamma(jinf)) I* (Derezinski and Gerard 1999),
I the fusion map: I* phi laid out as a basis x basis matrix X goes to
Gamma(j0) X Gamma(jinf)^T, one product per pair of boson-number sectors.
On the truncated pair space this is exact, since each Gamma conserves its
own leg's boson number, and no pairs x basis array or doubled-grid basis is
built.  Both of its energy filters come from one ``SpectralCalculus`` of the
extended fiber ``model.extended_fiber_H``, whose outer-vacuum block is H(P)
bit for bit.  Every Hamiltonian is assembled in ``model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import (
    FockVector,
    OccupationBasis,
    WeightedSpectrum,
    _switch,
    creation_op,
    dGamma,
    dGamma_expectation,
)
from .model import (
    ConfigWindowError,
    FullBasis,
    Hamiltonian,
    ModelSpec,
    build_fiber_H,
    extended_fiber_H,
)
from .mourre import build_position_op
from .spectral import SpectralCalculus, ground_state


class KrylovBreakdownError(RuntimeError):
    """Kept because the benchmark catches it; nothing raises it, since the
    Chebyshev propagator has no failure mode."""


class ProbePreconditionError(ValueError):
    """Probe input violates its stated precondition."""


# ---------------------------------------------------------------------------
# Cutoff family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffFamily:
    """Six ordered thresholds beta < beta0 < beta1 < beta2 < beta3 < gamma.

    One exp-based mollifier: (j0, jinf) partition the boson position around
    (beta2, beta3), chi_gamma counts bosons beyond gamma, beta bounds
    W_estimate's positivity window; no cutoff reads beta0 or beta1.
    """

    beta: float = 0.3
    beta0: float = 0.34
    beta1: float = 0.38
    beta2: float = 0.42
    beta3: float = 0.46
    gamma: float = 0.5

    def __post_init__(self):
        seq = (self.beta, self.beta0, self.beta1, self.beta2, self.beta3, self.gamma)
        if not all(a < b for a, b in zip(seq, seq[1:])):
            raise ConfigWindowError("thresholds must be strictly ordered")

    def chi_gamma(self, s):
        """0 below beta3, 1 above gamma."""
        return _switch((np.asarray(s, float) - self.beta3) / (self.gamma - self.beta3))

    def j0(self, s):
        return 1.0 - _switch((np.asarray(s, float) - self.beta2) / (self.beta3 - self.beta2))

    def jinf(self, s):
        return _switch((np.asarray(s, float) - self.beta2) / (self.beta3 - self.beta2))


def rising_cutoff(a: float, b: float):
    """Smooth F with support (a, infinity), equal to 1 above b."""
    return lambda s: _switch((np.asarray(s, float) - a) / (b - a))


def energy_window(sigma_top: float, width_frac: float = 0.15):
    """Smooth f equal to 1 below (1 - width) Sigma, supported in (-inf, Sigma]."""
    lo = sigma_top * (1.0 - width_frac)
    return lambda lam: 1.0 - _switch((np.asarray(lam, float) - lo) / (sigma_top - lo))


def geometric_times(t0: float, t_max: float, ratio: float = 1.5) -> np.ndarray:
    """t0, t0 r, t0 r^2, ... up to t_max; every time lies in [t0, t_max]."""
    if not (ratio > 1 and 0 < t0 <= t_max):
        # otherwise the grid never passes t_max, or starts past it
        raise ConfigWindowError("geometric_times needs ratio > 1 and 0 < t0 <= t_max, "
                                f"got {ratio}, {t0}, {t_max}")
    ts = [t0]
    while ts[-1] * ratio <= t_max * (1 + 1e-12):
        ts.append(ts[-1] * ratio)
    return np.array(ts)


# ---------------------------------------------------------------------------
# Chebyshev propagation
# ---------------------------------------------------------------------------

def krylov_expm_apply(H: Hamiltonian | sp.csr_matrix, v: np.ndarray, dt: float,
                      tol: float = 1e-10) -> np.ndarray:
    """exp(-i dt H) v for Hermitian H by a Chebyshev series (Tal-Ezer and
    Kosloff 1984), each block of H centred on its own Gershgorin interval.

    H is the direct sum of the connected components c of its stored pattern.
    With a_c the centre of c's Gershgorin interval, D = diag(a_c) on the rows
    of c commutes with H, and b the widest component's half-width,

        exp(-i dt H) = exp(-i dt D) sum_k c_k T_k((H - D) / b),
        c_k = (2 - delta_k0) (-i)^k J_k(b dt),

    the first factor a phase per state.  Each component's interval contains
    its spectrum and lies in [a_c - b, a_c + b], so |T_k| <= 1 on the
    spectrum of (H - D) / b and dropping terms whose |c_k| sum to at most
    ``tol`` errs by at most tol ||v||.  b is the widest block's half-width,
    not the spread of the blocks' centres, so the series is as long as that
    block needs.  A degree-N sum costs N matvecs and lies in the Krylov
    space K_{N+1}(H - D, v), before the phase per state, hence the name.

    Each block is invariant, so the series runs on the live blocks of v
    alone, those holding an entry of v that is not exactly 0: A, the
    centres and b are those of ``H.chebyshev_for(v)``, b the widest live
    block's half-width, and every other row of the result is exactly 0.
    Each live block's spectrum still lies in its own interval, so the bound
    holds unchanged.  When every live block has width 0 the result is the
    phase alone, exact.  When every block is live it is the whole-matrix
    operator ``H.chebyshev``, bit for bit; a v that is 0 gives exact zeros.

    ``H`` is a ``Hamiltonian``, whose cached operators (the centres, b and
    the complex A = 2 (H - D) / b, on every row and on the last support)
    every call then shares, or a bare CSR matrix, wrapped in a
    ``Hamiltonian`` for this call alone, so it must be exactly Hermitian
    (``ValueError`` otherwise); both give the same bits.  The recurrence
    w_{k+1} = A w_k - w_{k-1} writes each new term into the buffer of the
    one it retires, from a copy of v, so ``v`` itself is never written.

    The bound holds down to the coefficients' rounding floor: each computed
    c_k carries noise of about |b dt| eps (4e-15 at b dt = 750, 7e-15 at
    1500), summed over the N terms used.  For b dt above about 700 a ``tol``
    below about N x 1e-14 is therefore not honoured.
    """
    H = H if isinstance(H, Hamiltonian) else Hamiltonian(H)
    op = H.chebyshev_for(v)
    if op is None:
        return np.zeros(H.shape[0], dtype=complex)
    b, A = op.half_width, op.shifted
    x = v if op.rows is None else np.asarray(v)[op.rows]
    phase = np.exp(-1j * op.centres * dt)
    if b == 0.0 or dt == 0:
        out = phase * x
    else:
        c = _chebyshev_coefficients(b * dt, tol)
        w_prev = np.array(x, dtype=complex)
        w = 0.5 * (A @ w_prev)
        out = c[0] * w_prev
        for ck in c[1:]:
            out += ck * w
            w_prev, w = w, np.subtract(A @ w, w_prev, out=w_prev)
        out = phase * out
    if op.rows is None:
        return out
    full = np.zeros(H.shape[0], dtype=complex)
    full[op.rows] = out
    return full


def _chebyshev_coefficients(x: float, tol: float) -> np.ndarray:
    """Coefficients c_k of exp(-i x cos t) = sum_k c_k cos(k t), truncated
    where the tail sum of |c_k| falls to ``tol``.

    They are the cosine transform of exp(-i x cos t) on 2n equispaced nodes,
    one FFT.  |c_k| = 2 |J_k(x)| decays faster than exponentially once
    k > |x|, so n >= 2|x| + 64 leaves no visible aliasing.  The computed
    ones level off at a rounding floor, from the first k > |x| where they stop
    decreasing; the tail sum ends there, plus twice the largest |c_k| past it
    for the cut-off terms and the noise near the cut.
    """
    n = 1 << int(math.ceil(math.log2(2.0 * abs(x) + 64.0)))
    f = np.exp(-1j * x * np.cos(np.pi * np.arange(2 * n) / n))
    c = np.fft.fft(f)[:n] / n
    c[0] *= 0.5
    mag = np.abs(c)
    k = int(abs(x)) + 1
    floor = k + np.flatnonzero(mag[k + 1:] >= mag[k:-1])
    last = floor[0] if floor.size else n - 1
    tail = np.cumsum(mag[last::-1])[::-1] + 2.0 * mag[last:].max()
    return c[:max(int(np.count_nonzero(tail > tol)), 1)]


@dataclass
class Propagation:
    """Evolution setup: Hamiltonian, initial state, geometric time grid."""

    H: Hamiltonian
    state: np.ndarray
    times: np.ndarray
    step_tol: float = 1e-11

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=complex)
        ts = np.asarray(self.times, dtype=float)
        if np.any(np.diff(ts) <= 0):
            raise ValueError("time grid must be strictly increasing")
        self.times = ts


def snapshots(prop: Propagation):
    """Yield (t, psi_t) along prop.times, one propagator call per grid interval."""
    psi = prop.state
    t_prev = 0.0
    for t in prop.times:
        psi = krylov_expm_apply(prop.H, psi, t - t_prev, tol=prop.step_tol)
        t_prev = t
        yield t, psi


def chebyshev_stats(prop: Propagation) -> dict:
    """What ``snapshots`` does along prop.times, for a run's manifest: H's
    dimension, stored entries and number of blocks; the blocks and rows the
    initial state lives on, which the propagator restricts itself to, and
    the widest of those blocks' half-width b, which sets the series length;
    the number of grid intervals, and the series terms summed over them,
    counted from the coefficients ``krylov_expm_apply`` sums at that b (none
    on an interval it returns as a pure phase)."""
    H = prop.H
    op = H.chebyshev_for(prop.state)
    blocks, rows, b = (0, 0, 0.0) if op is None else (op.components, len(op.centres),
                                                       op.half_width)
    steps = np.diff(prop.times, prepend=0.0)
    terms = sum(len(_chebyshev_coefficients(b * dt, prop.step_tol))
                for dt in steps if b != 0.0 and dt != 0)
    return {"dim": int(H.shape[0]), "nnz": int(H.mat.nnz),
            "chebyshev_components": int(H.blocks.max()) + 1,
            "live_blocks": blocks, "live_rows": rows, "chebyshev_half_width": b,
            "intervals": len(steps), "series_terms": int(terms)}


@dataclass
class ObservableTrack:
    """A probe's measurements along the time grid: its value, and the norm and
    energy drifts of psi_t, |<.>_t - <.>_0| / max(t, 1), at each time; the
    probe's verdicts and any derived series in ``extras``."""

    times: np.ndarray
    values: np.ndarray
    norm_drift: np.ndarray
    energy_drift: np.ndarray
    verdicts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def final(self) -> float:
        return float(self.values[-1])


def _track_snapshots(prop: Propagation, measure) -> ObservableTrack:
    """Evolve along prop.times, measuring the scalar measure(psi_t, t) and the
    norm and energy drifts of psi_t at each snapshot."""
    H = prop.H.mat
    n0 = np.linalg.norm(prop.state)
    e0 = float(np.vdot(prop.state, H @ prop.state).real)
    vals, nd, ed = [], [], []
    for t, psi in snapshots(prop):
        vals.append(float(measure(psi, t)))
        nd.append(abs(np.linalg.norm(psi) - n0) / max(t, 1.0))
        ed.append(abs(float(np.vdot(psi, H @ psi).real) - e0) / max(t, 1.0))
    return ObservableTrack(times=prop.times, values=np.array(vals),
                           norm_drift=np.array(nd), energy_drift=np.array(ed))


def check_conservation(track: ObservableTrack, norm_tol: float = 1e-9,
                       energy_tol: float = 1e-8) -> bool:
    return bool(np.all(track.norm_drift <= norm_tol) and np.all(track.energy_drift <= energy_tol))


# ---------------------------------------------------------------------------
# Position calculus
# ---------------------------------------------------------------------------

class YCalc(WeightedSpectrum):
    """Functions f(y) of the boson position operator via its weighted spectrum."""

    def __init__(self, grid):
        super().__init__(grid, build_position_op(grid))

    @property
    def y_max(self) -> float:
        return float(np.abs(self.evals).max())


# ---------------------------------------------------------------------------
# Full-model helpers
# ---------------------------------------------------------------------------

def gaussian_electron_state(fb: FullBasis, p0: float, dp: float) -> np.ndarray:
    """Electron momentum Gaussian (times the boson vacuum), unit norm."""
    amp = np.exp(-((fb.momenta - p0) ** 2) / (4.0 * dp * dp)).astype(complex)
    psi = np.zeros(fb.size, dtype=complex)
    psi[np.arange(fb.n_sites) * fb.boson.size] = amp
    return psi / np.linalg.norm(psi)


def validate_zone_margin(fb: FullBasis, psi: np.ndarray):
    """Reject packets with more than 1e-10 of their momentum mass beyond 0.75 pi."""
    dens = np.sum(np.abs(psi.reshape(fb.n_sites, fb.boson.size)) ** 2, axis=1)
    outside = np.abs(fb.momenta) > 0.75 * np.pi
    leak = float(np.sum(dens[outside]) / np.sum(dens))
    if leak > 1e-10:
        raise ProbePreconditionError(
            f"packet leaks {leak:.2e} of its mass beyond the 75% zone margin")


def filtered_packet(fb: FullBasis, H: Hamiltonian, p0: float, dp: float,
                    sigma_top: float, width_frac: float = 0.15,
                    dense_limit: int = 2500):
    """Energy-filtered Gaussian packet f(H) psi, normalized; returns (psi, calc)."""
    calc = SpectralCalculus(H, limit=dense_limit)
    raw = gaussian_electron_state(fb, p0, dp)
    f = energy_window(sigma_top, width_frac)
    psi = calc.fn(f, raw)
    nrm = np.linalg.norm(psi)
    if nrm < 1e-8:
        raise ProbePreconditionError("energy filter annihilates the packet")
    psi = psi / nrm
    leak = np.linalg.norm(calc.fn(lambda lam: (lam > sigma_top).astype(float), psi))
    if leak > 1e-8:
        raise ProbePreconditionError("state has support above the Sigma window")
    return psi, calc


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def electron_velocity_probe(ms: ModelSpec, fb: FullBasis, prop: Propagation,
                            f_out) -> ObservableTrack:
    """Expectation of F(|x|/t) on an energy-filtered packet; F rises beyond
    the configured electron speed bound.  Verdict: a monotone-decreasing
    tail; callers compare ``final()`` with their own threshold."""
    validate_zone_margin(fb, prop.state)
    x = np.abs(fb.positions())

    def measure(psi, t):
        dens = np.sum(np.abs(fb.to_position(psi)) ** 2, axis=1)
        return float(np.sum(f_out(x / t) * dens))

    track = _track_snapshots(prop, measure)
    vals = track.values
    tail = vals[len(vals) // 2:]
    track.verdicts["monotone_tail"] = bool(np.all(np.diff(tail) <= 1e-12))
    return track


def W_estimate(prop: Propagation, basis: OccupationBasis, cuts: CutoffFamily,
               ycalc: YCalc, positivity_mode: bool = False) -> ObservableTrack:
    """w(t) = <psi_t, dGamma(chi_gamma(|y|/t)) psi_t>.

    In positivity mode the thresholds must satisfy gamma in (beta, 1 - 2 beta)
    with beta < 1/3; otherwise no positivity claim is attached.
    """
    if positivity_mode:
        if not (cuts.beta < 1.0 / 3.0 and cuts.beta < cuts.gamma < 1.0 - 2.0 * cuts.beta):
            raise ConfigWindowError("positivity mode needs gamma in (beta, 1-2beta), beta < 1/3")

    def measure(psi, t):
        chi = ycalc.fn(lambda lam: cuts.chi_gamma(np.abs(lam) / t))
        return dGamma_expectation(basis, chi, psi).real

    return _track_snapshots(prop, measure)


def W_plus_probe(ms: ModelSpec, P, prop: Propagation, cuts: CutoffFamily,
                 ycalc: YCalc, f_window: float) -> ObservableTrack:
    """Track ||W_+(t) phi|| and its outer-vacuum component on the fiber H(P)
    of ``ms`` that ``prop`` evolves with: W_+(t) = f(H_ext) breve_Gamma(j_t)
    dGamma(chi_gamma,t) psi_t, psi_0 = f(H) psi / ||f(H) psi||, H_ext the
    ``model.extended_fiber_H``, refused unless its outer-vacuum block is
    prop.H; the unitary prefactor is dropped since only norms are tracked.
    Verdict: the outer-vacuum component is small (j0 chi_gamma = 0 routing).

    Both filters come from one ``SpectralCalculus`` of H_ext, applied block
    by block: H(P) is its block on the outer vacuum, so f(H) psi is f(H_ext)
    on psi placed there.  The splitting is ``split.apply_breve_gamma``, the
    product (Gamma(j0) x Gamma(jinf)) I* on the vector, exact on N <= n_max
    since each Gamma conserves its own leg's boson number; no array is
    larger than basis x basis, and the calculus's component limit is the
    one size refusal.  Extras: the outer-vacuum norms, the pair count
    ``extended_dim``, and the number and largest size of H_ext's blocks.
    """
    from .split import apply_breve_gamma, build_tensor_basis, scattering_ident

    basis = prop.H.basis
    tb = build_tensor_basis(basis)
    H_ext = extended_fiber_H(ms, P, tb)
    outer_vacuum = np.flatnonzero(tb.pair_numbers()[:, 1] == 0)
    inner = tb.pairs[outer_vacuum, 0]
    if (H_ext.mat[outer_vacuum][:, outer_vacuum] != prop.H.mat[inner][:, inner]).nnz:
        raise ValueError("prop.H is not the fiber H(P) of ms on its basis")
    calc = SpectralCalculus(H_ext)
    f = energy_window(f_window)
    fusion_adj = scattering_ident(tb).conj().T
    lifted = np.zeros(tb.size, dtype=complex)
    lifted[outer_vacuum] = prop.state[inner]
    psi0 = np.zeros_like(prop.state)
    psi0[inner] = calc.fn(f, lifted)[outer_vacuum]
    nrm = np.linalg.norm(psi0)
    if nrm < 1e-10:
        raise ProbePreconditionError("energy window annihilates the state")
    vac_norms = []

    def measure(psi, t):
        j0m = ycalc.fn(lambda lam: cuts.j0(np.abs(lam) / t))
        jim = ycalc.fn(lambda lam: cuts.jinf(np.abs(lam) / t))
        chi = dGamma(basis, ycalc.fn(lambda lam: cuts.chi_gamma(np.abs(lam) / t)))
        vec = calc.fn(f, apply_breve_gamma(j0m, jim, tb, chi @ psi, fusion_adj))
        vac_norms.append(float(np.linalg.norm(vec[outer_vacuum])))
        return np.linalg.norm(vec)

    track = _track_snapshots(replace(prop, state=psi0 / nrm), measure)
    sizes = np.bincount(H_ext.blocks)
    track.extras.update(outer_vacuum_norms=vac_norms, extended_dim=tb.size,
                        blocks=len(sizes), largest_block=int(sizes.max()))
    track.verdicts["outer_vacuum_small"] = bool(max(vac_norms) <= 1e-8)
    return track


# ---------------------------------------------------------------------------
# Convenience state builders
# ---------------------------------------------------------------------------

def dressed_state(ms: ModelSpec, P, basis: OccupationBasis) -> FockVector:
    """Fiber ground state psi_P, to eigensolver tolerance 1e-11."""
    H = build_fiber_H(ms, P, basis)
    return ground_state(H, k=1, tol=1e-11).ground_vector


def one_boson_state(basis: OccupationBasis, h) -> np.ndarray:
    """Normalized a*(h) Omega."""
    v = creation_op(basis, h) @ FockVector.vacuum(basis).amps
    return v / np.linalg.norm(v)
