"""Chebyshev time evolution and numerical scattering probes.

Time-dependent cutoffs F(|x|/t), chi_gamma(|y|/t), j(|y|/t) are realized by
eigendecomposing the position operators once per run and applying scalar
functions on their spectra, so every cutoff is exactly Hermitian.  The
electron position on the chain is reached through the discrete Fourier
transform of the electron leg.

Time grids are geometric, t_n = t0 * r^n: every convergence statement probed
here is a large-time trend, and doubling-pair diagnostics need geometric
spacing.  All probe verdicts are trend-based with explicit thresholds; none
claims a proof.

Every probe walks its time grid through one loop, ``_track_snapshots``, over
the generator ``snapshots``, which steps ``krylov_expm_apply`` from one grid
time to the next and yields (t, psi_t).  That propagator sums the Chebyshev
series of exp(-i dt H) on the Gershgorin interval of the Hermitian H, which
contains its spectrum, so the truncation error is bounded a priori and there
is no step control.  The loop returns an ``ObservableTrack``: the probe's
measured value at each grid time and the measured norm and energy drifts of
psi_t; whatever else a probe derives (the photon probe's running integral,
W_+'s outer-vacuum norms) sits in the track's extras.

On the chain a boson operator acts on the occupation leg of
psi.reshape(L, nb); the Kronecker product 1 x op is never formed.  The
w(t) and photon-flux probes need only <dGamma(b)> at each snapshot, which
``fock.dGamma_expectation`` reads from the one-boson density matrix (on the
chain, of the position rows weighted by F(|x|/t)), so no sparse dGamma(b) is
assembled for them.  Likewise the asymptotic-field probes apply a*(h_t) and
a(h_t) through ``fock.apply_creation`` and ``fock.apply_annihilation``, one
gather on the basis tables each, without building a*(h_t).  Energy filters
f(H) psi are applied block by block through ``SpectralCalculus.fn(f, psi)``,
never as an n x n matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .fock import (
    FockVector,
    OccupationBasis,
    WeightedSpectrum,
    _switch,
    apply_annihilation,
    apply_creation,
    creation_op,
    dGamma,
    dGamma_expectation,
    weighted_abs,
)
from .model import (
    ConfigWindowError,
    FullBasis,
    Hamiltonian,
    ModelSpec,
    build_fiber_H,
    fiber_diagonal,
    total_momentum_op,
)
from .mourre import build_position_op, group_velocity
from .spectral import SpectralCalculus, _gershgorin_interval, ground_state


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
    if not (ratio > 1 and t0 > 0):
        # otherwise the grid never passes t_max
        raise ValueError(f"geometric_times needs ratio > 1 and t0 > 0, got {ratio}, {t0}")
    ts = [t0]
    while ts[-1] * ratio <= t_max * (1 + 1e-12):
        ts.append(ts[-1] * ratio)
    return np.array(ts)


# ---------------------------------------------------------------------------
# Chebyshev propagation
# ---------------------------------------------------------------------------

def krylov_expm_apply(mat: sp.csr_matrix, v: np.ndarray, dt: float,
                      tol: float = 1e-10) -> np.ndarray:
    """exp(-i dt H) v for Hermitian H by a Chebyshev series on the Gershgorin
    interval [a - b, a + b] of H (Tal-Ezer and Kosloff 1984):

        exp(-i dt H) = exp(-i a dt) sum_k c_k T_k((H - a) / b),
        c_k = (2 - delta_k0) (-i)^k J_k(b dt).

    The interval contains the spectrum and |T_k| <= 1 on it, so dropping
    terms whose |c_k| sum to at most ``tol`` errs by at most tol ||v||.  A
    degree-N sum lies in the Krylov space K_{N+1}(H, v), hence the name.

    The bound holds down to the coefficients' rounding floor: each computed
    c_k carries noise of about |b dt| eps (4e-15 at b dt = 750, 7e-15 at
    1500), summed over the N terms used.  For b dt above about 700 a ``tol``
    below about N x 1e-14 is therefore not honoured.
    """
    a, b = _gershgorin_interval(mat)
    phase = np.exp(-1j * a * dt)
    if b == 0.0 or dt == 0:
        return phase * v
    c = _chebyshev_coefficients(b * dt, tol)
    # three-term recurrence w_{k+1} = A w_k - w_{k-1} with A = 2 (H - a) / b,
    # cast once to the vector's dtype so that no matvec upcasts it again
    w_prev = np.asarray(v, dtype=complex)
    A = ((mat - a * sp.identity(mat.shape[0], format="csr")) * (2.0 / b)).astype(
        w_prev.dtype, copy=False)
    w = 0.5 * (A @ w_prev)
    out = c[0] * w_prev
    for ck in c[1:]:
        out += ck * w
        w_prev, w = w, A @ w - w_prev
    return phase * out


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
        psi = krylov_expm_apply(prop.H.mat, psi, t - t_prev, tol=prop.step_tol)
        t_prev = t
        yield t, psi


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

def _on_bosons(apply, basis: OccupationBasis, h, psi: np.ndarray,
               fb: FullBasis | None = None) -> np.ndarray:
    """apply(basis, h, .) on the boson leg of psi: on psi itself on a fiber,
    and (1 x op) psi on the chain, acting on the rows of psi.reshape(L, nb)."""
    if fb is None:
        return apply(basis, h, psi)
    return apply(basis, h, psi.reshape(fb.n_sites, -1)).reshape(psi.shape)


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


def photon_velocity_probe(prop: Propagation, basis: OccupationBasis,
                          window: tuple, ycalc: YCalc,
                          fb: FullBasis | None = None,
                          f_electron=None, mode: str = "window") -> ObservableTrack:
    """Time-weighted boson flux integrals.

    mode="window": integrand <dGamma(chi_[lo,hi](|y|/t)) F(|x|/t)> with the
    window required above max(1, beta) (a warning is issued otherwise; the
    bound is not claimed there).  mode="phase_space": the
    |J(y/t).(grad omega - y/t) + h.c.| monitor on the same window.
    The running integral sum_n value_n (t_n - t_{n-1}) / t_n is kept in
    ``extras["running_integral"]``.  Verdict: it plateaus (the last step adds
    under 5% of it).
    """
    lo, hi = window
    if lo < 1.0:  # the speed of light
        warnings.warn("window starts below the propagation bound; estimate not claimed there")

    def one_particle(t):
        if mode == "window":
            shape = lambda lam: (_switch((np.abs(lam) / t - lo) / (0.1 * lo))
                                 * (1.0 - _switch((np.abs(lam) / t - hi) / (0.1 * hi))))
            return ycalc.fn(shape)
        vel = group_velocity(basis.grid, prop.H.use_modified)[:, 0]
        Y = ycalc.fn(lambda lam: lam)
        J = ycalc.fn(lambda lam: (_switch((np.abs(lam) / t - lo) / (0.1 * lo))
                                  * (1.0 - _switch((np.abs(lam) / t - hi) / (0.1 * hi)))))
        X = J @ (np.diag(vel) - Y / t) + (np.diag(vel) - Y / t) @ J
        return weighted_abs(basis.grid, X) / t

    def measure(psi, t):
        if fb is None:
            return dGamma_expectation(basis, one_particle(t), psi).real
        x = np.abs(fb.positions())
        wts = f_electron(x / t) if f_electron is not None else np.ones_like(x)
        return dGamma_expectation(basis, one_particle(t), fb.to_position(psi), wts).real

    track = _track_snapshots(prop, measure)
    run = np.cumsum(track.values * np.diff(track.times, prepend=0.0) / track.times)
    track.extras["running_integral"] = run
    if len(run) >= 3 and run[-1] > 0:
        increment = (run[-1] - run[-2]) / run[-1]
        track.verdicts["integral_plateau"] = bool(increment < 0.05)
    return track


def _boson_omega(prop: Propagation, basis: OccupationBasis) -> np.ndarray:
    """The boson dispersion H was built with, sampled on the basis grid."""
    return basis.grid.omega_mod if prop.H.use_modified else basis.grid.omega_free


def asymptotic_field_probe(prop: Propagation, basis: OccupationBasis, h,
                           fb: FullBasis | None = None) -> ObservableTrack:
    """Cauchy diagnostic for the asymptotic creation operator.

    d(t, t') = || e^{iHt'} a*(h_{t'}) e^{-iHt'} phi - e^{iHt} a*(h_t) e^{-iHt} phi ||
    over consecutive geometric times; verdict: monotone decrease.
    """
    omega = _boson_omega(prop, basis)
    vecs = []

    def measure(psi, t):
        h_t = np.exp(-1j * omega * t) * np.asarray(h, dtype=complex)
        chi = _on_bosons(apply_creation, basis, h_t, psi, fb)
        vecs.append(krylov_expm_apply(prop.H.mat, chi, -t, tol=prop.step_tol))
        return np.linalg.norm(vecs[-1] - vecs[-2]) if len(vecs) > 1 else math.nan

    track = _track_snapshots(prop, measure)
    # the first grid time has no predecessor
    track.times, track.values, track.norm_drift, track.energy_drift = (
        a[1:] for a in (track.times, track.values, track.norm_drift, track.energy_drift))
    # trend verdict on the late-time tail (the early window is transient)
    tail = track.values[len(track.values) // 2:]
    track.verdicts["cauchy_decreasing"] = bool(np.all(np.diff(tail) <= 1e-10)) if len(tail) > 1 else True
    return track


def annihilation_norm_track(prop: Propagation, basis: OccupationBasis, h,
                            fb: FullBasis | None = None) -> ObservableTrack:
    """|| a(h_t) psi_t || over the time grid (vacuum property diagnostic)."""
    omega = _boson_omega(prop, basis)

    def measure(psi, t):
        h_t = np.exp(-1j * omega * t) * np.asarray(h, dtype=complex)
        return float(np.linalg.norm(_on_bosons(apply_annihilation, basis, h_t, psi, fb)))

    return _track_snapshots(prop, measure)


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


def _energy_filtered(prop: Propagation, f_window: float) -> Propagation:
    """prop restarted from f(H) psi / ||f(H) psi||, f the smooth window below f_window."""
    psi0 = SpectralCalculus(prop.H).fn(energy_window(f_window), prop.state)
    nrm = np.linalg.norm(psi0)
    if nrm < 1e-10:
        raise ProbePreconditionError("energy window annihilates the state")
    return replace(prop, state=psi0 / nrm)


W_PLUS_DIM_CAP = 5000  # pairs W_plus_probe takes: breve_gamma is a dense pairs x basis array


def extended_fiber_H(ms: ModelSpec, P, H: Hamiltonian, tb) -> Hamiltonian:
    """H_ext = H x 1 + 1 x dGamma(omega) on the pairs (inner, outer r) of the
    fiber H = H(P) of ``ms``: the direct sum over r of H(P - K_r) + E_r on
    N <= n_max - n_r, with the ``fiber_diagonal`` at P of the summed
    occupations and H's coupling on the inner leg.  Refuses any other H."""
    from .split import tensor_factor_ops

    diag = H.mat.diagonal()
    if not np.array_equal(diag, fiber_diagonal(ms, P, tb.basis.occ)):
        raise ValueError("H is not the fiber H(P) of ms on the pairs' basis")
    coupling = tensor_factor_ops(tb, op_left=H.mat - sp.diags(diag))
    return Hamiltonian(sp.diags(fiber_diagonal(ms, P, tb.basis.occ[tb.pairs].sum(axis=1)))
                       + coupling, use_modified=ms.use_modified)


def W_plus_probe(ms: ModelSpec, P, prop: Propagation, cuts: CutoffFamily,
                 ycalc: YCalc, f_window: float) -> ObservableTrack:
    """Track ||W_+(t) phi|| and its outer-vacuum component on the fiber H(P)
    of ``ms`` that ``prop`` evolves with: W_+(t) = f(H_ext) breve_Gamma(j_t)
    dGamma(chi_gamma,t) f(H) psi_t, H_ext the ``extended_fiber_H``, applied
    block by block; the unitary prefactor is dropped since only norms are
    tracked.  Verdict: the outer-vacuum component is small (exact
    j0 chi_gamma = 0 routing)."""
    from .split import breve_gamma, build_tensor_basis

    basis = prop.H.basis
    if basis.e_cap is not None:
        raise ConfigWindowError(f"W_plus needs a basis without energy cap: e_cap = {basis.e_cap} "
                                "cuts the hopping of dGamma(chi_gamma), so j0 chi_gamma = 0 "
                                "no longer routes exactly")
    tb = build_tensor_basis(basis)
    if tb.size > W_PLUS_DIM_CAP:
        raise ConfigWindowError(f"extended dimension {tb.size} exceeds the cap {W_PLUS_DIM_CAP}")
    calc_ext = SpectralCalculus(extended_fiber_H(ms, P, prop.H, tb))
    f_ext = energy_window(f_window)
    outer_vacuum = tb.pair_numbers()[:, 1] == 0
    vac_norms = []

    def measure(psi, t):
        j0m = ycalc.fn(lambda lam: cuts.j0(np.abs(lam) / t))
        jim = ycalc.fn(lambda lam: cuts.jinf(np.abs(lam) / t))
        BG = breve_gamma(j0m, jim, tb)
        chi = dGamma(basis, ycalc.fn(lambda lam: cuts.chi_gamma(np.abs(lam) / t)))
        vec = calc_ext.fn(f_ext, BG @ (chi @ psi))
        vac_norms.append(float(np.linalg.norm(vec[outer_vacuum])))
        return np.linalg.norm(vec)

    track = _track_snapshots(_energy_filtered(prop, f_window), measure)
    track.extras.update(outer_vacuum_norms=vac_norms, extended_dim=tb.size)
    track.verdicts["outer_vacuum_small"] = bool(max(vac_norms) <= 1e-8)
    return track


# ---------------------------------------------------------------------------
# Convenience state builders
# ---------------------------------------------------------------------------

def dressed_state(ms: ModelSpec, P, basis: OccupationBasis) -> FockVector:
    """Fiber ground state psi_P, to eigensolver tolerance 1e-11."""
    H = build_fiber_H(ms, P, basis)
    return ground_state(H, k=2, tol=1e-11).ground_vector


def one_boson_state(basis: OccupationBasis, h) -> np.ndarray:
    """Normalized a*(h) Omega."""
    v = creation_op(basis, h) @ FockVector.vacuum(basis).amps
    return v / np.linalg.norm(v)


def momentum_conservation_track(fb: FullBasis, prop: Propagation) -> dict:
    """Constancy of <P_total> and <P_total^2> along the evolution."""
    Pt = total_momentum_op(fb)
    Pt2 = Pt @ Pt
    m1, m2 = [], []
    for _, psi in snapshots(prop):
        m1.append(float(np.vdot(psi, Pt @ psi).real))
        m2.append(float(np.vdot(psi, Pt2 @ psi).real))
    m1, m2 = np.array(m1), np.array(m2)
    return {
        "p_mean_drift": float(np.abs(m1 - m1[0]).max()),
        "p2_drift": float(np.abs(m2 - m2[0]).max()),
    }
