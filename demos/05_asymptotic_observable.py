"""The late-time boson counter w(t) = <dGamma(chi_gamma(|y|/t))> and its
splitting into the extended Fock space.

Three regimes: a dressed state radiates nothing (w -> 0); a free boson
faster than gamma is fully counted (w -> 1); an excited interacting state
keeps a strictly positive count, the signature that every excited state
radiates.
"""

import numpy as np

from nelsonlab import dynamics, fock, model, spectral

ff = model.FormFactor(1.0, 1.0, sigma=0.2)
cuts = dynamics.CutoffFamily(0.25, 0.28, 0.31, 0.35, 0.40, 0.45)

# --- dressed state: the boson cloud co-moves with the electron
disp = model.DispersionLaw("nonrel", mass=1.0)
grid = fock.line_grid(12, 1.5, 0.2)
basis = fock.build_basis(grid, 2)
ms = model.ModelSpec(disp, ff, grid, g=0.05)
H = model.build_fiber_H(ms, [0.25], basis)
psi_P = dynamics.dressed_state(ms, [0.25], basis)
ycalc = dynamics.YCalc(grid)
prop = dynamics.Propagation(H, psi_P.amps, dynamics.geometric_times(1.0, 60.0, 1.5))
track = dynamics.W_estimate(prop, basis, cuts, ycalc)
print("dressed packet w(t):", np.round(track.values, 8))

# --- free boson at group speed 1 > gamma (electron decoupled by heavy mass)
heavy = model.DispersionLaw("nonrel", mass=1.0e8)
gridf = fock.line_grid(192, 2.0, 0.2)
bf = fock.build_basis(gridf, 1)
msf = model.ModelSpec(heavy, ff, gridf, 0.0)
Hf = model.build_fiber_H(msf, [0.0], bf)
k = gridf.points[:, 0]
h = np.exp(-((k - 0.8) ** 2) / (2 * 0.1 ** 2))
yf = dynamics.YCalc(gridf)
propf = dynamics.Propagation(Hf, dynamics.one_boson_state(bf, h),
                             dynamics.geometric_times(2.0, 0.75 * yf.y_max, 1.5))
trackf = dynamics.W_estimate(propf, bf, cuts, yf)
print("free boson w(t): ", np.round(trackf.values, 4))

# --- excited interacting state, orthogonal to the dressed state
res = spectral.ground_state(H, k=2, tol=1e-11)
rng = np.random.default_rng(5)
v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
v[~fock.interacting_mask(basis)] = 0.0
gsv = res.ground_vector.amps
v -= gsv * np.vdot(gsv, v)
calc = spectral.SpectralCalculus(H)
v = calc.fn(dynamics.energy_window(1.2), v)
v -= gsv * np.vdot(gsv, v)
v /= np.linalg.norm(v)
tmax = 0.8 * ycalc.y_max / cuts.gamma
propx = dynamics.Propagation(H, v, dynamics.geometric_times(1.0, tmax, 1.5))
trackx = dynamics.W_estimate(propx, basis, cuts, ycalc, positivity_mode=True)
print("excited state w(t):", np.round(trackx.values, 4))
print(f"limiting w = {trackx.final():.3f} > 0: excited states radiate")

# --- the splitting map routes the escaping bosons to the outer Fock factor;
#     the outer leg is never left in the vacuum (exact j0 chi_gamma = 0).
#     f(H_ext) acts on the extended fiber: the inner leg of each outer photon
#     state r carries the momentum P - K_r.
trp = dynamics.W_plus_probe(
    ms, [0.25], dynamics.Propagation(H, v, dynamics.geometric_times(1.0, tmax, 1.5)),
    cuts, ycalc, f_window=1.2)
print("\nW_plus norms:        ", np.round(trp.values, 4))
print("outer-vacuum residue:",
      np.format_float_scientific(max(trp.extras["outer_vacuum_norms"]), precision=1))
