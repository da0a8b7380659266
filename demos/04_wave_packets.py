"""Electron propagation bound on the chain.

Evolves an energy-filtered electron wave packet under the full lattice
Hamiltonian and tracks the expectation of F(|x|/t) for a cutoff F supported
beyond the configured speed bound: the filtered electron never outruns its
group velocity window.
"""

from nelsonlab import dynamics, fock, model

disp = model.DispersionLaw("nonrel", mass=1.0)
ff = model.FormFactor(1.0, 1.0, sigma=0.2)
L = 128
grid = fock.lattice_grid(L, [-16, -12, -8, -5, 5, 8, 12, 16], sigma=0.2)
ms = model.ModelSpec(disp, ff, grid, g=0.05)
fb = model.full_basis(ms, L, n_max=1)
H = model.build_full_H(ms, fb)
print(f"lattice sites: {L}, product dimension: {fb.size}")

# Energy filter below Sigma = O_beta(0.3) = 0.045 keeps every momentum
# component slower than 0.3; F detects the region |x| > 0.4 t.
psi, _ = dynamics.filtered_packet(fb, H, p0=0.05, dp=0.06, sigma_top=0.045,
                                  width_frac=0.6)
times = dynamics.geometric_times(1.0, 100.0, 1.5)
prop = dynamics.Propagation(H, psi, times)
track = dynamics.electron_velocity_probe(ms, fb, prop,
                                         dynamics.rising_cutoff(0.4, 0.5))
print("\n   t       <F(|x|/t)>   norm drift")
for i, t in enumerate(track.times):
    print(f"{t:7.2f}   {track.values[i]:.3e}    {track.norm_drift[i]:.1e}")
print(f"\nverdicts: {track.verdicts}")
