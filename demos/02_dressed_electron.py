"""Dressed one-electron states and their spectral bounds.

Builds the fiber Hamiltonian H(P) = Omega(P - K) + dGamma(omega) + g phi(kappa),
scans the ground energy over total momentum, and checks the variational
sandwich, the soft-boson absence, and second-order perturbation theory.
"""

import numpy as np

from nelsonlab import fock, model, spectral

disp = model.DispersionLaw("nonrel", mass=1.0)
ff = model.FormFactor(kappa0=1.0, lam=1.0, sigma=0.2)
grid = fock.line_grid(12, kmax=1.5, sigma=0.2)
basis = fock.build_basis(grid, n_max=2)
ms = model.ModelSpec(disp, ff, grid, g=0.05, use_modified=True)

print(f"coupling threshold g_beta(0.9) = {model.g_beta(disp, ff, 0.9, grid):.4f}")
print(f"velocity threshold O_beta(0.9) = {model.o_beta(disp, 0.9):.4f}")

momenta = [np.array([p]) for p in np.linspace(0.0, 0.8, 9)]
curve = spectral.dispersion_scan(ms, momenta, basis, beta=0.9)
print("\n P      E_g        E_0        upper     lower     gap")
for i, P in enumerate(curve.momenta):
    print(f"{P[0]:4.2f}  {curve.energies[i]:.6f}  {curve.free_energies[i]:.6f}  "
          f"{curve.upper_margins[i]:.2e}  {curve.lower_margins[i]:.2e}  "
          f"{curve.gaps[i]:.4f}")
print(f"\nmax soft occupancy along the scan: {curve.soft_occupancies.max():.2e}")
print(f"free vs modified ground energy max gap: {curve.free_mod_agree.max():.2e}")

# Second-order perturbation theory from the diagonal data reproduces the
# ground energy up to a fourth-order remainder.
print("\n g      E_g - E_PT")
for gg in (0.01, 0.02, 0.04, 0.08):
    msg = model.ModelSpec(disp, ff, grid, gg)
    H = model.build_fiber_H(msg, [0.0], basis)
    eg = spectral.ground_state(H, k=1, tol=1e-12).ground_energy
    print(f"{gg:5.2f}   {abs(eg - spectral.pt_ground_energy(msg, [0.0], basis)):.3e}")
