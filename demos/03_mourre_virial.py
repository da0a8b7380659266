"""Positive-commutator checks for the dilation-type conjugate operator.

Assembles A = dGamma((v.y + y.v)/2) with a finite-difference position
operator y, evaluates the explicit commutator [iH(P), A], verifies the
virial theorem on the computed ground state, and sweeps the positivity
minimum over the coupling.
"""

import math

from nelsonlab import fock, model, mourre, spectral

disp = model.DispersionLaw("nonrel", mass=1.0)
sigma = 0.1
ff = model.FormFactor(1.0, 1.0, sigma)
grid = fock.line_grid(8, kmax=1.6, sigma=sigma)  # no modes below 2 sigma
basis = fock.build_basis(grid, n_max=2)
ms = model.ModelSpec(disp, ff, grid, g=0.05)

conj = mourre.build_conjugate(ms, basis)
print(f"position operator mesh: {conj.mesh}")
print(f"A Hermitian defect: {abs((conj.A - conj.A.conj().T).toarray()).max():.1e}")

# Virial theorem on the dressed state.
H = model.build_fiber_H(ms, [0.25], basis)
res = spectral.ground_state(H, k=2, tol=1e-12)
comm = mourre.commutator_iHA(ms, [0.25], basis, conj)
print(f"virial residual on psi_P: "
      f"{mourre.virial_residual(comm, res.ground_vector):.2e}")

# Positivity: r(phi) = <[iH,A]> - (1-beta)<N> stays nonnegative at g = 0;
# on this grid min_r rises with g, by an amount that grows as g^2.
C = model.quadrature_C(ff, grid)
mk = lambda gg: model.ModelSpec(disp, ff, grid, gg)
bf = lambda gg: math.sqrt(2.0 * (0.32 + gg * gg * C))
sweep = mourre.mourre_sweep(mk, [0.01, 0.02, 0.04, 0.08], [0.25], basis, 0.32, bf)
print(f"\nmin_r at g=0: {sweep['min_r0']:.4f} over a window of dimension "
      f"{sweep['window_dim']}")
print(" g      min_r     fitted C")
for g, min_r, c in sweep["rows"]:
    print(f"{g:5.2f}  {min_r:.6f}  {c:.4f}")
print(f"log-log slope of C(g) = |min_r(g) - min_r(0)|/g: {sweep['loglog_slope']:.3f} "
      "(1 means the shift goes as g^2)")
