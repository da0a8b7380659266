"""Second-quantization operator algebra on a truncated boson basis.

Walks through the elementary constructions: a weighted mode grid, the
occupation basis, ladder/field operators and the functor maps, verifying a
few of their exact identities along the way.
"""

import numpy as np
import scipy.sparse as sp

from nelsonlab import fock

# A 4-mode symmetric midpoint grid on [-1, 1] with infrared scale 0.2.
grid = fock.line_grid(4, kmax=1.0, sigma=0.2)
print("modes:", grid.points.ravel())
print("weights:", grid.weights)
print("modified dispersion:", np.round(grid.omega_mod, 4))

# All occupation states with at most three bosons: binomial(4+3, 3) = 35.
basis = fock.build_basis(grid, n_max=3)
print(f"\nbasis size: {basis.size}")
print("first mode tuples, padded with M = 4:")
print(basis.modes[:5])

# Smeared ladder operators and the canonical commutator, as scipy CSR matrices.
# Identities that create a boson hold exactly on the guarded sector N <= n_max - 1,
# whose states are the columns the identities are read on.
rng = np.random.default_rng(1)
g = rng.normal(size=4) + 1j * rng.normal(size=4)
h = rng.normal(size=4) + 1j * rng.normal(size=4)
a_g = fock.creation_op(basis, g).conj().T
c_h = fock.creation_op(basis, h)
guard = basis.total_numbers() <= basis.n_max - 1
ccr = ((a_g @ c_h) - (c_h @ a_g)
       - fock.weighted_inner(grid, g, h) * sp.identity(basis.size)).toarray()[:, guard]
print(f"\nCCR defect on the guarded sector: {abs(ccr).max():.2e}")

# The multiplicative functor intertwines creation operators: Gb a*(h) = a*(bh) Gb.
# Gamma fills every sector it maps and comes back as a dense array.
b = rng.normal(size=(4, 4))
Gb = fock.Gamma(basis, b)
lhs = (Gb @ c_h.toarray())[:, guard]
rhs = (fock.creation_op(basis, b @ h).toarray() @ Gb)[:, guard]
print(f"Gamma intertwining defect: {abs(lhs - rhs).max():.2e}")

# The additive functor recovers the number operator from the identity.
N = fock.dGamma(basis, np.ones(4))
print(f"dGamma(1) = N defect: {abs((N - fock.number_op(basis)).toarray()).max():.1e}")

# Field operators are exactly Hermitian and have vanishing vacuum mean.
phi = fock.field_op(basis, h)
vac = fock.FockVector.vacuum(basis).amps
print(f"phi Hermitian defect: {abs((phi - phi.conj().T).toarray()).max():.1e}, "
      f"vacuum mean: {abs(np.vdot(vac, phi @ vac)):.1e}")
