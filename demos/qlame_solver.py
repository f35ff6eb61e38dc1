"""
Solving the q-difference spectral problem exactly
=================================================

The second-order q-difference operator built from the exchange matrix
has closed-form eigenfunctions.  This script builds the operator, the
wavefunctions by two independent routes, and checks the eigenvalue
equation, the spectral exclusions, and the pole cancellations, all in
exact arithmetic.
"""

from fractions import Fraction

from dynrmat import (
    energy,
    hamiltonian,
    lax_matrix,
    transfer_and_restrict,
    verify_relation,
    wavefunction,
)

# The operator at coupling j: a shift down plus a dressed shift up.  At
# j=0 the dressing disappears and the operator is the free one.
print("j=0 operator:", hamiltonian(0))
print("j=1 operator:", hamiltonian(1))

# Eigenfunctions: closed form (a terminating sum over poles) and the
# recursive route (intertwining up from the free solutions) agree.
j, k = 2, 3
psi_closed = wavefunction(j, k, method="closed")
psi_recur = wavefunction(j, k, method="recursive")
print("\npsi(j=2, k=3) =", psi_closed)
print("routes agree:", psi_closed == psi_recur)

# The eigenvalue is the free one: the dressing changes the operator and
# the eigenfunctions but not the spectrum.
h = hamiltonian(j)
print("eigen equation holds:", h.apply(psi_closed) == energy(k) * psi_closed)
print("energy(3) =", energy(3))

# Inside |k| <= j the candidate eigenfunctions vanish identically: the
# dressed operator keeps the free spectrum minus a finite window.
print(verify_relation("EXCLUSION", (2,)).line())

# The closed form is a sum of simple poles at x = +-q^-r whose residues
# cancel between neighboring terms; checked exactly.
print(verify_relation("RESIDUES", (2,)).line())

# The intertwining relation that generates the recursion.
for j_ in (1, 2, 3):
    print(verify_relation("INTERTWINING", (j_,)).line())

# The operator also arises as the trace of a 2x2 transfer matrix built
# from the exchange matrix with an auxiliary spin-1/2 leg.
L = lax_matrix(Fraction(1, 2))
print("\nLax matrix entries on the auxiliary leg:")
for (r, c), op in sorted(L.data.items()):
    print("  (%d,%d): %s" % (r, c, op))
print("transfer trace reproduces the operator:",
      transfer_and_restrict(1) == hamiltonian(1))

# Exchange relation for the Lax matrix, and the one-line summary check.
print(verify_relation("RLL", (Fraction(1, 2),)).line())
print(verify_relation("SPECTRAL_PROPERTIES", (1,)).line())
