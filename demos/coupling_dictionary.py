"""
Coupling coefficients and the boundary dictionary
=================================================

The one-leg boundary matrix, the exchange matrix, and the twist all have
entrywise expressions in terms of q-deformed coupling coefficients when
the continuous parameter is traded for a large-spin label.  This script
evaluates the symbols, checks the dictionary, and watches the finite
coupling coefficient converge to its continuous limit numerically.
"""

from fractions import Fraction

from dynrmat import limit_three_j, m_element, six_j, three_j, verify_relation
from dynrmat.numeric import prelimit_three_j_num

half = Fraction(1, 2)
one = Fraction(1)

# A stretched coupling coefficient is normalized to 1.
print("3j (1/2 1/2 1; 1/2 1/2 1) =", three_j(half, half, one, half, half, one))

# A generic one carries square roots of q-integers.
print("3j (1/2 1/2 1; 1/2 -1/2 0) =", three_j(half, half, one, half, -half, Fraction(0)))

# The recoupling symbol for four spin-1/2 legs.
print("6j (1/2 1/2 1 / 1/2 1/2 1) =", six_j(half, half, one, half, half, one))

# The boundary matrix entry in closed form, as a function of x.
print("\nm_element(1/2, 1/2, 1/2) =", m_element(half, half, half))

# The same entry via the continuous limit of a coupling coefficient:
# two large legs are sent off to infinity with the ratio captured by x.
expr = limit_three_j(half, half, half)
print("as a coupling limit:", expr.reduce())

# The dictionary checks, exact on both sides.
for name, spins in [
    ("M_DICTIONARY", (half,)),
    ("M_DICTIONARY", (one,)),
    ("M_LIMIT_FORMULA", (half,)),
    ("R_DICTIONARY", (half, half)),
    ("F_DICTIONARY", (half, half)),
    ("RECOUPLING", (half, half, half)),
]:
    print(verify_relation(name, spins).line())

# Convergence of the finite symbol to its limit.  The second spin grows
# along mu while the evaluation point (q0, x0) stays fixed; the error
# should shrink geometrically.
q0, x0 = 0.7, 0.3
j, sigma, m = one, Fraction(0), Fraction(0)
target = limit_three_j(j, sigma, m).reduce().numeric_eval(q0, x0)
print("\nconvergence at (q0,x0)=(0.7,0.3), j=1 sigma=0 m=0:")
print("  limit value  %s" % target)
for mu in (10, 20, 30, 40):
    pre = prelimit_three_j_num(j, sigma, m, mu, q0, x0)
    print("  mu=%-3d  error %.3e" % (mu, abs(pre - target) / abs(target)))
