"""Kernel series, normalization factors, and the convention matrix.

The central-vertex weight is a polynomial extracted from the series
S(z) = sinh(z/2) / (z/2).  Two binary conventions (S-power exponent,
sign handling) give four candidate engines; the validation matrix shows
only the shipped default survives the cross-check battery.
"""

from fractions import Fraction

from flatvol import (
    ConventionFlags,
    MultiPoly,
    aab_table,
    det_factor_forms,
    fresh_var,
    kernel_A,
    q_factor,
    run_validation,
    series_S,
)

print("S(z) coefficients through z^6:")
print("  ", [str(c) for c in series_S(6).coeffs])

# genus-1 kernel with two formal slots, distinguished slot first
a1, a2 = fresh_var("d4a1"), fresh_var("d4a2")
p1, p2 = MultiPoly.variable(a1), MultiPoly.variable(a2)
for conv in (ConventionFlags("shifted", "prefactor"), ConventionFlags("printed", "printed")):
    body = kernel_A(1, (p1, p2), 0, conv)
    print(f"kernel g=1 ({conv.s_exponent} exponent): {body!r}")

# power-locus coefficients, solved from a triangular series identity
table = aab_table(3)
print("\npower-locus coefficients:")
for g in (1, 2, 3):
    print(f"  a_{g} = {table.a(g)}   (residual {table.residual(g)})")

# trigonometric normalization: q and the two routes to the determinant
entries = (Fraction(1, 2),) * 4
print("\nq(1/2,1/2,1/2,1/2) =", q_factor(0, entries))
sym, closed = det_factor_forms(0, entries)
print("determinant factor, symmetric route:", sym, " closed route:", closed)

print("\nconvention matrix:")
print(run_validation().render())
