"""Exact evaluation walkthrough.

Computes v(alpha) at a few weight vectors, shows the per-graph term
breakdown, and converts to the normalized volume.  Everything before the
final float conversion is exact rational arithmetic.
"""

from fractions import Fraction

from flatvol import WeightVector, evaluate, volhat

# the smallest stable shape: genus 0 with three markings, v is constant 1
w = WeightVector(0, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
print("g=0 n=3:", evaluate(w).value)

# four markings: piecewise polynomial, chambers cut by pair-sum walls
for entries in [
    ("1/2", "1/2", "1/2", "1/2"),
    ("9/10", "3/10", "1/2", "3/10"),
    ("1/4", "1/4", "3/4", "3/4"),
]:
    w = WeightVector(0, tuple(Fraction(e) for e in entries))
    fv = evaluate(w)
    print(f"g=0 n=4 at {entries}: v = {fv.value}")

# the distinguished marking is a computational device, not part of the
# answer: any choice gives the same value
w = WeightVector(1, (Fraction(5, 4), Fraction(5, 4), Fraction(1, 2)))
print("\ng=1 n=3 at (5/4, 5/4, 1/2):")
for i0 in (1, 2, 3):
    print(f"  i0={i0}: v = {evaluate(w, i0=i0).value}")

# term breakdown: one row per root star graph, the sum of its nested trees
fv = evaluate(WeightVector(1, (Fraction(1, 2), Fraction(3, 2))))
print("\ng=1 n=2 at (1/2, 3/2): v =", fv.value)
for label, val in fv.terms:
    print(f"  {str(val):>8} : {label}")

# normalized volume: (2 pi)^m / (m! q(alpha)) * v(alpha), m = 2g-2+n
w = WeightVector(0, (Fraction(1, 2),) * 4)
print("\nvolhat(1/2,1/2,1/2,1/2) =", volhat(w), "(pi^2/4 =", 3.141592653589793**2 / 4, ")")

# integer entries sit on walls: v vanishes there and volhat is undefined
wall = WeightVector(1, (Fraction(1), Fraction(1)))
print("\nat the wall (1,1): v =", evaluate(wall).value)
try:
    volhat(wall)
except ValueError as exc:
    print("volhat refuses:", exc)
