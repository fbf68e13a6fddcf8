"""Tour of the exact Groebner engine.

Build a few polynomials over Q and F_32003, compute reduced bases, decide
ideal membership and read normal forms off a basis.
"""

from fractions import Fraction

from olmcheck import GRLEX, LEX, QQ, PrimeField, Ring, buchberger

# The twisted cubic: eliminate the parameter by a lex basis.
T = Ring(["z", "y", "x"], QQ, LEX)
z, y, x = T.gens()
gb = buchberger([y - x**2, z - x**3])
print("reduced basis of the twisted cubic ideal (lex z > y > x):")
for p in gb:
    print("  ", p)
print("x*z - y^2 is a member:", gb.contains(x * z - y**2))
print("x alone is a member  :", gb.contains(x))
print("normal form of y*z   :", gb.normal_form(y * z))

# One ideal over both fields.  Modulo (x^2 - y, y^2 - 2) every polynomial
# has a unique remainder: x^4 and x^2 y both reduce to 2, so their sum over 3
# to 4/3, and x^3/3 to x y/3; over F_32003 the thirds are residues.
for field in (QQ, PrimeField(32003)):
    G = Ring(["x", "y"], field, GRLEX)
    x, y = G.gens()
    third = Fraction(1, 3)
    gb = buchberger([x**2 - y, y**2 - 2])
    print("\nover %r, grlex x > y: basis %s" % (field, [str(p) for p in gb]))
    print("  normal form of x^4/3 + x^2*y/3:",
          gb.normal_form((x**4 + x**2 * y).scale(third)))
    print("  normal form of x^3/3          :", gb.normal_form((x**3).scale(third)))
    print("  x^4 - 2 is a member           :", gb.contains(x**4 - 2))
