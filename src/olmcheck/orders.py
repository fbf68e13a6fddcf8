"""Monomial orders and the packed-exponent layout they induce.

Monomials are packed into a single Python int so that the active order is
plain integer comparison.  Each order contributes a layout: a sequence of
16-bit fields listed from most significant to least significant.  A field is
either the total degree of a block of variables or a single exponent, with
variables appearing in precedence order (earlier in the ring = greater).

With every field value below 2**15 (single exponents and block degrees
alike; the ring constructor enforces this), each field keeps a clear guard
bit, so

    m1 divides m2   iff   ((m2 - m1) & guard_mask) == 0

because any per-field underflow in the subtraction sets that field's guard
bit.  Products of monomials are integer additions, and an overflowing field
shows as a set guard bit in the sum; polynomial multiplication raises
ValueError on it.

The same guard bits give the per-field max of two words in a few word
operations (Monagan & Pearce, CASC 2007):

    ge  = ((m1 | guard_mask) - m2) & guard_mask   # guard set where m1 >= m2
    sel = ge - (ge >> 15)                         # 0x7fff in those fields
    max = m2 ^ ((m1 ^ m2) & sel)

The lcm takes this max over the exponent fields only and then refills each
degree field with the sum of its block's exponent fields.  As 2**16 is 1
modulo 2**16 - 1, that sum is the block's fields taken as one integer
modulo 2**16 - 1; it is exact because the lcm's block degree is at most
the sum of two valid block degrees, 2 * MAX_EXPONENT < 2**16 - 1.  A refilled
degree above MAX_EXPONENT raises ValueError.  Under grlex the degree is then
the top field, read with one shift.

Reduction adds a shift to every tail monomial of a basis element.  Under
grlex no field of the result can exceed the degree of the term being
reduced, but under lex and block orders it can.  Each basis element keeps a
tail hull, the per-field max of its tail monomials (degree fields
included), and a step tests ``(hull + shift) & guard_mask`` once: it is
nonzero exactly when some shifted tail monomial overflows a field, and the
reduction raises ValueError.  S-pairs and the textbook division test
their shifts the same way.

The support of a monomial is read in one addition.  With ``exp_guard`` the
guard bits of the exponent fields and ``low`` 0x7fff in each of those fields,

    support = (m + low) & exp_guard

has the guard bit of exactly the nonzero exponent fields set: a field value
v <= 0x7fff gives v + 0x7fff <= 0xfffe, which reaches the guard bit iff
v >= 1 and never carries into the next field.  The divisor index of
``groebner`` files and looks up monomials by these bits.
"""

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


class GrLex:
    """Graded lexicographic: total degree first, then lex by precedence."""

    def layout(self, nvars):
        return [("deg", 0, nvars)] + [("exp", i) for i in range(nvars)]

    def __repr__(self):
        return "grlex"

    def __eq__(self, other):
        return isinstance(other, GrLex)

    def __hash__(self):
        return hash("grlex")


class Lex:
    """Pure lexicographic by variable precedence."""

    def layout(self, nvars):
        return [("exp", i) for i in range(nvars)]

    def __repr__(self):
        return "lex"

    def __eq__(self, other):
        return isinstance(other, Lex)

    def __hash__(self):
        return hash("lex")


class Block:
    """Elimination order: lex between the two blocks, grlex inside each.

    The first ``k`` variables of the ring form the eliminated block; any
    monomial containing one of them dominates every monomial in the
    remaining variables.
    """

    def __init__(self, k):
        if k < 1:
            raise ValueError("block size must be >= 1")
        self.k = k

    def layout(self, nvars):
        if self.k >= nvars:
            raise ValueError("block order needs k < number of variables")
        head = [("deg", 0, self.k)] + [("exp", i) for i in range(self.k)]
        tail = [("deg", self.k, nvars)] + [("exp", i) for i in range(self.k, nvars)]
        return head + tail

    def __repr__(self):
        return "block(%d)" % self.k

    def __eq__(self, other):
        return isinstance(other, Block) and other.k == self.k

    def __hash__(self):
        return hash(("block", self.k))


GRLEX = GrLex()
LEX = Lex()


def order_from_name(name):
    """Parse an order name as used on the command line: grlex, lex, block:k."""
    if name == "grlex":
        return GRLEX
    if name == "lex":
        return LEX
    if name.startswith("block:"):
        return Block(int(name.split(":", 1)[1]))
    raise ValueError("unknown monomial order %r" % (name,))
