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
"""

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


class GrLex:
    """Graded lexicographic: total degree first, then lex by precedence."""

    kind = "grlex"

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

    kind = "lex"

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

    kind = "block"

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
