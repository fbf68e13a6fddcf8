"""Exact coefficient fields: arbitrary-precision rationals and odd prime fields.

``RationalField`` (the instance ``QQ``) and ``PrimeField`` are lightweight
field descriptors.  Polynomials store raw coefficient values (``Fraction``
for the rationals, ``int`` residues in [0, p) for a prime field) and call the
descriptor for arithmetic, so the inner loops never pay for per-element
object dispatch.

Characteristic 2 is rejected everywhere: the chart equations divide by 2.
"""

from fractions import Fraction

from .errors import DivisionByZero


def _is_odd_prime(p):
    """Deterministic Miller-Rabin over the first twelve prime bases, exact
    for p < 2^64; larger p are refused."""
    if p < 3 or p % 2 == 0 or p >= 1 << 64:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (0, 1, p - 1):    # 0 only when p is the base a
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """Descriptor for Q with raw values stored as Fraction."""

    characteristic = 0

    def __repr__(self):
        return "QQ"

    def coerce(self, n):
        return Fraction(n)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in QQ")
        return 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def to_str(a):
        return str(a)

    def parse(self, text):
        return Fraction(text)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Descriptor for F_p, p an odd prime; raw values are ints in [0, p)."""

    def __init__(self, p):
        if not _is_odd_prime(p):
            raise ValueError("modulus must be an odd prime below 2^64, got %r"
                             % (p,))
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return "GF(%d)" % self.p

    def coerce(self, n):
        if isinstance(n, Fraction):
            return self.div(n.numerator % self.p, n.denominator % self.p)
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0 in F_%d" % self.p)
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    @staticmethod
    def is_zero(a):
        return a == 0

    def to_str(self, a):
        # Balanced representative keeps printed generators readable
        # (traces carry -1/2 style coefficients).
        return str(a if a <= self.p // 2 else a - self.p)

    def parse(self, text):
        if "/" in text:
            num, den = text.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def coefficient_field(modulus):
    """Field selector used by the CLI and verifier: 0 means Q, otherwise F_p."""
    if modulus == 0:
        return QQ
    return PrimeField(modulus)
