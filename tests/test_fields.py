"""Coefficient field tests: exact rationals and odd prime fields."""

import random
import time
from fractions import Fraction

import pytest

from olmcheck.errors import DivisionByZero
from olmcheck.fields import QQ, PrimeField, _is_odd_prime, coefficient_field
from oracles import inverse_mod


def test_rational_ops_exact():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert 1 / Fraction(-2, 3) == Fraction(-3, 2)
    assert Fraction(2, 4) == Fraction(1, 2)


def test_rational_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))


def test_rational_canonical_form():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randrange(-30, 31), rng.randrange(1, 30))
        b = Fraction(rng.randrange(-30, 31), rng.randrange(1, 30))
        for v in (a + b, a - b, a * b):
            from math import gcd
            assert gcd(abs(v.numerator), v.denominator) == 1
            assert v.denominator > 0


def test_primefield_inverse_matches_euclid_oracle():
    for p in (5, 7, 11, 32003):
        F = PrimeField(p)
        for a in (1, 2, 3, p - 1, 1234 % p or 1):
            assert F.inv(a) == inverse_mod(a, p)
    assert PrimeField(5).inv(2) == 3


def test_primefield_basic_residues():
    F = PrimeField(5)
    assert F.add(4, 3) == 2
    assert F.mul(4, 3) == 2
    assert F.neg(4) == 1
    assert F.div(4, 3) == 4 * inverse_mod(3, 5) % 5


def test_primefield_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        PrimeField(5).inv(0)


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_primality_is_exact_below_2_64():
    def trial(n):
        return n > 2 and n % 2 == 1 and \
            all(n % f for f in range(3, int(n ** 0.5) + 1, 2))
    assert [p for p in range(3000) if _is_odd_prime(p)] == \
        [p for p in range(3000) if trial(p)]
    t0 = time.monotonic()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.monotonic() - t0 < 0.1
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7, and
    # a modulus past the range where the bases are exact
    for n in (561, 3215031751, 2 ** 64 + 13):
        with pytest.raises(ValueError, match="odd prime"):
            PrimeField(n)


def test_half_exists_everywhere():
    # the chart relations divide by 2 throughout
    for field in (QQ, PrimeField(3), PrimeField(5), PrimeField(32003)):
        half = field.div(field.one, field.coerce(2))
        assert field.mul(half, field.coerce(2)) == field.one


def test_field_axioms_random_sampling():
    rng = random.Random(41)
    fields = [QQ, PrimeField(7), PrimeField(32003)]
    for field in fields:
        def rand():
            if field.characteristic == 0:
                return Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
            return rng.randrange(field.characteristic)
        for _ in range(150):
            a, b, c = rand(), rand(), rand()
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == \
                field.add(field.mul(a, b), field.mul(a, c))
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one


def test_coefficient_field_selector():
    assert coefficient_field(0) is QQ
    assert coefficient_field(32003).characteristic == 32003
    with pytest.raises(ValueError):
        coefficient_field(4)
