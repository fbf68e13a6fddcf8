"""Polynomial ring tests: orders, packed monomials, arithmetic, maps, text."""

import random
from fractions import Fraction

import pytest

from olmcheck.errors import MissingImage, TableMismatch
from olmcheck.fields import QQ, PrimeField
from olmcheck.orders import GRLEX, LEX, Block
from olmcheck.rings import Ring, cast, parse_polynomial, specialize_pi
from oracles import random_poly


def _mono(ring, **exps):
    return ring.monomial(exps)


def test_grlex_compare_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x2 = _mono(R, x=2)
    xy = _mono(R, x=1, y=1)
    y2 = _mono(R, y=2)
    x = _mono(R, x=1)
    # the order is plain comparison of the packed ints
    assert x2 > xy
    assert xy > y2
    assert y2 > x  # degree dominates


def test_lex_vs_grlex():
    R = Ring(["x", "y"], QQ, LEX)
    x = _mono(R, x=1)
    y3 = _mono(R, y=3)
    assert x > y3  # lex ignores degree


def test_block_order_eliminates_first_block():
    R = Ring(["t", "x", "y"], QQ, Block(1))
    t = _mono(R, t=1)
    x5y5 = _mono(R, x=5, y=5)
    assert t > x5y5  # any t beats every t-free monomial


def test_order_axioms_random():
    rng = random.Random(11)
    for order in (GRLEX, LEX, Block(2)):
        R = Ring(["a", "b", "c", "d"], QQ, order)
        monos = []
        for _ in range(80):
            exps = [rng.randrange(0, 5) for _ in range(4)]
            monos.append((R.monomial(exps), tuple(exps)))
        for (m1, e1) in monos:
            for (m2, e2) in monos:
                # a total order on exponent vectors: equal ints exactly for
                # equal exponents
                assert (m1 == m2) == (e1 == e2)
                # divisibility implies <=
                if all(a <= b for a, b in zip(e1, e2)):
                    assert R.mono_divides(m1, m2)
                    assert m1 <= m2
                else:
                    assert not R.mono_divides(m1, m2)
        # multiplicative: m1 < m2 => m1*m < m2*m
        for _ in range(200):
            (m1, e1), (m2, e2), (m, _) = (rng.choice(monos) for _ in range(3))
            if m1 < m2:
                assert m1 + m < m2 + m


def test_packed_divisibility_near_field_bounds():
    from olmcheck.orders import MAX_EXPONENT
    R = Ring(["a", "b"], QQ, LEX)     # lex has no degree field to overflow
    m1 = R.monomial([MAX_EXPONENT - 1, 0])
    m2 = R.monomial([MAX_EXPONENT, 0])
    m3 = R.monomial([0, MAX_EXPONENT])
    assert R.mono_divides(m1, m2)
    assert not R.mono_divides(m2, m1)
    assert not R.mono_divides(m1, m3)
    G = Ring(["a", "b"], QQ, GRLEX)
    with pytest.raises(ValueError):
        G.monomial([MAX_EXPONENT, MAX_EXPONENT])  # degree field would overflow


def test_exponent_overflow_raises():
    from olmcheck.ideals import Ideal
    from olmcheck.orders import MAX_EXPONENT
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert Ideal(R, [x]).contains(x**MAX_EXPONENT)
    # unchecked, these wrap into the neighbouring field: a false non-member
    # and a power printed as x^4464
    with pytest.raises(ValueError, match="overflows"):
        Ideal(R, [x]).contains(x**40000)
    with pytest.raises(ValueError, match="overflows"):
        str(x**70000)
    with pytest.raises(ValueError, match="overflows"):
        x**20000 * (x**20000 + y)


def test_packed_lcm_and_degree():
    R = Ring(["a", "b", "c"], QQ, GRLEX)
    m1 = R.monomial([3, 0, 1])
    m2 = R.monomial([1, 2, 1])
    lcm = R.mono_lcm(m1, m2)
    assert R.exponents(lcm) == (3, 2, 1)
    assert R.mono_degree(lcm) == 6
    assert R.mono_degree(m1 + m2) == 8  # product adds degrees


def _random_exponents(rng, nvars):
    """Exponent vectors that are mostly small, sometimes near the field cap."""
    from olmcheck.orders import MAX_EXPONENT
    kind = rng.randrange(3)
    if kind == 0:
        return [rng.randint(0, 3) for _ in range(nvars)]
    if kind == 1 and nvars:
        # one or two large exponents whose sum is near MAX_EXPONENT
        vec = [0] * nvars
        total = rng.randint(MAX_EXPONENT // 2, MAX_EXPONENT)
        first = rng.randint(0, total)
        vec[rng.randrange(nvars)] += first
        vec[rng.randrange(nvars)] += total - first
        return vec
    return [rng.choice([0, MAX_EXPONENT, MAX_EXPONENT - 1, MAX_EXPONENT // 2,
                        rng.randint(0, MAX_EXPONENT)]) for _ in range(nvars)]


@pytest.mark.parametrize("nvars,order", [
    (0, GRLEX), (0, LEX), (1, GRLEX), (4, GRLEX), (37, GRLEX), (4, LEX),
    (3, Block(1)), (6, Block(1)), (6, Block(3)), (6, Block(5))])
def test_packed_lcm_and_degree_match_exponent_vectors(nvars, order):
    rng = random.Random(nvars * 31 + len(repr(order)))
    R = Ring(["v%d" % i for i in range(nvars)], QQ, order)
    raised = 0
    for _ in range(400):
        e1, e2 = _random_exponents(rng, nvars), _random_exponents(rng, nvars)
        try:
            m1, m2 = R.monomial(e1), R.monomial(e2)
        except ValueError:
            continue
        assert R.mono_degree(m1) == sum(e1)
        assert R.mono_degree(m2) == sum(e2)
        top = [max(a, b) for a, b in zip(e1, e2)]
        try:
            want = R.monomial(top)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="overflows"):
                R.mono_lcm(m1, m2)
            continue
        assert R.mono_lcm(m1, m2) == want
        assert R.mono_lcm(m2, m1) == want
    if order != LEX and nvars > 1:
        assert raised       # the overflow branch was exercised


def test_poly_arith_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert (x + y) * (x - y) == x**2 - y**2
    f = 3 * x * y + x - 2
    assert (f + (-f)).is_zero()
    assert (x + 2 * y).scale(Fraction(1, 2)) == x.scale(Fraction(1, 2)) + y


def test_ring_axioms_random():
    rng = random.Random(5)
    for field in (QQ, PrimeField(7)):
        R = Ring(["x", "y", "z"], field, GRLEX)
        for _ in range(60):
            f = random_poly(R, rng)
            g = random_poly(R, rng)
            h = random_poly(R, rng)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)


def test_table_mismatch_raises():
    R1 = Ring(["x", "y"], QQ, GRLEX)
    R2 = Ring(["x", "y"], QQ, GRLEX)
    with pytest.raises(TableMismatch):
        R1.var("x") + R2.var("x")
    with pytest.raises(TableMismatch):
        R1.var("x") * R2.var("y")


def test_homomorphism_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    T = Ring(["y"], QQ, GRLEX)
    ty = T.var("y")
    img = (x**2).substitute({"x": ty + 1, "y": ty}, T)
    assert img == ty**2 + ty.scale(2) + 1
    ident = (x * y + 2).substitute({"x": x, "y": y}, R)
    assert ident == x * y + 2
    assert (x * y).substitute({"x": T.zero(), "y": ty}, T).is_zero()


def test_homomorphism_multiplicative_random():
    rng = random.Random(23)
    R = Ring(["x", "y"], QQ, GRLEX)
    T = Ring(["u", "v"], QQ, GRLEX)
    images = {"x": T.var("u") + T.var("v"), "y": T.var("u") * T.var("v") - 1}
    for _ in range(40):
        f = random_poly(R, rng)
        g = random_poly(R, rng)
        assert (f * g).substitute(images, T) == \
            f.substitute(images, T) * g.substitute(images, T)
        assert (f + g).substitute(images, T) == \
            f.substitute(images, T) + g.substitute(images, T)


def test_homomorphism_missing_image():
    R = Ring(["x", "y"], QQ, GRLEX)
    with pytest.raises(MissingImage):
        (R.var("x") * R.var("y")).substitute({"x": R.var("x")}, R)


def test_specialize_pi_examples():
    for order in (GRLEX, LEX, Block(1)):
        R = Ring(["x", "y", "pi"], QQ, order)
        T = Ring(["x", "y"], QQ, order)
        f = R.parse("x*pi^2 - x + y^2*pi + 3*y + pi")
        assert specialize_pi(f, 0, T) == T.parse("-x + 3*y")
        # x*pi^2 and -x cancel at pi = 1
        assert specialize_pi(f, 1, T) == T.parse("y^2 + 3*y + 1")
    R = Ring(["x", "pi"], QQ, GRLEX)
    f = R.parse("x + pi")
    with pytest.raises(ValueError):
        specialize_pi(f, 2, Ring(["x"], QQ, GRLEX))
    for bad in (Ring(["x"], QQ, LEX), Ring(["y"], QQ, GRLEX),
                Ring(["x"], PrimeField(7), GRLEX), R):
        with pytest.raises(TableMismatch):
            specialize_pi(f, 0, bad)


def test_pi_must_be_last():
    with pytest.raises(ValueError):
        Ring(["pi", "x[1][1]"], QQ, GRLEX)


def test_parse_and_format_round_trip():
    R = Ring(["x[3][1]", "x[4][1]", "x[6][1]", "pi"], QQ, GRLEX)
    text = "2*x[3][1]*x[4][1] + 2*x[6][1]"
    f = R.parse(text)
    assert str(f) == text
    assert R.parse(str(f)) == f
    g = R.parse("-1/2*x[3][1]^2 + pi - 3")
    assert R.parse(str(g)) == g
    assert str(R.zero()) == "0"


def test_parse_rejects_garbage():
    R = Ring(["x", "y"], QQ, GRLEX)
    for bad in ("x +", "* x", "x ^", "2 ** x", "x[1]", ""):
        with pytest.raises(ValueError):
            parse_polynomial(R, bad)


def test_parse_rejects_zero_denominator():
    # a denominator that is zero in the field is malformed input
    cases = ((QQ, "x + 1/0"), (PrimeField(7), "x + 1/0"),
             (PrimeField(7), "x - 1/7"), (PrimeField(7), "2/14*y"))
    for field, bad in cases:
        R = Ring(["x", "y"], field, GRLEX)
        with pytest.raises(ValueError, match="zero denominator"):
            R.parse(bad)


def test_parse_round_trip_random():
    rng = random.Random(3)
    R = Ring(["x[1][1]", "x[1][2]", "x[2][1]", "pi"], QQ, GRLEX)
    for _ in range(60):
        f = random_poly(R, rng)
        assert R.parse(str(f)) == f
    P = Ring(["x[1][1]", "x[1][2]", "pi"], PrimeField(7), GRLEX)
    for _ in range(60):
        f = random_poly(P, rng)
        assert P.parse(str(f)) == f


def test_cast_between_rings():
    R = Ring(["x", "y", "z"], QQ, GRLEX)
    S = Ring(["w", "x", "y", "z"], QQ, LEX)
    f = R.var("x") * R.var("y") - 2
    g = cast(f, S)
    assert str(g) == str(f)
    assert cast(g, R) == f
    # block-order and prime-field targets, on a 35-term polynomial checked
    # term for term against the homomorphism sending each name to itself
    for field, order in ((QQ, Block(2)), (PrimeField(7), GRLEX),
                         (PrimeField(7), Block(2))):
        A = Ring(["x", "y", "z"], field, GRLEX)
        B = Ring(["w", "x", "y", "z"], field, order)
        x, y, z = A.gens()
        h = (x - 2 * y + z.scale(Fraction(1, 3)) + 1) ** 4
        assert len(h) >= 30
        ref = h.substitute({nm: B.var(nm) for nm in A.names}, B)
        assert cast(h, B).terms() == ref.terms()
        assert cast(cast(h, B), A) == h
    # coefficients are coerced into the target field; 7 vanishes in F_7
    P = Ring(["x", "y"], PrimeField(7), GRLEX)
    assert cast(R.parse("7*x + 1/2*y"), P) == P.parse("4*y")
    # a target may lack a variable f does not use, but not one it uses
    T = Ring(["x", "y"], QQ, LEX)
    assert cast(f, T) == T.parse("x*y - 2")
    with pytest.raises(KeyError):
        cast(R.var("z") + 1, T)
