"""Derived ideal operations: elimination, intersection, colon, dimension."""

import gc
import random

import pytest

from olmcheck.charts import Chart
from olmcheck.errors import EmptyVariety, InvalidDivisor
from olmcheck.fields import QQ, PrimeField
from olmcheck.ideals import Ideal, is_regular_element, krull_dimension, pure_power_free
from olmcheck.orders import GRLEX
from olmcheck.rings import Ring, cast
from oracles import random_poly


def _ring3(field=QQ):
    return Ring(["x", "y", "z"], field, GRLEX)


def test_eliminate_examples():
    R = Ring(["z", "y", "x"], QQ, GRLEX)
    z, y, x = R.gens()
    I = Ideal(R, [y - x**2, z - x**3])
    E = I.eliminate({"x"})
    assert set(E.ring.names) == {"z", "y"}
    zz, yy = E.ring.var("z"), E.ring.var("y")
    assert E.contains(zz**2 - yy**3)
    R2 = Ring(["x", "y"], QQ, GRLEX)
    I2 = Ideal(R2, [R2.var("x")])
    kept = I2.eliminate({"y"})
    assert [str(g) for g in kept.gens] == ["x"]
    gone = I2.eliminate({"x"})
    assert gone.gens == ()


def test_eliminate_every_variable():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    trivial = Ideal(R, [x, y]).eliminate({"x", "y"})
    assert trivial.gens == ()
    unit = Ideal(R, [x, y, x + 1]).eliminate({"x", "y"})
    assert len(unit.gens) == 1 and unit.gens[0].constant_term() == 1


def test_eliminate_output_avoids_dropped_variables():
    R = _ring3()
    x, y, z = R.gens()
    I = Ideal(R, [x * y - z**2, x + y + z])
    E = I.eliminate({"x"})
    for g in E.gens:
        assert "x" not in str(g)
        assert I.contains(cast(g, R))


def test_intersect_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert [str(g) for g in Ideal(R, [x]).intersect(Ideal(R, [y])).gens] == ["x*y"]
    same = Ideal(R, [x]).intersect(Ideal(R, [x]))
    assert same.equals(Ideal(R, [x]))
    # coprime principal ideals intersect in their product
    prod = Ideal(R, [x + y]).intersect(Ideal(R, [x - y]))
    assert prod.equals(Ideal(R, [x**2 - y**2]))


def test_intersect_membership_invariants():
    rng = random.Random(13)
    R = _ring3()
    for _ in range(15):
        f1, f2, g1 = (random_poly(R, rng, 2, 3) for _ in range(3))
        if f1.is_zero() or f2.is_zero() or g1.is_zero():
            continue
        I = Ideal(R, [f1, f2])
        J = Ideal(R, [g1])
        K = I.intersect(J)
        for h in K.gens:
            assert I.contains(h) and J.contains(h)
        # I cap J contains the pairwise products
        for a in I.gens:
            for b in J.gens:
                assert K.contains(a * b)


def test_quotient_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert Ideal(R, [x * y]).quotient(x).equals(Ideal(R, [y]))
    assert Ideal(R, [x]).quotient(x).equals(Ideal(R, [R.one()]))
    assert Ideal(R, [x**2, x * y]).quotient(x).equals(Ideal(R, [x, y]))
    with pytest.raises(InvalidDivisor):
        Ideal(R, [x]).quotient(R.zero())


def test_quotient_membership_invariants():
    R = _ring3()
    x, y, z = R.gens()
    I = Ideal(R, [x * y - z**2, y**2])
    f = y
    Q = I.quotient(f)
    for g in Q.gens:
        assert I.contains(g * f)
    for g in I.gens:
        assert Q.contains(g)  # I is always inside (I : f)


def test_ideals_equal_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert Ideal(R, [x, y]).equals(Ideal(R, [y, x]))
    assert not Ideal(R, [x]).equals(Ideal(R, [x**2]))
    assert Ideal(R, [x + y, x - y]).equals(Ideal(R, [x, y]))
    P = Ring(["x", "y"], PrimeField(7), GRLEX)
    assert Ideal(P, [P.var("x") + P.var("y"), P.var("x") - P.var("y")]).equals(
        Ideal(P, [P.var("x"), P.var("y")]))
    # generator-nested ideals: equal when the extra generators are members
    small = Ideal(R, [x**2 - y])
    assert Ideal(R, [x**3 - x * y, x**2 - y]).equals(small)
    big = Ideal(R, [x**2 - y, x * y])
    assert not big.equals(small) and not small.equals(big)


def test_krull_dimension_examples():
    R = _ring3()
    x, y, z = R.gens()
    assert Ideal(R, []).dimension() == 3
    R2 = Ring(["x", "y"], QQ, GRLEX)
    assert Ideal(R2, [R2.var("x") * R2.var("y")]).dimension() == 1
    assert Ideal(R2, [R2.var("x")]).dimension() == 1
    assert Ideal(R2, [R2.var("x"), R2.var("y")]).dimension() == 0
    with pytest.raises(EmptyVariety):
        krull_dimension(Ideal(R2, [R2.one()]))


def test_krull_dimension_leaves_no_cyclic_garbage():
    # the independent-set memo must be freed by reference counting alone;
    # a self-referencing recursive closure kept it until the cyclic GC ran
    ideal = Chart(8, 4, PrimeField(32003)).special_fiber_ideal()
    ideal.groebner()
    gc.collect()
    gc.disable()
    try:
        assert krull_dimension(ideal) == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_krull_dimension_monotone_under_inclusion():
    R = _ring3()
    x, y, z = R.gens()
    chains = [
        (Ideal(R, [x]), Ideal(R, [x, y * z])),
        (Ideal(R, [x * y]), Ideal(R, [x * y, z**2 - x])),
        (Ideal(R, [x + y + z]), Ideal(R, [x + y + z, x * y, y * z])),
    ]
    for small, big in chains:
        assert small.dimension() >= big.dimension()


def test_pure_power_free():
    R = Ring(["w1", "w2", "v1", "v2"], QQ, GRLEX)
    w1, w2, v1, v2 = R.gens()
    gb = Ideal(R, [w1 * v2 - w2 * v1]).groebner()
    assert pure_power_free(gb, "w1")
    gb2 = Ideal(R, [w1**2]).groebner()
    assert not pure_power_free(gb2, "w1")
    assert pure_power_free(gb2, "w2")


def test_is_regular_element():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert not is_regular_element(Ideal(R, [x * y]), x)
    assert is_regular_element(Ideal(R, [x]), y)


def test_regularity_implies_cancellation_spot_check():
    rng = random.Random(37)
    R = Ring(["x", "y", "z"], QQ, GRLEX)
    x, y, z = R.gens()
    I = Ideal(R, [x * y - z**2])
    f = x + y
    assert is_regular_element(I, f)
    gb = I.groebner()
    for _ in range(20):
        g = random_poly(R, rng, 2, 3)
        if gb.contains(g * f):
            assert gb.contains(g)
