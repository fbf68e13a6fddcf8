"""Derived ideal operations: intersection, colon, dimension."""

import gc
import random

import pytest

from olmcheck import ideals
from olmcheck.charts import Chart
from olmcheck.errors import BudgetExceeded, EmptyVariety, InvalidDivisor
from olmcheck.fields import QQ, PrimeField
from olmcheck.groebner import Budget, GroebnerBasis, buchberger
from olmcheck.ideals import (Ideal, hilbert_numerator, ideal_sum,
                             intersection_numerator, krull_dimension,
                             pure_power_free)
from olmcheck.orders import GRLEX, Block
from olmcheck.rings import Ring
from olmcheck.verify import DEFAULT_SUITE, EngineConfig, verify_check
from oracles import independent_set_dimension, is_regular_element, random_poly


def _ring3(field=QQ):
    return Ring(["x", "y", "z"], field, GRLEX)


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


def test_hilbert_numerator_textbook_examples():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert hilbert_numerator(Ideal(R, [])) == [1]
    assert hilbert_numerator(Ideal(R, [R.one()])) == []
    assert hilbert_numerator(Ideal(R, [x * y])) == [1, 0, -1]
    assert hilbert_numerator(Ideal(R, [x**2, x * y])) == [1, 0, -2, 1]
    # the twisted cubic: the numerator of its grlex leading ideal
    C = Ring(["a", "b", "c", "d"], QQ, GRLEX)
    a, b, c, d = C.gens()
    cubic = Ideal(C, [a * c - b**2, a * d - b * c, b * d - c**2])
    assert hilbert_numerator(cubic) == [1, 0, -3, 2]
    assert krull_dimension(cubic) == 2
    # k[x, pi]/(x^2 + pi) with pi of weight 2
    W = Ring(["x", "pi"], QQ, GRLEX)
    assert hilbert_numerator(Ideal(W, [W.var("x")**2 + W.var("pi")]),
                             (1, 2)) == [1, 0, -1]


def test_hilbert_numerator_is_kept_on_the_ideal(monkeypatch):
    import olmcheck.ideals as imod
    ideal = Chart(6, 2, PrimeField(32003)).special_fiber_ideal()
    unit = hilbert_numerator(ideal)
    weighted = hilbert_numerator(ideal, [2] + [1] * (ideal.ring.nvars - 1))
    assert weighted != unit
    unit.append(99)     # the caller's list is its own

    def refuse(*args):
        raise AssertionError("recomputed a kept numerator")

    monkeypatch.setattr(imod, "_numerator", refuse)
    monkeypatch.setattr(imod, "buchberger", refuse)
    assert hilbert_numerator(ideal) == unit[:-1]
    assert hilbert_numerator(ideal, (1,) * ideal.ring.nvars) == unit[:-1]
    assert hilbert_numerator(
        ideal, (2,) + (1,) * (ideal.ring.nvars - 1)) == weighted
    assert krull_dimension(ideal) == 4
    # a fresh ideal on the same generators keeps nothing yet
    with pytest.raises(AssertionError, match="recomputed"):
        hilbert_numerator(Ideal(ideal.ring, ideal.gens))


def test_intersection_numerator_matches_the_intersection():
    # N(a) + N(b) - N(a + b) against the numerator of a.intersect(b)
    R = Ring(["x", "y", "z"], QQ, GRLEX)
    x, y, z = R.gens()
    pairs = [([x], [y]), ([x, y], [y, z]), ([x**2 - y * z], [x, z]),
             ([x * y], [x * y]), ([x], [R.one()])]
    for ga, gb in pairs:
        a, b = Ideal(R, ga), Ideal(R, gb)
        assert intersection_numerator(a, b) == \
            hilbert_numerator(a.intersect(b)), (ga, gb)
    assert intersection_numerator(Ideal(R, [x]), Ideal(R, [y])) == [1, 0, -1]
    with pytest.raises(ValueError):
        intersection_numerator(Ideal(R, [x]), Ideal(_ring3(), []))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_krull_dimension_matches_independent_sets(field):
    rng = random.Random(13)
    seen = 0
    for _ in range(100):
        n = rng.randrange(1, 7)
        order = Block(rng.randrange(1, n)) if n > 1 and rng.random() < 0.5 \
            else GRLEX
        R = Ring(["x%d" % i for i in range(n)], field, order)
        gens = [random_poly(R, rng, 3, 3) for _ in range(rng.randrange(1, 4))]
        ideal = Ideal(R, gens)
        want = independent_set_dimension(R, ideal.groebner().lead_monomials())
        if want is None:
            with pytest.raises(EmptyVariety):
                krull_dimension(ideal)
        else:
            assert krull_dimension(ideal) == want
            seen += 1
    assert seen > 50


@pytest.mark.parametrize("d, l", DEFAULT_SUITE)
def test_special_fiber_numerator_matches_the_dimensions_check(d, l):
    nums = []
    for modulus in (0, 32003):
        c = Chart(d, l, PrimeField(modulus) if modulus else QQ)
        assert verify_check("dimensions", c,
                            EngineConfig(modulus=modulus)).status == "pass"
        num = hilbert_numerator(c.special_fiber_ideal())
        # (1 - t)^c divides N for the codimension c, and no higher power
        for _ in range(c.fiber_ring.nvars - (d - 2)):
            assert sum(num) == 0
            num = [sum(num[:i + 1]) for i in range(len(num) - 1)]
        assert sum(num) > 0
        nums.append(num)
    assert nums[0] == nums[1]


def test_krull_dimension_meets_the_deadline():
    # with the basis cached, only the numerator recursion is left to stop
    c = Chart(6, 2, PrimeField(32003))
    c.special_fiber_ideal().groebner()
    spent = Budget(seconds=1.0)
    spent._t0 -= 2.0
    with pytest.raises(BudgetExceeded, match="time budget"):
        krull_dimension(c.special_fiber_ideal(), spent)
    res = verify_check("dimensions", c, EngineConfig(modulus=32003, timeout=1e-9))
    assert res.status == "timeout"


def test_krull_dimension_leaves_no_cyclic_garbage():
    # the numerator recursion is a plain function of its arguments, so
    # everything it builds is freed by reference counting alone
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


def _reduced_tampers(c):
    """Four tamperings of the chart's I'', by name.  All but the last are
    homogeneous with pi of weight 2."""
    rr = c.reduced_ring
    pi, x = rr.var("pi"), rr.var(rr.names[0])
    gens = c.reduced_ideal().gens
    trace = lambda f: [g if "pi" not in str(g) else f(g) for g in gens]
    return {"pi*t": trace(lambda g: g * pi),
            "no trace": [g for g in gens if "pi" not in str(g)],
            "+ pi": gens + (pi,),
            "+ x": trace(lambda g: g + x)}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_fiber_bases_match_buchberger(field, monkeypatch):
    # both fibers of I'' on every chart with 5 <= d <= 9, and of four
    # tamperings on a few; only the inhomogeneous "+ x" runs Buchberger on
    # a fiber's generators
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(gens)
                        or buchberger(gens, budget))
    charts = [Chart(d, l, field) for d in range(5, 10) for l in range(2, d - 1)]
    cases = [(c, "I''", c.reduced_ideal().gens) for c in charts]
    for c in charts[:4]:
        cases += [(c, name, gens) for name, gens in _reduced_tampers(c).items()]
    for c, name, gens in cases:
        source = Ideal(c.reduced_ring, gens)
        for fiber in ("special", "generic"):
            ideal = c.specialize(source, fiber)
            runs.clear()
            assert ideal.groebner() == buchberger(ideal.gens), \
                (c.d, c.l, name, fiber)
            assert (ideal.gens in runs) == (name == "+ x"), (name, fiber)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)],
                         ids=repr)
def test_seeded_bases_match_runs_from_scratch(field, monkeypatch):
    # on every chart with 5 <= d <= 9: I'' over M'', every quadric
    # component over the special minors and the J + I_m of
    # intersection_numerator over J and I_m each take one seeded run, whose
    # basis is the run from the ideal's generators
    seeded = []

    def run(gens, budget=None):
        gb = buchberger(gens, budget)
        if any(isinstance(g, GroebnerBasis) for g in gens):
            seeded.append(gb)
        return gb

    monkeypatch.setattr(ideals, "buchberger", run)
    for d in range(5, 10):
        for l in range(2, d - 1):
            c = Chart(d, l, field)
            comps = [ideal for _, ideal, _ in c.component_ideals()]
            for ideal in [c.reduced_ideal()] + comps:
                seeded.clear()
                gb = ideal.groebner()
                assert seeded == ([gb] if ideal._summands else []), (d, l)
                assert gb == buchberger(ideal.gens), (d, l)
            assert c.reduced_ideal()._summands and comps[-1]._summands
            *head, last = comps
            meet = head[0]
            if len(head) == 2:
                meet = Ideal(c.fiber_ring, [g * h for g in head[0].groebner()
                                            for h in head[1].groebner()])
            meet.groebner()
            seeded.clear()
            intersection_numerator(meet, last)
            assert len(seeded) == 1, (d, l)
            assert seeded[0] == buchberger(meet.gens + last.gens), (d, l)


def test_ideal_sum_lists_others_then_summands(monkeypatch):
    # the other generators come first, then each summand's in turn; the
    # one seeded run takes exactly the summands' bases as known blocks, in
    # order, and the other generators as its loose ones
    R = _ring3()
    x, y, z = R.gens()
    m = Ideal(R, [x * y, y * z])
    n = Ideal(R, [z**2, x**3])
    s = ideal_sum(R, [m, n], [x - z, y * z])
    assert s.gens == (x - z, y * z, x * y, y * z, z**2, x**3)
    assert s._summands == ((m, n), (x - z, y * z))
    blocks = [m.groebner(), n.groebner()]
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(list(gens))
                        or buchberger(gens, budget))
    gb = s.groebner()
    assert len(runs) == 1
    seeded = [g for g in runs[0] if isinstance(g, GroebnerBasis)]
    assert len(seeded) == 2 and all(a is b for a, b in zip(seeded, blocks))
    assert runs[0][2:] == [x - z, y * z]
    assert gb == buchberger(s.gens)
    # with no other generator the sum lists the summands' generators alone
    assert ideal_sum(R, [m, n], ()).gens == m.gens + n.gens
    # a summand from another ring is refused
    with pytest.raises(ValueError, match="different ring"):
        ideal_sum(_ring3(), [m], [x])
