"""Derived ideal operations: intersection, colon, dimension."""

import gc
import itertools
import random

import pytest

from olmcheck import ideals
from olmcheck.charts import Chart
from olmcheck.errors import BudgetExceeded, EmptyVariety, InvalidDivisor
from olmcheck.fields import QQ, PrimeField
from olmcheck.groebner import (Budget, GroebnerBasis, buchberger,
                               reduce_basis)
from olmcheck.ideals import (Ideal, dimension_and_degree, hilbert_numerator,
                             ideal_sum, krull_dimension)
from olmcheck.orders import GRLEX, Block
from olmcheck.rings import Ring, cast, specialize_pi
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


def _sum_numerator(a, b):
    """N(a) + N(b) - N(a + b), unit weights, trailing zeros trimmed."""
    out = [x + y for x, y in itertools.zip_longest(
        hilbert_numerator(a), hilbert_numerator(b), fillvalue=0)]
    joined = hilbert_numerator(ideal_sum(a.ring, (a, b), ()))
    out = [x - y for x, y in itertools.zip_longest(out, joined, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def test_intersection_numerator_matches_the_intersection():
    # 0 -> R/(a cap b) -> R/a + R/b -> R/(a + b) -> 0 is exact, so
    # N(a) + N(b) - N(a + b) is the numerator of a.intersect(b)
    R = Ring(["x", "y", "z"], QQ, GRLEX)
    x, y, z = R.gens()
    pairs = [([x], [y]), ([x, y], [y, z]), ([x**2 - y * z], [x, z]),
             ([x * y], [x * y]), ([x], [R.one()])]
    for ga, gb in pairs:
        a, b = Ideal(R, ga), Ideal(R, gb)
        assert _sum_numerator(a, b) == \
            hilbert_numerator(a.intersect(b)), (ga, gb)
    assert _sum_numerator(Ideal(R, [x]), Ideal(R, [y])) == [1, 0, -1]
    with pytest.raises(ValueError):
        Ideal(R, [x]).intersect(Ideal(_ring3(), []))


def test_dimension_and_degree_read_off_the_numerator():
    # N = (1 - t)^c h: dim = nvars - c and e = h(1), the multiplicity
    R = _ring3()
    x, y, z = R.gens()
    cases = [([x], (2, 1)), ([x * y], (2, 2)), ([x**2 - y * z, x * z], (1, 4)),
             ([x * y, y * z, x * z], (1, 3)), ([x, y, z], (0, 1))]
    for gens, want in cases:
        ideal = Ideal(R, gens)
        assert dimension_and_degree(hilbert_numerator(ideal), 3) == want, gens
        assert krull_dimension(ideal) == want[0]


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
    # tamperings on a few, the pi-free "no trace" among them: every fiber
    # runs Buchberger on its own generators and leaves its source without
    # a basis
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
            assert ideal.gens in runs, (name, fiber)
            assert source._gb is None, (name, fiber)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
@pytest.mark.parametrize("d, l", [(6, 2), (7, 3), (8, 4)])
def test_component_certificate_gives_the_buchberger_basis(d, l, field,
                                                          monkeypatch):
    # each component's certificate interreduces its generators with no
    # S-pair and no Buchberger run, under grlex on the row-major names for a
    # row quadric or a linear component and on the column-major names for a
    # column quadric; the result is the basis Buchberger gives in that ring,
    # and the numerator is the closed form
    c = Chart(d, l, field)
    runs = []
    monkeypatch.setattr(ideals, "buchberger", lambda *args: runs.append(args))
    certified = [c.certify_component(ideal) for _, ideal, _ in c.component_ideals()]
    assert not runs
    monkeypatch.undo()
    rings = set()
    for (_, ideal, _), (basis, numerator) in zip(c.component_ideals(),
                                                 certified):
        rings.add(basis.ring)
        gens = [cast(g, basis.ring) for g in ideal.gens]
        want = buchberger(gens)
        assert basis == want and basis.polys == want.polys
        assert hilbert_numerator(Ideal(basis.ring, gens)) == numerator
    # (7,3) and (8,4) have a row and a column quadric, (6,2) two linear
    # components and a column quadric: both orders are used
    assert len(rings) == 2


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
@pytest.mark.parametrize("d, l", [(6, 2), (7, 3), (8, 4)])
def test_special_minors_move_the_basis_of_M(d, l, field, monkeypatch):
    # no generator of M'' has pi, so the basis the certificate gives M''
    # with no run moves into the fiber ring at pi = 0; it is the basis
    # Buchberger gives on the special minors, M'' at pi = 0
    c = Chart(d, l, field)
    runs = []
    monkeypatch.setattr(ideals, "buchberger", lambda *args: runs.append(args))
    assert c.degeneration()
    minors = c.reduced_minors_ideal()
    assert minors._gb is not None
    moved = reduce_basis(c.fiber_ring, [
        specialize_pi(g, 0, c.fiber_ring) for g in minors.groebner()])
    assert not runs
    monkeypatch.undo()
    want = buchberger(c.specialize(minors, "special").gens)
    assert moved == want and moved.polys == want.polys


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_uncertified_special_fiber_fails(field, monkeypatch):
    # with the trace generator tampered the certificate of I'' fails: the
    # special fiber has no proof of being reduced and Cohen-Macaulay, so
    # special-fiber fails with no Buchberger run, and M'' keeps no basis
    c = Chart(6, 2, field)
    pi = c.reduced_ring.var("pi")
    c._cache["reduced"] = ideal_sum(
        c.reduced_ring, [c.reduced_minors_ideal()],
        [g * pi for g in c.reduced_ideal()._summands[1]])
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(gens)
                        or buchberger(gens, budget))
    assert not c.degeneration()
    res = verify_check("special-fiber", c, EngineConfig(modulus=32003))
    assert res.status == "fail"
    assert res.witness == {"subcheck": "certificate", "ideal": "I''"}
    assert not runs and c.reduced_minors_ideal()._gb is None


def test_ideal_summands_count_with_multiplicity():
    # a summand's generators must lie among the ideal's, each as often as
    # the summands list it; a summand with a generator outside makes the
    # basis a run from the ideal's own generators
    R = _ring3()
    x, y, z = R.gens()
    m = Ideal(R, [x * y, y * z])
    s = Ideal(R, [x - z, y * z, x * y, y * z], [m])
    assert s._summands == ((m,), (x - z, y * z))
    # the first list lacks m's x*y, the second the wider summand's z
    for gens, summand in (([x - z, y * z], m),
                          ([x - z, y * z, x * y], Ideal(R, [x * y, y * z, z]))):
        plain = Ideal(R, gens, [summand])
        assert plain._summands is None
        assert plain.groebner() == buchberger(gens)
    assert not plain.contains(z)
    # repeated summand generators are each matched once
    twice = Ideal(R, [y * z, x * y], [m, m])
    assert twice._summands is None
    assert Ideal(R, [y * z, x * y, y * z, x * y], [m, m])._summands == \
        ((m, m), ())


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)],
                         ids=repr)
def test_seeded_bases_match_runs_from_scratch(field, monkeypatch):
    # on every chart with 5 <= d <= 9, I'' over M'' takes one seeded run,
    # whose basis is the run from its generators; a component names no
    # summand, since its certificate gives its basis with no run
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
            red = c.reduced_ideal()
            assert red._summands
            gb = red.groebner()
            assert seeded == [gb] and gb == buchberger(red.gens), (d, l)
            seeded.clear()
            assert all(ideal._summands is None
                       for _, ideal, _ in c.component_ideals())


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
