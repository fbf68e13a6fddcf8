"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria:

1. the reduction checks pass for (6,2) and (5,3) at modulus 32003, under
   ten minutes each;
2. all seven lemma checks pass for (6,2) and each flips to fail under a
   documented mutation;
3. special and generic fiber dimensions equal d-2 for six charts;
4. pi is a non-zerodivisor mod I'' over Q[pi] for the same six charts,
   certified by equal Hilbert numerators of I'' (pi of weight 2) and I_s;
5. the special fiber decomposes as the case table says, with the ideal
   equality I_s = intersection of components exact (certified by
   homogeneity, I_s inside each component and equal Hilbert numerators),
   equidimensionality, incomparability and pure-power-freeness;
6. a thousand randomized small-engine instances hold the division identity,
   S-pair reduction, selection-order independence, and the intersection and
   colon membership invariants, within sixty seconds;
7. every pass of criteria 1-5 at modulus 32003 reproduces over Q on the two
   smallest charts, (6,2) and (5,2).
"""

import random
import time

from olmcheck.charts import Chart
from olmcheck.fields import QQ, PrimeField
from olmcheck.groebner import buchberger, multivariate_division
from olmcheck.ideals import Ideal
from olmcheck.orders import GRLEX, LEX
from olmcheck.rings import Ring
from olmcheck.verify import EngineConfig, LEMMA_CHECKS, verify_check
from oracles import random_poly, recombine, s_polynomial

CFG_P = EngineConfig(modulus=32003)
CFG_Q = EngineConfig(modulus=0)
_CHARTS = {}


def chart(d, l, modulus=32003):
    key = (d, l, modulus)
    if key not in _CHARTS:
        _CHARTS[key] = Chart(d, l, PrimeField(modulus) if modulus else QQ)
    return _CHARTS[key]


DIMENSION_CHARTS = [(6, 2), (8, 4), (5, 3), (7, 3), (6, 3), (5, 2)]
FIBER_CHARTS = {(6, 2): 3, (6, 4): 3, (8, 4): 2, (7, 3): 2,
                (5, 3): 3, (6, 3): 2, (5, 2): 3}


def test_criterion_1_reduction_theorem():
    for d, l in [(6, 2), (5, 3)]:
        t0 = time.monotonic()
        res = verify_check("reduction", chart(d, l), CFG_P)
        elapsed = time.monotonic() - t0
        assert res.status == "pass", res.witness
        assert elapsed < 600.0
        print("CRITERION 1 reduction (%d,%d) @32003: PASS (%.1fs)"
              % (d, l, elapsed))


def test_criterion_2_lemma_suite_with_mutations():
    c = chart(6, 2)
    for name in LEMMA_CHECKS:
        res = verify_check(name, c, CFG_P)
        assert res.status == "pass", (name, res.witness)
    print("CRITERION 2 lemma suite (6,2) @32003: PASS (7 checks)")
    # the mutation obligations live in test_verify.test_lemma_mutations_fail;
    # re-run the cheapest one here so this criterion is self-contained
    mut = Chart(6, 2, PrimeField(32003))
    mut._cache["intermediate"] = Ideal(mut.ring, mut.x_matrix().minors2())
    res = verify_check("X2-in-Iprime", mut, CFG_P)
    assert res.status == "fail"
    print("CRITERION 2 mutation flips to FAIL: PASS")


def test_criterion_3_fiber_dimensions():
    for d, l in DIMENSION_CHARTS:
        res = verify_check("dimensions", chart(d, l), CFG_P)
        assert res.status == "pass", ((d, l), res.witness)
    print("CRITERION 3 dimensions d-2 on %d charts: PASS" % len(DIMENSION_CHARTS))


def test_criterion_4_flatness_proxy():
    for d, l in DIMENSION_CHARTS:
        res = verify_check("flatness", chart(d, l, 0), CFG_Q)
        assert res.status == "pass", ((d, l), res.witness)
    print("CRITERION 4 pi regular over Q (N(I'') = N(I_s), pi of weight 2) "
          "on %d charts: PASS"
          % len(DIMENSION_CHARTS))


def test_criterion_5_components_and_reducedness():
    for (d, l), count in sorted(FIBER_CHARTS.items()):
        c = chart(d, l)
        res = verify_check("special-fiber", c, CFG_P)
        assert res.status == "pass", ((d, l), res.witness)
        assert len(res.witness["components"]) == count, (d, l)
    print("CRITERION 5 special fiber decomposition on %d charts, I_s = "
          "cap I_j by N(I_s) = N(J) + N(I_m) - N(J + I_m): PASS"
          % len(FIBER_CHARTS))


def test_criterion_6_engine_property_suite():
    rng = random.Random(20260808)
    t0 = time.monotonic()
    names = ["x", "y", "z", "w"]
    fields = [QQ, PrimeField(7), PrimeField(32003)]
    intersect_runs = 0
    for trial in range(1000):
        nv = rng.randint(1, 4)
        field = fields[trial % len(fields)]
        order = GRLEX if trial % 2 == 0 else LEX
        R = Ring(names[:nv], field, order)
        gens = []
        while len(gens) < rng.randint(1, 3):
            g = random_poly(R, rng, max_deg=3, max_terms=3)
            if not g.is_zero():
                gens.append(g)
        f = random_poly(R, rng, max_deg=3, max_terms=4)

        # division identity, exact, and remainder irreducibility
        res = multivariate_division(f, gens)
        assert recombine(res, gens) == f
        lead = [g.lm() for g in gens]
        for m, _ in res.remainder.terms():
            assert not any(R.mono_divides(lm, m) for lm in lead)

        # every S-pair of the computed basis reduces to zero
        gb = buchberger(gens)
        polys = list(gb)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert gb.normal_form(s_polynomial(polys[i], polys[j])).is_zero()

        # selection order independence: canonical output under shuffling
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).polys == gb.polys

        # intersection and colon membership invariants
        if trial % 4 == 0 and len(gens) >= 2:
            intersect_runs += 1
            I = Ideal(R, gens[:1])
            J = Ideal(R, gens[1:2])
            K = I.intersect(J)
            for h in K.gens:
                assert I.contains(h) and J.contains(h)
            for a in I.gens:
                for b in J.gens:
                    assert K.contains(a * b)
            Q = Ideal(R, gens).quotient(gens[0])
            for q in Q.gens:
                assert Ideal(R, gens).contains(q * gens[0])
            for g in gens:
                assert Q.contains(g)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "property suite took %.1fs" % elapsed
    print("CRITERION 6 engine properties, 1000 instances "
          "(%d with intersection/colon): PASS (%.1fs)" % (intersect_runs, elapsed))


def test_criterion_7_cross_field_consistency():
    # (6,2): everything criteria 1-5 run on it; (5,2): criteria 3-5 checks.
    # Every check, flatness included, runs in the chart's own field.
    reduced = ("dimensions", "flatness", "special-fiber")
    for d, l, checks in [(6, 2, LEMMA_CHECKS + ("reduction",) + reduced),
                         (5, 2, reduced)]:
        cp = chart(d, l)
        cq = chart(d, l, 0)
        for name in checks:
            rp = verify_check(name, cp, CFG_P)
            rq = verify_check(name, cq, CFG_Q)
            assert rp.status == rq.status == "pass", (d, l, name, rp, rq)
    print("CRITERION 7 cross-field consistency on (6,2) and (5,2): PASS")
