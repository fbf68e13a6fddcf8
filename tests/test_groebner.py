"""Division algorithm, Buchberger, normal forms; S-polynomials and the
division identity through the test oracles."""

import random
from fractions import Fraction

import pytest

from olmcheck.errors import BudgetExceeded, InvalidDivisor, InvalidInput
from olmcheck.fields import QQ, PrimeField
from olmcheck.groebner import (Budget, GroebnerBasis, _DivisorIndex, _Engine,
                               _new_pairs, buchberger, multivariate_division)
from olmcheck.orders import GRLEX, LEX, Block
from olmcheck.rings import Ring
from oracles import member_up_to_degree, random_poly, recombine, s_polynomial


def test_division_textbook_example():
    # hand long division fixes remainder x + y + 1 with quotients x+y and 1
    R = Ring(["x", "y"], QQ, LEX)
    x, y = R.gens()
    f = x**2 * y + x * y**2 + y**2
    divisors = [x * y - 1, y**2 - 1]
    res = multivariate_division(f, divisors)
    assert res.remainder == x + y + 1
    assert res.quotients[0] == x + y
    assert res.quotients[1] == R.one()
    assert recombine(res, divisors) == f


def test_division_exact_and_untouched():
    R = Ring(["x", "y"], QQ, LEX)
    x, y = R.gens()
    res = multivariate_division(x**2, [x])
    assert res.quotients[0] == x and res.remainder.is_zero()
    res = multivariate_division(y, [x])
    assert res.remainder == y and res.quotients[0].is_zero()


def test_division_zero_divisor_rejected():
    R = Ring(["x", "y"], QQ, LEX)
    with pytest.raises(InvalidDivisor):
        multivariate_division(R.var("x"), [R.zero()])


def test_division_identity_random():
    rng = random.Random(17)
    for field in (QQ, PrimeField(7)):
        R = Ring(["x", "y", "z"], field, GRLEX)
        for _ in range(80):
            f = random_poly(R, rng)
            divisors = [g for g in (random_poly(R, rng), random_poly(R, rng))
                        if not g.is_zero()]
            if not divisors:
                continue
            res = multivariate_division(f, divisors)
            assert recombine(res, divisors) == f
            lead = [g.lm() for g in divisors]
            for m, _ in res.remainder.terms():
                assert not any(R.mono_divides(lm, m) for lm in lead)


def test_s_polynomial_example():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    assert s_polynomial(x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x) == -(x**2)
    f = x**2 - y
    assert s_polynomial(f, f).is_zero()
    with pytest.raises(InvalidInput):
        s_polynomial(f, R.zero())


def test_s_polynomial_coprime_leads_reduce_to_zero():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    f, g = x**2, y**2
    gb = buchberger([f, g])
    s = s_polynomial(f, g)
    assert gb.normal_form(s).is_zero()


def test_buchberger_trivial_cases():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    gb = buchberger([x - y])
    assert [str(p) for p in gb] == ["x - y"]
    gb = buchberger([x**2, x * y])
    assert sorted(str(p) for p in gb) == ["x*y", "x^2"]
    with pytest.raises(InvalidInput):
        buchberger([R.zero()])


def test_buchberger_twisted_cubic_vs_bruteforce_oracle():
    R = Ring(["z", "y", "x"], QQ, LEX)
    z, y, x = R.gens()
    gens = [y - x**2, z - x**3]
    gb = buchberger(gens)
    relations = [z * x - y**2, y**3 - z**2]
    for f in relations:
        # engine membership
        assert gb.normal_form(f).is_zero()
        # independent degree-bounded linear-algebra oracle
        assert member_up_to_degree(f, gens, 5)
    assert not gb.normal_form(x).is_zero()
    assert not member_up_to_degree(x, gens, 5)


def test_reduced_basis_is_selection_order_independent():
    rng = random.Random(29)
    R = Ring(["x", "y", "z"], QQ, GRLEX)
    x, y, z = R.gens()
    gens = [x * y - z, y * z - x, x * z - y]
    reference = buchberger(gens).polys
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).polys == reference


def test_all_s_pairs_reduce_post_hoc():
    R = Ring(["x", "y", "z"], QQ, GRLEX)
    x, y, z = R.gens()
    gb = buchberger([x * y - z, y * z - x, x * z - y, x**2 + y**2 + z**2 - 1])
    polys = list(gb)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j])
            assert gb.normal_form(s).is_zero()


def test_basis_is_monic_and_autoreduced():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    gb = buchberger([2 * x**2 + y, 3 * x * y - 1])
    lead = gb.lead_monomials()
    for k, p in enumerate(gb):
        assert p.lc() == QQ.one
        for m, _ in p.terms():
            for j, lm in enumerate(lead):
                if j != k:
                    assert not R.mono_divides(lm, m)


def test_normal_form_is_canonical_representative():
    R = Ring(["x", "y"], QQ, GRLEX)
    x, y = R.gens()
    gens = [x**2 - y, y**2 - 2]
    gb = buchberger(gens)
    f = x**4 + x**2 * y
    nf = gb.normal_form(f)
    # f = (x^2)^2 + x^2 y = (y)^2 + y*y = 2y^2 -> 4 modulo the ideal
    assert nf == R.const(4)
    assert gb.normal_form(f - R.const(4)).is_zero()


def test_long_normal_form_is_exact_remainder():
    # non-monic generators and a non-integer input whose reduction takes
    # more than 64 steps, so over Q the remainder passes through
    # leading-coefficient scalings and mid-reduction content strips
    for field in (QQ, PrimeField(32003)):
        R = Ring(["x", "y", "z"], field, GRLEX)
        x, y, z = R.gens()
        gb = buchberger([3 * x**2 - 2 * y * z + z, 2 * y**2 + 5 * x * z - 1,
                         7 * z**3 - x * y + 4])
        f = (x.scale(Fraction(1, 3)) + y.scale(Fraction(2, 5)) + z - 1) ** 7
        res = multivariate_division(f, list(gb))
        assert sum(len(q) for q in res.quotients) > 64
        assert not res.remainder.is_zero()
        assert gb.normal_form(f) == res.remainder
        assert GroebnerBasis(R, list(gb)).normal_form(f) == res.remainder


def test_lex_tail_shift_overflow_raises():
    # x -> y^30000 rewrites x^3 to y^90000, past the packed field; the
    # shifted tail used to wrap silently and give x*y^60000
    R = Ring(["x", "y"], QQ, LEX)
    x, y = R.gens()
    gb = buchberger([x - y**30000])
    assert gb.normal_form(x) == y**30000
    with pytest.raises(ValueError, match="overflows"):
        gb.normal_form(x**3)
    # the S-pair of these shifts the tail z^15000 by z^20000
    S = Ring(["x", "y", "z"], QQ, LEX)
    x, y, z = S.gens()
    f, g = x * z**20000 - z**20000, x**2 * y - z**15000
    with pytest.raises(ValueError, match="overflows"):
        buchberger([f, g])
    engine = _Engine(S)
    arrays = engine.arrays()
    for h in (f, g):
        engine.add(arrays, engine.prepare(h._d))
    lcm = S.mono_lcm(f.lm(), g.lm())
    for i, j in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="overflows"):
            engine.spair(i, j, *arrays, lcm)
    # the textbook division guards its shifts the same way, and so do the
    # oracle's S-polynomial products
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="overflows"):
            s_polynomial(a, b)
    with pytest.raises(ValueError, match="overflows"):
        multivariate_division(x**3, [x - z**30000])


def _row_major(chart, order):
    """The chart's full-ideal generators in a ring on the row-major names
    (then pi) under ``order``."""
    from olmcheck.charts import xname
    from olmcheck.rings import cast
    d = chart.d
    names = [xname(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
    ring = Ring(names + ["pi"], chart.field, order)
    return [cast(g, ring) for g in chart.full_ideal().gens]


def test_full_ideal_work_counters_are_fixed():
    # the pair criteria and the reduction decide exactly this much work;
    # any change to pair selection, pruning or reduction moves a counter.
    # The chart ring's block order solves this ideal in 20 pairs, so the
    # pin runs grlex on the row-major names, where the basis is large
    from olmcheck.charts import Chart
    gens = _row_major(Chart(6, 2, PrimeField(32003)), GRLEX)
    budget = Budget()
    gb = buchberger(gens, budget)
    assert (budget.pairs, budget.steps, len(gb)) == (4329, 20226, 286)


def test_block_and_lex_work_counters_are_fixed():
    # the colon ideal runs Block(1) inside intersect, on the generators of
    # I'' in their order, t_r + 2*pi first; the lex run is the (8,4)
    # reduced ideal on the same names
    from olmcheck.charts import Chart
    from olmcheck.rings import cast
    chart = Chart(7, 3, QQ)
    budget = Budget()
    colon = chart.reduced_ideal().quotient(chart.reduced_ring.var("pi"), budget)
    assert (budget.pairs, budget.steps, len(colon.gens)) == (299, 710, 24)
    ideal = Chart(8, 4, PrimeField(32003)).reduced_ideal()
    L = Ring(ideal.ring.names, ideal.ring.field, LEX)
    # the band minors, then t_r + 2*pi: under lex t_r + 2*pi and the minor
    # x[3][1]*x[6][8] - x[3][8]*x[6][1] share a lead, and the interreduction
    # keeps the first of two equal leads, so the pin fixes this order
    trace, *minors = ideal.gens
    gens = [cast(g, L) for g in minors + [trace]]
    budget = Budget()
    gb = buchberger(gens, budget)
    assert (budget.pairs, budget.steps, len(gb)) == (240, 604, 46)
    # a lex pin whose work differs from grlex's (1724 pairs, 8218 steps,
    # 152 elements): the (5,2) full ideal on the row-major names
    budget = Budget()
    gb5 = buchberger(_row_major(Chart(5, 2, PrimeField(32003)), LEX), budget)
    assert (budget.pairs, budget.steps, len(gb5)) == (832, 2662, 90)
    # repeated and scaled generators change neither the basis nor the work
    repeated = Budget()
    again = buchberger(gens + [g.scale(3) for g in gens[::3]] + gens[:4],
                       repeated)
    assert again.polys == gb.polys
    assert (repeated.pairs, repeated.steps) == (240, 604)
    gens = list(chart.reduced_ideal().gens)
    budget, repeated = Budget(), Budget()
    gb = buchberger(gens, budget)
    again = buchberger([g.scale(Fraction(-2, 3)) for g in gens] + gens, repeated)
    assert again.polys == gb.polys
    assert (repeated.pairs, repeated.steps) == (budget.pairs, budget.steps)


def _random_mono(ring, rng, deg):
    exps = [0] * ring.nvars
    for _ in range(deg if ring.nvars else 0):
        exps[rng.randrange(ring.nvars)] += 1
    return ring.monomial(exps)


def _random_leads(ring, rng, n):
    """Small leads on a few variables, with repeats and one constant."""
    pool = list(range(ring.nvars))
    rng.shuffle(pool)
    pool = pool[:6]
    leads = []
    for _ in range(n):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(1, 4) if pool else 0):
            exps[rng.choice(pool)] += 1
        leads.append(ring.monomial(exps))
    for _ in range(n // 8):
        leads.insert(rng.randrange(len(leads) + 1), rng.choice(leads))
    leads.insert(rng.randrange(len(leads) // 2 + 1), 0)
    return leads


_INDEX_RINGS = [Ring(["x%d" % i for i in range(n)], QQ, GRLEX) for n in (0, 1, 4, 37)] \
    + [Ring(["x%d" % i for i in range(6)], QQ, order)
       for order in (LEX, Block(1), Block(3))]


def test_divisor_index_returns_the_linear_scan_divisor():
    # the index must give exactly the first divisor a linear scan gives,
    # read here off the exponent vectors
    rng = random.Random(61)
    for ring in _INDEX_RINGS:
        for _ in range(12):
            leads = _random_leads(ring, rng, rng.randrange(1, 40))
            index = _DivisorIndex(ring)
            for m in leads:
                index.append(m)
            assert index.lts == leads
            vecs = [ring.exponents(m) for m in leads]
            for _ in range(60):
                t = rng.choice(leads) + _random_mono(ring, rng, rng.randrange(3))
                tv = ring.exponents(t)
                want = next((i for i, v in enumerate(vecs)
                             if all(a <= b for a, b in zip(v, tv))), -1)
                assert index.first(t) == want


def test_chain_pass_keeps_the_quadratic_filter_survivors():
    # the indexed chain pass against the quadratic filter it replaces:
    # chain criterion in lcm order, equal-lcm dedup to the lowest index,
    # then the coprime criterion
    rng = random.Random(67)
    for ring in _INDEX_RINGS[1:]:
        guard = ring.guard_mask
        for _ in range(30):
            lts = _random_leads(ring, rng, rng.randrange(1, 30))
            lts.append(rng.choice(lts) if rng.random() < 0.2
                       else _random_mono(ring, rng, rng.randrange(1, 4)))
            t, lt_t = len(lts) - 1, lts[-1]
            cand = [ring.mono_lcm(lts[i], lt_t) for i in range(t)]
            keep = {}
            for i in sorted(range(t), key=cand.__getitem__):
                if not any(lj != cand[i] and not (cand[i] - lj) & guard
                           for lj in keep.values()):
                    keep[i] = cand[i]
            by_lcm = {}
            for i in sorted(keep):
                by_lcm.setdefault(keep[i], i)
            want = {i: l for l, i in by_lcm.items() if l != lts[i] + lt_t}
            assert _new_pairs(ring, lts, t) == want


def test_chain_pass_without_a_constant_lead():
    # _random_leads always holds a constant, whose zero quotient ends the
    # chain pass at once; without it the index and the degree-1 mask decide.
    # Oracle on exponent vectors: i is kept when no other lcm strictly
    # divides its lcm and no lower index has the same lcm, then coprime
    # pairs are dropped
    rng = random.Random(73)
    for ring in _INDEX_RINGS[1:]:
        for _ in range(30):
            lts = [m for m in _random_leads(ring, rng, rng.randrange(1, 30)) if m]
            if not lts:
                continue
            lts.append(rng.choice(lts) if rng.random() < 0.2
                       else _random_mono(ring, rng, rng.randrange(1, 4)))
            t = len(lts) - 1
            vecs = [ring.exponents(m) for m in lts]
            lcms = [tuple(map(max, v, vecs[t])) for v in vecs[:t]]
            want = {}
            for i, li in enumerate(lcms):
                if li in lcms[:i] or any(
                        lj != li and all(map(int.__le__, lj, li)) for lj in lcms):
                    continue
                if any(a and b for a, b in zip(vecs[i], vecs[t])):
                    want[i] = ring.mono_lcm(lts[i], lts[t])
            assert _new_pairs(ring, lts, t) == want

def test_stale_pair_check_matches_the_eager_rule():
    # the pop-time B criterion against the rule the eager scan applied when
    # each later element k arrived, on exponent vectors
    rng = random.Random(71)
    for ring in _INDEX_RINGS:
        for _ in range(20):
            lts = _random_leads(ring, rng, rng.randrange(2, 30))
            index = _DivisorIndex(ring)
            for m in lts:
                index.append(m)
            vecs = [ring.exponents(m) for m in lts]
            for _ in range(40):
                i, j = sorted(rng.sample(range(len(lts)), 2))
                lv = [max(a, b) for a, b in zip(vecs[i], vecs[j])]
                want = any(
                    all(c <= e for c, e in zip(vecs[k], lv))
                    and [max(a, c) for a, c in zip(vecs[i], vecs[k])] != lv
                    and [max(b, c) for b, c in zip(vecs[j], vecs[k])] != lv
                    for k in range(j + 1, len(lts)))
                assert index.stale(i, j, ring.mono_lcm(lts[i], lts[j])) == want


def test_spent_deadline_stops_before_the_first_pair():
    # the deadline is met in the input pass and in every pair update, so a
    # spent time budget stops the run before any pair is formed
    from olmcheck.charts import Chart
    gens = Chart(6, 2, PrimeField(32003)).full_ideal().gens

    budget = Budget(seconds=1.0)
    budget._t0 -= 2.0
    with pytest.raises(BudgetExceeded, match="time budget"):
        buchberger(gens, budget)
    assert budget.pairs == 0

_SEED_CASES = [(field, order) for field in (QQ, PrimeField(32003))
               for order in (GRLEX, LEX, Block(1))]


def _seed_ring(field, order):
    return Ring(["x", "y", "z"], field, order)


@pytest.mark.parametrize("field, order", _SEED_CASES, ids=repr)
def test_two_known_blocks_whose_sum_has_new_elements(field, order):
    # the twisted cubic plus a second ideal: the sum's reduced basis holds
    # elements neither block does, and the seeded run returns the basis of
    # a run from every generator
    R = _seed_ring(field, order)
    x, y, z = R.gens()
    a_gens, b_gens = [y - x**2, z - x**3], [x * z - y + 1, y * z - x]
    a, b = buchberger(a_gens), buchberger(b_gens)
    want = buchberger(a_gens + b_gens)
    got = buchberger([a, b])
    assert got == want and got.polys == want.polys
    assert [p for p in want if p not in a.polys and p not in b.polys]
    # the blocks in the other order, and with a loose generator
    assert buchberger([b, a]) == want
    assert buchberger([a, b_gens[0], b_gens[1]]) == want


@pytest.mark.parametrize("field, order", _SEED_CASES, ids=repr)
def test_known_block_that_is_the_whole_answer(field, order):
    # no pair inside a block is formed, and a reduced basis takes no
    # reduction step, so the seeded run does no work
    R = _seed_ring(field, order)
    x, y, z = R.gens()
    gens = [x * y - z, y * z - x, x * z - y]
    scratch = Budget()
    gb = buchberger(gens, scratch)
    assert scratch.pairs > 0
    seeded = Budget()
    assert buchberger([gb], seeded) == gb
    assert (seeded.pairs, seeded.steps) == (0, 0)


@pytest.mark.parametrize("field, order", _SEED_CASES, ids=repr)
def test_loose_generators_that_reduce_to_zero(field, order):
    # members, scaled members and zeros next to a known block leave its
    # basis as it is and form no pair
    R = _seed_ring(field, order)
    x, y, z = R.gens()
    gens = [y - x**2, z - x**3]
    gb = buchberger(gens)
    members = [x * z - y**2, (y**3 - z**2).scale(3), gens[0] * (x + z),
               R.zero(), gens[1].scale(2)]
    seeded = Budget()
    got = buchberger([gb] + members, seeded)
    assert got == gb and got.polys == gb.polys
    assert (seeded.pairs, seeded.steps) == (0, 0)


def test_known_blocks_are_checked_like_generators():
    R = _seed_ring(QQ, GRLEX)
    other = Ring(["x", "y", "z"], QQ, GRLEX)
    x, y, z = R.gens()
    gb = buchberger([x - y])
    with pytest.raises(InvalidInput):
        buchberger([gb, other.var("x")])
    with pytest.raises(InvalidInput):
        buchberger([buchberger([other.var("x")]), x])
    # an empty block is no generator
    with pytest.raises(InvalidInput):
        buchberger([GroebnerBasis(R, ()), R.zero()])
    assert buchberger([GroebnerBasis(R, ()), y - z]) == buchberger([y - z])


def test_seeded_run_meets_the_deadline():
    # with no loose generator the deadline is met in the pair update of
    # the later block's elements
    from olmcheck.charts import Chart
    c = Chart(6, 2, PrimeField(32003))
    a, b = (ideal.groebner() for _, ideal, _ in c.component_ideals()[1:])
    budget = Budget(seconds=1.0)
    budget._t0 -= 2.0
    with pytest.raises(BudgetExceeded, match="time budget"):
        buchberger([a, b], budget)
    assert budget.pairs == 0


def test_basis_builds_polys_on_first_use():
    # length, the unit test, normal forms and equality read the engine
    # arrays; the Polynomial elements wait until they are asked for
    R = _seed_ring(QQ, GRLEX)
    x, y, z = R.gens()
    gb = buchberger([2 * x**2 + y, 3 * x * y - 1])
    assert len(gb) == 3 and not gb.is_unit_ideal()
    assert gb.contains(x * (2 * x**2 + y))
    assert gb == buchberger([x * y - Fraction(1, 3), 2 * x**2 + y])
    assert gb._polys is None
    assert [p.lc() for p in gb] == [1, 1, 1]
    assert gb._polys is not None
    assert buchberger([x, R.one()]).is_unit_ideal()


def test_prime_field_gb_matches_rational_staircase():
    # same leading terms over Q and F_32003 for an ideal with small coefficients
    Rq = Ring(["x", "y", "z"], QQ, GRLEX)
    Rp = Ring(["x", "y", "z"], PrimeField(32003), GRLEX)
    gbq = buchberger([Rq.var("x")**2 + Rq.var("y"),
                      Rq.var("x") * Rq.var("y") + Rq.var("z")])
    gbp = buchberger([Rp.var("x")**2 + Rp.var("y"),
                      Rp.var("x") * Rp.var("y") + Rp.var("z")])
    assert [Rq.exponents(p.lm()) for p in gbq] == \
        [Rp.exponents(p.lm()) for p in gbp]
