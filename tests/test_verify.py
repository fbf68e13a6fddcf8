"""Verification harness: statuses, witnesses, gates, mutation sensitivity.

Every check must flip to fail under a documented tampering of its inputs;
the tamperings are injected through the chart's ideal cache, which is what
the checks read.
"""

import json
import math
import re

import pytest

from olmcheck import ideals
from olmcheck.charts import Chart
from olmcheck.errors import BudgetExceeded
from olmcheck.fields import PrimeField, QQ
from olmcheck.groebner import Budget, GroebnerBasis, buchberger
from olmcheck.ideals import Ideal, ideal_sum
from olmcheck.verify import (CHECK_NAMES, EngineConfig, LEMMA_CHECKS,
                             PRIMALITY_NOTE, chart_report,
                             expected_component_count, run_suite, verify_check)
from oracles import is_regular_element

CFG = EngineConfig(modulus=32003)


def _chart(d=6, l=2, modulus=32003):
    return Chart(d, l, PrimeField(modulus) if modulus else QQ)


def _drop(ideal, predicate):
    """Ideal with the generators matching predicate removed."""
    kept = [g for g in ideal.gens if not predicate(g)]
    assert len(kept) < len(ideal.gens), "tampering removed nothing"
    return Ideal(ideal.ring, kept)


def test_dimensions_passes_and_is_cheap():
    res = verify_check("dimensions", _chart(), CFG)
    assert res.status == "pass"


def test_dimensions_mutation_fails():
    c = _chart()
    red = c.reduced_ideal()
    c._cache["reduced"] = _drop(red, lambda g: "pi" in str(g))
    res = verify_check("dimensions", c, CFG)
    assert res.status == "fail"
    assert res.witness["expected"] == 4


def test_dimensions_fails_on_an_empty_fiber():
    # I'' + (pi) is homogeneous, so its fibers read their bases off its
    # basis; the generic fiber is the unit ideal, which has no dimension
    from olmcheck.cli import report_json
    c = Chart(6, 2, QQ)
    red = c.reduced_ideal()
    c._cache["reduced"] = Ideal(red.ring, red.gens + (red.ring.var("pi"),))
    res = verify_check("dimensions", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"expected": 4, "special": 4, "generic": None}
    body = report_json(chart_report(c, CFG, checks=["dimensions"]))
    assert '"generic": null' in json.dumps(body)


def test_reduced_ring_checks_run_buchberger_on_no_fiber(monkeypatch):
    # the fiber bases are read off the basis of I''.  M'' runs from its
    # generators, I'' is one run seeded with the basis of M'' and the trace
    # generator, its first, and the components still run their own
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(list(gens))
                        or buchberger(gens, budget))
    c = _chart()
    for name in ("dimensions", "flatness", "special-fiber"):
        assert verify_check(name, c, CFG).status == "pass"
    minors, red = c.reduced_minors_ideal(), c.reduced_ideal()
    assert runs.count(list(minors.gens)) == 1
    assert runs.count([minors.groebner(), red.gens[0]]) == 1
    assert list(red.gens) not in runs
    fibers = (c.special_fiber_ideal().gens, c.generic_fiber_ideal().gens)
    assert not any(list(gens) in runs for gens in fibers)


def test_dimensions_times_out_with_the_basis_of_i2_cached():
    spent = EngineConfig(modulus=32003, timeout=1e-9)
    c = _chart()
    assert verify_check("dimensions", c, spent).status == "timeout"
    c = _chart()
    assert verify_check("flatness", c, CFG).status == "pass"
    assert verify_check("dimensions", c, spent).status == "timeout"
    # with the basis of I'' cached, reading a fiber basis off it is all
    # interreduction, and that meets the deadline too
    with pytest.raises(BudgetExceeded, match="time budget"):
        c.generic_fiber_ideal().groebner(spent.budget())


def test_flatness_passes():
    res = verify_check("flatness", Chart(6, 2, QQ), CFG)
    assert res.status == "pass"


def _pi_times_trace(c):
    """The reduced ideal with its trace generator t replaced by pi*t, which
    makes pi a zero divisor."""
    pi = c.reduced_ring.var("pi")
    gens = [g if "pi" not in str(g) else g * pi for g in c.reduced_ideal().gens]
    c._cache["reduced"] = Ideal(c.reduced_ring, gens)


FIELDS = [QQ, PrimeField(32003)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flatness_mutation_fails(field):
    # the check reads the chart it is given, in that chart's field
    c = Chart(6, 2, field)
    _pi_times_trace(c)
    res = verify_check("flatness", c, CFG)
    assert res.status == "fail"
    assert res.witness["subcheck"] == "hilbert-numerator"
    assert res.witness["reduced"] != res.witness["special"]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flatness_inhomogeneous_mutation_fails(field):
    # a band variable of weight 1 added to the weight-2 trace generator
    c = Chart(6, 2, field)
    rr = c.reduced_ring
    x = rr.var(rr.names[0])
    gens = [g if "pi" not in str(g) else g + x for g in c.reduced_ideal().gens]
    c._cache["reduced"] = Ideal(rr, gens)
    res = verify_check("flatness", c, CFG)
    assert res.status == "fail"
    assert res.witness["subcheck"] == "weighted-homogeneous"
    assert res.witness["generator"].endswith("x[3][1] + 2*pi")


def test_flatness_verdict_matches_the_colon():
    # the colon path (I'' : pi) = I'' is the reference for the certificate
    charts = [Chart(d, l, QQ) for d in range(5, 9) for l in range(2, d - 1)]
    mutated = Chart(6, 2, QQ)
    _pi_times_trace(mutated)
    for c in charts + [mutated]:
        red = c.reduced_ideal()
        regular = is_regular_element(red, c.reduced_ring.var("pi"))
        status = verify_check("flatness", c, EngineConfig(modulus=0)).status
        assert status == ("pass" if regular else "fail"), (c.d, c.l)
    assert status == "fail"


def test_special_fiber_passes_with_component_witness():
    res = verify_check("special-fiber", _chart(), CFG)
    assert res.status == "pass"
    assert res.witness["components"] == ["I1", "I2", "I3"]


def test_special_fiber_mutations_fail():
    # dropping a whole component breaks the count
    c = _chart()
    c._cache["components"] = c.component_ideals()[:2]
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail" and res.witness["subcheck"] == "component-count"

    # dropping generators shrinks a component's ideal, so I_s no longer
    # lies in it (and its dimension grows)
    c = _chart()
    comps = c.component_ideals()
    label, ideal, v = comps[2]
    weakened = Ideal(ideal.ring, ideal.gens[:2])
    c._cache["components"] = comps[:2] + [(label, weakened, v)]
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness["subcheck"] in ("intersection-equality",
                                       "component-dimension", "incomparability")


def _minors_as_special(c):
    """The cached special fiber replaced by the band minors alone: they lie
    in every component, but cut out a variety of dimension d-1."""
    ring = c.fiber_ring
    c._cache["special"] = Ideal(ring, c._band_matrix(ring, c.cols).minors2())


def test_special_fiber_numerator_mutation_fails():
    c = _chart()
    _minors_as_special(c)
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness["subcheck"] == "intersection-equality"
    assert set(res.witness) == {"subcheck", "special", "intersection"}
    assert res.witness["special"] != res.witness["intersection"]


def test_special_fiber_homogeneous_mutation_fails():
    # x*y + x added to the last component: not homogeneous in unit weights
    c = _chart()
    comps = c.component_ideals()
    label, ideal, v = comps[-1]
    x, y = (c.fiber_ring.var(nm) for nm in c.fiber_ring.names[:2])
    c._cache["components"] = comps[:-1] + [
        (label, Ideal(ideal.ring, ideal.gens + (x * y + x,)), v)]
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"subcheck": "homogeneous", "ideal": label,
                           "generator": "x[3][1]*x[3][2] + x[3][1]"}


@pytest.mark.parametrize("modulus", [32003, 0])
def test_special_fiber_overlapping_linear_components_fail(modulus):
    # I1 replaced by I2: both linear components use the same variables, so
    # their product is not their intersection
    c = _chart(6, 2, modulus)
    comps = c.component_ideals()
    label, _, v = comps[0]
    c._cache["components"] = [(label, comps[1][1], v)] + comps[1:]
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"subcheck": "intersection-equality",
                           "component": "I2", "generator": "x[4][1]"}


@pytest.mark.parametrize("modulus", [32003, 0])
def test_special_fiber_non_linear_component_fails(modulus):
    # I1 = (x[2][1], x[3][1], x[4][1]) of the three-component (5,3) chart
    # with one generator added
    def with_extra(text):
        c = _chart(5, 3, modulus)
        comps = c.component_ideals()
        label, ideal, v = comps[0]
        g = c.fiber_ring.parse(text)
        c._cache["components"] = [
            (label, Ideal(ideal.ring, ideal.gens + (g,)), v)] + comps[1:]
        return verify_check("special-fiber", c, CFG)

    # the square of a variable I1 does not contain
    res = with_extra("x[4][5]^2")
    assert res.status == "fail"
    assert res.witness == {"subcheck": "intersection-equality",
                           "component": "I1", "generator": "x[4][5]^2"}
    # a generator already in I1 leaves its reduced basis, and the verdict,
    # as they were
    assert with_extra("x[4][1]*x[4][5]").status == "pass"


def test_special_fiber_verdict_matches_the_intersection():
    # the intersection cap I_j formed by Ideal.intersect is the reference
    # for the numerator certificate
    charts = [Chart(d, l, QQ) for d in range(5, 9) for l in range(2, d - 1)]
    minors = Chart(6, 2, QQ)
    _minors_as_special(minors)
    # I1 of (8,4) cut down to the band minors: I_s no longer lies in it
    weakened = Chart(8, 4, QQ)
    ring = weakened.fiber_ring
    band = set(weakened._band_matrix(ring, weakened.cols).minors2())
    comps = weakened.component_ideals()
    label, ideal, v = comps[0]
    weakened._cache["components"] = [
        (label, _drop(ideal, lambda g: g not in band), v)] + comps[1:]
    verdicts = []
    for c in charts + [minors, weakened]:
        inter = None
        for _, ideal, _ in c.component_ideals():
            inter = ideal if inter is None else inter.intersect(ideal)
        equal = c.special_fiber_ideal().equals(inter)
        res = verify_check("special-fiber", c, EngineConfig(modulus=0))
        assert (res.status == "pass") == equal, (c.d, c.l, res.witness)
        verdicts.append(res.status)
    assert verdicts == ["pass"] * 14 + ["fail"] * 2
    # the weakened I1 fails the inclusion, not the numerators
    assert res.witness["component"] == "I1"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reduced_ring_checks_pass_at_small_primes(p):
    # the paper's special fiber lives in characteristic p; each check runs
    # in the chart's own field F_p
    cfg = EngineConfig(modulus=p)
    for d in range(5, 8):
        for l in range(2, d - 1):
            c = Chart(d, l, PrimeField(p))
            for name in ("dimensions", "flatness", "special-fiber"):
                res = verify_check(name, c, cfg)
                assert res.status == "pass", (d, l, name, res.witness)


def test_special_fiber_spent_budget_times_out():
    c = _chart(8, 4)
    cfg = EngineConfig(modulus=32003)
    assert verify_check("special-fiber", c, cfg).status == "pass"
    # every basis the check reads from the chart is cached now
    res = verify_check("special-fiber", c,
                       EngineConfig(modulus=32003, timeout=1e-9))
    assert res.status == "timeout" and "budget" in res.witness


def test_spent_budget_in_a_seeded_run_times_out(monkeypatch):
    # the basis of I'' is cached, so the special fiber reads its basis off
    # it and the first Buchberger run of special-fiber is a component's,
    # seeded with the special minors; a budget spent in that run alone
    # makes the check time out
    c = _chart(8, 4)
    c.reduced_ideal().groebner()
    spent = EngineConfig(modulus=32003, timeout=1e-9)
    assert verify_check("special-fiber", c, spent).status == "timeout"

    class SpentWhenSeeded(Budget):
        def __init__(self, seeded=False):
            super().__init__()
            self.seeded = seeded

        def deadline(self):
            if self.seeded:
                raise BudgetExceeded("time budget spent in a seeded run")

    class Config(EngineConfig):
        def budget(self):
            return SpentWhenSeeded()

    # with M'' cached, the seeded run is all that I'' runs, and it meets
    # the deadline too
    fresh = _chart(8, 4)
    fresh.reduced_minors_ideal().groebner()
    with pytest.raises(BudgetExceeded, match="seeded run"):
        fresh.reduced_ideal().groebner(SpentWhenSeeded(seeded=True))

    runs = []

    def run(gens, budget=None):
        budget.seeded = any(isinstance(g, GroebnerBasis) for g in gens)
        runs.append(budget.seeded)
        return buchberger(gens, budget)

    monkeypatch.setattr(ideals, "buchberger", run)
    res = verify_check("special-fiber", c, Config(modulus=32003))
    assert res.status == "timeout"
    assert "seeded run" in res.witness["budget"]
    assert runs == [True]


def test_component_mutations_are_plain_ideals():
    # a quadric component is the sum of its quadrics and the special
    # minors; the mutations that drop or add a generator build plain
    # ideals, whose bases are runs from their generators
    c = _chart()
    label, ideal, v = c.component_ideals()[2]
    (minors,), quadrics = ideal._summands
    assert set(minors.gens) <= set(ideal.gens) and quadrics
    g = c.fiber_ring.parse("x[3][1]^2")
    for mutated in (Ideal(ideal.ring, ideal.gens[:2]),
                    Ideal(ideal.ring, ideal.gens + (g,))):
        assert mutated._summands is None
        assert mutated.groebner() == buchberger(mutated.gens)
    # the quadrics come first, then the special minors
    assert ideal.gens == quadrics + minors.gens
    # M'' lives in k[band, pi], not in the fiber ring: refused as a summand
    with pytest.raises(ValueError, match="different ring"):
        ideal_sum(ideal.ring, [c.reduced_minors_ideal()], quadrics)


def test_reduction_passes_six_two():
    res = verify_check("reduction", _chart(), CFG)
    assert res.status == "pass"


def test_reduction_mutation_fails():
    c = _chart()
    inter = c.intermediate_ideal()
    c._cache["intermediate"] = _drop(
        inter, lambda g: str(g) == "x[3][3] + x[4][4] + 2*pi")
    res = verify_check("reduction", c, CFG)
    assert res.status == "fail"
    assert res.witness["subcheck"] == "intermediate-equality"


def _drop_first(c):
    red = c.reduced_ideal()
    c._cache["reduced"] = Ideal(red.ring, red.gens[1:])


def _add_band_variable(c):
    red = c.reduced_ideal()
    nm = c.reduced_ring.names[0]
    c._cache["reduced"] = Ideal(red.ring, red.gens + (red.ring.var(nm),))


def _shift_non_band_image(c):
    nm = c.ring.names[0]          # the non-band block comes first
    assert nm not in c.reduced_ring.names
    phi = dict(c.substitution_map())
    phi[nm] = phi[nm] + c.reduced_ring.one()
    c._cache["phi"] = phi


@pytest.mark.parametrize("tamper, subcheck", [
    (_drop_first, "phi-image"),
    (_add_band_variable, "reduced-lift"),
    (_shift_non_band_image, "section")])
def test_reduction_subcheck_mutations_fail(tamper, subcheck):
    c = _chart()
    tamper(c)
    res = verify_check("reduction", c, CFG)
    assert res.status == "fail"
    assert res.witness["subcheck"] == subcheck
    if subcheck == "section":
        assert res.witness["variable"] == c.ring.names[0]
    else:
        assert res.witness["generator"]


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("d, l", [(5, 3), (6, 2), (6, 4), (7, 3)])
def test_reduction_matches_the_substitution(d, l, modulus):
    # the old sub-check (b) as the reference: the phi-image of every
    # generator of I, formed by Polynomial.substitute, lies in I''; with the
    # first generator of I'' dropped, it and the band block both fail
    cfg = EngineConfig(modulus=modulus, full_matrix_limit=8)
    c = _chart(d, l, modulus)
    assert verify_check("reduction", c, cfg).status == "pass"
    phi, red = c.substitution_map(), c.reduced_ideal()
    images = [g.substitute(phi, c.reduced_ring) for g in c.full_ideal().gens]
    assert all(red.contains(f) for f in images)
    _drop_first(c)
    cut = c.reduced_ideal()
    assert not all(cut.contains(f) for f in images)
    res = verify_check("reduction", c, cfg)
    assert res.status == "fail" and res.witness["subcheck"] == "phi-image"


def test_lemma_checks_pass_six_two():
    c = _chart()
    for name in LEMMA_CHECKS:
        res = verify_check(name, c, CFG)
        assert res.status == "pass", (name, res.witness)


def _names_of(g):
    out = set()
    for m, _ in g.terms():
        for i, e in enumerate(g.ring.exponents(m)):
            if e:
                out.add(g.ring.names[i])
    return out


def test_lemma_mutations_fail():
    # X2-in-Iprime: the minors alone do not absorb X^2
    c = _chart()
    c._cache["intermediate"] = Ideal(c.ring, c.x_matrix().minors2())
    res = verify_check("X2-in-Iprime", c, CFG)
    assert res.status == "fail" and "offending" in res.witness

    # antisym and the bilinear relation need more than minors + traces
    for name in ("antisym", "S0-relation"):
        c = _chart()
        keep = c.x_matrix().minors2() + \
            [g for g in c.intermediate_ideal().gens if g.total_degree() == 1]
        c._cache["intermediate"] = Ideal(c.ring, keep)
        res = verify_check(name, c, CFG)
        assert res.status == "fail", name

    # B1JB2-symmetric against M'' cut down to the band-row minors over
    # columns {2, 5, 6}
    c = _chart()
    rr = c.reduced_ring
    c._cache["reduced-minors"] = Ideal(rr, c._band_matrix(rr, [2, 5, 6]).minors2())
    res = verify_check("B1JB2-symmetric", c, CFG)
    assert res.status == "fail"

    # trace-in-ideal: without the bilinear relations the E-diagonal is free
    c = _chart()
    ideal = c.iprime_sans_trace_ideal()
    band = set(c.reduced_ring.names) | {"pi"}
    c._cache["iprime-sans-trace"] = _drop(
        ideal, lambda g: not _names_of(g) <= band)
    res = verify_check("trace-in-ideal", c, CFG)
    assert res.status == "fail"

    # A-relations: dropping the B2 J B1^t - A J family unties A
    c = _chart()
    ideal = c.solve_plus_band_ideal()
    c._cache["solve-plus-band"] = _drop(
        ideal,
        lambda g: len(g) == 3 and g.total_degree() == 2 and "pi" not in str(g)
        and any(g.ring.mono_degree(m) == 1 for m, _ in g.terms()))
    res = verify_check("A-relations", c, CFG)
    assert res.status == "fail"

    # minors-reduce: without the solve relations the E and O minors escape
    c = _chart()
    ideal = c.solve_plus_reduced_ideal()
    band_mid = {"x[%d][%d]" % (i, j) for i in (3, 4) for j in range(1, 7)} | {"pi"}
    c._cache["solve-plus-reduced"] = _drop(
        ideal, lambda g: not _names_of(g) <= band_mid)
    res = verify_check("minors-reduce", c, CFG)
    assert res.status == "fail"


def test_witness_prints_as_build_prints():
    # X^2[1][1] leaves the minors: its witness is the chart's text (grlex on
    # the row-major names), not the block order of the full chart ring
    c = _chart()
    c._cache["intermediate"] = Ideal(c.ring, c.x_matrix().minors2())
    res = verify_check("X2-in-Iprime", c, CFG)
    assert res.witness["offending"] == "X^2[1][1]"
    text = res.witness["generator"]
    assert str(c._text_ring.parse(text)) == text
    assert str(c.ring.parse(text)) != text


def test_gates_and_not_applicable():
    res = verify_check("reduction", _chart(6, 3), CFG)
    assert res.status == "not-applicable"
    res = verify_check("X2-in-Iprime", _chart(6, 3), CFG)
    assert res.status == "not-applicable"
    big = Chart(8, 4, PrimeField(32003))
    res = verify_check("reduction", big, CFG)
    assert res.status == "not-applicable"
    tiny_gate = EngineConfig(modulus=32003, reduced_limit=7)
    res = verify_check("dimensions", big, tiny_gate)
    assert res.status == "not-applicable"


def test_applicable_checks_listing_rule():
    from olmcheck.verify import applicable_checks
    reduced = ["dimensions", "flatness", "special-fiber"]
    assert applicable_checks(_chart(6, 2), CFG) == \
        list(LEMMA_CHECKS) + ["reduction"] + reduced
    # opposite parity, and same parity above full_matrix_limit: the
    # full-ring checks are left out
    assert applicable_checks(_chart(6, 3), CFG) == reduced
    big = _chart(9, 3)
    assert applicable_checks(big, CFG) == reduced
    # above reduced_limit the reduced-ring checks stay listed
    report = chart_report(big, CFG)
    assert [c.status for c in report.checks] == ["not-applicable"] * 3
    assert report.checks[0].witness == \
        {"reason": "reduced-ring checks gated to d <= 8"}


def test_each_check_makes_one_budget(monkeypatch):
    calls = []
    real = EngineConfig.budget

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(EngineConfig, "budget", counting)
    chart = _chart(6, 2)
    for name in CHECK_NAMES:
        calls.clear()
        assert verify_check(name, chart, CFG).status == "pass"
        assert len(calls) <= 1, name


def test_timeout_is_reported_not_passed():
    cfg = EngineConfig(modulus=32003, timeout=1e-9)
    res = verify_check("reduction", _chart(), cfg)
    assert res.status == "timeout"
    assert res.witness and "budget" in res.witness


def test_membership_loops_meet_the_deadline():
    # with the basis cached, the check is membership tests only
    c = _chart(5, 3)
    c.intermediate_ideal().groebner()
    res = verify_check("X2-in-Iprime", c, EngineConfig(modulus=32003, timeout=1e-9))
    assert res.status == "timeout"


@pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf, "5"])
def test_engine_config_rejects_unusable_timeouts(bad):
    with pytest.raises(ValueError, match="got " + re.escape(repr(bad))):
        EngineConfig(timeout=bad)


def test_engine_config_accepts_usable_timeouts():
    assert EngineConfig().budget() is None
    assert EngineConfig(timeout=2.5).budget().seconds == 2.5


class _Metered(EngineConfig):
    """Every check of a run shares one counting budget."""

    def __post_init__(self):
        super().__post_init__()
        self.meter = Budget()

    def budget(self):
        return self.meter


@pytest.mark.parametrize("d, l, modulus, work", [(5, 3, 32003, (70, 103)),
                                                 (6, 2, 32003, (179, 227)),
                                                 (8, 4, 0, (513, 1076))])
def test_chart_report_work_is_fixed(d, l, modulus, work):
    # every Buchberger run of a whole report, and the interreduction that
    # reads each fiber basis off the basis of I''.  I'', the quadric
    # components and J + I_m start from their summands' bases, so no pair
    # inside M'', the special minors, J or I_m is formed again, and
    # B1JB2-symmetric reads the same basis of M''.  Under the chart ring's
    # block order each full-ring basis is the solved non-band variables plus
    # a small basis over k[band, pi].  (8,4) runs the
    # reduced-ring checks only, on a chart with two components.
    cfg = _Metered(modulus=modulus)
    report = chart_report(_chart(d, l, modulus), cfg)
    assert report.passed()
    assert (cfg.meter.pairs, cfg.meter.steps) == work


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("d, l", [(5, 3), (6, 2)])
def test_lemma_bases_match_runs_from_scratch(d, l, modulus):
    c = _chart(d, l, modulus)
    assert verify_check("reduction", c, EngineConfig(modulus=modulus)).status == "pass"
    for ideal in (c.full_ideal(), c.intermediate_ideal(),
                  c.iprime_sans_trace_ideal(), c.solve_plus_reduced_ideal(),
                  c.solve_plus_band_ideal()):
        assert ideal.groebner() == buchberger(ideal.gens)


def test_expected_component_count_table():
    table = {(6, 2): 3, (6, 4): 3, (8, 4): 2, (5, 3): 3, (7, 3): 2,
             (6, 3): 2, (5, 2): 3, (7, 4): 2, (8, 3): 2}
    for (d, l), want in table.items():
        assert expected_component_count(Chart(d, l)) == want


def test_chart_report_carries_primality_note():
    c = _chart()
    report = chart_report(c, CFG, checks=["dimensions"])
    assert PRIMALITY_NOTE in report.notes
    assert report.passed()


def test_report_determinism():
    from olmcheck.cli import report_json
    r1 = chart_report(_chart(), CFG, checks=["dimensions", "special-fiber"])
    r2 = chart_report(_chart(), CFG, checks=["dimensions", "special-fiber"])
    j1, j2 = report_json(r1), report_json(r2)
    j1.pop("timing"), j2.pop("timing")
    assert j1 == j2


def test_run_suite_empty_and_aggregate():
    suite = run_suite([], CFG)
    assert not suite.aggregate_pass
    assert suite.note == "no checks run"
    fast = EngineConfig(modulus=32003, full_matrix_limit=0)
    suite = run_suite([(6, 2)], fast)
    assert suite.aggregate_pass
    names = [c.name for c in suite.reports[0].checks]
    assert names == ["dimensions", "flatness", "special-fiber"]


def test_default_suite_passes():
    from olmcheck.verify import DEFAULT_SUITE
    suite = run_suite(DEFAULT_SUITE, CFG)
    assert suite.aggregate_pass
    assert [(r.d, r.l) for r in suite.reports] == [(5, 2), (5, 3), (6, 2), (6, 3)]


def test_default_suite_substitutes_nothing(monkeypatch):
    from olmcheck.rings import Polynomial
    from olmcheck.verify import DEFAULT_SUITE

    def refuse(*args):
        raise AssertionError("a check called Polynomial.substitute")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    assert run_suite(DEFAULT_SUITE, CFG).aggregate_pass


def test_suite_with_tampered_chart_fails(monkeypatch):
    import olmcheck.verify as vmod
    real = vmod.Chart

    def tampered(d, l, field):
        c = real(d, l, field)
        if (d, l) == (6, 3):
            red = c.reduced_ideal()
            c._cache["reduced"] = Ideal(
                red.ring, [g for g in red.gens if "pi" not in str(g)])
        return c

    monkeypatch.setattr(vmod, "Chart", tampered)
    fast = EngineConfig(modulus=32003, full_matrix_limit=0)
    suite = run_suite([(6, 3), (5, 2)], fast)
    assert not suite.aggregate_pass
    failing = [(r.d, r.l) for r in suite.reports if not r.passed()]
    assert failing == [(6, 3)]
