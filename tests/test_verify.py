"""Verification harness: statuses, witnesses, gates, mutation sensitivity.

Every check must flip to fail under a documented tampering of its inputs;
the tamperings are injected through the chart's ideal cache, which is what
the checks read.
"""

import hashlib
import json
import math
import re

import pytest

from olmcheck import groebner, ideals, verify
from olmcheck.charts import FIBER_PI, Chart
from olmcheck.errors import BudgetExceeded
from olmcheck.fields import PrimeField, QQ
from olmcheck.groebner import Budget, GroebnerBasis, buchberger
from olmcheck.ideals import Ideal, ideal_sum
from olmcheck.matrices import PolyMatrix
from olmcheck.rings import RingMap
from olmcheck.verify import (CHECK_NAMES, DEFAULT_SUITE, EngineConfig,
                             LEMMA_CHECKS, chart_report,
                             expected_component_count, run_suite, verify_check)
from oracles import half_form, is_regular_element, minors2

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
    # I'' + (pi) is not certified, so its fibers run Buchberger on their
    # generators; the generic fiber is the unit ideal, which has no
    # dimension
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
    # the certificate of I'' gives every numerator the checks read and the
    # basis of M'', and each component certifies its own basis, so the
    # reduced-ring checks run Buchberger on nothing at all
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(list(gens))
                        or buchberger(gens, budget))
    c = _chart()
    for name in ("dimensions", "flatness", "special-fiber"):
        assert verify_check(name, c, CFG).status == "pass"
    assert c.degeneration()
    minors, red = c.reduced_minors_ideal(), c.reduced_ideal()
    assert minors._gb is not None and red._gb is None
    special, generic = c.special_fiber_ideal(), c.generic_fiber_ideal()
    assert special._gb is None and generic._gb is None
    assert not runs


@pytest.mark.parametrize("d, l", [(6, 2), (5, 3)])
def test_chart_report_runs_buchberger_on_no_minors_or_fiber(d, l, monkeypatch):
    # the runner asks for the certificate once, before every check body, so
    # a whole report, the lemmas and reduction included, runs Buchberger on
    # neither M'', a fiber of I'' nor a component; the lemmas and reduction
    # evaluate into k[u, w, pi], so I'' and the full-ring ideals run none
    # either
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(list(gens))
                        or buchberger(gens, budget))
    c = _chart(d, l)
    assert chart_report(c, CFG).passed()
    minors, red = c.reduced_minors_ideal(), c.reduced_ideal()
    comps = [ideal for _, ideal, _ in c.component_ideals()]
    for ideal in [minors, c.special_fiber_ideal(), c.generic_fiber_ideal()] + comps:
        assert list(ideal.gens) not in runs, ideal
    assert not runs and red._gb is None
    # so does every check alone, on a fresh chart
    for name in CHECK_NAMES:
        runs.clear()
        c = _chart(d, l)
        assert verify_check(name, c, CFG).status == "pass", name
        comps = [ideal for _, ideal, _ in c.component_ideals()]
        for ideal in [c.reduced_minors_ideal(), c.special_fiber_ideal(),
                      c.generic_fiber_ideal()] + comps:
            assert list(ideal.gens) not in runs, (name, ideal)
    # the certificate hands its facts on by generators: a fresh Ideal with
    # the special fiber's generators, cached before it runs, takes N(J0)
    # with no run; the band minors in its place take nothing
    runs.clear()
    c = _chart(d, l)
    fresh = Ideal(c.fiber_ring, c.special_fiber_ideal().gens)
    c._cache["special"] = fresh
    assert c.degeneration() and not runs
    weights = tuple(ideals.pi_weights(c.reduced_ring))
    n_j0 = c.reduced_ideal()._numerators[weights]
    assert fresh._numerators == {(1,) * c.fiber_ring.nvars: n_j0}
    assert verify_check("dimensions", c, CFG).status == "pass"
    assert fresh._gb is None and not runs
    c = _chart(d, l)
    _minors_as_special(c)
    assert c.degeneration()
    assert not c.special_fiber_ideal()._numerators
    assert c.generic_fiber_ideal()._numerators


def test_reduced_ring_checks_time_out_with_the_certificate_cached():
    spent = EngineConfig(modulus=32003, timeout=1e-9)
    c = _chart()
    assert verify_check("dimensions", c, spent).status == "timeout"
    c = _chart()
    assert verify_check("flatness", c, CFG).status == "pass"
    # every numerator dimensions and flatness read is cached with the
    # certificate, which meets the deadline before it reads its cache
    assert c.degeneration()
    for name in ("dimensions", "flatness"):
        assert verify_check(name, c, spent).status == "timeout"
    with pytest.raises(BudgetExceeded, match="time budget"):
        c.degeneration(spent.budget())


def _charts_up_to_9():
    return [(d, l) for d in range(5, 10) for l in range(2, d - 1)]


@pytest.mark.parametrize("modulus", [32003, 0])
def test_degeneration_numerators_match_fresh_ideals(modulus):
    # the numerators the certificate keeps are those a basis from the bare
    # generators gives, and M'' keeps the basis Buchberger gives
    assert len(_charts_up_to_9()) == 20
    for d, l in _charts_up_to_9():
        c = _chart(d, l, modulus)
        assert c.degeneration(), (d, l)
        red, minors = c.reduced_ideal(), c.reduced_minors_ideal()
        assert red._gb is None and minors._gb == buchberger(minors.gens)
        weights = ideals.pi_weights(red.ring)
        pairs = [(red, weights), (c.special_fiber_ideal(), None),
                 (c.generic_fiber_ideal(), None)]
        for ideal, w in pairs:
            fresh = Ideal(ideal.ring, ideal.gens)
            assert ideals.hilbert_numerator(ideal, w) == \
                ideals.hilbert_numerator(fresh, w), (d, l, ideal)
            assert ideal._gb is None


def _tampered_trace(c, trace):
    """The chart's I'' with its trace generator replaced by ``trace``."""
    c._cache["reduced"] = ideal_sum(c.reduced_ring, [c.reduced_minors_ideal()],
                                    [trace])
    return c._cache["reduced"]


@pytest.mark.parametrize("modulus", [32003, 0])
def test_degeneration_rejects_a_tampered_trace(modulus):
    # a band minor in place of the trace generator lies in M'': no corner
    # pair, I'' = M'', and both fibers have dimension d-1
    c = _chart(6, 2, modulus)
    minors = c.reduced_minors_ideal()
    red = _tampered_trace(c, minors.gens[0])
    assert not c.degeneration()
    assert red._numerators == {} and minors._gb is None
    res = verify_check("dimensions", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"expected": 4, "special": 5, "generic": 5}
    # one corner coefficient changed: x_11 x_ab and x_1b x_a1 differ
    c = _chart(6, 2, modulus)
    trace = c.reduced_ideal().gens[0]
    rr = c.reduced_ring
    corner = rr.var("x[3][1]") * rr.var("x[4][6]")
    red = _tampered_trace(c, trace + corner)
    assert not c.degeneration()
    assert red._numerators == {} and c.reduced_minors_ideal()._gb is None
    res = verify_check("flatness", c, CFG)
    assert res.status == "pass" and red._gb is not None


def test_flatness_passes():
    res = verify_check("flatness", Chart(6, 2, QQ), CFG)
    assert res.status == "pass"


def test_report_names_the_chart_field():
    # a rational chart under a config at 32003 computes over Q, and its
    # report says so
    for field, modulus in ((QQ, 0), (PrimeField(32003), 32003),
                           (PrimeField(7), 7)):
        report = chart_report(Chart(6, 2, field), CFG, ["flatness"])
        assert report.engine["modulus"] == modulus


def test_report_bodies_do_not_share_the_engine_order(monkeypatch):
    # each body gets its own copy of the fixed orders: editing one body
    # changes neither the table nor a later report
    from olmcheck.cli import report_json
    monkeypatch.setattr(verify, "ENGINE_ORDER", dict(verify.ENGINE_ORDER))
    want = dict(verify.ENGINE_ORDER)
    body = report_json(chart_report(_chart(), CFG, ["dimensions"]))
    body["engine"]["order"]["reduced_ring"] = "lex"
    assert verify.ENGINE_ORDER == want
    later = report_json(chart_report(_chart(), CFG, ["dimensions"]))
    assert later["engine"]["order"] == want


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

    # I3 cut down to its first two quadrics: they map into (q_w), but their
    # leads fall short of the closed-form numerator
    c = _chart()
    comps = c.component_ideals()
    label, ideal, v = comps[2]
    weakened = Ideal(ideal.ring, ideal.gens[:2])
    c._cache["components"] = comps[:2] + [(label, weakened, v)]
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"subcheck": "component-numerator", "component": "I3",
                           "form": "column",
                           "expected": [1, 0, -9, 16, -9, 0, 1],
                           "got": [1, 0, -2, 1]}


def _minors_as_special(c):
    """The cached special fiber replaced by the band minors alone: they lie
    in every component, but cut out a variety of dimension d-1, and are not
    the generators of I'' at pi = 0 the certificate speaks for."""
    ring = c.fiber_ring
    c._cache["special"] = Ideal(ring, minors2(c._matrix(ring, c.rows, c.cols)))


def test_special_fiber_numerator_mutation_fails():
    c = _chart()
    _minors_as_special(c)
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"subcheck": "certificate", "ideal": "I_s"}


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


def _overlapping(c):
    """I1 replaced by I2: both linear components use the same variables."""
    comps = c.component_ideals()
    label, _, v = comps[0]
    c._cache["components"] = [(label, comps[1][1], v)] + comps[1:]
    return c


def _with_extra(c, text):
    """I1 with the generator ``text`` added."""
    comps = c.component_ideals()
    label, ideal, v = comps[0]
    g = c.fiber_ring.parse(text)
    c._cache["components"] = [
        (label, Ideal(ideal.ring, ideal.gens + (g,)), v)] + comps[1:]
    return c


@pytest.mark.parametrize("modulus", [32003, 0])
def test_special_fiber_overlapping_linear_components_fail(modulus):
    # each component is a certified prime holding I_s, and the multiplicity
    # sum 1 + 1 + 6 still equals e(R/I_s) = 8: only distinctness catches
    # the copy
    res = verify_check("special-fiber", _overlapping(_chart(6, 2, modulus)),
                       CFG)
    assert res.status == "fail"
    assert res.witness == {"subcheck": "incomparability",
                           "contained": "I1", "in": "I2"}


@pytest.mark.parametrize("modulus", [32003, 0])
def test_special_fiber_non_linear_component_fails(modulus):
    # I1 = (x[2][1], x[3][1], x[4][1]) of the three-component (5,3) chart
    # with one generator added; a component with a generator of degree at
    # most 1 is certified as linear, so its reduced basis must be variables
    def with_extra(text):
        return verify_check("special-fiber",
                            _with_extra(_chart(5, 3, modulus), text), CFG)

    # the square of a variable I1 does not contain stays in the basis
    res = with_extra("x[4][5]^2")
    assert res.status == "fail"
    assert res.witness == {"subcheck": "component-linear", "component": "I1",
                           "generator": "x[4][5]^2"}
    # a generator already in I1 leaves its reduced basis, and the verdict,
    # as they were
    assert with_extra("x[4][1]*x[4][5]").status == "pass"
    # a basis element of two terms is not a variable, and is the witness
    res = with_extra("x[4][5] + x[2][5]")
    assert res.status == "fail"
    assert res.witness == {"subcheck": "component-linear", "component": "I1",
                           "generator": "x[2][5] + x[4][5]"}


def test_special_fiber_unit_component_fails():
    # a unit component has a generator of degree 0, so it is certified as
    # linear, and its reduced basis, 1, is not a variable
    c = Chart(7, 3, PrimeField(32003))
    fr = c.fiber_ring
    (_, _, v1), (_, _, v2) = c.component_ideals()
    c._cache["components"] = [
        ("I1", Ideal(fr, [fr.one()]), v1),
        ("I2", Ideal(fr, c.special_fiber_ideal().gens), v2)]
    res = verify_check("special-fiber", c, CFG)
    assert res.status == "fail"
    assert res.witness == {"subcheck": "component-linear", "component": "I1",
                           "generator": "1"}


def test_special_fiber_verdict_matches_the_intersection():
    # the intersection cap I_j formed by Ideal.intersect is the reference
    # for the decomposition by certificates and multiplicities
    charts = [Chart(d, l, QQ) for d in range(5, 9) for l in range(2, d - 1)]
    minors = Chart(6, 2, QQ)
    _minors_as_special(minors)
    # I1 of (8,4) cut down to the band minors: I_s no longer lies in it
    weakened = Chart(8, 4, QQ)
    ring = weakened.fiber_ring
    band = set(minors2(weakened._matrix(ring, weakened.rows, weakened.cols)))
    comps = weakened.component_ideals()
    label, ideal, v = comps[0]
    weakened._cache["components"] = [
        (label, _drop(ideal, lambda g: g not in band), v)] + comps[1:]
    # linear components: overlapping, and one not linear
    overlap = _overlapping(Chart(6, 2, QQ))
    square = _with_extra(Chart(5, 3, QQ), "x[4][5]^2")
    verdicts = []
    for c in charts + [minors, overlap, square, weakened]:
        inter = None
        for _, ideal, _ in c.component_ideals():
            inter = ideal if inter is None else inter.intersect(ideal)
        equal = c.special_fiber_ideal().equals(inter)
        res = verify_check("special-fiber", c, EngineConfig(modulus=0))
        assert (res.status == "pass") == equal, (c.d, c.l, res.witness)
        verdicts.append(res.status)
    assert verdicts == ["pass"] * 14 + ["fail"] * 4
    # the weakened I1 fails its own certificate
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


def test_spent_budget_in_a_seeded_run_times_out():
    # with M'' cached, the seeded run is all that I'' runs, and it meets
    # the deadline too
    class Spent(Budget):
        def deadline(self):
            raise BudgetExceeded("time budget spent in a seeded run")

    fresh = _chart(8, 4)
    fresh.reduced_minors_ideal().groebner()
    with pytest.raises(BudgetExceeded, match="seeded run"):
        fresh.reduced_ideal().groebner(Spent())


@pytest.mark.parametrize("modulus", [32003, 0])
def test_special_fiber_meets_the_deadline_per_component(modulus, monkeypatch):
    # special-fiber runs no Buchberger; its budget is met between the
    # component certificates and inside each interreduction, so a budget
    # spent at any of those calls makes the check time out
    events = []
    real = groebner._interreduce

    def interreduce(*args, **kwargs):
        events.append("enter")
        try:
            return real(*args, **kwargs)
        finally:
            events.append("leave")

    class Recording(Budget):
        spend_at = None

        def deadline(self):
            inside = events.count("enter") > events.count("leave")
            events.append("inside" if inside else "outside")
            if sum(e in ("inside", "outside") for e in events) == self.spend_at:
                raise BudgetExceeded("time budget spent at call %d" % self.spend_at)

    class Config(EngineConfig):
        def budget(self):
            return Recording()

    monkeypatch.setattr(groebner, "_interreduce", interreduce)
    c = _chart(6, 2, modulus)
    assert c.degeneration()
    assert verify_check("special-fiber", c, Config(modulus=modulus)).status == "pass"
    calls = [e for e in events if e in ("inside", "outside")]
    # each of the three components interreduces with the deadline met
    # inside, and a call outside comes before each certificate
    runs = "".join("o" if e == "outside" else "i" for e in calls)
    assert runs.count("oi") == 3 and "ii" in runs
    for k in range(1, len(calls) + 1):
        events.clear()
        Recording.spend_at = k
        res = verify_check("special-fiber", c, Config(modulus=modulus))
        assert res.status == "timeout", k
        assert res.witness == {"budget": "time budget spent at call %d" % k}


@pytest.mark.parametrize("modulus", [32003, 0])
def test_special_fiber_runs_no_buchberger(modulus, monkeypatch):
    # on every chart with 5 <= d <= 9 the certificate of I'' and the
    # components' own certificates leave nothing for Buchberger
    runs = []
    monkeypatch.setattr(ideals, "buchberger",
                        lambda gens, budget=None: runs.append(gens)
                        or buchberger(gens, budget))
    cfg = EngineConfig(modulus=modulus, reduced_limit=9)
    charts = _charts_up_to_9()
    for d, l in charts:
        res = verify_check("special-fiber", _chart(d, l, modulus), cfg)
        assert res.status == "pass", (d, l, res.witness)
    assert len(charts) == 20 and not runs


@pytest.mark.parametrize("modulus", [32003, 0])
def test_reduced_ring_work_forms_no_matrix_product(modulus, monkeypatch):
    # M'', I'', the certificate of I'', the components, the full-ring
    # equations, the solve relations, the substitution map and the lemma
    # targets are written term by term from the Gram pairings: every check
    # passes, and ``build`` renders every fiber, with no matrix product
    def refuse(self, other):
        raise AssertionError("a polynomial matrix product")
    monkeypatch.setattr(PolyMatrix, "__matmul__", refuse)
    cfg = EngineConfig(modulus=modulus)
    for d, l in [(5, 3), (6, 2), (6, 3), (8, 4)]:
        c = _chart(d, l, modulus)
        assert c.reduced_minors_ideal().gens and c.reduced_ideal().gens
        assert c.degeneration()
        assert len(c.component_ideals()) == expected_component_count(c)
        names = CHECK_NAMES if (d, l) in [(5, 3), (6, 2)] else \
            ("dimensions", "flatness", "special-fiber")
        for name in names:
            res = verify_check(name, c, cfg)
            assert res.status == "pass", (d, l, name, res.witness)
    for d, l in [(6, 2), (5, 2)]:
        for fiber in FIBER_PI:
            assert _chart(d, l, modulus).to_json(fiber)["ideals"]["full"]


def test_component_mutations_are_plain_ideals():
    # a quadric component is a plain ideal, its quadrics then the band
    # minors; the mutations that drop or add a generator are plain ideals
    # too, and each is certified, or not, from its generators alone
    c = _chart()
    ring = c.fiber_ring
    label, ideal, v = c.component_ideals()[2]
    minors = tuple(minors2(c._matrix(ring, c.rows, c.cols)))
    k = len(ideal.gens) - len(minors)
    assert ideal._summands is None and k > 0 and ideal.gens[k:] == minors
    assert not isinstance(c.certify_component(ideal), dict)
    g = ring.parse("x[3][1]^2")
    for mutated in (Ideal(ring, ideal.gens[:2]), Ideal(ring, ideal.gens + (g,))):
        assert mutated._summands is None
        assert isinstance(c.certify_component(mutated), dict)


def _replaced(c, k, ideal):
    """The chart with component k's ideal replaced."""
    comps = c.component_ideals()
    label, _, v = comps[k]
    c._cache["components"] = comps[:k] + [(label, ideal, v)] + comps[k + 1:]
    return c


@pytest.mark.parametrize("modulus", [32003, 0])
def test_component_certificate_mutations_fail(modulus):
    def witness(c):
        res = verify_check("special-fiber", c, CFG)
        assert res.status == "fail"
        return res.witness

    # I3 of (6,2) built on the row form q_u = u_3 u_4, of rank 2: its
    # quadrics map into (q_u), but k[u, w]/(q_u) is no domain
    c = _chart(6, 2, modulus)
    ring = c.fiber_ring
    Y = c._matrix(ring, c.rows, c.cols)
    U = half_form(ring, c.gram()[1], c.rows)
    _replaced(c, 2, Ideal(ring, (Y.T @ U @ Y).entries() + minors2(Y)))
    assert witness(c) == {"subcheck": "component-rank", "component": "I3",
                          "form": "row", "rank": 2}
    # I1 of (8,4) without its first quadric: the leads fall short
    c = _chart(8, 4, modulus)
    ideal = c.component_ideals()[0][1]
    _replaced(c, 0, Ideal(ideal.ring, ideal.gens[1:]))
    assert witness(c) == {
        "subcheck": "component-numerator", "component": "I1", "form": "row",
        "expected": [1, 0, -46, 240, -585, 768, -420, -288, 735, -640, 306,
                     -80, 9],
        "got": [1, 0, -45, 228, -519, 548, 75, -1080, 1659, -1432, 801, -300,
                75, -12, 1]}
    # a component replaced by a copy of another: a certified prime holding
    # I_s, but not a new one
    c = _chart(8, 4, modulus)
    _replaced(c, 1, c.component_ideals()[0][1])
    assert witness(c) == {"subcheck": "incomparability",
                          "contained": "I1", "in": "I2"}
    c = _chart(6, 2, modulus)
    _replaced(c, 2, c.component_ideals()[0][1])
    assert witness(c) == {"subcheck": "incomparability",
                          "contained": "I1", "in": "I3"}
    # I1 of (6,2) with two of its variables swapped for I2's: a certified
    # linear prime, but the trace generator leaves it
    c = _chart(6, 2, modulus)
    (_, i1, _), (_, i2, _), _ = c.component_ideals()
    _replaced(c, 0, Ideal(ring, i1.gens[:2] + i2.gens[2:]))
    assert witness(c) == {
        "subcheck": "containment", "component": "I1",
        "generator": "x[3][1]*x[4][6] + x[3][2]*x[4][5] + x[3][5]*x[4][2]"
                     " + x[3][6]*x[4][1]"}


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
    c._cache["intermediate"] = Ideal(c.ring, minors2(c.x_matrix()))
    res = verify_check("X2-in-Iprime", c, CFG)
    assert res.status == "fail" and "offending" in res.witness

    # antisym and the bilinear relation need more than minors + traces
    for name in ("antisym", "S0-relation"):
        c = _chart()
        keep = minors2(c.x_matrix()) + \
            [g for g in c.intermediate_ideal().gens if g.total_degree() == 1]
        c._cache["intermediate"] = Ideal(c.ring, keep)
        res = verify_check(name, c, CFG)
        assert res.status == "fail", name

    # B1JB2-symmetric against M'' cut down to the band-row minors over
    # columns {2, 5, 6}
    c = _chart()
    rr = c.reduced_ring
    c._cache["reduced-minors"] = Ideal(rr, minors2(c._matrix(rr, c.rows, [2, 5, 6])))
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
    c._cache["intermediate"] = Ideal(c.ring, minors2(c.x_matrix()))
    res = verify_check("X2-in-Iprime", c, CFG)
    assert res.witness["offending"] == "X^2[1][1]"
    text = res.witness["generator"]
    assert str(c._text_ring.parse(text)) == text
    assert str(c.ring.parse(text)) != text


def test_gates_and_not_applicable():
    # the gate gives every not-applicable reason: opposite parity by each
    # full-ring check's own text, then the full-matrix and reduced-ring
    # limits; a check the gate admits (reason None) runs and passes
    parity = dict.fromkeys(LEMMA_CHECKS, "lemma suite is for same-parity charts")
    parity["reduction"] = \
        "substitution map is printed for same-parity charts only"
    full = dict.fromkeys(parity, "full-matrix checks gated to d <= 6")
    reduced = ("dimensions", "flatness", "special-fiber")
    gated = lambda limit: dict.fromkeys(
        reduced, "reduced-ring checks gated to d <= %d" % limit)
    tiny_gate = EngineConfig(modulus=32003, reduced_limit=7)
    cases = [((6, 3), CFG, {**parity, **dict.fromkeys(reduced)}),
             ((5, 2), CFG, {**parity, **dict.fromkeys(reduced)}),
             ((9, 3), CFG, {**full, **gated(8)}),
             ((8, 4), tiny_gate, {**full, **gated(7)})]
    for (d, l), cfg, reasons in cases:
        assert tuple(reasons) == CHECK_NAMES
        chart = _chart(d, l)
        for name, reason in reasons.items():
            res = verify_check(name, chart, cfg)
            if reason is None:
                assert res.status == "pass", (d, l, name)
            else:
                assert (res.status, res.witness) == \
                    ("not-applicable", {"reason": reason}), (d, l, name)


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
    # the runner's certificate meets the deadline first; the body alone
    # meets it too
    body, _ = verify._CHECKS["X2-in-Iprime"]
    with pytest.raises(BudgetExceeded, match="time budget"):
        body(c, Budget(seconds=1e-9))


FULL_RING_CHECKS = LEMMA_CHECKS + ("reduction",)


def _refuse(*args, **kwargs):
    raise AssertionError("a Buchberger run")


def _forced(self, ideal, budget=None):
    """Chart.kernel with every certificate failing: the Buchberger path."""
    return {"step": "forced"}


def _results(c, cfg=CFG, names=FULL_RING_CHECKS):
    return [(r.name, r.status, r.witness) for r in chart_report(c, cfg, names).checks]


@pytest.mark.parametrize("modulus", [32003, 0])
def test_lemmas_and_reduction_run_no_buchberger(modulus, monkeypatch):
    # every full-ring ideal the lemmas and reduction read is certified as
    # the kernel of one map into k[u, w, pi], so not one Buchberger run is
    # made, in a whole suite either
    monkeypatch.setattr(ideals, "buchberger", _refuse)
    monkeypatch.setattr(groebner, "buchberger", _refuse)
    cfg = EngineConfig(modulus=modulus)
    for d, l in [(5, 3), (6, 2)]:
        c = _chart(d, l, modulus)
        assert _results(c, cfg) == [(name, "pass", None) for name in FULL_RING_CHECKS]
        kept = c._cache["kernels"]
        assert len(kept) == 6 and all(isinstance(Phi, RingMap) for _, Phi in kept)
        assert len(c._cache["maps"]) == 1       # one map, its products built once
    assert run_suite(DEFAULT_SUITE, cfg).aggregate_pass


def test_certified_checks_spent_budget_time_out(monkeypatch):
    c = _chart(6, 2)
    assert _results(c) == [(name, "pass", None) for name in FULL_RING_CHECKS]
    # every certificate is kept now, and no check reads a basis
    monkeypatch.setattr(ideals, "buchberger", _refuse)
    spent = EngineConfig(modulus=32003, timeout=1e-9)
    for name in FULL_RING_CHECKS:
        res = verify_check(name, c, spent)
        assert res.status == "timeout" and "budget" in res.witness, name
        body, _ = verify._CHECKS[name]
        with pytest.raises(BudgetExceeded, match="time budget"):
            body(c, Budget(seconds=1e-9))


@pytest.mark.parametrize("modulus", [32003, 0])
def test_certified_checks_meet_the_deadline_before_each_evaluation(modulus,
                                                                    monkeypatch):
    # T's lookup and each image it builds, each generator Z evaluates, each
    # target and each section test meet the deadline before they evaluate,
    # so a budget spent at any deadline call makes the check time out
    events = []
    real = RingMap.__call__
    monkeypatch.setattr(RingMap, "__call__",
                        lambda self, f: events.append("eval") or real(self, f))

    class Recording(Budget):
        spend_at, calls = None, 0

        def deadline(self):
            events.append("deadline")
            self.calls += 1
            if self.calls == self.spend_at:
                raise BudgetExceeded("time budget spent at call %d" % self.spend_at)

    class Config(EngineConfig):
        def budget(self):
            return Recording()

    c = _chart(6, 2, modulus)
    assert _results(c, Config(modulus=modulus)) == \
        [(name, "pass", None) for name in FULL_RING_CHECKS]
    assert events.count("eval") > 300
    assert all(a == "deadline" for a, b in zip(events, events[1:]) if b == "eval")
    for name in FULL_RING_CHECKS:
        events.clear()
        assert verify_check(name, _chart(6, 2, modulus), Config(modulus=modulus)).status \
            == "pass"
        calls = events.count("deadline")
        for k in sorted({1, 2, calls // 2, calls}):
            Recording.spend_at = k
            res = verify_check(name, _chart(6, 2, modulus), Config(modulus=modulus))
            assert res.status == "timeout", (name, k)
            assert res.witness == {"budget": "time budget spent at call %d" % k}
        Recording.spend_at = None


def _without_band_entry(c):
    """I' without the band-family entry that solves x[3][4]."""
    g = c._equations().band[0, 0]
    c._cache["intermediate"] = _drop(c.intermediate_ideal(), lambda h: h == g)


def _with_band_variable(c):
    """I' with the band variable x[3][1] added: Phi(x[3][1]) = u3 w1."""
    ideal = c.intermediate_ideal()
    c._cache["intermediate"] = Ideal(c.ring, ideal.gens + (c.ring.var("x[3][1]"),))


def _with_three_pi(c):
    """I' with Tr(A) + 3 pi in place of Tr(A) + 2 pi."""
    trace_A, pi = c._equations().trace_A, c.ring.var("pi")
    c._cache["intermediate"] = Ideal(c.ring, [g + pi if g == trace_A else g
                                              for g in c.intermediate_ideal().gens])


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("tamper, step", [
    (_without_band_entry, {"step": "T", "variable": "x[3][4]"}),
    (_with_band_variable, {"step": "Z", "generator": "x[3][1]"}),
    (_with_three_pi, {"step": "C"}),
    (_shift_non_band_image, None)], ids=["T", "Z", "C", "section"])
def test_certificate_mutations_keep_their_verdicts(tamper, step, modulus, monkeypatch):
    # a tampered I' fails the certificate step named and falls back to
    # Buchberger, with the verdicts and witnesses the Buchberger path gives;
    # a wrong printed phi leaves I' and I certified, and reduction fails
    # with the same section witness as on the Buchberger path
    c = _chart(6, 2, modulus)
    tamper(c)
    got = c.kernel(c.intermediate_ideal())
    if step is None:
        assert isinstance(got, RingMap) and c.kernel(c.full_ideal()).images == got.images
    else:
        assert {k: str(v) for k, v in got.items()} == step
    names = ("X2-in-Iprime", "antisym", "S0-relation", "reduction")
    results = _results(c, names=names)
    with monkeypatch.context() as m:
        m.setattr(Chart, "kernel", _forced)
        fresh = _chart(6, 2, modulus)
        tamper(fresh)
        assert _results(fresh, names=names) == results
    # the lemmas still pass; I' is no longer I, or phi no section
    assert [status for _, status, _ in results] == ["pass"] * 3 + ["fail"]
    if step is None:
        assert results[-1][2] == {"subcheck": "section", "variable": c.ring.names[0]}


@pytest.mark.parametrize("modulus", [32003, 0])
def test_certified_and_buchberger_paths_agree(modulus, monkeypatch):
    # every same-parity chart with d <= 8: each lemma and reduction, once
    # with every ideal certified and once with every certificate forced to
    # fail, give the same verdicts and witnesses
    charts = [(d, l) for d in range(5, 9) for l in range(2, d - 1) if (d - l) % 2 == 0]
    cfg = EngineConfig(modulus=modulus, full_matrix_limit=8)
    certified = {}
    for d, l in charts:
        c = _chart(d, l, modulus)
        certified[d, l] = _results(c, cfg)
        assert all(isinstance(Phi, RingMap) for _, Phi in c._cache["kernels"])
    monkeypatch.setattr(Chart, "kernel", _forced)
    assert len(charts) == 8
    assert {(d, l): _results(_chart(d, l, modulus), cfg) for d, l in charts} == certified


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


@pytest.mark.parametrize("d, l, modulus, work", [(5, 3, 32003, (0, 2)),
                                                 (6, 2, 32003, (0, 3)),
                                                 (8, 4, 0, (0, 36))])
def test_chart_report_work_is_fixed(d, l, modulus, work):
    # every Buchberger run of a whole report, each loose generator's
    # reduction included, and the steps of the interreductions that
    # certify M'' and the components.  The certificate of I'', which the
    # runner asks for before the first check body, gives M'' its basis with
    # no run, and every fiber numerator, so no fiber basis is read; each
    # component certifies its basis with no S-pair.  The lemmas and
    # reduction certify their full-ring ideals as the kernel of one map and
    # evaluate into k[u, w, pi], so no full-ring ideal and not I'' runs
    # Buchberger: what is left are the interreductions.  (8,4) runs the
    # reduced-ring checks only.
    cfg = _Metered(modulus=modulus)
    report = chart_report(_chart(d, l, modulus), cfg)
    assert report.passed()
    assert (cfg.meter.pairs, cfg.meter.steps) == work


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("d, l", [(5, 3), (6, 2), (7, 3), (8, 4)])
def test_lemma_bases_match_runs_from_scratch(d, l, modulus):
    c = _chart(d, l, modulus)
    cfg = EngineConfig(modulus=modulus, full_matrix_limit=8)
    assert verify_check("reduction", c, cfg).status == "pass"
    for ideal in (c.full_ideal(), c.intermediate_ideal(),
                  c.iprime_sans_trace_ideal(), c.solve_plus_reduced_ideal(),
                  c.solve_plus_band_ideal()):
        assert ideal.groebner() == buchberger(ideal.gens)


# each chained ideal and its summand, by method name, with the summand's
# cache key
_CHAIN = (("intermediate_ideal", "iprime_sans_trace_ideal", "iprime-sans-trace"),
          ("full_ideal", "intermediate_ideal", "intermediate"),
          ("solve_plus_band_ideal", "solve_plus_reduced_ideal",
           "solve-plus-reduced"))


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("d, l", [(5, 3), (6, 2)])
def test_chained_runs_form_no_pairs(d, l, modulus):
    # I' over I' without Tr(X), I over I' and solve-plus-band over
    # solve-plus-reduced are equal ideals: once the summand's basis is
    # there, every loose generator reduces to zero over it
    c = _chart(d, l, modulus)
    c.iprime_sans_trace_ideal().groebner()
    c.solve_plus_reduced_ideal().groebner()
    for name, _, key in _CHAIN:
        ideal = getattr(c, name)()
        (summand,), loose = ideal._summands
        assert summand is c._cache[key] and loose
        meter = Budget()
        assert ideal.groebner(meter) == summand.groebner()
        assert meter.pairs == 0, name


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("d, l, digests", [
    (5, 3, {"full_ideal": (192, "5a4779d102c144d6"),
            "intermediate_ideal": (136, "1926d6e444ec04e3"),
            "solve_plus_band_ideal": {32003: (120, "701d103944301dc5"),
                                      0: (120, "68baeb0430c29b82")}}),
    (6, 2, {"full_ideal": (341, "672d48a4c973c7a6"),
            "intermediate_ideal": (267, "f59699c37214fa3c"),
            "solve_plus_band_ideal": {32003: (254, "894341560a6aa893"),
                                      0: (254, "0142ef6eaacc5c41")}})])
def test_chained_ideals_keep_their_generators(d, l, digests, modulus):
    # the count and a digest of the generator texts in order: perfbench's
    # membership workload draws its queries from full_ideal().gens by index
    c = _chart(d, l, modulus)
    for name, want in digests.items():
        gens = getattr(c, name)().gens
        text = "\n".join(map(str, gens)).encode()
        got = (len(gens), hashlib.sha256(text).hexdigest()[:16])
        assert got == (want[modulus] if isinstance(want, dict) else want), name


@pytest.mark.parametrize("modulus", [32003, 0])
@pytest.mark.parametrize("name, summand_name, key", _CHAIN)
def test_chained_basis_survives_a_tampered_summand(name, summand_name, key,
                                                   modulus):
    # a smaller summand (its linear generators dropped) leaves more of the
    # chained ideal's generators loose, and a summand with a generator
    # outside the chained ideal's is not used: either way the basis is the
    # basis of the chained ideal's own generators
    def tampered(c, kind):
        summand = getattr(c, summand_name)()
        if kind == "smaller":
            return _drop(summand, lambda g: g.total_degree() == 1)
        return Ideal(c.ring, summand.gens + (c.ring.var(c.ring.names[-2]),))

    c = _chart(6, 2, modulus)
    ideal = getattr(c, name)()
    want = buchberger(ideal.gens)
    # the generators the untouched summand leaves loose, handed over as a
    # list, would lose the dropped ones
    (_,), loose = ideal._summands
    assert buchberger([tampered(c, "smaller").groebner(), *loose]) != want
    for kind in ("smaller", "wider"):
        c = _chart(6, 2, modulus)
        c._cache[key] = tampered(c, kind)
        chained = getattr(c, name)()
        assert list(map(str, chained.gens)) == list(map(str, ideal.gens))
        assert (chained._summands is None) == (kind == "wider")
        assert chained.groebner() == buchberger(chained.gens)


def test_expected_component_count_table():
    table = {(6, 2): 3, (6, 4): 3, (8, 4): 2, (5, 3): 3, (7, 3): 2,
             (6, 3): 2, (5, 2): 3, (7, 4): 2, (8, 3): 2}
    for (d, l), want in table.items():
        assert expected_component_count(Chart(d, l)) == want


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
