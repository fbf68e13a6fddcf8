"""Named machine checks for the chart ideals, with structured reports.

Every check returns a ``CheckResult`` whose status is one of ``pass``,
``fail``, ``timeout`` or ``not-applicable``; failures and timeouts always
carry a witness (offending generator, computed versus expected number,
budget note).  A suite over several charts aggregates to pass only when
every executed check passes.

Component primality is not fully verified here (that is out of reach for
this engine); the special-fiber check enforces the structural facts instead:
the ideal equality I_s = intersection of the components, the component
count, equidimensionality, pairwise incomparability, and the leading-term
criterion (no pure power of the designated variable), and each report
carries a note saying so.  The equality is proved without forming the
intersection: I_s and the components are homogeneous, I_s lies in every
component, and the Hilbert numerator of I_s equals that of the
intersection, which the exact sequence of J cap I_m gives from J, I_m and
J + I_m; for three components J, the meet of two monomial ones, is
generated by their pairwise lcms.
Every check computes in the chart's own field, which its report names.

Only the gate (``_gate``) reports a check not applicable.  Before every
check body the runner asks once for the chart's certificate of I''
(``Chart.degeneration``), which the chart caches.  When it holds, the
numerators of I'', I_s and I_g and the bases of M'' and the special minors
are known with no Buchberger run, so dimensions and flatness read
numerators only.  A fiber whose generators are not those of I'' or M''
at its pi, or one of an I'' the certificate fails on, falls back to
Buchberger on its own generators, with the same verdicts and witnesses.
"""

import math
import time
from dataclasses import dataclass, field as dataclass_field

from .charts import Chart
from .errors import BudgetExceeded
from .fields import coefficient_field
from .groebner import Budget
from .ideals import (Ideal, hilbert_numerator, inhomogeneous_generator,
                     intersection_numerator, pi_weights, pure_power_free,
                     subring_part)
from .rings import cast

PRIMALITY_NOTE = ("component primality is checked only through the "
                  "leading-term criterion and the structural checks, "
                  "not proved in full")


@dataclass
class CheckResult:
    name: str
    status: str
    witness: dict | None = None
    millis: float = 0.0


def usable_seconds(value):
    """True for a time budget a check can run under: finite positive
    seconds."""
    try:
        return 0 < value < math.inf
    except TypeError:
        return False


# the monomial orders the checks run under; Chart fixes them, they are not
# a setting
ENGINE_ORDER = {"full_ring": "block(non-band | band, pi)",
                "reduced_ring": "grlex"}


@dataclass
class EngineConfig:
    """Field and budget configuration for a verification run."""

    modulus: int = 32003          # 0 selects the rationals
    timeout: float | None = None  # seconds per check
    full_matrix_limit: int = 6    # largest d for checks on the full d*d ring
    reduced_limit: int = 8        # largest d for reduced-ring checks

    def __post_init__(self):
        if self.timeout is not None and not usable_seconds(self.timeout):
            raise ValueError("timeout must be None or finite positive "
                             "seconds, got %r" % (self.timeout,))

    def field(self):
        return coefficient_field(self.modulus)

    def budget(self):
        return None if self.timeout is None else Budget(seconds=self.timeout)

    def describe(self, field):
        return {
            "modulus": field.characteristic,
            "order": dict(ENGINE_ORDER),
            "budgets": {"timeout_seconds": self.timeout,
                        "full_matrix_limit": self.full_matrix_limit,
                        "reduced_limit": self.reduced_limit},
        }


@dataclass
class ChartReport:
    d: int
    l: int
    case: str
    checks: list
    engine: dict
    notes: list = dataclass_field(default_factory=list)

    def passed(self):
        return all(c.status == "pass" for c in self.checks
                   if c.status != "not-applicable") and \
            any(c.status == "pass" for c in self.checks)


@dataclass
class SuiteReport:
    reports: list
    aggregate_pass: bool
    note: str | None = None


def _extra_element(chart, ia, ib, budget):
    """A reduced-basis element of one ideal that the other's basis lacks."""
    gA = ia.groebner(budget)
    gB = ib.groebner(budget)
    extra = [p for p in gA if p not in gB.polys] or \
            [p for p in gB if p not in gA.polys]
    return _clip(chart, extra[0])


def _clip(chart, g, limit=180):
    """g in the chart's text, as ``build`` prints it, cut at ``limit``."""
    s = chart._text(g)
    return s if len(s) <= limit else s[:limit] + " ..."


def _tagged_entries(tag, mat):
    out = []
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            g = mat[i, j]
            if not g.is_zero():
                out.append(("%s[%d][%d]" % (tag, i + 1, j + 1), g))
    return out


def _theta_asym(eq):
    theta = eq.B1 @ eq.Je @ eq.B2.T
    return _tagged_entries("theta-asym", theta - theta.T)


def _a_relations(eq):
    two_pi = eq.pi.scale(2)
    targets = []
    for tag, M in (("AtJB1", eq.B1), ("AtJB2", eq.B2), ("AtJA", eq.A)):
        targets += _tagged_entries(
            tag, (eq.A.T @ eq.Jm @ M) + (eq.Jm @ M).scale(two_pi))
    return targets


_LEMMA_PARITY = "lemma suite is for same-parity charts"


def _lemma(name, ideal_of, targets_of):
    """The table row of one of the seven reduction lemmas, a membership
    check: every target read off ``chart._equations()`` lies in the chart's
    ideal.  Both are read through the chart instance, so a replaced method
    or a cached ideal is what the check sees; a target in another ring is
    cast to the ideal's."""
    def body(chart, budget):
        targets = targets_of(chart._equations())
        ideal = ideal_of(chart)
        for tag, g in targets:
            if g.ring is not ideal.ring:
                g = cast(g, ideal.ring)
            if not ideal.contains(g, budget):
                return "fail", {"target": name, "offending": tag,
                                "generator": _clip(chart, g)}
        return "pass", None
    return body, _LEMMA_PARITY


def _reduction(chart, budget):
    """The chart ideal presents the quadric-in-determinantal ring.

    (a) the intermediate ideal equals the full one; (b) I cap k[band, pi]
    lies in the reduced ideal I''; (c) the reduced generators lift into the
    full ideal; (d) the substitution is a section, i.e. x - phi(x) lies in
    the full ideal for every variable x, pi included.

    (b) substitutes nothing.  Under the chart ring's block order the
    elements of the reduced basis of I (built by (a)) whose leading monomial
    has no non-band variable are a Groebner basis of I cap k[band, pi], so
    each of them is tested in I''.  With (d), f = phi(f) mod I for every f,
    so phi(g) lies in I cap k[band, pi] for g in I: together (b) and (d)
    give phi(I) in I''.  A failing band element is its own phi-image, since
    phi fixes the band variables and pi.  The basis of I'' that (b) reads
    starts from the basis of M'' the certificate of I'' gives.
    """
    full = chart.full_ideal()
    inter = chart.intermediate_ideal()
    if not full.equals(inter, budget):
        return "fail", {"subcheck": "intermediate-equality",
                        "witness": _extra_element(chart, full, inter, budget)}
    red = chart.reduced_ideal()
    for g in subring_part(full.groebner(budget), chart.ring.order.k):
        if not red.contains(cast(g, chart.reduced_ring), budget):
            return "fail", {"subcheck": "phi-image", "generator": _clip(chart, g)}
    for g in red.gens:
        if not full.contains(cast(g, chart.ring), budget):
            return "fail", {"subcheck": "reduced-lift", "generator": _clip(chart, g)}
    phi = chart.substitution_map()
    for nm in chart._text_ring.names:     # row-major, then pi
        diff = chart.ring.var(nm) - cast(phi[nm], chart.ring)
        if not full.contains(diff, budget):
            return "fail", {"subcheck": "section", "variable": nm}
    return "pass", None


def _dimensions(chart, budget):
    """Special and generic fibers of the reduced ideal have dimension d-2;
    an empty fiber (the unit ideal, numerator []) has none and fails."""
    want = chart.d - 2
    ds, dg = (ideal.dimension(budget) if hilbert_numerator(ideal, None, budget)
              else None for ideal in (chart.special_fiber_ideal(),
                                      chart.generic_fiber_ideal()))
    if ds == want and dg == want:
        return "pass", None
    return "fail", {"expected": want, "special": ds, "generic": dg}


def _flatness(chart, budget):
    """pi is a non-zerodivisor mod I'' over k[pi], k the chart's field: with
    pi of weight 2 and band variables of weight 1 every generator of I'' is
    homogeneous, and N(I'') = N(I_s).  By
    0 -> R/(I'':pi)(-2) -> R/I'' -> R/(I''+pi) -> 0, with R/(I''+pi) = R'/I_s
    and I'' in (I'':pi), that holds exactly when (I'':pi) = I''."""
    red = chart.reduced_ideal()
    weights = pi_weights(red.ring)
    bad = inhomogeneous_generator(red, weights)
    if bad is not None:
        return "fail", {"subcheck": "weighted-homogeneous",
                        "generator": _clip(chart, bad)}
    reduced = hilbert_numerator(red, weights, budget)
    special = hilbert_numerator(chart.special_fiber_ideal(), None, budget)
    if reduced == special:
        return "pass", None
    return "fail", {"subcheck": "hilbert-numerator",
                    "reduced": reduced, "special": special}


def _special_fiber(chart, budget):
    """Decomposition and reducedness of the special fiber.

    (i) the component count matches the case table; (ii) I_s equals the
    intersection of the components I_1, ..., I_m, proved without forming
    it: every generator of I_s and of each I_j is homogeneous, every
    generator of I_s lies in each I_j, and
    N(I_s) = N(J) + N(I_m) - N(J + I_m) for J = I_1 cap ... cap I_{m-1}
    (I_1 itself for two components).  For three, the reduced bases of I_1
    and I_2 must be monomials, and J is generated by the pairwise lcms of
    their leads, as is the intersection of any two monomial ideals.  By
    0 -> R/(J cap I_m) -> R/J + R/I_m -> R/(J + I_m) -> 0 the right side is
    the numerator of cap I_j, and I_s inside the homogeneous cap I_j with
    the same Hilbert series equals it;
    (iii) every component has dimension d-2 (a unit component has none,
    and fails); (iv) no component contains another; (v) the designated
    variable of each component is not a pure power in its leading-term
    ideal.
    """
    fiber = chart.special_fiber_ideal()
    comps = chart.component_ideals()
    expected = expected_component_count(chart)
    if len(comps) != expected:
        return "fail", {"subcheck": "component-count",
                        "expected": expected, "got": len(comps)}
    for label, ideal in [("I_s", fiber)] + [(la, i) for la, i, _ in comps]:
        bad = inhomogeneous_generator(ideal)
        if bad is not None:
            return "fail", {"subcheck": "homogeneous", "ideal": label,
                            "generator": _clip(chart, bad)}
    for label, ideal, _ in comps:
        for g in fiber.gens:
            if not ideal.contains(g, budget):
                return "fail", {"subcheck": "intersection-equality",
                                "component": label,
                                "generator": _clip(chart, g)}
    *head, (_, last, _) = comps
    meet = head[0][1]
    if len(head) == 2:
        leads = []
        for label, ideal, _ in head:
            basis = ideal.groebner(budget)
            for g in basis:
                if len(g) != 1:
                    return "fail", {"subcheck": "intersection-equality",
                                    "component": label,
                                    "generator": _clip(chart, g)}
            leads.append(basis.lead_monomials())
        ring, one = fiber.ring, fiber.ring.field.one
        meet = Ideal(ring, [ring.from_dict({ring.mono_lcm(m, n): one})
                            for m in leads[0] for n in leads[1]])
    cap = intersection_numerator(meet, last, budget)
    special = hilbert_numerator(fiber, None, budget)
    if cap != special:
        return "fail", {"subcheck": "intersection-equality",
                        "special": special, "intersection": cap}
    want = chart.d - 2
    for label, ideal, _ in comps:
        dim = (ideal.dimension(budget)
               if hilbert_numerator(ideal, None, budget) else None)
        if dim != want:
            return "fail", {"subcheck": "component-dimension",
                            "component": label, "expected": want, "got": dim}
    for la, ia, _ in comps:
        for lb, ib, _ in comps:
            if la != lb and all(ib.contains(g, budget) for g in ia.gens):
                return "fail", {"subcheck": "incomparability",
                                "contained": la, "in": lb}
    for label, ideal, v in comps:
        if not pure_power_free(ideal.groebner(budget), v):
            return "fail", {"subcheck": "pure-power-free",
                            "component": label, "variable": v}
    return "pass", {"components": [label for label, _, _ in comps]}


def expected_component_count(chart):
    """The case table: EE has three components when l = 2 or l = d-2, OO
    when l = d-2, OE when l = 2; every other case has two."""
    d, l, case = chart.d, chart.l, chart.case
    if case == "EE" and l in (2, d - 2):
        return 3
    if case == "OO" and l == d - 2:
        return 3
    if case == "OE" and l == 2:
        return 3
    return 2


# name -> (body, parity), in report order.  A body (chart, budget) returns
# (status, witness); ``_gate`` reads parity.  The entries of theta - theta^t
# have band variables only, so B1JB2-symmetric tests them in M'' over
# k[band, pi], whose basis the certificate of I'' gives.
_CHECKS = {
    "X2-in-Iprime": _lemma("X2-in-Iprime", lambda c: c.intermediate_ideal(),
                           lambda eq: _tagged_entries("X^2", eq.square)),
    "antisym": _lemma("antisym", lambda c: c.intermediate_ideal(),
                      lambda eq: _tagged_entries("AJ-JAt", eq.antisym)),
    "B1JB2-symmetric": _lemma("B1JB2-symmetric",
                              lambda c: c.reduced_minors_ideal(), _theta_asym),
    "S0-relation": _lemma("S0-relation", lambda c: c.intermediate_ideal(),
                          lambda eq: _tagged_entries("S0-rel", eq.rel0)),
    "trace-in-ideal": _lemma("trace-in-ideal",
                             lambda c: c.iprime_sans_trace_ideal(),
                             lambda eq: [("Tr(X)", eq.trace)]),
    "A-relations": _lemma("A-relations", lambda c: c.solve_plus_band_ideal(),
                          _a_relations),
    "minors-reduce": _lemma("minors-reduce",
                            lambda c: c.solve_plus_reduced_ideal(),
                            lambda eq: [("minor[%d]" % k, g)
                                        for k, g in enumerate(eq.minors)]),
    "reduction": (_reduction, "substitution map is printed for same-parity "
                              "charts only"),
    "dimensions": (_dimensions, None),
    "flatness": (_flatness, None),
    "special-fiber": (_special_fiber, None),
}
CHECK_NAMES = tuple(_CHECKS)
LEMMA_CHECKS = tuple(name for name, (_, parity) in _CHECKS.items()
                     if parity == _LEMMA_PARITY)


def _gate(parity, chart, cfg):
    """None when a check applies to the chart, else the not-applicable
    reason.  A check on the full d*d ring (``parity`` its reason on an
    opposite-parity chart) needs a same-parity chart with d at most
    ``full_matrix_limit``; a check on the reduced ring (``parity`` None)
    needs d at most ``reduced_limit``."""
    if parity is None:
        if chart.d > cfg.reduced_limit:
            return "reduced-ring checks gated to d <= %d" % cfg.reduced_limit
    elif not chart.same_parity:
        return parity
    elif chart.d > cfg.full_matrix_limit:
        return "full-matrix checks gated to d <= %d" % cfg.full_matrix_limit
    return None


def verify_check(name, chart, cfg):
    """Run a named check: its gate, then, under the check's single budget,
    the chart's certificate of I'' and the check's body.  Budget exhaustion
    maps to a timeout result."""
    if name not in _CHECKS:
        raise ValueError("unknown check %r (choose from %s)"
                         % (name, ", ".join(CHECK_NAMES)))
    t0 = time.monotonic()
    body, parity = _CHECKS[name]
    reason = _gate(parity, chart, cfg)
    if reason is not None:
        status, witness = "not-applicable", {"reason": reason}
    else:
        budget = cfg.budget()
        try:
            chart.degeneration(budget)
            status, witness = body(chart, budget)
        except BudgetExceeded as exc:
            status, witness = "timeout", {"budget": str(exc)}
    return CheckResult(name, status, witness, (time.monotonic() - t0) * 1000.0)


def applicable_checks(chart, cfg):
    """The default check list: every full-ring check whose gate admits the
    chart, and the reduced-ring checks in any case."""
    return [name for name, (_, parity) in _CHECKS.items()
            if parity is None or _gate(parity, chart, cfg) is None]


def chart_report(chart, cfg, checks=None):
    names = checks if checks is not None else applicable_checks(chart, cfg)
    results = [verify_check(nm, chart, cfg) for nm in names]
    return ChartReport(chart.d, chart.l, chart.case, results,
                       cfg.describe(chart.field), [PRIMALITY_NOTE])


def run_suite(charts, cfg=None):
    """Run every applicable check on each (d, l); deterministic order."""
    cfg = cfg or EngineConfig()
    reports = []
    for d, l in sorted(set(charts)):
        chart = Chart(d, l, cfg.field())
        reports.append(chart_report(chart, cfg))
    if not reports:
        return SuiteReport([], False, "no checks run")
    ok = all(r.passed() for r in reports)
    return SuiteReport(reports, ok)


DEFAULT_SUITE = ((6, 2), (5, 3), (6, 3), (5, 2))
