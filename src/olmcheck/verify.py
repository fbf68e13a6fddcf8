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
carries a note saying so.
"""

import time
from dataclasses import dataclass, field as dataclass_field

from .charts import Chart
from .errors import BudgetExceeded, NotApplicable
from .fields import QQ, coefficient_field
from .groebner import Budget
from .ideals import Ideal, pure_power_free
from .rings import cast

LEMMA_CHECKS = (
    "X2-in-Iprime",
    "antisym",
    "B1JB2-symmetric",
    "S0-relation",
    "trace-in-ideal",
    "A-relations",
    "minors-reduce",
)

PRIMALITY_NOTE = ("component primality is checked only through the "
                  "leading-term criterion and the structural checks, "
                  "not proved in full")


@dataclass
class CheckResult:
    name: str
    status: str
    witness: dict | None = None
    millis: float = 0.0


@dataclass
class EngineConfig:
    """Field and budget configuration for a verification run."""

    modulus: int = 32003          # 0 selects the rationals
    timeout: float | None = None  # seconds per check
    full_matrix_limit: int = 6    # largest d for checks on the full d*d ring
    reduced_limit: int = 8        # largest d for reduced-ring checks

    def field(self):
        return coefficient_field(self.modulus)

    def budget(self):
        return Budget(seconds=self.timeout) if self.timeout else None

    def describe(self):
        return {
            "modulus": self.modulus,
            "order": "grlex",
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

    def statuses(self):
        return {c.name: c.status for c in self.checks}


@dataclass
class SuiteReport:
    reports: list
    aggregate_pass: bool
    note: str | None = None


def _extra_element(ia, ib, budget):
    """A reduced-basis element of one ideal that the other's basis lacks."""
    gA = ia.groebner(budget)
    gB = ib.groebner(budget)
    extra = [p for p in gA if p not in gB.polys] or \
            [p for p in gB if p not in gA.polys]
    return _clip(extra[0])


def _clip(g, limit=180):
    s = str(g)
    return s if len(s) <= limit else s[:limit] + " ..."


def _tagged_entries(tag, mat, rows=None, cols=None):
    out = []
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            g = mat[i, j]
            if not g.is_zero():
                ii = rows[i] if rows else i + 1
                jj = cols[j] if cols else j + 1
                out.append(("%s[%d][%d]" % (tag, ii, jj), g))
    return out


def _lemma_data(chart, name):
    """Target polynomials and the ideal they must belong to, per lemma."""
    ring = chart.ring
    eq = chart._equations()
    X, B1, A, B2, Je, Jm = eq.X, eq.B1, eq.A, eq.B2, eq.Je, eq.Jm
    band_rels = [eq.trace_A] + eq.band.entries()

    if name == "X2-in-Iprime":
        return _tagged_entries("X^2", eq.square), chart.intermediate_ideal()
    if name == "antisym":
        return _tagged_entries("AJ-JAt", eq.antisym), chart.intermediate_ideal()
    if name == "B1JB2-symmetric":
        theta = B1 @ Je @ B2.T
        return (_tagged_entries("theta-asym", theta - theta.T),
                chart._cached("minors-ideal", lambda: Ideal(ring, eq.minors)))
    if name == "S0-relation":
        return _tagged_entries("S0-rel", eq.rel0), chart.intermediate_ideal()
    if name == "trace-in-ideal":
        return ([("Tr(X)", eq.trace)],
                chart._cached("iprime-sans-trace", lambda: Ideal(
                    ring, eq.minors + band_rels + eq.rel1.entries())))
    if name == "A-relations":
        two_pi = eq.pi.scale(2)
        targets = _tagged_entries("AtJB1", (A.T @ Jm @ B1) + (Jm @ B1).scale(two_pi))
        targets += _tagged_entries("AtJB2", (A.T @ Jm @ B2) + (Jm @ B2).scale(two_pi))
        targets += _tagged_entries("AtJA", (A.T @ Jm @ A) + (Jm @ A).scale(two_pi))
        return targets, chart._cached("solve-plus-band", lambda: Ideal(
            ring, eq.minors + band_rels + chart.solve_relations()))
    if name == "minors-reduce":
        targets = [("minor[%d]" % k, g) for k, g in enumerate(eq.minors)]
        return targets, chart._cached("solve-plus-reduced", lambda: Ideal(
            ring, chart.solve_relations()
            + chart._sub(X, chart.rows, chart.cols).minors2() + band_rels))
    raise ValueError("unknown lemma check %r" % (name,))


def _lemma(name):
    """One of the seven reduction lemmas as a membership check."""
    def body(chart, budget):
        targets, ideal = _lemma_data(chart, name)
        for tag, g in targets:
            if not ideal.contains(g, budget):
                return "fail", {"target": name, "offending": tag,
                                "generator": _clip(g)}
        return "pass", None
    return body


def _reduction(chart, budget):
    """The chart ideal presents the quadric-in-determinantal ring.

    (a) the intermediate ideal equals the full one; (b) the substitution
    sends every generator into the reduced ideal; (c) the reduced generators
    lift into the full ideal; (d) the substitution is a section, i.e.
    x - phi(x) lies in the full ideal for every matrix variable.
    """
    full = chart.full_ideal()
    inter = chart.intermediate_ideal()
    if not full.equals(inter, budget):
        return "fail", {"subcheck": "intermediate-equality",
                        "witness": _extra_element(full, inter, budget)}
    red = chart.reduced_ideal()
    phi = chart.substitution_map()
    red_gb = red.groebner(budget)
    for g in full.gens:
        if not red_gb.contains(g.substitute(phi, chart.reduced_ring)):
            return "fail", {"subcheck": "phi-image", "generator": _clip(g)}
    full_gb = full.groebner(budget)
    for g in red.gens:
        if not full_gb.contains(cast(g, chart.ring)):
            return "fail", {"subcheck": "reduced-lift", "generator": _clip(g)}
    for nm in chart.ring.names:
        if nm == "pi":
            continue
        diff = chart.ring.var(nm) - cast(phi[nm], chart.ring)
        if not full_gb.contains(diff):
            return "fail", {"subcheck": "section", "variable": nm}
    return "pass", None


def _dimensions(chart, budget):
    """Special and generic fibers of the reduced ideal have dimension d-2."""
    want = chart.d - 2
    ds = chart.special_fiber_ideal().dimension(budget)
    dg = chart.generic_fiber_ideal().dimension(budget)
    if ds == want and dg == want:
        return "pass", None
    return "fail", {"expected": want, "special": ds, "generic": dg}


def _flatness(chart, budget):
    """pi is a non-zerodivisor: (I'' : pi) = I'', exactly, over Q[pi]."""
    cq = chart if chart.field == QQ else Chart(chart.d, chart.l, QQ)
    red = cq.reduced_ideal()
    pi = cq.reduced_ring.var("pi")
    colon = red.quotient(pi, budget)
    if colon.equals(red, budget):
        return "pass", None
    return "fail", {"witness": _extra_element(colon, red, budget),
                    "note": "(I:pi) differs from I"}


def _special_fiber(chart, budget):
    """Decomposition and reducedness of the special fiber.

    (i) I_s equals the intersection of the component ideals; (ii) the
    component count matches the case table; (iii) every component has
    dimension d-2; (iv) no component contains another; (v) the designated
    variable of each component is not a pure power in its leading-term
    ideal.
    """
    fiber = chart.special_fiber_ideal()
    comps = chart.component_ideals()
    expected = expected_component_count(chart)
    if len(comps) != expected:
        return "fail", {"subcheck": "component-count",
                        "expected": expected, "got": len(comps)}
    inter = None
    for _, ideal, _ in comps:
        inter = ideal if inter is None else inter.intersect(ideal, budget)
    if not fiber.equals(inter, budget):
        return "fail", {"subcheck": "intersection-equality",
                        "witness": _extra_element(fiber, inter, budget)}
    want = chart.d - 2
    for label, ideal, _ in comps:
        dim = ideal.dimension(budget)
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
    return "pass", {"components": comps.labels()}


def _full_ring_gate(parity_reason):
    """Checks on the full d*d ring: same-parity charts with d at most
    ``full_matrix_limit``.  The default listing leaves out charts this gate
    rejects."""
    def gate(chart, cfg):
        if not chart.same_parity:
            return parity_reason
        if chart.d > cfg.full_matrix_limit:
            return "full-matrix checks gated to d <= %d" % cfg.full_matrix_limit
        return None
    return gate


def _reduced_ring_gate(chart, cfg):
    """Checks on the reduced ring: d at most ``reduced_limit``.  The default
    listing keeps charts this gate rejects, as not-applicable."""
    if chart.d > cfg.reduced_limit:
        return "reduced-ring checks gated to d <= %d" % cfg.reduced_limit
    return None


# name -> (gate, body), in report order.  A gate returns None when the check
# applies to the chart and the not-applicable reason otherwise; a body
# (chart, budget) returns (status, witness).
_lemma_gate = _full_ring_gate("lemma suite is for same-parity charts")
_CHECKS = {name: (_lemma_gate, _lemma(name)) for name in LEMMA_CHECKS}
_CHECKS.update({
    "reduction": (_full_ring_gate("substitution map is printed for "
                                  "same-parity charts only"), _reduction),
    "dimensions": (_reduced_ring_gate, _dimensions),
    "flatness": (_reduced_ring_gate, _flatness),
    "special-fiber": (_reduced_ring_gate, _special_fiber),
})
CHECK_NAMES = tuple(_CHECKS)


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


def _run(name, chart, cfg):
    """Gate, then body under the check's single budget; budget exhaustion
    maps to a timeout result."""
    t0 = time.monotonic()
    gate, body = _CHECKS[name]
    reason = gate(chart, cfg)
    if reason is not None:
        status, witness = "not-applicable", {"reason": reason}
    else:
        try:
            status, witness = body(chart, cfg.budget())
        except BudgetExceeded as exc:
            status, witness = "timeout", {"budget": str(exc)}
        except NotApplicable as exc:
            status, witness = "not-applicable", {"reason": str(exc)}
    return CheckResult(name, status, witness, (time.monotonic() - t0) * 1000.0)


def verify_check(name, chart, cfg):
    """Run a named check."""
    if name not in _CHECKS:
        raise ValueError("unknown check %r (choose from %s)"
                         % (name, ", ".join(CHECK_NAMES)))
    return _run(name, chart, cfg)


def applicable_checks(chart, cfg):
    """The default check list: every check whose gate admits the chart, and
    the reduced-ring checks in any case."""
    return [name for name, (gate, _) in _CHECKS.items()
            if gate is _reduced_ring_gate or gate(chart, cfg) is None]


def chart_report(chart, cfg, checks=None):
    names = checks if checks is not None else applicable_checks(chart, cfg)
    results = [verify_check(nm, chart, cfg) for nm in names]
    return ChartReport(chart.d, chart.l, chart.case, results,
                       cfg.describe(), [PRIMALITY_NOTE])


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
