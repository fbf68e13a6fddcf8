"""Named machine checks for the chart ideals, with structured reports.

Every check returns a ``CheckResult`` whose status is one of ``pass``,
``fail``, ``timeout`` or ``not-applicable``; failures and timeouts always
carry a witness (offending generator, computed versus expected number,
budget note).  A suite over several charts aggregates to pass only when
every executed check passes.

The special-fiber check proves the paper's main result on the chart, with
no Buchberger run: I_s is reduced, Cohen-Macaulay and the intersection of
its prime components (see ``_special_fiber``).  Every check computes in the
chart's own field, which its report names.

Only the gate (``_gate``) reports a check not applicable.  Before every
check body the runner asks once for the chart's certificate of I''
(``Chart.degeneration``), which the chart caches.  When it holds, the
numerators of I'', I_s and I_g and the basis of M'' are known with no
Buchberger run, so dimensions and flatness read numerators only.  A fiber
whose generators are not those of I'' at its pi, or one of an I'' the
certificate fails on, falls back to Buchberger on its own generators, with
the same verdicts and witnesses; special-fiber fails there, since no other
proof of reducedness is at hand.

The seven lemmas and reduction ask the chart to certify the ideal they read
as the kernel of one map Phi into k[u, w, pi] (``Chart.kernel``, kept per
ideal).  A target then lies in the ideal exactly when Phi sends it to 0, a
polynomial evaluation: no Groebner basis is read.  An ideal the certificate
fails on falls back to membership by normal form, so its verdicts and
witnesses keep their form.
"""

import math
import time
from dataclasses import dataclass

from .charts import Chart, _family
from .errors import BudgetExceeded
from .fields import coefficient_field
from .groebner import Budget
from .matrices import PolyMatrix
from .ideals import (dimension_and_degree, hilbert_numerator,
                     inhomogeneous_generator, pi_weights, subring_part)
from .rings import Polynomial, RingMap, cast


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


def _theta_asym(chart):
    """theta - theta^t, theta = B1 J_e B2^t: theta[i][j] is the sum of
    x[i][p(r)] x[j][r] over the right columns r, p the chart's pairing."""
    x, p, right, field = chart._x, chart._partner, chart._right, chart.field
    one, minus = field.one, field.neg(field.one)
    return _tagged_entries("theta-asym", _family(
        chart.ring, chart.mid, chart.mid,
        lambda i, j: [(one, x[i][p[r]], x[j][r]) for r in right]
        + [(minus, x[j][p[r]], x[i][r]) for r in right]))


def _a_relations(chart):
    """A^t J_m M + 2 pi J_m M for M = B1, B2, A: entry (i, s) is the sum of
    x[p(k)][i] x[k][s] over the band rows k, plus 2 pi x[p(i)][s], which is
    entry (i, s) of the S1 relation X^t S1 X + 2 (S0 + pi S1) X."""
    rel1 = chart._equations().rel1
    return [t for tag, cols in (("AtJB1", chart._left), ("AtJB2", chart._right),
                                ("AtJA", chart.mid))
            for t in _tagged_entries(tag, PolyMatrix(chart.ring, [
                [rel1[i - 1, s - 1] for s in cols] for i in chart.mid]))]


_LEMMA_PARITY = "lemma suite is for same-parity charts"


def _lemma(name, ideal_of, targets_of):
    """The table row of one of the seven reduction lemmas, a membership
    check: every target ``targets_of(chart)`` lies in the chart's ideal.
    Both are read through the chart instance, so a replaced method or a
    cached ideal is what the check sees; a target in another ring is cast
    to the ideal's."""
    def body(chart, budget):
        targets = targets_of(chart)
        ideal = ideal_of(chart)
        Phi = chart.kernel(ideal, budget)
        for tag, g in targets:
            if g.ring is not ideal.ring:
                g = cast(g, ideal.ring)
            if not _inside(Phi, ideal, g, budget):
                return "fail", {"target": name, "offending": tag,
                                "generator": _clip(chart, g)}
        return "pass", None
    return body, _LEMMA_PARITY


def _inside(Phi, ideal, g, budget):
    """g in the ideal: Phi(g) = 0 when ``Phi`` is a map the ideal is
    certified the kernel of, else by normal form."""
    if not isinstance(Phi, RingMap):
        return ideal.contains(g, budget)
    if budget is not None:
        budget.deadline()
    return Phi.kills(g)


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

    All of that is skipped when ``Chart.kernel`` certifies I' and I as the
    kernel of one map Phi and I'' has the chart's generators, by value:
    then (a) holds, (b) is I cap k[band, pi] = I'' from the certificate's
    proof and (c) is its step (C), so only (d) is tested, as
    Phi(x - phi(x)) = 0 with the printed phi.  Phi comes from the ideals'
    generators, never from phi.
    """
    full = chart.full_ideal()
    inter = chart.intermediate_ideal()
    red, rr = chart.reduced_ideal(), chart.reduced_ring
    Phi, Phi_inter = chart.kernel(full, budget), chart.kernel(inter, budget)
    if not (isinstance(Phi, RingMap) and isinstance(Phi_inter, RingMap)
            and Phi.images == Phi_inter.images and list(red.gens)
            == [chart._trace(rr)] + chart._minors(rr, chart.rows, chart.cols)):
        Phi = None
        if not full.equals(inter, budget):
            return "fail", {"subcheck": "intermediate-equality",
                            "witness": _extra_element(chart, full, inter, budget)}
        for g in subring_part(full.groebner(budget), chart.ring.order.k):
            if not red.contains(cast(g, rr), budget):
                return "fail", {"subcheck": "phi-image", "generator": _clip(chart, g)}
        for g in red.gens:
            if not full.contains(cast(g, chart.ring), budget):
                return "fail", {"subcheck": "reduced-lift", "generator": _clip(chart, g)}
    phi = chart.substitution_map()
    for nm in [nm for row in chart._x[1:] for nm in row[1:]] + ["pi"]:   # row-major
        diff = chart.ring.var(nm) - cast(phi[nm], chart.ring)
        if not _inside(Phi, full, diff, budget):
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
    """I_s is reduced and Cohen-Macaulay, and the intersection of prime
    components, as many as the case table says.  The certificate of I''
    must speak for I_s: in(I_s) = J0 is squarefree, so I_s is radical and
    R/I_s is Cohen-Macaulay of dimension d - 2.  Each homogeneous I_j is
    certified prime of dimension d - 2 (``Chart.certify_component``); I_s
    lies in each, and no I_j in another, by normal forms.  Then
    e(R/I_s) = sum e(R/I_j) leaves I_s no other minimal prime, so
    I_s = cap I_j (README gives the argument and its sources)."""
    def inside(basis, g):
        if budget is not None:
            budget.deadline()
        return basis.contains(g if g.ring is basis.ring else cast(g, basis.ring))

    fiber = chart.special_fiber_ideal()
    comps = chart.component_ideals()
    expected = expected_component_count(chart)
    if len(comps) != expected:
        return "fail", {"subcheck": "component-count",
                        "expected": expected, "got": len(comps)}
    if not chart.degeneration(budget) or chart.reduced_fiber("special") is not fiber:
        return "fail", {"subcheck": "certificate",
                        "ideal": "I_s" if chart.degeneration(budget) else "I''"}
    for label, ideal, _ in comps:
        bad = inhomogeneous_generator(ideal)
        if bad is not None:
            return "fail", {"subcheck": "homogeneous", "ideal": label,
                            "generator": _clip(chart, bad)}
    # N(I_s) = N(J0), which the certificate keeps on I'' for pi of weight 2
    certs = [(None, hilbert_numerator(chart.reduced_ideal(),
                                      pi_weights(chart.reduced_ring), budget))]
    for label, ideal, _ in comps:
        if budget is not None:
            budget.deadline()
        cert = chart.certify_component(ideal, budget)
        if isinstance(cert, dict):
            return "fail", {"component": label, **{
                k: _clip(chart, v) if isinstance(v, Polynomial) else v
                for k, v in cert.items()}}
        certs.append(cert)
    for (label, ideal, _), (basis, _) in zip(comps, certs[1:]):
        own = {frozenset(g._d.items()) for g in ideal.gens}   # in I_j at once
        for g in fiber.gens:
            if frozenset(g._d.items()) not in own and not inside(basis, g):
                return "fail", {"subcheck": "containment", "component": label,
                                "generator": _clip(chart, g)}
    for j, (la, ia, _) in enumerate(comps):
        for (lb, _, _), (basis, _) in zip(comps[j + 1:], certs[j + 2:]):
            if all(inside(basis, g) for g in ia.gens):
                return "fail", {"subcheck": "incomparability",
                                "contained": la, "in": lb}
    special, *degrees = [list(dimension_and_degree(num, fiber.ring.nvars))
                         for _, num in certs]
    if any(dim != chart.d - 2 for dim, _ in [special] + degrees) or \
            special[1] != sum(e for _, e in degrees):
        return "fail", {"subcheck": "multiplicity", "special": special,
                        "components": degrees}
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


# the seven reduction lemmas: name -> (the ideal, its tagged targets), each
# read off the chart.  The entries of theta - theta^t have band variables
# only, so B1JB2-symmetric tests them in M'' over k[band, pi], whose basis
# the certificate of I'' gives.
_LEMMAS = {
    "X2-in-Iprime": (lambda c: c.intermediate_ideal(),
                     lambda c: _tagged_entries("X^2", c._equations().square)),
    "antisym": (lambda c: c.intermediate_ideal(),
                lambda c: _tagged_entries("AJ-JAt", c._equations().antisym)),
    "B1JB2-symmetric": (lambda c: c.reduced_minors_ideal(), _theta_asym),
    "S0-relation": (lambda c: c.intermediate_ideal(),
                    lambda c: _tagged_entries("S0-rel", c._equations().rel0)),
    "trace-in-ideal": (lambda c: c.iprime_sans_trace_ideal(),
                       lambda c: [("Tr(X)", c._equations().trace)]),
    "A-relations": (lambda c: c.solve_plus_band_ideal(), _a_relations),
    "minors-reduce": (lambda c: c.solve_plus_reduced_ideal(),
                      lambda c: [("minor[%d]" % k, g)
                                 for k, g in enumerate(c._equations().minors)]),
}

# name -> (body, parity), in report order.  A body (chart, budget) returns
# (status, witness); ``_gate`` reads parity.
_CHECKS = {
    **{name: _lemma(name, *row) for name, row in _LEMMAS.items()},
    "reduction": (_reduction, "substitution map is printed for same-parity "
                              "charts only"),
    "dimensions": (_dimensions, None),
    "flatness": (_flatness, None),
    "special-fiber": (_special_fiber, None),
}
CHECK_NAMES = tuple(_CHECKS)
LEMMA_CHECKS = tuple(_LEMMAS)


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
                       cfg.describe(chart.field))


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
