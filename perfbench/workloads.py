"""The four workloads of the benchmark.

Each workload has

* ``setup(olm, seed)``: builds everything a round needs from the freshly
  imported package ``olm``; the benchmark times it as set-up;
* ``run_round(olm, state)``: the timed part, one round of operations, the
  same operations in every round;
* ``check(olm, state, out)``: the output checks of ``checks``, outside the
  timed part, returning a ``Verdict``;
* ``reusable``: whether one set-up serves many rounds.  The suites and the
  sweep fill the Groebner-basis caches on their charts, so every round after
  the first gets a fresh set-up.

The seed is used by ``membership`` only; every other workload runs fixed
charts.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks

SUITE = ((5, 2), (5, 3), (6, 2), (6, 3))        # DEFAULT_SUITE, in run order
SWEEP = tuple((d, l) for d in range(5, 10) for l in range(2, d - 1))
MEMBERSHIP_CHART = (6, 2)
MEMBERSHIP_MODULI = (32003, 0)
QUERIES_PER_FIELD = 50      # half members, half member + standard remainder


@dataclass
class Verdict:
    """What one round attempted, and what its output checks found."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    check_seconds: dict = field(default_factory=dict)   # CheckResult.millis by name

    def add_reports(self, reports):
        for rep in reports:
            for c in rep.checks:
                self.attempted += 1
                self.failed += c.status != "pass"
                self.check_seconds[c.name] = \
                    self.check_seconds.get(c.name, 0.0) + c.millis / 1000.0


class ChartChecks:
    """Runs named checks on a list of charts through ``chart_report`` and
    renders each report with ``cli.report_json``, as the CLI does."""

    reusable = False
    setup_repeats = 11      # a set-up takes ~40 ms, so its median needs many

    def __init__(self, charts, checks_run=None, **config):
        self.charts = charts
        self.checks_run = checks_run
        self.config = config

    def setup(self, olm, seed):
        cfg = olm.EngineConfig(**self.config)
        return cfg, [olm.Chart(d, l, cfg.field()) for d, l in self.charts]

    def run_round(self, olm, state):
        cfg, charts = state
        reports = []
        for chart in charts:
            rep = olm.verify.chart_report(chart, cfg, self.checks_run)
            olm.cli.report_json(rep)
            reports.append(rep)
        return reports

    def expected_checks(self, d, l):
        return self.checks_run or checks.expected_checks(d, l)

    def check(self, olm, state, reports):
        _, charts = state
        v = Verdict()
        v.add_reports(reports)
        for chart, rep in zip(charts, reports):
            v.errors += checks.check_report(rep, self.expected_checks(chart.d, chart.l))
            v.errors += checks.check_reduced_ideal(chart)
            for label, gb, gens in self.bases(chart):
                tag = "(%d,%d) %s basis" % (chart.d, chart.l, label)
                v.errors += checks.check_reduced_basis(gb, tag)
                v.errors += checks.check_members(gb, gens, tag)
        return v

    def bases(self, chart):
        """The full-ring bases the lemma and reduction checks built, with
        the chart generators each must hold."""
        if (chart.d - chart.l) % 2:
            return []
        gens = chart.full_ideal().gens
        return [(label, ideal.groebner(), gens) for label, ideal in
                (("full", chart.full_ideal()), ("intermediate", chart.intermediate_ideal()))]


class Sweep(ChartChecks):
    """The reduced-ring checks on every chart with 5 <= d <= 9."""

    def __init__(self):
        super().__init__(SWEEP, checks.REDUCED_CHECKS, modulus=0, reduced_limit=9)

    def bases(self, chart):
        """The reduced ideal's basis (built by flatness) and the special
        fiber's basis (built by dimensions), with their generators."""
        return [(label, ideal.groebner(), ideal.gens) for label, ideal in
                (("reduced", chart.reduced_ideal()),
                 ("special-fiber", chart.special_fiber_ideal()))]


class Membership:
    """Seeded normal-form queries against the reduced basis of the (6,2)
    full ideal, over F_32003 and over Q."""

    reusable = True
    setup_repeats = 3

    def setup(self, olm, seed):
        rng = random.Random(seed)
        sides = []
        for modulus in MEMBERSHIP_MODULI:
            cfg = olm.EngineConfig(modulus=modulus)
            chart = olm.Chart(*MEMBERSHIP_CHART, cfg.field())
            ideal = chart.full_ideal()
            gb = ideal.groebner()
            sides.append((gb,) + make_queries(rng, chart.ring, ideal.gens, gb))
        return sides

    def run_round(self, olm, sides):
        return [[gb.normal_form(q) for q in queries] for gb, queries, _ in sides]

    def check(self, olm, sides, nfs):
        v = Verdict()
        for (_, queries, expected), got in zip(sides, nfs):
            v.attempted += len(queries)
            v.errors += checks.check_normal_forms(got, expected)
        return v


def standard_monomials(ring, gb):
    """Monomials of degree <= 2 that no leading monomial of gb divides,
    found by comparing exponent vectors."""
    n = ring.nvars
    leads = [ring.exponents(m) for m in gb.lead_monomials()]
    cands = [[0] * n] + [[int(k == i) for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            cands.append(e)
    out = []
    for e in cands:
        m = ring.monomial(e)
        if not any(all(a <= b for a, b in zip(lead, e)) for lead in leads):
            out.append(m)
    return out


def make_queries(rng, ring, gens, gb):
    """Members sum(h_i * g_i) with three random generators g_i and random
    terms h_i of degree 1 or 2; every second query adds r, a combination of
    three standard monomials, whose normal form is r itself."""
    field = ring.field
    standard = standard_monomials(ring, gb)
    n = ring.nvars

    def coeff():
        return field.coerce(Fraction(rng.randint(1, 99), rng.randint(1, 9)))

    def term(monomial):
        return ring.from_dict({monomial: coeff()})

    queries, expected = [], []
    for k in range(QUERIES_PER_FIELD):
        f = ring.zero()
        for _ in range(3):
            e = [0] * n
            for _ in range(rng.randint(1, 2)):
                e[rng.randrange(n)] += 1
            f = f + term(ring.monomial(e)) * rng.choice(gens)
        r = ring.zero()
        if k % 2:
            for _ in range(3):
                r = r + term(rng.choice(standard))
        queries.append(f + r)
        expected.append(r)
    return queries, expected


WORKLOADS = {
    "suite-fp": ChartChecks(SUITE, modulus=32003),
    "suite-qq": ChartChecks(SUITE, modulus=0),
    "reduced-sweep": Sweep(),
    "membership": Membership(),
}
