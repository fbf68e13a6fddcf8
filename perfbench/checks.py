"""Output checks of the benchmark, made apart from the program.

Every function returns a list of error strings; an empty list means the
output passed.  The expectations (which checks run on a chart, the special
fiber's component count, the reduced ideal's generator count) are written
out here from the case table and the chart's shape, not read from the
program.  Basis checks test the defining properties of a reduced Groebner
basis directly on exponent vectors.
"""

from math import comb

LEMMAS = ("X2-in-Iprime", "antisym", "B1JB2-symmetric", "S0-relation",
          "trace-in-ideal", "A-relations", "minors-reduce")
REDUCED_CHECKS = ("dimensions", "flatness", "special-fiber")
CHECK_NAMES = LEMMAS + ("reduction",) + REDUCED_CHECKS
FULL_MATRIX_LIMIT = 6     # the default EngineConfig gate for full-ring checks


def case_of(d, l):
    return ("E" if d % 2 == 0 else "O") + ("E" if l % 2 == 0 else "O")


def expected_checks(d, l):
    """Checks the default gates run on (d, l): the lemmas and ``reduction``
    for same-parity charts with d <= 6, then the three reduced-ring checks."""
    full = LEMMAS + ("reduction",) if (d - l) % 2 == 0 and d <= FULL_MATRIX_LIMIT else ()
    return full + REDUCED_CHECKS


def expected_components(d, l):
    """The case table: three components for EE with l in {2, d-2}, OO with
    l = d-2 and OE with l = 2; two otherwise."""
    case = case_of(d, l)
    three = (case == "EE" and l in (2, d - 2)) or (case == "OO" and l == d - 2) \
        or (case == "OE" and l == 2)
    return 3 if three else 2


def reduced_generator_count(d, l):
    """2x2 minors of the l x (d-l) band plus the trace quadric."""
    return comb(l, 2) * comb(d - l, 2) + 1


def check_report(report, expected_names):
    """A chart report ran exactly the expected checks, every one passed, and
    special-fiber found as many components as the case table says."""
    where = "(%d,%d)" % (report.d, report.l)
    errors = []
    names = tuple(c.name for c in report.checks)
    if names != tuple(expected_names):
        errors.append("%s ran %s, expected %s" % (where, names, tuple(expected_names)))
    for c in report.checks:
        if c.status != "pass":
            errors.append("%s %s: %s" % (where, c.name, c.status))
        if c.name == "special-fiber":
            got = len((c.witness or {}).get("components", ()))
            want = expected_components(report.d, report.l)
            if got != want:
                errors.append("%s special-fiber: %d components, case table says %d"
                              % (where, got, want))
    return errors


def check_reduced_ideal(chart):
    want = reduced_generator_count(chart.d, chart.l)
    got = len(chart.reduced_ideal().gens)
    if got != want:
        return ["(%d,%d) reduced_ideal has %d generators, expected %d"
                % (chart.d, chart.l, got, want)]
    return []


def _support(exps):
    mask = 0
    for i, e in enumerate(exps):
        if e:
            mask |= 1 << i
    return mask


def check_reduced_basis(gb, label):
    """Leading coefficients are 1 and no term of an element is divisible by
    the leading monomial of another element."""
    ring = gb.ring
    errors = []
    leads = []
    for p in gb:
        m, c = p.terms()[0]
        if c != 1:
            errors.append("%s: leading coefficient %s" % (label, c))
        e = ring.exponents(m)
        leads.append((_support(e), [(i, v) for i, v in enumerate(e) if v]))
    for k, p in enumerate(gb):
        for m, _ in p.terms():
            e = ring.exponents(m)
            mask = _support(e)
            for j, (lmask, lpairs) in enumerate(leads):
                if j != k and not lmask & ~mask \
                        and all(e[i] >= v for i, v in lpairs):
                    errors.append("%s: element %d has a term divisible by the "
                                  "leading monomial of element %d" % (label, k, j))
                    return errors
    return errors


def check_members(gb, gens, label):
    """Every generator normal-forms to zero."""
    bad = [k for k, g in enumerate(gens) if not gb.normal_form(g).is_zero()]
    return ["%s: generator %d has a nonzero normal form" % (label, bad[0])] if bad else []


def check_normal_forms(got, expected):
    """Each normal form equals the one predicted when the query was made."""
    for k, (g, w) in enumerate(zip(got, expected)):
        if g != w:
            return ["query %d: normal form differs from the predicted one" % k]
    if len(got) != len(expected):
        return ["%d normal forms for %d queries" % (len(got), len(expected))]
    return []
