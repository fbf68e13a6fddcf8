"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds every check in ``checks`` a real output of the program and then a
corrupted copy of it (a flipped status, a wrong component count, a missing
check, a basis element with an extra term or a scaled lead, a generator
outside the ideal, a normal form off by one term) and shows that the check
accepts the first and rejects the second.  It also checks that
``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
reports.  Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import os
import random
import sys

import checks
import run
import workloads

sys.path.insert(0, run.SRC)


def main():
    import olmcheck
    import olmcheck.verify

    wrong = []

    def expect(label, errors, rejected):
        ok = bool(errors) == rejected
        print("%-58s %s" % (label, ("rejected" if errors else "accepted")
                                    + ("" if ok else "  <-- WRONG")))
        if not ok:
            wrong.append(label)

    cfg = olmcheck.EngineConfig(modulus=32003)
    chart = olmcheck.Chart(5, 3, cfg.field())
    ring = chart.ring

    # chart reports
    report = olmcheck.verify.chart_report(chart, cfg)
    names = checks.expected_checks(5, 3)
    expect("report of (5,3)", checks.check_report(report, names), False)
    flipped = copy.deepcopy(report)
    flipped.checks[0].status = "fail"
    expect("report with a flipped status", checks.check_report(flipped, names), True)
    fewer = copy.deepcopy(report)
    fiber = next(c for c in fewer.checks if c.name == "special-fiber")
    fiber.witness["components"] = fiber.witness["components"][:-1]
    expect("report with a wrong component count", checks.check_report(fewer, names), True)
    missing = copy.deepcopy(report)
    missing.checks.pop(0)
    expect("report missing a check", checks.check_report(missing, names), True)

    # reduced-ideal generator count
    expect("reduced ideal of (5,3)", checks.check_reduced_ideal(chart), False)
    short = olmcheck.Chart(5, 3, cfg.field())
    red = short.reduced_ideal()
    short.reduced_ideal = lambda: olmcheck.Ideal(red.ring, red.gens[1:])
    expect("reduced ideal missing a generator", checks.check_reduced_ideal(short), True)

    # full-ring basis
    gb = chart.full_ideal().groebner()
    gens = chart.full_ideal().gens
    expect("full basis of (5,3) is reduced", checks.check_reduced_basis(gb, "gb"), False)
    expect("full basis of (5,3) holds the generators",
           checks.check_members(gb, gens, "gb"), False)
    polys = list(gb.polys)
    lead = ring.from_dict({polys[-2].lm(): ring.field.one})
    polys[-1] = polys[-1] + lead * ring.var("pi")
    expect("basis with a term divisible by another lead",
           checks.check_reduced_basis(olmcheck.GroebnerBasis(ring, polys), "gb"), True)
    polys = list(gb.polys)
    polys[0] = polys[0].scale(2)
    expect("basis with a lead coefficient of 2",
           checks.check_reduced_basis(olmcheck.GroebnerBasis(ring, polys), "gb"), True)
    expect("generators plus one outside the ideal",
           checks.check_members(gb, list(gens) + [gens[0] + ring.one()], "gb"), True)

    # membership normal forms
    queries, expected = workloads.make_queries(random.Random(7), ring, gens, gb)
    got = [gb.normal_form(q) for q in queries]
    expect("normal forms of seeded queries", checks.check_normal_forms(got, expected), False)
    off = list(got)
    off[1] = off[1] + ring.from_dict({workloads.standard_monomials(ring, gb)[-1]:
                                      ring.field.one})
    expect("a normal form off by one term", checks.check_normal_forms(off, expected), True)
    expect("a normal form missing", checks.check_normal_forms(got[:-1], expected), True)

    # BENCHMARK.json against what run.py prints
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect("BENCHMARK.json end-to-end metrics, as run.py prints",
           [] if declared == run.END_TO_END else ["mismatch"], False)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = {nm: run.per_layer_unit(nm) for nm in run.PER_LAYER}
    expect("BENCHMARK.json per-layer metrics, as run.py prints",
           [] if declared == printed else ["mismatch"], False)
    expect("BENCHMARK.json workloads, as run.py runs",
           [] if [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
           else ["mismatch"], False)

    print("%d case(s) wrong" % len(wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
