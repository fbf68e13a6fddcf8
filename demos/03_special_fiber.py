"""Special fiber geometry: components, Hilbert numerators, verdicts.

At pi = 0 the chart degenerates; the fiber decomposes into two or three
irreducible components depending on where l sits relative to 2 and d - 2.
The ``special-fiber`` check proves the exact ideal equality
I_s = I_1 cap I_2 (cap I_3) without forming the intersection: I_s lies in
every component, and with J the intersection of all components but the
last, I_m, the Hilbert numerators agree, N(I_s) = N(J) + N(I_m) - N(J + I_m).
The ``flatness`` check certifies that pi is a non-zerodivisor: with pi of
weight 2, N(I'') equals N(I_s).  Each chart prints both sides of both
certificates and the verdicts the checks return.
"""

from olmcheck import (Chart, EngineConfig, Ideal, hilbert_numerator,
                      intersection_numerator, verify_check)

cfg = EngineConfig(modulus=0)       # the charts below are over Q
for d, l in [(6, 2), (7, 3), (6, 3), (5, 2)]:
    chart = Chart(d, l)
    fiber = chart.special_fiber_ideal()
    comps = chart.component_ideals()
    # J is I_1, or for three components the product I_1 I_2 of the two
    # linear ones: no variable lies in both, so it is their intersection
    *head, (_, last, _) = comps
    meet = head[0][1]
    for _, ideal, _ in head[1:]:
        meet = Ideal(meet.ring, [g * h for g in meet.gens for h in ideal.gens])
    weights = [2 if nm == "pi" else 1 for nm in chart.reduced_ring.names]
    print("(d, l) = (%d, %d)  case %s" % (d, l, chart.case))
    print("  components          :", ", ".join(label for label, _, _ in comps))
    print("  N(I_s)              :", hilbert_numerator(fiber))
    print("  N(J)+N(I_m)-N(J+I_m):", intersection_numerator(meet, last))
    print("  special-fiber       :", verify_check("special-fiber", chart, cfg).status)
    print("  N(I''), pi weight 2 :", hilbert_numerator(chart.reduced_ideal(), weights))
    print("  flatness            :", verify_check("flatness", chart, cfg).status)
    print("  fiber dimension     :", fiber.dimension(), "(expect %d)" % (d - 2))
