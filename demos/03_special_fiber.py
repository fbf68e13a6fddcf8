"""Special fiber geometry: components, reducedness equality, dimensions.

At pi = 0 the chart degenerates; the fiber object decomposes into two or
three irreducible components depending on where l sits relative to 2 and
d - 2.  The decomposition is the exact ideal equality
I_s = I_1 cap I_2 (cap I_3).  The check proves it without forming the
intersection: I_s lies in every component, and with J the intersection of
all components but the last, I_m, the Hilbert numerators agree,
N(I_s) = N(J) + N(I_m) - N(J + I_m).  Here the intersection is also formed
directly, for comparison.
"""

from olmcheck import (Chart, Ideal, QQ, hilbert_numerator,
                      intersection_numerator, is_regular_element)

for d, l in [(6, 2), (7, 3), (6, 3), (5, 2)]:
    chart = Chart(d, l)
    fiber = chart.special_fiber_ideal()
    comps = chart.component_ideals()
    inter = None
    for _, ideal, _ in comps:
        inter = ideal if inter is None else inter.intersect(ideal)
    # J is I_1, or for three components the product I_1 I_2 of the two
    # linear ones: no variable lies in both, so it is their intersection
    *head, (_, last, _) = comps
    meet = head[0][1]
    for _, ideal, _ in head[1:]:
        meet = Ideal(meet.ring, [g * h for g in meet.gens for h in ideal.gens])
    print("(d, l) = (%d, %d)  case %s" % (d, l, chart.case))
    print("  components          :", ", ".join(label for label, _, _ in comps))
    print("  N(I_s)              :", hilbert_numerator(fiber))
    print("  N(J)+N(I_m)-N(J+I_m):", intersection_numerator(meet, last))
    print("  I_s = intersection  :", fiber.equals(inter))
    print("  fiber dimension     :", fiber.dimension(), "(expect %d)" % (d - 2))
    print("  component dimensions:", [i.dimension() for _, i, _ in comps])

# Flatness certificate over Q[pi]: with pi of weight 2, the chart ideal and
# its special fiber have the same Hilbert numerator exactly when pi is a
# non-zerodivisor; the colon (I'' : pi) = I'' says the same thing directly.
chart = Chart(6, 2, QQ)
weights = [2 if nm == "pi" else 1 for nm in chart.reduced_ring.names]
print("\nN(I'') on (6,2), pi of weight 2:",
      hilbert_numerator(chart.reduced_ideal(), weights))
print("N(I_s) on (6,2)                 :",
      hilbert_numerator(chart.special_fiber_ideal()))
print("pi regular mod the (6,2) chart ideal:",
      is_regular_element(chart.reduced_ideal(), chart.reduced_ring.var("pi")))
