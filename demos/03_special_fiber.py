"""Special fiber geometry: components, reducedness equality, dimensions.

At pi = 0 the chart degenerates; the fiber object decomposes into two or
three irreducible components depending on where l sits relative to 2 and
d - 2.  The decomposition is certified by the exact ideal equality
I_s = I_1 cap I_2 (cap I_3).
"""

from olmcheck import Chart, QQ, is_regular_element

for d, l in [(6, 2), (7, 3), (6, 3), (5, 2)]:
    chart = Chart(d, l)
    fiber = chart.special_fiber_ideal()
    comps = chart.component_ideals()
    inter = None
    for _, ideal, _ in comps:
        inter = ideal if inter is None else inter.intersect(ideal)
    print("(d, l) = (%d, %d)  case %s" % (d, l, chart.case))
    print("  components          :", ", ".join(label for label, _, _ in comps))
    print("  I_s = intersection  :", fiber.equals(inter))
    print("  fiber dimension     :", fiber.dimension(), "(expect %d)" % (d - 2))
    print("  component dimensions:", [i.dimension() for _, i, _ in comps])

# Flatness proxy over Q[pi]: pi is a non-zerodivisor mod the chart ideal.
chart = Chart(6, 2, QQ)
print("\npi regular mod the (6,2) chart ideal:",
      is_regular_element(chart.reduced_ideal(), chart.reduced_ring.var("pi")))
