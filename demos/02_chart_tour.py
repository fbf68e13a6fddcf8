"""Walk through one chart: the split even case (d, l) = (6, 2).

The chart lives on a generic 6x6 matrix X plus the uniformizer pi.  Its
ideal collapses onto the band rows {3, 4} and columns {1, 2, 5, 6}: all 2x2
minors of that 2x4 rectangle plus a single trace quadric t + 2*pi.
"""

from olmcheck import Chart

chart = Chart(6, 2)
print("case        :", chart.case)
print("band rows Z :", chart.rows)
print("columns Zc  :", chart.cols)

G0, G1 = chart.gram()
print("\nGram matrix <e_i, e_j> = G0 + pi*G1, antidiagonal profile:")
print("  ", [(G0[i][5 - i], G1[i][5 - i]) for i in range(6)])

full = chart.render(chart.full_ideal())
print("\nfull chart ideal:", len(full), "distinct generators in",
      chart.ring.nvars, "variables")

red = chart.render(chart.reduced_ideal())
print("reduced presentation:", len(red), "generators in",
      chart.reduced_ring.nvars, "variables")
for line in red:
    print("  ", line)

phi = chart.substitution_map()
print("\nsome substitution images (full ring -> band ring):")
for name in ("x[1][1]", "x[3][3]", "x[2][4]"):
    print("  %s -> %s" % (name, phi[name]))
