"""Special fiber geometry: components, multiplicities, verdicts.

At pi = 0 the chart degenerates; the fiber decomposes into two or three
irreducible components depending on where l sits relative to 2 and d - 2.
The certificate of I'' (``Chart.degeneration``) gives in(I_s) = J0, which is
squarefree, so I_s is reduced, and Cohen-Macaulay of dimension d - 2.  Each
component is certified from its own generators: a linear one is generated
by variables, and a quadric one has the closed-form numerator of the kernel
of x_is -> u_i w_s into k[u, w]/(q).  The ``special-fiber`` check then
proves I_s = I_1 cap I_2 (cap I_3) from the multiplicities,
e(R/I_s) = sum e(R/I_j), with no Buchberger run.  The ``flatness`` check
certifies that pi is a non-zerodivisor: with pi of weight 2, N(I'') equals
N(I_s).  Each chart prints the numerators and multiplicities and the
verdicts the checks return.
"""

from olmcheck import Chart, EngineConfig, hilbert_numerator, verify_check
from olmcheck.ideals import dimension_and_degree, pi_weights

cfg = EngineConfig(modulus=0)       # the charts below are over Q
for d, l in [(6, 2), (7, 3), (6, 3), (5, 2)]:
    chart = Chart(d, l)
    red = chart.reduced_ideal()
    n = chart.fiber_ring.nvars
    print("(d, l) = (%d, %d)  case %s" % (d, l, chart.case))
    print("  certificate of I''  :", chart.degeneration())
    n_j0 = hilbert_numerator(red, pi_weights(red.ring))
    print("  N(J0), pi weight 2  :", n_j0)
    print("  e(R/I_s)            :", dimension_and_degree(n_j0, n)[1])
    for label, ideal, _ in chart.component_ideals():
        _, num = chart.certify_component(ideal)
        print("  %-3s closed form     : %s, e = %d"
              % (label, num, dimension_and_degree(num, n)[1]))
    print("  special-fiber       :", verify_check("special-fiber", chart, cfg).status)
    print("  flatness            :", verify_check("flatness", chart, cfg).status)
    print("  fiber dimension     :", chart.special_fiber_ideal().dimension(),
          "(expect %d)" % (d - 2))
