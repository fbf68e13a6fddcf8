"""Affine chart data for the orthogonal lattice models.

For integers d >= 5 and 1 < l < d-1 the chart is described inside the
polynomial ring on a generic d x d matrix X plus the uniformizer pi.  The
base ring is modeled as k[pi] (k the coefficient field, pi the least ring
variable); the special and generic fibers are the substitutions pi -> 0 and
pi -> 1.

Writing n = floor(d/2), the symmetric form on the lattice has a normal
basis whose Gram matrix is G0 + pi*G1 with G0, G1 in {0,1} entries, by one
rule: row i pairs with row d+1-i, except that rows n and n+1 pair with
themselves when d is even and l odd, and the pairing carries pi exactly on
the band rows (EE, OO, EO, OE = parity of d then l).  The band rows are the
row support of G1; the middle rows run from the first band row to the last,
l of them (same parity) or l+1 (opposite parity).  X is split into blocks

        [ E1 | O1 | E2 ]
    X = [ B1 | A  | B2 ]
        [ E3 | O2 | E4 ]

with the middle rows and columns in the middle.

The chart ideal is I = I_naive + I_add, and it collapses onto a much smaller
presentation: the ring on the band variables x[t][s] (t in the band rows Z,
s in the complementary columns) modulo all 2x2 minors of that rectangle plus
one trace quadric t_r + 2*pi.  For opposite parity the band rows exclude the
center row n+1 (it is solved for by the unit diagonal entry of the Gram
matrix) while the center column n+1 survives as the extra column Q; with
that convention the rectangle is l x (d-l) in every case.

Every pairing the chart uses is a block of (G0, G1): J_e is G0 on the
right x left outer columns, J_m is G1 on the middle rows (for opposite
parity its center row is zero, and for d even row n is paired with itself),
and the quadratic forms are q_u(u) = 1/2 u^t G1 u on the band rows and
q_w(w) = 1/2 w^t G0 w on the columns.  The trace quadric is
1/2 Tr(G1 Y G0 Y^t) on the band rectangle Y, so on rank-one matrices u (X) w
it factors as 2*q_u(u)*q_w(w).  The special fiber then decomposes along q_u
and q_w, which is exactly what the component builder emits; a form on two
indices that pairs them with each other (two band rows, or columns {1, d})
splits into linear factors, which produces the three-component boundary
cases.  G0 + pi*G1 is a permutation matrix, so every equation the chart
states as a matrix product (the 2x2 minors, the relation families, the
solve expressions, the substitution map and these quadrics) is written term
by term from its pairs, each term packed from its variables and the terms
summed by ``Ring.collect``; no polynomial matrix is multiplied.
"""

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product
from math import comb
from types import SimpleNamespace

from .errors import InvalidChart, NotApplicable
from .fields import QQ
from .groebner import GroebnerBasis, reduce_basis
from .ideals import Ideal, ideal_sum, monomial_numerator, pi_weights
from .matrices import PolyMatrix
from .orders import GRLEX, Block
from .rings import Polynomial, Ring, RingMap, cast, monomial_map, specialize_pi


def xname(i, j):
    return "x[%d][%d]" % (i, j)


def gram_matrices(d, l):
    """Gram pair (G0, G1) of the normal form: <e_i, e_j> = G0 + pi*G1.

    Entries are 0/1 ints.  Row i pairs with row d+1-i, except that in the
    quasi-split even case (EO) rows n and n+1 each pair with themselves; the
    pairing is weighted by pi exactly on the band rows, the middle l rows
    (same parity) or the middle l+1 rows less the center row n+1 (opposite
    parity).
    """
    _validate(d, l)
    n = d // 2
    m = l if d % 2 == l % 2 else l + 1
    lo = (d - m) // 2 + 1
    band = set(range(lo, lo + m)) - ({n + 1} if m > l else set())
    G0 = [[0] * d for _ in range(d)]
    G1 = [[0] * d for _ in range(d)]
    for i in range(1, d + 1):
        j = i if d % 2 == 0 and m > l and i in (n, n + 1) else d + 1 - i
        (G1 if i in band else G0)[i - 1][j - 1] = 1
    return G0, G1


# the fibers over k[pi] by name, with the value pi takes on each; the
# arithmetic fiber keeps pi
FIBER_PI = {"special": 0, "generic": 1, "arithmetic": None}


def _written(ring, terms):
    """The sum of c * v1 * ... * vk over its terms (c, v1, ..., vk), c
    nonzero and the v variable names: each term packed as the sum of their
    units and summed by ``Ring.collect``."""
    unit, packed = ring._unit_of, []
    for c, *names in terms:
        m = 0
        for v in names:
            m += unit[v]
        packed.append((m, c))
    return ring.collect(packed)


def _family(ring, rows, cols, terms):
    """The rows x cols matrix whose (i, j) entry is written from terms(i, j)."""
    return PolyMatrix(ring, [[_written(ring, terms(i, j)) for j in cols] for i in rows])


def _validate(d, l):
    if not (isinstance(d, int) and isinstance(l, int)):
        raise InvalidChart("d and l must be integers")
    if d < 5:
        raise InvalidChart("need d >= 5, got d=%d" % d)
    if not 1 < l < d - 1:
        raise InvalidChart("need 1 < l < d-1, got l=%d for d=%d" % (l, d))


def _kernel_numerator(a, b, quadric):
    """N(t) of k[x]/ker psi, psi(x_is) = u_i w_s on an a x b rectangle into
    k[u, w], or k[u, w]/(q) for a quadric q in u: (1 - t)^(ab) times
    sum_k [C(a+k-1, k) - C(a+k-3, k-2) for q] C(b+k-1, k) t^k."""
    n = a * b
    series = [(comb(a + k - 1, k) - (quadric and k > 1 and comb(a + k - 3, k - 2)))
              * comb(b + k - 1, k) for k in range(n + 1)]
    out = [sum((-1) ** j * comb(n, j) * series[k - j] for j in range(k + 1))
           for k in range(n + 1)]
    while not out[-1]:
        out.pop()
    return out


class Chart:
    """All named ideals of the chart at one (d, l) over one field."""

    def __init__(self, d, l, field=QQ):
        self._gram = gram_matrices(d, l)
        self.d = d
        self.l = l
        self.field = field
        self.same_parity = d % 2 == l % 2
        self.case = ("E" if d % 2 == 0 else "O") + ("E" if l % 2 == 0 else "O")
        # the band rows are the rows G1 pairs; the middle rows run from the
        # first of them to the last, taking in the center row n+1 for
        # opposite parity
        self.rows = [i for i in range(1, d + 1) if any(self._gram[1][i - 1])]
        self.cols = [j for j in range(1, d + 1) if j not in set(self.rows)]
        self.mid = list(range(self.rows[0], self.rows[-1] + 1))
        self.e = self.rows[0] - 1
        self.center = d // 2 + 1
        # the outer e columns on each side; the same indices are the top and
        # bottom rows of the E and O blocks
        self._left = list(range(1, self.e + 1))
        self._right = list(range(d - self.e + 1, d + 1))
        # G0 + pi*G1 is a permutation matrix: row i of G_k X is row
        # _partner[i] of X, for k = 1 on the band rows and k = 0 elsewhere
        self._partner = {i: row.index(1) + 1 for G in self._gram
                         for i, row in enumerate(G, 1) if 1 in row}

        # x[i][j] is the name of the entry (i, j) of X, 1-based
        self._x = x = [[xname(i, j) for j in range(d + 1)] for i in range(d + 1)]
        bnames = [x[i][j] for i in self.rows for j in self.cols]
        self.reduced_ring = Ring(bnames + ["pi"], field, GRLEX)
        self.fiber_ring = Ring(bnames, field, GRLEX)
        self._cache = {}

    @cached_property
    def ring(self):
        """The full ring, on the entries of X and pi.  The chart equations
        solve each non-band entry for a polynomial in the band variables;
        with the non-band block first, each of those generators leads with
        the entry it solves for."""
        names = self.reduced_ring.names
        band = set(names)
        free = [nm for row in self._x[1:] for nm in row[1:] if nm not in band]
        return Ring(free + list(names), self.field, Block(len(free)))

    @cached_property
    def _text_ring(self):
        """``render`` sorts and prints generators in the grlex text of the
        row-major names, whatever ring they live in."""
        return Ring([nm for row in self._x[1:] for nm in row[1:]] + ["pi"], self.field, GRLEX)

    def __repr__(self):
        return "Chart(d=%d, l=%d, %s, %r)" % (self.d, self.l, self.case, self.field)

    # -- matrices in the full ring -------------------------------------------------

    def x_matrix(self):
        return self._matrix(self.ring, range(1, self.d + 1), range(1, self.d + 1))

    def gram(self):
        return gram_matrices(self.d, self.l)

    def _matrix(self, ring, rows, cols):
        """X on rows x cols, its entries variables of ``ring``."""
        return PolyMatrix(ring, [[ring.var(self._x[i][j]) for j in cols] for i in rows])

    def _solved(self, c, entry):
        """{(i, j): terms} over E1, E2, E3, E4, O1, O2, in that order, of
        c * J_e B^t J_m M, B = B2 on the left rows and B1 on the right ones
        and M = B1, B2 or A: the sum over the band rows k of x[p(k)][p(i)]
        times each term (names) of entry(k, j), the (k, j) entry of M.  With
        c = -1/2 these are what the blocks equal on the chart."""
        x, p, lo, hi = self._x, self._partner, self._left, self._right
        return {(i, j): [(c, x[p[k]][p[i]], *t) for k in self.rows for t in entry(k, j)]
                for rows, cols in ((lo, lo), (lo, hi), (hi, lo), (hi, hi),
                                   (lo, self.mid), (hi, self.mid))
                for i in rows for j in cols}

    def _equations(self):
        """The chart's relation families in the full ring, built once: every
        family that more than one generator list or lemma reads."""
        return self._cached("equations", self._build_equations)

    def _pairs(self, k, idx):
        """G_k on idx x idx as the partial permutation it is: its (i, j), by row."""
        return [(i, j) for i in idx for j in idx if self._gram[k][i - 1][j - 1]]

    def _form(self, field, k, idx):
        """q(v) = 1/2 v^t G_k v as terms (c, i, j), i <= j, in column order."""
        return [(field.one if i < j else field.coerce(Fraction(1, 2)), i, j)
                for j, i in self._pairs(k, idx) if i <= j]    # G_k is symmetric

    def _minors(self, ring, rows, cols):
        """The 2x2 minors x_ij x_ts - x_is x_tj of X, rows i < t and columns
        j < s in row-major order, over ``ring``."""
        x, one, minus = self._x, ring.field.one, ring.field.neg(ring.field.one)
        return [_written(ring, ((one, x[i][j], x[t][s]), (minus, x[i][s], x[t][j])))
                for i, t in combinations(rows, 2) for j, s in combinations(cols, 2)]

    def _build_equations(self):
        """X^2, the minors, Tr(X), Tr(HAH) + 2 pi, the antisymmetry family
        A J_m - J_m A^t and the band family B2 J_e B1^t - A J_m (both masked
        to the band rows by H), and the relations X^t S0 X - 2 pi (S0 + pi S1) X
        and X^t S1 X + 2 (S0 + pi S1) X, S_k = G_k, each written term by term
        from the pairing p = ``_partner``."""
        ring, x, p, band = self.ring, self._x, self._partner, set(self.rows)
        field, one, two = ring.field, ring.field.one, ring.field.coerce(2)
        every, mid = range(1, self.d + 1), self.mid
        # (X^t G_k X)[i][j], k = 1 for the band rows t, and the factors of
        # ((S0 + pi S1) X)[i][j]
        bilinear = lambda i, j, k: [(one, x[t][i], x[p[t]][j]) for t in every
                                    if (t in band) == k]
        lin = lambda i, j: ("pi", x[p[i]][j]) if i in band else (x[p[i]][j],)
        # H masks the middle rows to the band rows (all of them for same
        # parity); for opposite parity the band family is
        # 2 H(B2 J_e B1^t - A J_m)H + H Q Q^t H, Q the center column
        c, q = (one, []) if self.same_parity else (two, [self.center])
        masked = lambda terms: lambda i, j: terms(i, j) if i in band and j in band else ()
        # the band minors are the minors of X on the band rows and columns,
        # the same objects
        pairs = list(combinations(every, 2))
        minors = dict(zip(product(pairs, pairs), self._minors(ring, every, every)))
        return SimpleNamespace(
            square=_family(ring, every, every,
                           lambda i, j: [(one, x[i][k], x[k][j]) for k in every]),
            minors=list(minors.values()),
            band_minors=[minors[r, c] for r in combinations(self.rows, 2)
                         for c in combinations(self.cols, 2)],
            trace=_written(ring, [(one, x[i][i]) for i in every]),
            trace_A=_written(ring, [(one, x[i][i]) for i in self.rows] + [(two, "pi")]),
            antisym=_family(ring, mid, mid, masked(
                lambda i, j: [(one, x[i][p[j]]), (field.neg(one), x[j][p[i]])])),
            band=_family(ring, mid, mid, masked(
                lambda i, j: [(c, x[i][p[s]], x[j][s]) for s in self._left]
                + [(field.neg(c), x[i][p[j]])] + [(one, x[i][t], x[j][t]) for t in q])),
            rel0=_family(ring, every, every, lambda i, j: bilinear(i, j, False)
                         + [(field.neg(two), "pi", *lin(i, j))]),
            rel1=_family(ring, every, every, lambda i, j: bilinear(i, j, True)
                         + [(two, *lin(i, j))]))

    # -- generator families ---------------------------------------------------------

    def naive_generators(self):
        """Entries of the four matrix relations, zeros and repeats included."""
        eq = self._equations()
        return (eq.square.entries() + eq.minors + eq.rel0.entries()
                + eq.rel1.entries())

    def additional_generators(self):
        """Tr(X), Tr(A) + 2*pi, the antisymmetry family A J_m - J_m A^t and
        the band family B2 J_e B1^t - A J_m, with J_e and J_m read off G0 and
        G1.

        For opposite parity each family is masked to the band rows by H, and
        the band family becomes 2 H(B2 J_e B1^t - A J_m)H + H Q Q^t H.  For
        d even (EO) the Gram matrix pairs row n with itself, not with the
        deleted center row, and so does J_m; an antidiagonal J_m would leave
        row n without a partner and cut I down to dimension d-2.  The
        source's abstract does not print these equations, so this form rests
        on what ``test_chart_ideal_presents_the_band_ideal`` checks in all
        four parity cases: I has dimension d-1 and I cap k[band, pi] = I''.
        """
        eq = self._equations()
        return [eq.trace, eq.trace_A] + eq.antisym.entries() + eq.band.entries()

    def intermediate_generators(self):
        """The halfway ideal I' of the same-parity reduction."""
        return self._sans_trace_generators() + [self._equations().trace]

    def _sans_trace_generators(self):
        """I' without Tr(X): the minors, the band relations and the S1
        relation."""
        if not self.same_parity:
            raise NotApplicable("I' is defined for same-parity charts only")
        eq = self._equations()
        return eq.minors + self._band_relations() + eq.rel1.entries()

    def _band_relations(self):
        """The trace relation on A and the band family B2 J_e B1^t - A J_m."""
        eq = self._equations()
        return [eq.trace_A] + eq.band.entries()

    def solve_relations(self):
        """The six matrix relations expressing E and O blocks through B1, B2, A.

        Returned as full-ring polynomials (block entry minus its expression);
        together they eliminate the corner and shoulder blocks in the
        reduction argument.
        """
        if not self.same_parity:
            raise NotApplicable("the printed solve relations assume same parity")
        return list(self._solve().values())

    def _solve(self):
        """{(i, j): the solve relation of x[i][j]}, built once."""
        return self._cached("solve", self._build_solve)

    def _build_solve(self):
        ring, x = self.ring, self._x
        solved = self._solved(ring.field.coerce(Fraction(1, 2)), lambda k, j: [(x[k][j],)])
        return {(i, j): _written(ring, [(ring.field.one, x[i][j])] + terms)
                for (i, j), terms in solved.items()}

    # -- the named ideals ------------------------------------------------------------

    def naive_ideal(self):
        return self._cached("naive", lambda: Ideal(
            self.ring, self.naive_generators()))

    def additional_ideal(self):
        return self._cached("add", lambda: Ideal(
            self.ring, self.additional_generators()))

    def full_ideal(self):
        """I = I_naive + I_add; for same parity every generator of I' is
        among its generators, so I' is its summand."""
        return self._cached("full", lambda: Ideal(
            self.ring, self.naive_generators() + self.additional_generators(),
            [self.intermediate_ideal()] if self.same_parity else ()))

    def intermediate_ideal(self):
        """I': the minors, the band relations, the S1 relation and Tr(X),
        over its summand I' without Tr(X)."""
        return self._cached("intermediate", lambda: Ideal(
            self.ring, self.intermediate_generators(),
            [self.iprime_sans_trace_ideal()]))

    # -- the lemma ideals (same parity) ---------------------------------------------
    # Each is generated by one lemma's hypotheses; under the ring's block
    # order its reduced basis is the solved non-band variables plus a small
    # basis over k[band, pi].  The generator lists nest: I' without Tr(X)
    # in I' in I, and solve-plus-reduced in solve-plus-band.  So only I'
    # without Tr(X) and solve-plus-reduced run from their generators; the
    # others start from their summand's basis (see ``ideals.Ideal``).  The
    # nested ideals are equal, so that is already their basis, but no basis
    # assumes it.

    def iprime_sans_trace_ideal(self):
        """I' without Tr(X)."""
        return self._cached("iprime-sans-trace", lambda: Ideal(
            self.ring, self._sans_trace_generators()))

    def solve_plus_reduced_ideal(self):
        """The solve relations, the band minors and the band relations."""
        return self._cached("solve-plus-reduced", lambda: Ideal(
            self.ring, self.solve_relations() + self._equations().band_minors
            + self._band_relations()))

    def solve_plus_band_ideal(self):
        """All 2x2 minors of X, the band relations and the solve
        relations, over its summand solve-plus-reduced (the band minors are
        minors of X)."""
        return self._cached("solve-plus-band", lambda: Ideal(
            self.ring, self._equations().minors + self._band_relations()
            + self.solve_relations(), [self.solve_plus_reduced_ideal()]))

    def reduced_ideal(self):
        """The trace quadric t_r + 2*pi plus the minors of the band
        rectangle, over k[band variables, pi]."""
        return self._cached("reduced", self._build_reduced)

    def _build_reduced(self):
        rr = self.reduced_ring
        return ideal_sum(rr, [self.reduced_minors_ideal()], [self._trace(rr)])

    def _trace(self, ring):
        """t_r + 2*pi over ``ring``."""
        return self.trace_quadric(ring) + ring.var("pi").scale(2)

    def degeneration(self, budget=None):
        """Certify I'' by its Groebner degeneration; True when it holds.

        It applies to the chart's own I'' only: one summand, M'', the 2x2
        minors of the a x b band rectangle, and one loose trace generator t.
        R = k[band, pi], pi of weight 2.  (1) M'' lies in the kernel of
        psi(x_is) = u_i w_s, so HS(R/M'') lies between the Segre series and
        HS of the minors' grlex leads; equal numerators make the minors a
        Groebner basis (Sturmfels, Math. Z. 205, 1990).  (2) t has x_11 x_ab
        and x_1b x_a1 with one coefficient c, so f = t - c(x_11 x_ab -
        x_1b x_a1) generates I'' with M''.  With omega(x_is) =
        [i in {1, a}] + [s in {1, b}], f homogeneous and 2c x_1b x_a1 its
        only term of omega 4, f leads with it under weighted degree, omega,
        grlex, and the minors keep their leads.  J0, those leads and
        x_1b x_a1, lies in in(I''), so HS(R/J0) >= HS(R/I''), and
        0 -> R/(M'':f)(-2) -> R/M'' -> R/I'' -> 0 gives HS(R/I'') >=
        (1 - t^2) HS(R/M''), which is HS(R/J0) by the Bigatti split on
        x_1b x_a1.  So in(I'') = J0.  pi is then in no lead, hence regular
        on R/I'', and N(J0) is N(I'') for ``pi_weights``, N(I_s) and N(I_g)
        (both fibers' grlex leads are those of I'').

        On success I'' keeps N(J0) and M'' the minors' reduced basis, and
        the chart's fibers whose generators are those of I'' at their pi
        keep N(J0).  On failure nothing is kept.
        Meets the deadline first, even when the result is cached."""
        if budget is not None:
            budget.deadline()
        return self._cached("degeneration", lambda: self._degenerate(budget))

    def _degenerate(self, budget):
        rr = self.reduced_ring
        red = self.reduced_ideal()
        minors = self.reduced_minors_ideal()
        a, b = len(self.rows), len(self.cols)
        summands, loose = red._summands or ((), ())
        if summands != (minors,) or len(loose) != 1 or \
                list(minors.gens) != self._minors(rr, self.rows, self.cols):
            return False
        weights = tuple(pi_weights(rr))
        leads = [max(g._d) for g in minors.gens]
        n_m = monomial_numerator(rr, leads, weights, budget)
        if n_m != _kernel_numerator(a, b, False):
            return False
        corner = lambda i, s: rr._unit_of[self._x[self.rows[i]][self.cols[s]]]
        main = corner(0, 0) + corner(a - 1, b - 1)
        anti = corner(0, b - 1) + corner(a - 1, 0)
        t = loose[0]._d
        c = t.get(main)
        if c is None or t.get(anti) != c:
            return False
        f = rr.collect(chain(t.items(), [(main, rr.field.neg(c)), (anti, c)]))._d
        omega = [(i in (0, a - 1)) + (s in (0, b - 1))
                 for i in range(a) for s in range(b)] + [0]
        for m in f:
            exps = rr.exponents(m)
            if sum(map(int.__mul__, exps, weights)) != 2 or \
                    (sum(map(int.__mul__, exps, omega)) == 4) != (m == anti):
                return False
        # x_1b x_a1 shares no variable with a diagonal lead x_is x_jt
        # (i < j, s < t), so (leads) : x_1b x_a1 = (leads), and the Bigatti
        # split on x_1b x_a1 gives N(J0) = (1 - t^2) N(leads)
        n_j0 = tuple(x - y for x, y in zip(n_m + [0, 0], [0, 0] + n_m))
        minors._gb = reduce_basis(rr, minors.gens, budget)
        red._numerators[weights] = n_j0
        for fiber in ("special", "generic"):
            ideal = self.reduced_fiber(fiber)
            if ideal is not None:
                ideal._numerators[(1,) * ideal.ring.nvars] = n_j0
        return True

    def reduced_fiber(self, fiber):
        """The chart's fiber ideal ("special" or "generic", built now if it
        is not cached) when its generators are those of I'' at its pi
        (specialized once and kept), compared by value, else None: a fiber
        the certificate speaks for."""
        want = self._cached("reduced-" + fiber, lambda: self.specialize(
            self.reduced_ideal(), fiber))
        ideal = self._cached(fiber, lambda: want)
        return ideal if ideal.gens == want.gens else None

    def reduced_minors_ideal(self):
        """M'', the minors of the band rectangle over k[band variables, pi]:
        the determinantal ideal that I'' extends, so its basis is the known
        block of I'' (see ``ideals.ideal_sum``), and the ideal the
        B1JB2-symmetric lemma tests its band-only targets in."""
        return self._cached("reduced-minors", lambda: Ideal(
            self.reduced_ring, self._minors(self.reduced_ring, self.rows, self.cols)))

    def trace_quadric(self, ring):
        """The quadric t_r with t_r + 2*pi the hypersurface equation:
        1/2 Tr(P Y C Y^t) for Y the band rectangle, P the block of G1 on the
        band rows and C the block of G0 on the columns, i.e. half the sum of
        x[a][f]*x[b][g] over the G1-pairs (a, b) and the G0-pairs (f, g)."""
        half = ring.field.coerce(Fraction(1, 2))
        x = self._x
        return _written(ring, [(half, x[a][f], x[b][g])
                               for a, b in self._pairs(1, self.rows)
                               for f, g in self._pairs(0, self.cols)])

    def substitution_map(self):
        """Images of every X variable in the reduced ring (same parity).

        B variables map to themselves, A to B2 J_e B1^t J_m, the E and O
        blocks to their solve expressions; pi maps to pi.
        """
        if not self.same_parity:
            raise NotApplicable("no printed substitution map for opposite parity")
        return self._cached("phi", self._build_substitution)

    def _build_substitution(self):
        rr, x, p, mid = self.reduced_ring, self._x, self._partner, self.mid
        field = rr.field
        # (B2 J_e B1^t J_m)[i][j]: x[i][p(s)] x[p(j)][s] over the left columns s
        a_image = lambda i, j: [(x[i][p[s]], x[p[j]][s]) for s in self._left]
        images = {"pi": rr.var("pi")}
        for i in self.rows:
            images.update((x[i][j], rr.var(x[i][j])) for j in self.cols)
            images.update((x[i][j], _written(rr, [(field.one, *t) for t in a_image(i, j)]))
                          for j in mid)
        solved = self._solved(field.neg(field.coerce(Fraction(1, 2))),
                              lambda k, j: a_image(k, j) if j in mid else [(x[k][j],)])
        images.update((x[i][j], _written(rr, terms)) for (i, j), terms in solved.items())
        return images

    # -- the chart as the kernel of one map --------------------------------------------

    @cached_property
    def _uw(self):
        """k[u, w, pi]: u_i for the band rows, w_s for the columns."""
        return Ring(["u%d" % i for i in self.rows] + ["w%d" % s for s in self.cols]
                    + ["pi"], self.field, GRLEX)

    @cached_property
    def _psi(self):
        """psi on k[band, pi]: x_is -> u_i w_s, pi -> pi."""
        uw = self._uw
        return RingMap(self.reduced_ring, [uw.var("u%d" % i) * uw.var("w%d" % s)
                                           for i in self.rows for s in self.cols]
                       + [uw.var("pi")], uw)

    def _schedule(self):
        """Each non-band variable with the generators the chart builds to
        solve it, c x + h with c a constant, in an order in which h has
        only band variables, pi and earlier variables: the entries of A from
        the band family, then the rows outside the band from the S1
        relation or the solve relations."""
        eq, x, p, mid = self._equations(), self._x, self._partner, self.mid
        solve = self._solve() if self.same_parity else {}
        every = range(1, self.d + 1)
        return [(x[i][p[j]], [eq.band[mid.index(i), mid.index(j)]])
                for i in self.rows for j in self.rows] + \
            [(x[r][j], [eq.rel1[p[r] - 1, j - 1]] + ([solve[r, j]] if solve else []))
             for r in every if r not in self.rows for j in every]

    def kernel(self, ideal, budget=None):
        """Certify a full-ring chart ideal K, or M'', as the kernel of one
        map into k[u, w, pi]: that map, a ``RingMap``, or a dict naming the
        step that failed.  Kept per ideal; meets the deadline first, even
        when kept, and once per generator it reads or evaluates.

        Phi sends x_is on the band to u_i w_s, pi to -psi(t_r)/2 and each
        non-band variable to its solved image:
        (T) in ``_schedule`` order each non-band x has a generator of K, by
            value, c x + h with c a nonzero constant and h in band
            variables, pi and the variables before x; Phi(x) = -Phi(h)/c;
        (Z) Phi(g) = 0 for every generator g of K;
        (C) I'' lies in K by value: the band minors are generators of K,
            and t_r + 2 pi is Tr(A) + 2 pi less the generators of (T) that
            solve the diagonal of A, each divided by its c;
        (S) ``degeneration`` holds, so M'' = ker psi.
        Then K = ker Phi: (T) makes g = g' mod K with g' in k[band, pi];
        dividing g' by t_r/2 + pi leaves r in k[band] with psi(r) = Phi(g),
        so Phi(g) = 0 puts r in M'' and g in I'' + K = K.  M'' itself is
        certified as ker psi by (S) once its generators are the band
        minors (C).  Maps with equal images are one map, so their products
        are built once."""
        if budget is not None:
            budget.deadline()
        known = self._cached("kernels", list)
        for k, phi in known:
            if k is ideal:
                return phi
        phi = self._certify(ideal, budget)
        known.append((ideal, phi))
        return phi

    def _certify(self, ideal, budget):
        if not self.degeneration(budget):
            return {"step": "S"}
        rr, psi = self.reduced_ring, self._psi
        if ideal.ring is rr:
            return psi if list(ideal.gens) == self._minors(rr, self.rows, self.cols) \
                else {"step": "C"}
        ring, field = self.ring, self.field
        ids = {id(g) for g in ideal.gens}
        held = lambda g: id(g) in ids or g in ideal.gens    # the same object, else by value
        free = ring.nvars - rr.nvars
        images = [None] * free + psi.images[:-1] + \
            [psi(self.trace_quadric(rr)).scale(field.neg(field.coerce(Fraction(1, 2))))]
        maps = self._cached("maps", list)
        shared = maps[0] if maps else None
        phi = shared or RingMap(ring, images, psi.target)
        low, support, units = ring._exp_low, ring._exp_guard, ring._units
        known = sum((u + low) & support for u in units[free:])
        diagonal, solved, done = {self._x[i][i] for i in self.rows}, [], set()
        for name, candidates in self._schedule():
            if budget is not None:
                budget.deadline()
            k = ring.index(name)
            g = next((g for g in candidates if id(g) in ids), None) or \
                next((g for g in candidates if held(g)), None)
            c = None if g is None or images[k] is not None else g._d.get(units[k])
            if c is None or any((m + low) & support & ~known for m in g._d if m != units[k]):
                return {"step": "T", "variable": name}
            c = field.neg(field.inv(c))
            h = Polynomial(ring, {m: v for m, v in g._d.items() if m != units[k]})
            images[k] = phi(h).scale(c)
            if phi is shared and shared.images[k] != images[k]:
                phi = RingMap(ring, images, psi.target)
            known |= (units[k] + low) & support
            done.add(id(g))     # c Phi(x) + Phi(h) = 0: (Z) holds for g
            if name in diagonal:
                solved.append((g, c))
        if None in images:
            return {"step": "T", "variable": ring.names[images.index(None)]}
        eq = self._equations()
        trace = ring.collect(chain(eq.trace_A._d.items(), *(
            ((m, field.mul(v, c)) for m, v in g._d.items()) for g, c in solved)))
        if not (held(eq.trace_A) and all(map(held, eq.band_minors))
                and trace == self._trace(ring)):
            return {"step": "C"}
        for g in ideal.gens:
            if budget is not None:
                budget.deadline()
            if id(g) not in done and not phi.kills(g):
                return {"step": "Z", "generator": g}
        if phi is not shared:
            maps.append(phi)
        return phi

    # -- fibers and components ----------------------------------------------------------

    def specialize(self, ideal, fiber):
        """The ideal on one fiber over k[pi], with pi dropped from the ring.

        ``fiber`` is "special" (pi -> 0), "generic" (pi -> 1) or
        "arithmetic"; an arithmetic fiber, or an ideal without pi, is
        returned unchanged.  Only reduced-ring ideals are expected here, but
        any ideal whose ring ends in pi works (see ``rings.specialize_pi``).
        """
        if fiber not in FIBER_PI:
            raise ValueError("fiber must be one of %s, got %r"
                             % (", ".join(FIBER_PI), fiber))
        src = ideal.ring
        if FIBER_PI[fiber] is None or "pi" not in src.names:
            return ideal
        target = self.fiber_ring if src is self.reduced_ring \
            else Ring(src.names[:-1], src.field, src.order)
        return Ideal(target, [specialize_pi(g, FIBER_PI[fiber], target)
                              for g in ideal.gens])

    def special_fiber_ideal(self):
        return self._cached("special", lambda: self.specialize(
            self.reduced_ideal(), "special"))

    def generic_fiber_ideal(self):
        return self._cached("generic", lambda: self.specialize(
            self.reduced_ideal(), "generic"))

    def component_ideals(self):
        """Irreducible components of the special fiber, as a list of
        (label, ideal, variable) triples labeled I1, I2[, I3]; ``build``
        prints the variable as the component's regular variable.

        The trace quadric factors over rank-one band matrices as
        2 q_u(rows) q_w(columns); the components are the two quadric loci,
        except that a split quadric (two band rows, or columns {1, d})
        contributes two linear components instead.
        """
        return self._cached("components", self._build_components)

    def _build_components(self):
        ring, x = self.fiber_ring, self._x
        var = lambda i, j: ring.var(x[i][j])
        linear = lambda gens: Ideal(ring, gens)
        minors = self._minors(ring, self.rows, self.cols)
        quadric = lambda gens: Ideal(ring, gens + minors)   # quadrics, then minors
        U = self._form(ring.field, 1, self.rows)
        W = self._form(ring.field, 0, self.cols)
        # q_u(f, g) = (Y^t U Y)[f][g] and q_w(i, t) = (Y W Y^t)[i][t], Y = band
        row_quadric = [_written(ring, [(c, x[i][f], x[j][g]) for c, i, j in U])
                       for f in self.cols for g in self.cols]
        col_quadric = [_written(ring, [(c, x[i][f], x[t][g]) for c, f, g in W])
                       for i in self.rows for t in self.rows]
        first_row = self.rows[0]
        # a form on two indices that pairs them with each other is a product
        # of two linear forms
        if len(self.rows) == 2 and U[0][1:] == tuple(self.rows):
            a, b = self.rows
            return [("I1", linear([var(a, s) for s in self.cols]), x[b][1]),
                    ("I2", linear([var(b, s) for s in self.cols]), x[a][1]),
                    ("I3", quadric(col_quadric), x[b][1])]
        if len(self.cols) == 2 and W[0][1:] == tuple(self.cols):
            f, g = self.cols
            return [("I1", linear([var(i, f) for i in self.rows]), x[first_row][g]),
                    ("I2", linear([var(i, g) for i in self.rows]), x[first_row][f]),
                    ("I3", quadric(row_quadric), x[first_row][1])]
        return [("I1", quadric(row_quadric), x[first_row][1]),
                ("I2", quadric(col_quadric), x[first_row][1])]

    def _forms(self):
        """psi(x_is) = u_i w_s as packed monomials of k[u, w, pi], and for q_u
        and q_w: (name, {q} as a basis, rank of q, the ring whose grlex
        interreduces a component on q, its closed-form numerator)."""
        uw, a = self._uw, len(self.rows)
        col_ring = Ring([self._x[i][s] for s in self.cols for i in self.rows],
                        self.field, GRLEX)
        forms = []
        for name, k, idx, v, ring, other in (
                ("row", 1, self.rows, "u%d", self.fiber_ring, self.cols),
                ("column", 0, self.cols, "w%d", col_ring, self.rows)):
            form = self._form(uw.field, k, idx)
            q = _written(uw, [(c, v % i, v % j) for c, i, j in form])
            # rank q = rank of its partials dq/dv_i = v_j, G_k(i, j) = 1 (char != 2)
            partials = [uw.var(v % j) for _, j in self._pairs(k, idx)]
            forms.append((name, GroebnerBasis(uw, [q]), len(reduce_basis(uw, partials)),
                          ring, _kernel_numerator(len(idx), len(other), True)))
        return [u + w for u in uw._units[:a] for w in uw._units[a:-1]], forms

    def certify_component(self, ideal, budget=None):
        """Certify a special-fiber component from its generators alone:
        (reduced basis, Hilbert numerator), or a dict naming the failing
        step.  A generator of degree at most 1 makes it linear: its reduced
        basis must be n - (d - 2) variables.  Else psi must map every
        generator into (q), q = q_u or q_w ("map"); q of rank >= 3 ("rank")
        makes ker psi_j prime; and the generators interreduced with no
        S-pair, under grlex on the row-major names for q_u or column-major
        for q_w, must have leads with the closed-form numerator of ker psi_j
        ("numerator"): then I_j = ker psi_j, and this is its basis."""
        ring = self.fiber_ring
        if min((g.total_degree() for g in ideal.gens), default=0) < 2:
            basis = reduce_basis(ring, ideal.gens, budget)
            bad = [g for g in basis if len(g) != 1 or g.total_degree() != 1]
            if bad:
                return {"subcheck": "component-linear", "generator": bad[0]}
            c = len(basis)
            if ring.nvars - c != self.d - 2:
                return {"subcheck": "component-dimension", "expected": self.d - 2,
                        "got": ring.nvars - c}
            return basis, [(-1) ** j * comb(c, j) for j in range(c + 1)]
        images, forms = self._cached("forms", self._forms)
        outside = {}
        for name, q, rank, order_ring, numerator in forms:
            outside[name] = next((g for g in ideal.gens
                                  if not q.contains(monomial_map(g, images, q.ring))), None)
            if outside[name] is None:
                break
        else:
            return {"subcheck": "component-map", **outside}
        if rank < 3:
            return {"subcheck": "component-rank", "form": name, "rank": rank}
        basis = reduce_basis(order_ring, [cast(g, order_ring) for g in ideal.gens]
                             if order_ring is not ring else ideal.gens, budget)
        got = monomial_numerator(order_ring, basis.lead_monomials(),
                                 (1,) * ring.nvars, budget)
        if got != numerator:
            return {"subcheck": "component-numerator", "form": name,
                    "expected": numerator, "got": got}
        return basis, numerator

    # -- serialization ------------------------------------------------------------------

    def render(self, ideal, fiber="arithmetic"):
        """The ideal's generators on one fiber, as the text lines ``build``
        prints.

        Scalar-multiple repeats are dropped, keeping the first of each; the
        rest are sorted by (degree, text) of the source generator, then
        specialized, and a generator that becomes 0 is dropped.
        """
        first = {}
        for g in ideal.gens:
            # the key is the same for scalar multiples
            first.setdefault(tuple(g.monic().terms()), g)
        kept = sorted(((g.total_degree(), self._text(g)), g) for g in first.values())
        source = Ideal(ideal.ring, [g for _, g in kept])
        fiber_ideal = self.specialize(source, fiber)
        if fiber_ideal is source:       # nothing specialized: print each once
            return [text for (_, text), _ in kept]
        return [self._text(g) for g in fiber_ideal.gens]

    def to_json(self, fiber="arithmetic"):
        """Chart description with every ideal rendered in the text grammar."""
        ideals = {
            "naive": self.render(self.naive_ideal(), fiber),
            "add": self.render(self.additional_ideal(), fiber),
            "full": self.render(self.full_ideal(), fiber),
            "intermediate": (self.render(self.intermediate_ideal(), fiber)
                             if self.same_parity else None),
            "reduced": self.render(self.reduced_ideal(), fiber),
            "components": [
                {"label": label, "generators": self.render(ideal, fiber),
                 "regular_variable": v}
                for label, ideal, v in self.component_ideals()
            ],
        }
        return {
            "d": self.d,
            "l": self.l,
            "case": self.case,
            "Z": self.rows,
            "Zc": self.cols,
            "variables": list(self.reduced_ring.names),
            "fiber": fiber,
            "ideals": ideals,
        }

    def _cached(self, key, thunk):
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]

    def _text(self, g):
        """g in the text grammar, as the grlex ring on the row-major names
        prints it; the same text in the full, reduced and fiber rings."""
        return str(cast(g, self._text_ring))
