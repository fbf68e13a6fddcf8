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

Every pairing the chart uses is a block of (G0, G1), read through one
helper: J_e is G0 on the right x left outer columns, J_m is G1 on the middle
rows (for opposite parity its center row is zero, and for d even row n is
paired with itself), and the quadratic forms are q_u(u) = 1/2 u^t G1 u on
the band rows and q_w(w) = 1/2 w^t G0 w on the columns.  The trace quadric is
1/2 Tr(G1 Y G0 Y^t) on the band rectangle Y, so on rank-one matrices u (X) w
it factors as 2*q_u(u)*q_w(w).  The special fiber then decomposes along q_u
and q_w, which is exactly what the component builder emits; a form on two
indices that pairs them with each other (two band rows, or columns {1, d})
splits into linear factors, which produces the three-component boundary
cases.
"""

from fractions import Fraction
from types import SimpleNamespace

from .errors import InvalidChart, NotApplicable
from .fields import QQ
from .ideals import Ideal, ideal_sum, pi_fiber
from .matrices import PolyMatrix, constant_matrix, diagonal
from .orders import GRLEX, Block
from .rings import Ring, cast


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


def _validate(d, l):
    if not (isinstance(d, int) and isinstance(l, int)):
        raise InvalidChart("d and l must be integers")
    if d < 5:
        raise InvalidChart("need d >= 5, got d=%d" % d)
    if not 1 < l < d - 1:
        raise InvalidChart("need 1 < l < d-1, got l=%d for d=%d" % (l, d))


def _solve_expressions(B1, A, B2, Je, Jm):
    """What E1, E2, E3, E4, O1, O2 equal on the chart: -1/2 Je Bk^t Jm M.

    ``solve_relations`` subtracts them from the blocks of X; the substitution
    map reads them with A replaced by its image B2 Je B1^t Jm.
    """
    half = B1.ring.field.coerce(Fraction(1, 2))
    L1 = Je @ B1.T @ Jm
    L2 = Je @ B2.T @ Jm
    return [(L @ M).scale(-half)
            for L, M in ((L2, B1), (L2, B2), (L1, B1), (L1, B2), (L2, A), (L1, A))]


class Chart:
    """All named ideals of the chart at one (d, l) over one field."""

    def __init__(self, d, l, field=QQ):
        G1 = gram_matrices(d, l)[1]
        self.d = d
        self.l = l
        self.field = field
        self.same_parity = d % 2 == l % 2
        self.case = ("E" if d % 2 == 0 else "O") + ("E" if l % 2 == 0 else "O")
        # the band rows are the rows G1 pairs; the middle rows run from the
        # first of them to the last, taking in the center row n+1 for
        # opposite parity
        self.rows = [i for i in range(1, d + 1) if any(G1[i - 1])]
        self.cols = [j for j in range(1, d + 1) if j not in set(self.rows)]
        self.mid = list(range(self.rows[0], self.rows[-1] + 1))
        self.e = self.rows[0] - 1
        self.center = d // 2 + 1
        # the outer e columns on each side; the same indices are the top and
        # bottom rows of the E and O blocks
        self._left = list(range(1, self.e + 1))
        self._right = list(range(d - self.e + 1, d + 1))

        names = [xname(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
        bnames = [xname(i, j) for i in self.rows for j in self.cols]
        # the chart equations solve each non-band entry for a polynomial in
        # the band variables; with the non-band block first, each of those
        # generators leads with the entry it solves for
        band = set(bnames)
        free = [nm for nm in names if nm not in band]
        self.ring = Ring(free + bnames + ["pi"], field, Block(len(free)))
        # ``render`` sorts and prints generators in the grlex text of the
        # row-major names, whatever ring they live in
        self._text_ring = Ring(names + ["pi"], field, GRLEX)
        self.reduced_ring = Ring(bnames + ["pi"], field, GRLEX)
        self.fiber_ring = Ring(bnames, field, GRLEX)
        self._cache = {}

    def __repr__(self):
        return "Chart(d=%d, l=%d, %s, %r)" % (self.d, self.l, self.case, self.field)

    # -- matrices in the full ring -------------------------------------------------

    def x_matrix(self):
        return PolyMatrix(self.ring, [[self.ring.var(xname(i, j))
                                       for j in range(1, self.d + 1)]
                                      for i in range(1, self.d + 1)])

    def pi(self):
        return self.ring.var("pi")

    def gram(self):
        return gram_matrices(self.d, self.l)

    def _sub(self, X, rows, cols):
        return PolyMatrix(X.ring, [[X[i - 1, j - 1] for j in cols] for i in rows])

    def _blocks(self, X):
        """B1, A, B2 (and Q for opposite parity) from the band rows of X."""
        B1 = self._sub(X, self.mid, self._left)
        B2 = self._sub(X, self.mid, self._right)
        A = self._sub(X, self.mid, self.mid)
        Q = None if self.same_parity else self._sub(X, self.mid, [self.center])
        return B1, A, B2, Q

    def _solve_blocks(self):
        """(rows, cols) of E1, E2, E3, E4, O1, O2, in the order of
        ``_solve_expressions``."""
        lo, hi = self._left, self._right
        return ((lo, lo), (lo, hi), (hi, lo), (hi, hi), (lo, self.mid), (hi, self.mid))

    def _equations(self):
        """The chart's matrix system in the full ring, built once: X, its
        blocks, pi, the J matrices, and every relation family that more than
        one generator list or lemma reads."""
        return self._cached("equations", self._build_equations)

    def _gram_block(self, ring, k, rows, cols):
        """G_k (k = 0 or 1) on the given rows x columns, as a constant matrix
        over ``ring``.  Every pairing the chart uses is one of these blocks."""
        G = self.gram()[k]
        return constant_matrix(ring, [[G[i - 1][j - 1] for j in cols] for i in rows])

    def _build_equations(self):
        ring = self.ring
        X = self.x_matrix()
        B1, A, B2, Q = self._blocks(X)
        pi = self.pi()
        G0, G1 = self.gram()
        S0X = constant_matrix(ring, G0) @ X
        S1X = constant_matrix(ring, G1) @ X
        lin = S0X + S1X.scale(pi)          # (S0 + pi S1) X
        Je = self._gram_block(ring, 0, self._right, self._left)
        Jm = self._gram_block(ring, 1, self.mid, self.mid)
        # the band rows among the middle ones: all of them for same parity,
        # all but the center row for opposite parity
        H = diagonal(ring, [ring.const(int(i in self.rows)) for i in self.mid])
        AJm = A @ Jm
        return SimpleNamespace(
            X=X, B1=B1, A=A, B2=B2, Q=Q, pi=pi, Je=Je, Jm=Jm, H=H,
            square=X @ X,
            minors=X.minors2(),
            band_minors=self._sub(X, self.rows, self.cols).minors2(),
            trace=X.trace(),
            trace_A=(H @ A @ H).trace() + pi.scale(2),
            antisym=AJm - (Jm @ A.T),
            band=(B2 @ Je @ B1.T) - AJm,
            rel0=(X.T @ S0X) - lin.scale(pi.scale(2)),
            rel1=(X.T @ S1X) + lin.scale(2))

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
        gens = [eq.trace, eq.trace_A]
        if self.same_parity:
            return gens + eq.antisym.entries() + eq.band.entries()
        H = eq.H
        core = (H @ eq.band @ H).scale(2) + (H @ eq.Q @ eq.Q.T @ H)
        return gens + (H @ eq.antisym @ H).entries() + core.entries()

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
        eq = self._equations()
        exprs = _solve_expressions(eq.B1, eq.A, eq.B2, eq.Je, eq.Jm)
        rel = []
        for (rows, cols), expr in zip(self._solve_blocks(), exprs):
            rel += (self._sub(eq.X, rows, cols) - expr).entries()
        return rel

    # -- the named ideals ------------------------------------------------------------

    def naive_ideal(self):
        return self._cached("naive", lambda: Ideal(
            self.ring, self.naive_generators()))

    def additional_ideal(self):
        return self._cached("add", lambda: Ideal(
            self.ring, self.additional_generators()))

    def full_ideal(self):
        return self._cached("full", lambda: Ideal(
            self.ring, self.naive_generators() + self.additional_generators()))

    def intermediate_ideal(self):
        """I': the minors, the band relations, the S1 relation and Tr(X)."""
        return self._cached("intermediate", lambda: Ideal(
            self.ring, self.intermediate_generators()))

    # -- the lemma ideals (same parity) ---------------------------------------------
    # Each is generated by one lemma's hypotheses; under the ring's block
    # order its reduced basis is the solved non-band variables plus a small
    # basis over k[band, pi], so every one is computed from its generators.

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
        relations."""
        return self._cached("solve-plus-band", lambda: Ideal(
            self.ring, self._equations().minors + self._band_relations()
            + self.solve_relations()))

    def reduced_ideal(self):
        """The trace quadric t_r + 2*pi plus the minors of the band
        rectangle, over k[band variables, pi]."""
        return self._cached("reduced", self._build_reduced)

    def _band_matrix(self, ring, cols):
        """The band rows of X restricted to ``cols``, over a band ring."""
        return PolyMatrix(ring, [[ring.var(xname(i, j)) for j in cols]
                                 for i in self.rows])

    def _build_reduced(self):
        rr = self.reduced_ring
        minors = self.reduced_minors_ideal()
        trace = self.trace_quadric(rr) + rr.var("pi").scale(2)
        return ideal_sum(rr, [minors], [trace])

    def reduced_minors_ideal(self):
        """M'', the minors of the band rectangle over k[band variables, pi]:
        the determinantal ideal that I'' and every quadric component extend,
        so its basis is their known block (see ``ideals.ideal_sum``), and the
        ideal the B1JB2-symmetric lemma tests its band-only targets in."""
        return self._cached("reduced-minors", lambda: Ideal(
            self.reduced_ring, self._band_matrix(self.reduced_ring,
                                                 self.cols).minors2()))

    def trace_quadric(self, ring):
        """The quadric t_r with t_r + 2*pi the hypersurface equation:
        1/2 Tr(P Y C Y^t) for Y the band rectangle, P the block of G1 on the
        band rows and C the block of G0 on the columns, i.e. half the sum of
        x[a][f]*x[b][g] over the G1-pairs (a, b) and the G0-pairs (f, g)."""
        Y = self._band_matrix(ring, self.cols)
        P = self._gram_block(ring, 1, self.rows, self.rows)
        C = self._gram_block(ring, 0, self.cols, self.cols)
        return (P @ Y @ C @ Y.T).trace().scale(Fraction(1, 2))

    def substitution_map(self):
        """Images of every X variable in the reduced ring (same parity).

        B variables map to themselves, A to B2 J_e B1^t J_m, the E and O
        blocks to their solve expressions; pi maps to pi.
        """
        if not self.same_parity:
            raise NotApplicable("no printed substitution map for opposite parity")
        return self._cached("phi", self._build_substitution)

    def _build_substitution(self):
        rr = self.reduced_ring
        band = self._band_matrix(rr, self.cols)
        B1 = self._band_matrix(rr, self._left)
        B2 = self._band_matrix(rr, self._right)
        Je = self._gram_block(rr, 0, self._right, self._left)
        Jm = self._gram_block(rr, 1, self.mid, self.mid)
        A_img = B2 @ Je @ B1.T @ Jm
        images = {"pi": rr.var("pi")}
        for bi, i in enumerate(self.rows):
            for bj, j in enumerate(self.cols):
                images[xname(i, j)] = band[bi, bj]
            for bj, j in enumerate(self.mid):
                images[xname(i, j)] = A_img[bi, bj]
        exprs = _solve_expressions(B1, A_img, B2, Je, Jm)
        for (rows, cols), expr in zip(self._solve_blocks(), exprs):
            for bi, i in enumerate(rows):
                for bj, j in enumerate(cols):
                    images[xname(i, j)] = expr[bi, bj]
        return images

    # -- fibers and components ----------------------------------------------------------

    def specialize(self, ideal, fiber):
        """The ideal on one fiber over k[pi], with pi dropped from the ring.

        ``fiber`` is "special" (pi -> 0), "generic" (pi -> 1) or
        "arithmetic"; an arithmetic fiber, or an ideal without pi, is
        returned unchanged.  Only reduced-ring ideals are expected here, but
        any ideal whose ring ends in pi works.  The fiber of I'' reads its
        basis off the basis of I'' (see ``ideals.pi_fiber``).
        """
        if fiber not in FIBER_PI:
            raise ValueError("fiber must be one of %s, got %r"
                             % (", ".join(FIBER_PI), fiber))
        src = ideal.ring
        if FIBER_PI[fiber] is None or "pi" not in src.names:
            return ideal
        target = self.fiber_ring if src is self.reduced_ring \
            else Ring(src.names[:-1], src.field, src.order)
        return pi_fiber(ideal, FIBER_PI[fiber], target)

    def special_fiber_ideal(self):
        return self._cached("special", lambda: self.specialize(
            self.reduced_ideal(), "special"))

    def generic_fiber_ideal(self):
        return self.specialize(self.reduced_ideal(), "generic")

    def component_ideals(self):
        """Irreducible components of the special fiber, as a list of
        (label, ideal, variable) triples labeled I1, I2[, I3]; the variable
        is the component's designated regular element.

        The trace quadric factors over rank-one band matrices as
        2 q_u(rows) q_w(columns); the components are the two quadric loci,
        except that a split quadric (two band rows, or columns {1, d})
        contributes two linear components instead.
        """
        return self._cached("components", self._build_components)

    def _half_form(self, ring, k, idx):
        """The upper triangle of the G_k block on ``idx``, diagonal halved:
        U with u^t U u = q(u) = 1/2 u^t G_k u, as a constant matrix."""
        G = self._gram_block(ring, k, idx, idx)
        m = len(idx)
        rows = [[G[i, j] if i < j else ring.zero() for j in range(m)]
                for i in range(m)]
        for i in range(m):
            rows[i][i] = G[i, i].scale(Fraction(1, 2))
        return PolyMatrix(ring, rows)

    def _build_components(self):
        ring = self.fiber_ring
        var = lambda i, j: ring.var(xname(i, j))
        linear = lambda gens: Ideal(ring, gens)
        # a quadric component extends M'' at pi = 0, the special minors,
        # whose basis is read off the basis of M''
        minors = self.specialize(self.reduced_minors_ideal(), "special")
        quadric = lambda gens: ideal_sum(ring, [minors], gens)
        Y = self._band_matrix(ring, self.cols)
        U = self._half_form(ring, 1, self.rows)
        W = self._half_form(ring, 0, self.cols)
        # q_u(f, g) for all columns f, g and q_w(i, t) for all band rows i, t
        row_quadric = (Y.T @ U @ Y).entries()
        col_quadric = (Y @ W @ Y.T).entries()
        first_row = self.rows[0]
        # a form on two indices that pairs them with each other is a product
        # of two linear forms
        if U.nrows == 2 and U[0, 1]:
            a, b = self.rows
            return [("I1", linear([var(a, s) for s in self.cols]), xname(b, 1)),
                    ("I2", linear([var(b, s) for s in self.cols]), xname(a, 1)),
                    ("I3", quadric(col_quadric), xname(b, 1))]
        if W.nrows == 2 and W[0, 1]:
            f, g = self.cols
            return [("I1", linear([var(i, f) for i in self.rows]), xname(first_row, g)),
                    ("I2", linear([var(i, g) for i in self.rows]), xname(first_row, f)),
                    ("I3", quadric(row_quadric), xname(first_row, 1))]
        return [("I1", quadric(row_quadric), xname(first_row, 1)),
                ("I2", quadric(col_quadric), xname(first_row, 1))]

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
        kept = sorted(first.values(),
                      key=lambda g: (g.total_degree(), self._text(g)))
        fiber_ideal = self.specialize(Ideal(ideal.ring, kept), fiber)
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
