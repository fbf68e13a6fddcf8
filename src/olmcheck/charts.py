"""Affine chart data for the orthogonal lattice models.

For integers d >= 5 and 1 < l < d-1 the chart is described inside the
polynomial ring on a generic d x d matrix X plus the uniformizer pi.  The
base ring is modeled as k[pi] (k the coefficient field, pi the least ring
variable); the special and generic fibers are the substitutions pi -> 0 and
pi -> unit.

Writing n = floor(d/2), r = floor(l/2), the symmetric form on the lattice
has a normal basis whose Gram matrix is G0 + pi*G1 with G0, G1 in {0,1}
entries; the parity case of (d, l) decides where the pi-antidiagonal window
sits and whether two diagonal entries appear (EE, OO, EO, OE = parity of d
then l).  X is split into blocks

        [ E1 | O1 | E2 ]
    X = [ B1 | A  | B2 ]
        [ E3 | O2 | E4 ]

with the middle band of size l (same parity) or l+1 (opposite parity).

The chart ideal is I = I_naive + I_add, and it collapses onto a much smaller
presentation: the ring on the band variables x[t][s] (t in the band rows Z,
s in the complementary columns) modulo all 2x2 minors of that rectangle plus
one trace quadric t_r + 2*pi.  For opposite parity the band rows exclude the
center row n+1 (it is solved for by the unit diagonal entry of the Gram
matrix) while the center column n+1 survives as the extra column Q; with
that convention the rectangle is l x (d-l) in every case and on rank-one
matrices u (X) w the trace factors as 2*q_u(u)*q_w(w) for quadratic forms
q_u, q_w read off the row and column pairings.  The special fiber then
decomposes along q_u and q_w, which is exactly what the component builder
emits; a linear split of q_u or q_w (two band rows, or columns {1, d}) is
what produces the three-component boundary cases.
"""

from fractions import Fraction
from types import SimpleNamespace

from .errors import InvalidChart, InvalidUnit, NotApplicable
from .fields import QQ
from .ideals import Ideal
from .matrices import PolyMatrix, antidiag, constant_matrix, diagonal
from .orders import GRLEX
from .rings import Ring


def xname(i, j):
    return "x[%d][%d]" % (i, j)


def gram_matrices(d, l):
    """Gram pair (G0, G1) of the normal form: <e_i, e_j> = G0 + pi*G1.

    Entries are 0/1 ints; the pi-window is the middle band, with the two
    diagonal entries of the quasi-split even case at (n, n) and (n+1, n+1).
    """
    _validate(d, l)
    n = d // 2
    m = l if d % 2 == l % 2 else l + 1
    lo = (d - m) // 2 + 1
    hi = lo + m - 1
    G0 = [[0] * d for _ in range(d)]
    G1 = [[0] * d for _ in range(d)]
    window = set(range(lo, hi + 1))
    if d % 2 == 0 and l % 2 == 1:
        # quasi-split even case: antidiagonal window loses rows n, n+1,
        # replaced by <e_n, e_n> = pi and <e_{n+1}, e_{n+1}> = 1
        anti_pi = window - {n, n + 1}
        for i in range(1, d + 1):
            if i in anti_pi:
                G1[i - 1][d - i] = 1
            elif i not in window:
                G0[i - 1][d - i] = 1
        G1[n - 1][n - 1] = 1
        G0[n][n] = 1
    elif d % 2 == 1 and l % 2 == 0:
        # split odd case: the center row n+1 keeps the unit antidiagonal
        # entry, which is its diagonal entry
        anti_pi = window - {n + 1}
        for i in range(1, d + 1):
            if i in anti_pi:
                G1[i - 1][d - i] = 1
            else:
                G0[i - 1][d - i] = 1
    else:
        for i in range(1, d + 1):
            (G1 if i in window else G0)[i - 1][d - i] = 1
    return G0, G1


def _validate(d, l):
    if not (isinstance(d, int) and isinstance(l, int)):
        raise InvalidChart("d and l must be integers")
    if d < 5:
        raise InvalidChart("need d >= 5, got d=%d" % d)
    if not 1 < l < d - 1:
        raise InvalidChart("need 1 < l < d-1, got l=%d for d=%d" % (l, d))


class ComponentFamily:
    """Labeled special-fiber component ideals with their designated
    regular-element variables."""

    def __init__(self, components):
        self.components = list(components)   # (label, Ideal, variable name)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def labels(self):
        return [label for label, _, _ in self.components]


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
        _validate(d, l)
        self.d = d
        self.l = l
        self.field = field
        self.n = d // 2
        self.same_parity = d % 2 == l % 2
        self.case = ("E" if d % 2 == 0 else "O") + ("E" if l % 2 == 0 else "O")
        self.mid_size = l if self.same_parity else l + 1
        self.e = (d - self.mid_size) // 2
        self.center = self.n + 1
        self.mid = list(range(self.e + 1, d - self.e + 1))
        # the outer e columns on each side; the same indices are the top and
        # bottom rows of the E and O blocks
        self._left = list(range(1, self.e + 1))
        self._right = list(range(d - self.e + 1, d + 1))
        if self.same_parity:
            self.rows = list(self.mid)
        else:
            self.rows = [i for i in self.mid if i != self.center]
        self.cols = [j for j in range(1, d + 1) if j not in set(self.rows)]

        names = [xname(i, j) for i in range(1, d + 1) for j in range(1, d + 1)]
        self.ring = Ring(names + ["pi"], field, GRLEX)
        bnames = [xname(i, j) for i in self.rows for j in self.cols]
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

    def _build_equations(self):
        ring = self.ring
        X = self.x_matrix()
        B1, A, B2, Q = self._blocks(X)
        pi = self.pi()
        G0, G1 = self.gram()
        S0X = constant_matrix(ring, G0) @ X
        S1X = constant_matrix(ring, G1) @ X
        lin = S0X + S1X.scale(pi)          # (S0 + pi S1) X
        Je = antidiag(ring, self.e)
        Jm = antidiag(ring, self.mid_size)
        AJm = A @ Jm
        return SimpleNamespace(
            X=X, B1=B1, A=A, B2=B2, Q=Q, pi=pi, Je=Je, Jm=Jm,
            square=X @ X,
            minors=X.minors2(),
            trace=X.trace(),
            trace_A=A.trace() + pi.scale(2),
            antisym=AJm - (Jm @ A.T),
            band=(B2 @ Je @ B1.T) - AJm,
            rel0=(X.T @ S0X) - lin.scale(pi.scale(2)),
            rel1=(X.T @ S1X) + lin.scale(2))

    # -- generator families ---------------------------------------------------------

    def naive_generators(self):
        """Raw entries of the four matrix relations (before dedup)."""
        eq = self._equations()
        return (eq.square.entries() + eq.minors + eq.rel0.entries()
                + eq.rel1.entries())

    def additional_generators(self):
        eq = self._equations()
        if self.same_parity:
            return ([eq.trace, eq.trace_A] + eq.antisym.entries()
                    + eq.band.entries())
        ring = self.ring
        B1, A, B2, Q, Je, Jm = eq.B1, eq.A, eq.B2, eq.Q, eq.Je, eq.Jm
        m = self.mid_size
        c = self.mid.index(self.center)
        keep = [k for k in range(m) if k != c]
        Aprime = PolyMatrix(ring, [[A[i, j] for j in keep] for i in keep])
        Jl = antidiag(ring, m - 1)
        H = diagonal(ring, [ring.zero() if k == c else ring.one() for k in range(m)])
        gens = [eq.trace, Aprime.trace() + eq.pi.scale(2)]
        gens += ((Aprime @ Jl) - (Jl @ Aprime.T)).entries()
        core = (H @ B2 @ Je @ B1.T @ H).scale(2) \
            + (H @ Q @ Q.T @ H) - (H @ A @ Jm @ H).scale(2)
        return gens + core.entries()

    def intermediate_generators(self):
        """The halfway ideal I' of the same-parity reduction."""
        if not self.same_parity:
            raise NotApplicable("I' is defined for same-parity charts only")
        eq = self._equations()
        return (eq.minors + [eq.trace, eq.trace_A] + eq.band.entries()
                + eq.rel1.entries())

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
            self.ring, _dedup(self.naive_generators())))

    def additional_ideal(self):
        return self._cached("add", lambda: Ideal(
            self.ring, _dedup(self.additional_generators())))

    def full_ideal(self):
        return self._cached("full", lambda: Ideal(
            self.ring, _dedup(self.naive_generators() + self.additional_generators())))

    def intermediate_ideal(self):
        return self._cached("intermediate", lambda: Ideal(
            self.ring, _dedup(self.intermediate_generators())))

    def reduced_ideal(self):
        """Minors of the band rectangle plus the trace quadric, over
        k[band variables, pi]."""
        return self._cached("reduced", self._build_reduced)

    def _band_matrix(self, ring, cols):
        """The band rows of X restricted to ``cols``, over a band ring."""
        return PolyMatrix(ring, [[ring.var(xname(i, j)) for j in cols]
                                 for i in self.rows])

    def _build_reduced(self):
        rr = self.reduced_ring
        gens = self._band_matrix(rr, self.cols).minors2()
        gens.append(self.trace_quadric(rr) + rr.var("pi").scale(2))
        return Ideal(rr, _dedup(gens))

    def trace_quadric(self, ring):
        """The quadric t_r with t_r + 2*pi the hypersurface equation.

        Same parity: trace of B2 J_e B1^t J_m over the band rows.  Opposite
        parity: the masked trace over the band plus half the Q-column square,
        and for d even the self-paired row n contributes its diagonal term
        (that row reflects onto the deleted center row, so the J-trace misses
        it; on rank-one matrices the result factors as 2 q_u q_w either way).
        """
        zero = ring.zero()

        def band_var(i, j):
            if i in set(self.rows):
                return ring.var(xname(i, j))
            return zero

        B1 = PolyMatrix(ring, [[band_var(i, j) for j in self._left] for i in self.mid])
        B2 = PolyMatrix(ring, [[band_var(i, j) for j in self._right] for i in self.mid])
        Je = antidiag(ring, self.e)
        Jm = antidiag(ring, self.mid_size)
        core = B2 @ Je @ B1.T
        if self.same_parity:
            return (core @ Jm).trace()
        half = ring.field.coerce(Fraction(1, 2))
        Q = PolyMatrix(ring, [[band_var(i, self.center)] for i in self.mid])
        qq = (Q @ Q.T).scale(half)
        tr = ((core + qq) @ Jm).trace()
        if self.d % 2 == 0:
            # row n is self-paired but reflects onto the deleted center row
            c = self.mid.index(self.n)
            tr = tr + core[c, c] + qq[c, c]
        return tr

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
        Je = antidiag(rr, self.e)
        Jm = antidiag(rr, self.mid_size)
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
        """Substitute pi and drop it from the ring.

        ``fiber`` is "special" (pi -> 0) or ("generic", c) with c a unit.
        Only reduced-ring ideals are expected here, but any ideal whose ring
        ends in pi works.
        """
        src = ideal.ring
        names = [nm for nm in src.names if nm != "pi"]
        target = self.fiber_ring if src is self.reduced_ring \
            else Ring(names, src.field, src.order)
        if fiber == "special":
            c = 0
        else:
            kind, c = fiber
            if kind != "generic":
                raise ValueError("fiber must be 'special' or ('generic', c)")
            if src.field.is_zero(src.field.coerce(c)):
                raise InvalidUnit("generic fiber needs a unit, got 0")
        images = {nm: target.var(nm) for nm in names}
        images["pi"] = target.const(c)
        return ideal.specialize(images, target)

    def special_fiber_ideal(self):
        return self._cached("special", lambda: self.specialize(
            self.reduced_ideal(), "special"))

    def generic_fiber_ideal(self, c=1):
        return self.specialize(self.reduced_ideal(), ("generic", c))

    def component_ideals(self):
        """Irreducible components of the special fiber, labeled I1, I2[, I3].

        The trace quadric factors over rank-one band matrices as
        2 q_u(rows) q_w(columns); the components are the two quadric loci,
        except that a split quadric (two band rows, or columns {1, d})
        contributes two linear components instead.
        """
        return self._cached("components", self._build_components)

    def _refl(self, i):
        return self.d + 1 - i

    def _pairing(self, indices):
        """Split band rows or columns into the lower index of each pair
        {a, d+1-a} inside the set, and the indices paired with themselves or
        with nothing in the set."""
        present = set(indices)
        low = [a for a in indices if self._refl(a) in present and a < self._refl(a)]
        selfp = [a for a in indices
                 if self._refl(a) == a or self._refl(a) not in present]
        return low, selfp

    def _build_components(self):
        ring = self.fiber_ring
        half = ring.field.coerce(Fraction(1, 2))
        var = lambda i, j: ring.var(xname(i, j))
        low_rows, self_rows = self._pairing(self.rows)
        low_cols, self_cols = self._pairing(self.cols)
        minors = self._band_matrix(ring, self.cols).minors2()

        def quadric_gens(low, selfp, free, entry):
            """q(f, g) for all free f, g: the pairing form on the paired index
            a of entry(a, f) * entry(a', g), self-paired terms weighted 1/2."""
            out = []
            for f in free:
                for g in free:
                    q = ring.zero()
                    for a in low:
                        q = q + entry(a, f) * entry(self._refl(a), g)
                    for a in selfp:
                        q = q + (entry(a, f) * entry(a, g)).scale(half)
                    out.append(q)
            return out

        row_quadric = lambda: quadric_gens(low_rows, self_rows, self.cols, var)
        col_quadric = lambda: quadric_gens(low_cols, self_cols, self.rows,
                                           lambda s, i: var(i, s))
        row_split = len(low_rows) == 1 and not self_rows
        col_split = len(low_cols) == 1 and not self_cols
        first_row = self.rows[0]
        comps = []
        if row_split:
            a, b = low_rows[0], self._refl(low_rows[0])
            comps.append(("I1", [var(a, s) for s in self.cols], xname(b, 1)))
            comps.append(("I2", [var(b, s) for s in self.cols], xname(a, 1)))
            comps.append(("I3", col_quadric() + minors, xname(b, 1)))
        elif col_split:
            comps.append(("I1", [var(i, 1) for i in self.rows],
                          xname(first_row, self.d)))
            comps.append(("I2", [var(i, self.d) for i in self.rows],
                          xname(first_row, 1)))
            comps.append(("I3", row_quadric() + minors, xname(first_row, 1)))
        else:
            comps.append(("I1", row_quadric() + minors, xname(first_row, 1)))
            comps.append(("I2", col_quadric() + minors, xname(first_row, 1)))
        return ComponentFamily([(label, Ideal(ring, _dedup(gens)), v)
                                for label, gens, v in comps])

    # -- serialization ------------------------------------------------------------------

    def to_json(self, fiber="arithmetic"):
        """Chart description with every ideal rendered in the text grammar."""
        def render(ideal):
            if fiber == "arithmetic" or "pi" not in ideal.ring.names:
                out = ideal
            elif fiber == "special":
                out = self.specialize(ideal, "special")
            else:
                out = self.specialize(ideal, ("generic", 1))
            return [str(g) for g in out.gens]

        ideals = {
            "naive": render(self.naive_ideal()),
            "add": render(self.additional_ideal()),
            "full": render(self.full_ideal()),
            "intermediate": (render(self.intermediate_ideal())
                             if self.same_parity else None),
            "reduced": render(self.reduced_ideal()),
            "components": [
                {"label": label, "generators": [str(g) for g in ideal.gens],
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


def _dedup(gens):
    """Drop zero generators and scalar-multiple repeats, deterministically.

    The survivors keep their first-encountered form and are sorted by
    (degree, text form) so generator counts are reproducible.
    """
    seen = set()
    kept = []
    for g in gens:
        if g.is_zero():
            continue
        key = tuple(g.monic().terms())
        if key in seen:
            continue
        seen.add(key)
        kept.append(g)
    kept.sort(key=lambda g: (g.total_degree(), str(g)))
    return kept
