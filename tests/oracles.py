"""Independent oracles the tests check the engine against.

Everything here is deliberately naive: extended Euclid for modular
inverses, dense Gaussian elimination over Fraction for degree-bounded ideal
membership and ranks, direct index formulas for the block matrix products,
the unit antidiagonal J_m written out by index rather than read off a Gram
matrix, the chart's minors, trace quadric, quadratic forms, relation
families, solve relations, substitution map and lemma targets as products
of polynomial matrices, and a search over variable subsets for the
dimension of a leading-term ideal.  S-polynomials (Buchberger's
criterion), the division identity, determinants by cofactor expansion and
regularity by the colon ideal are plain polynomial arithmetic on the
public types, and so is a ring map expanded term by term.  None of it shares code with the engine paths it certifies.
"""

from fractions import Fraction
from itertools import combinations, product

from olmcheck.errors import EmptyVariety, InvalidInput
from olmcheck.matrices import PolyMatrix


def egcd(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_mod(a, p):
    g, s, _ = egcd(a % p, p)
    assert g == 1
    return s % p


def monomials_up_to(nvars, deg):
    """All exponent vectors with total degree <= deg."""
    out = []

    def rec(prefix, remaining, left):
        if remaining == 0:
            out.append(tuple(prefix) + (0,) * left)
            return
        if left == 1:
            for e in range(remaining + 1):
                out.append(tuple(prefix) + (e,))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, left - 1)

    def gen():
        for total in range(deg + 1):
            for combo in product(range(total + 1), repeat=nvars):
                if sum(combo) == total:
                    yield combo
    return sorted(set(gen()))


def solve_exact(rows, rhs):
    """Gaussian elimination over Fraction; returns a solution or None."""
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol


def member_up_to_degree(f, gens, max_deg):
    """Is f a combination sum h_i g_i with deg(h_i g_i) <= max_deg?

    Exact linear algebra over the ring's field (lifted to Fraction for the
    rationals; prime fields are handled by carrying residues as Fractions
    of integers and checking solvability mod p is not needed at test sizes,
    so prime-field inputs are rejected here).
    """
    ring = f.ring
    assert ring.field.characteristic == 0, "oracle works over the rationals"
    columns = []
    col_vecs = []
    row_index = {}

    def idx(mono):
        if mono not in row_index:
            row_index[mono] = len(row_index)
        return row_index[mono]

    for gi, g in enumerate(gens):
        gdeg = g.total_degree()
        for exps in monomials_up_to(ring.nvars, max_deg - gdeg):
            m = ring.monomial(list(exps))
            columns.append((gi, exps))
            vec = {}
            for mono, coeff in g.terms():
                vec[idx(mono + m)] = vec.get(idx(mono + m), Fraction(0)) + coeff
            col_vecs.append(vec)
    target = {}
    for mono, coeff in f.terms():
        target[idx(mono)] = Fraction(coeff)
    nrows = len(row_index)
    rows = [[vec.get(r, Fraction(0)) for vec in col_vecs] for r in range(nrows)]
    rhs = [target.get(r, Fraction(0)) for r in range(nrows)]
    if not rows:
        return f.is_zero()
    return solve_exact(rows, rhs) is not None


def matrix_rank(rows):
    """Rank over Q of a matrix of rationals, by Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def independent_set_dimension(ring, lead_monomials):
    """Krull dimension read off leading monomials by brute force: the size
    of a largest set S of variables such that no leading monomial has its
    support inside S (None for the unit ideal, whose constant lead has empty
    support)."""
    supports = [{i for i, e in enumerate(ring.exponents(m)) if e}
                for m in lead_monomials]
    for size in range(ring.nvars, -1, -1):
        for chosen in combinations(range(ring.nvars), size):
            if not any(s <= set(chosen) for s in supports):
                return size
    return None


def b2_j_b1t_entry(d, e, i, j):
    """Index formula for (B2 J_e B1^t)[i][j] on the full matrix ring:
    sum over c of x[i][d-e+c] * x[j][e+1-c], as (row, col) factor pairs."""
    return [((i, d - e + c), (j, e + 1 - c)) for c in range(1, e + 1)]


def constant_matrix(ring, data):
    """Matrix of ring constants from an int matrix."""
    return PolyMatrix(ring, [[ring.const(v) for v in row] for row in data])


def diagonal(ring, values):
    zero = ring.zero()
    return PolyMatrix(ring, [[v if i == j else zero for j in range(len(values))]
                             for i, v in enumerate(values)])


def antidiag(ring, m):
    """The unit antidiagonal J_m."""
    one, zero = ring.one(), ring.zero()
    return PolyMatrix(ring, [[one if i + j == m - 1 else zero for j in range(m)]
                             for i in range(m)])


def minors2(matrix):
    """All 2x2 minors of a PolyMatrix, rows i<t and columns j<s, in
    row-major order, by polynomial products."""
    rows = matrix.rows
    return [rows[i][j] * rows[t][s] - rows[i][s] * rows[t][j]
            for i, t in combinations(range(matrix.nrows), 2)
            for j, s in combinations(range(matrix.ncols), 2)]


def half_form(ring, G, idx):
    """The upper triangle of the Gram matrix G on the 1-based indices
    ``idx``, diagonal halved, as a constant matrix: U with
    v^t U v = 1/2 v^t G v."""
    return constant_matrix(ring, [
        [G[i - 1][j - 1] if a < b else Fraction(G[i - 1][i - 1], 2) if a == b else 0
         for b, j in enumerate(idx)] for a, i in enumerate(idx)])


def chart_quadrics(chart, ring):
    """The chart's band quadrics over ``ring`` as products of polynomial
    matrices, Y the band rectangle: the minors of Y, the trace quadric
    1/2 Tr(P Y C Y^t) (P the G1 block on the band rows, C the G0 block on
    the columns), and the entries of Y^t U Y and Y W Y^t for U, W the half
    forms of G1 on the rows and G0 on the columns."""
    G0, G1 = chart.gram()
    Y = PolyMatrix(ring, [[ring.var("x[%d][%d]" % (i, j)) for j in chart.cols]
                          for i in chart.rows])
    block = lambda G, idx: constant_matrix(
        ring, [[G[i - 1][j - 1] for j in idx] for i in idx])
    P, C = block(G1, chart.rows), block(G0, chart.cols)
    U, W = half_form(ring, G1, chart.rows), half_form(ring, G0, chart.cols)
    return {"minors": minors2(Y),
            "trace": (P @ Y @ C @ Y.T).trace().scale(Fraction(1, 2)),
            "row": (Y.T @ U @ Y).entries(), "column": (Y @ W @ Y.T).entries(),
            "U": U, "W": W}


def _solve_expressions(B1, A, B2, Je, Jm):
    """What E1, E2, E3, E4, O1, O2 equal on the chart: -1/2 Je Bk^t Jm M."""
    half = B1.ring.field.coerce(Fraction(1, 2))
    L1 = Je @ B1.T @ Jm
    L2 = Je @ B2.T @ Jm
    return [(L @ M).scale(-half)
            for L, M in ((L2, B1), (L2, B2), (L1, B1), (L1, B2), (L2, A), (L1, A))]


def chart_equations(chart):
    """The chart's full-ring equations as products of polynomial matrices,
    the way they are stated, with the blocks B1, A, B2 (and the center
    column Q for opposite parity) on the middle rows of X, J_e = G0 on the
    right x left outer columns, J_m = G1 on the middle rows and H the mask
    of the band rows among them: the relation families (masked by H for
    opposite parity), and for same parity the solve relations, the
    substitution images (A -> B2 J_e B1^t J_m) and the targets of the seven
    reduction lemmas, by lemma name, with their tags."""
    ring, d = chart.ring, chart.d
    G0, G1 = chart.gram()
    X = chart.x_matrix()
    left, right, mid = range(1, chart.e + 1), range(d - chart.e + 1, d + 1), chart.mid
    block = lambda ring, G, rows, cols: constant_matrix(
        ring, [[G[i - 1][j - 1] for j in cols] for i in rows])
    B1, A, B2 = (chart._matrix(ring, mid, cols) for cols in (left, mid, right))
    pi = ring.var("pi")
    S0X = constant_matrix(ring, G0) @ X
    S1X = constant_matrix(ring, G1) @ X
    lin = S0X + S1X.scale(pi)          # (S0 + pi S1) X
    Je, Jm = block(ring, G0, right, left), block(ring, G1, mid, mid)
    H = diagonal(ring, [ring.const(int(i in chart.rows)) for i in mid])
    AJm = A @ Jm
    antisym, band = AJm - (Jm @ A.T), (B2 @ Je @ B1.T) - AJm
    if not chart.same_parity:
        Q = chart._matrix(ring, mid, [chart.center])
        antisym = H @ antisym @ H
        band = (H @ band @ H).scale(2) + (H @ Q @ Q.T @ H)
    eq = {"square": X @ X, "trace": X.trace(),
          "trace_A": (H @ A @ H).trace() + pi.scale(2),
          "antisym": antisym, "band": band,
          "rel0": (X.T @ S0X) - lin.scale(pi.scale(2)),
          "rel1": (X.T @ S1X) + lin.scale(2)}
    if not chart.same_parity:
        return eq
    blocks = ((left, left), (left, right), (right, left), (right, right),
              (left, mid), (right, mid))
    eq["solve"] = [g for (rows, cols), expr in zip(
        blocks, _solve_expressions(B1, A, B2, Je, Jm))
        for g in (chart._matrix(ring, rows, cols) - expr).entries()]
    theta = B1 @ Je @ B2.T
    eq["lemmas"] = {
        "X2-in-Iprime": tagged("X^2", eq["square"]),
        "antisym": tagged("AJ-JAt", antisym),
        "B1JB2-symmetric": tagged("theta-asym", theta - theta.T),
        "S0-relation": tagged("S0-rel", eq["rel0"]),
        "trace-in-ideal": [("Tr(X)", eq["trace"])],
        "A-relations": [t for tag, M in (("AtJB1", B1), ("AtJB2", B2), ("AtJA", A))
                        for t in tagged(tag, (A.T @ Jm @ M) + (Jm @ M).scale(pi.scale(2)))],
        "minors-reduce": [("minor[%d]" % k, g) for k, g in enumerate(minors2(X))]}
    rr = chart.reduced_ring
    B1, B2 = chart._matrix(rr, chart.rows, left), chart._matrix(rr, chart.rows, right)
    Je, Jm = block(rr, G0, right, left), block(rr, G1, mid, mid)
    A_img = B2 @ Je @ B1.T @ Jm
    band = chart._matrix(rr, chart.rows, chart.cols)
    phi = {"pi": rr.var("pi")}
    for a, i in enumerate(chart.rows):
        for M, cols in ((band, chart.cols), (A_img, mid)):
            phi.update(("x[%d][%d]" % (i, j), M[a, b]) for b, j in enumerate(cols))
    for (rows, cols), M in zip(blocks, _solve_expressions(B1, A_img, B2, Je, Jm)):
        for a, i in enumerate(rows):
            phi.update(("x[%d][%d]" % (i, j), M[a, b]) for b, j in enumerate(cols))
    eq["phi"] = phi
    return eq


def tagged(tag, matrix):
    """The nonzero entries of a matrix, each with its tag and 1-based
    position."""
    return [("%s[%d][%d]" % (tag, i + 1, j + 1), g)
            for i, row in enumerate(matrix.rows) for j, g in enumerate(row) if g]


def random_poly(ring, rng, max_deg=3, max_terms=4):
    d = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(0, max_deg + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.randrange(-4, 5)
        if c == 0:
            c = 1
        m = ring.monomial(exps)
        d[m] = ring.field.add(d.get(m, ring.field.zero), ring.field.coerce(c))
    return ring.from_dict(d)


def expand_map(f, images, target):
    """f under the ring map sending each variable name to its image in
    ``images``, a polynomial of ``target``, expanded term by term: each
    coefficient, coerced into the target's field, times its variables'
    images one factor at a time by ``Polynomial.__mul__``."""
    ring = f.ring
    out = target.zero()
    for m, c in f.terms():
        term = target.const(c)
        for name, e in zip(ring.names, ring.exponents(m)):
            for _ in range(e):
                term = term * images[name]
        out = out + term
    return out


def constant_term(g):
    """The coefficient of the monomial with no variable, 0 if g has none."""
    ring = g.ring
    return next((c for m, c in g.terms() if not any(ring.exponents(m))), 0)


def s_polynomial(f, g):
    """S(f, g) = (lcm/LT(f)) f - (lcm/LT(g)) g for the leading-monomial
    lcm, by plain products, whose packed-field guard raises ValueError on
    an overflowing shift."""
    if f.is_zero() or g.is_zero():
        raise InvalidInput("S-polynomial of a zero polynomial")
    ring = f.ring
    if g.ring is not ring:
        raise InvalidInput("operands from different rings")
    lcm = ring.mono_lcm(f.lm(), g.lm())

    def cofactor(h):
        return ring.from_dict({lcm - h.lm(): ring.field.inv(h.lc())})
    return cofactor(f) * f - cofactor(g) * g


def recombine(division, divisors):
    """sum(q_i * f_i) + r for the quotients q_i and remainder r of a
    division by ``divisors``: the dividend when the division identity
    holds."""
    acc = division.remainder
    for q, g in zip(division.quotients, divisors):
        acc = acc + q * g
    return acc


def det(matrix):
    """Exact determinant of a square PolyMatrix by cofactor expansion along
    the rows, memoized on the remaining-column mask (test-scale sizes)."""
    n = matrix.nrows
    assert matrix.ncols == n, "determinant of a non-square matrix"
    ring = matrix.ring
    memo = {}

    def expand(i, mask):
        if i == n:
            return ring.one()
        if (i, mask) not in memo:
            acc, sign = ring.zero(), 1
            for j in range(n):
                if mask >> j & 1:
                    e = matrix[i, j]
                    if e:
                        term = e * expand(i + 1, mask & ~(1 << j))
                        acc = acc + (term if sign > 0 else -term)
                    sign = -sign
            memo[i, mask] = acc
        return memo[i, mask]

    return expand(0, (1 << n) - 1)


def is_regular_element(ideal, f):
    """True iff f is a non-zerodivisor mod the proper ideal I: (I : f) = I,
    with the colon ideal formed through an intersection."""
    if ideal.groebner().lead_monomials() == (0,):
        raise EmptyVariety("regularity is mod a proper ideal")
    return ideal.quotient(f).equals(ideal)
