"""Independent oracles the tests check the engine against.

Everything here is deliberately naive: extended Euclid for modular
inverses, dense Gaussian elimination over Fraction for degree-bounded ideal
membership, direct index formulas for the block matrix products, the unit
antidiagonal J_m written out by index rather than read off a Gram matrix,
and a search over variable subsets for the dimension of a leading-term
ideal.  S-polynomials (Buchberger's criterion), the division identity,
determinants by cofactor expansion and regularity by the colon ideal are
plain polynomial arithmetic on the public types.  None of it shares code
with the engine paths it certifies.
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


def antidiag(ring, m):
    """The unit antidiagonal J_m."""
    one, zero = ring.one(), ring.zero()
    return PolyMatrix(ring, [[one if i + j == m - 1 else zero for j in range(m)]
                             for i in range(m)])


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
    if ideal.is_unit():
        raise EmptyVariety("regularity is mod a proper ideal")
    return ideal.quotient(f).equals(ideal)
