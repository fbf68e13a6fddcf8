"""Ideal-level operations built on Groebner bases.

Intersection, colon ideals, equality, and Hilbert numerators read off
leading monomials with the dimension and multiplicity they give.  An
``Ideal`` caches its reduced Groebner basis (one per ring order; moving an
ideal to a ring with a different order is an explicit re-generation) and
the Hilbert numerators read off it, one per weight vector.  It runs its
basis from its own generators, starting from the bases of the summands it
names (see ``Ideal``); the only basis it is handed is the one
``Chart.degeneration`` certifies for M''.  A numerator may be kept on an
ideal without a basis: the certificate keeps N(J0), from
``monomial_numerator``, on I'' and on its fibers.
"""

from collections import Counter
from itertools import accumulate

from .errors import EmptyVariety, InvalidDivisor
from .groebner import GroebnerBasis, buchberger, multivariate_division
from .orders import FIELD_BITS, Block
from .rings import Ring, cast


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis
    and cached Hilbert numerators keyed by their weight tuple.

    ``summands`` are ideals of the same ring whose generators lie among
    ``gens``, counted with multiplicity.  Its basis is then one
    ``buchberger`` run that takes each summand's reduced basis as a known
    block and the generators left over as its loose ones.  When a summand
    has a generator that ``gens`` lacks, the summands are ignored and the
    basis is run from ``gens``: it is always the basis of ``gens``."""

    def __init__(self, ring, gens, summands=()):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = None
        self._numerators = {}
        self._summands = None   # (summands, loose generators)
        for s in summands:
            if s.ring is not ring:
                raise ValueError("a summand lives in a different ring")
        if summands:
            # keyed by the term dict, which Polynomial equality compares;
            # hash(g) would build and keep g's sorted term tuple
            rest = Counter(frozenset(g._d.items())
                           for s in summands for g in s.gens)
            loose = []
            for g in self.gens:
                key = frozenset(g._d.items())
                if rest[key]:
                    rest[key] -= 1
                else:
                    loose.append(g)
            if not +rest:
                self._summands = (tuple(summands), tuple(loose))

    def __repr__(self):
        return "Ideal(%d generators in %r)" % (len(self.gens), self.ring)

    def groebner(self, budget=None):
        if self._gb is None:
            if self._summands is not None:
                summands, rest = self._summands
                blocks = [s.groebner(budget) for s in summands]
                self._gb = buchberger(blocks + list(rest), budget)
            elif self.gens:
                self._gb = buchberger(self.gens, budget)
            else:
                self._gb = GroebnerBasis(self.ring, ())
        return self._gb

    def contains(self, f, budget=None):
        """Membership by normal form; meets the budget's deadline once."""
        if budget is not None:
            budget.deadline()
        if f.is_zero():
            return True
        return self.groebner(budget).contains(f)

    def equals(self, other, budget=None):
        """Reduced bases coincide term for term (canonical per order)."""
        if other.ring is not self.ring:
            raise ValueError("ideals live in different rings")
        return self.groebner(budget) == other.groebner(budget)

    # -- derived constructions ------------------------------------------------

    def intersect(self, other, budget=None):
        """I cap J via the single auxiliary variable: eliminate t from
        t*I + (1-t)*J."""
        if other.ring is not self.ring:
            raise ValueError("ideals live in different rings")
        ring = self.ring
        aux = "t"
        k = 0
        while aux in ring.names:
            aux = "t%d" % k
            k += 1
        ext = Ring((aux,) + ring.names, ring.field, Block(1))
        t = ext.var(aux)
        one = ext.one()
        gens = [t * cast(g, ext) for g in self.gens]
        gens += [(one - t) * cast(g, ext) for g in other.gens]
        if not gens:
            return Ideal(ring, ())
        return _eliminate_first(gens, 1, ring, budget)

    def quotient(self, f, budget=None):
        """Colon ideal (I : f) = {g : g f in I}, via (1/f)(I cap (f))."""
        if f.is_zero():
            raise InvalidDivisor("colon ideal by the zero polynomial")
        inter = self.intersect(Ideal(self.ring, [f]), budget)
        out = []
        for g in inter.gens:
            res = multivariate_division(g, [f])
            if not res.remainder.is_zero():
                raise ArithmeticError("intersection generator not divisible by f")
            out.append(res.quotients[0])
        return Ideal(self.ring, out)

    def dimension(self, budget=None):
        return krull_dimension(self, budget)


def ideal_sum(ring, summands, others):
    """The sum of the ideals ``summands`` and the ideal of ``others``,
    generated by the other generators first, then each summand's in turn,
    with the summands named as such (see ``Ideal``)."""
    return Ideal(ring, [*others, *(g for s in summands for g in s.gens)],
                 summands)


def inhomogeneous_generator(ideal, weights=None):
    """The first generator of the ideal that is not homogeneous when
    variable i has weight weights[i] (unit weights by default), or None."""
    ring = ideal.ring
    # the degree plus (w_i - 1) times field i for each weight w_i != 1
    mask = (1 << FIELD_BITS) - 1
    extra = [(ring._exp_shift[i], w - 1)
             for i, w in enumerate(weights or ()) if w != 1]
    mono_degree = ring.mono_degree
    degree = mono_degree if not extra else \
        (lambda m: mono_degree(m) + sum((m >> s & mask) * k for s, k in extra))
    for g in ideal.gens:
        # any term order will do, so read the dict, not the sorted term
        # tuple that g.terms() would build and keep
        if len({degree(m) for m in g._d}) > 1:
            return g
    return None


def pi_weights(ring):
    """Unit weights with pi of weight 2, the grading of the chart's I''."""
    return [2 if nm == "pi" else 1 for nm in ring.names]


def _eliminate_first(gens, k, sub, budget):
    """The ideal of ``gens`` cut down to the ring ``sub``.

    ``gens`` live in a ring under ``Block(k)`` whose first k variables are
    the ones eliminated.
    """
    return Ideal(sub, [cast(p, sub)
                       for p in subring_part(buchberger(gens, budget), k)])


def subring_part(gb, k):
    """The elements of a reduced basis under ``Block(k)`` whose leading
    monomial has none of the first k variables.  Under a block order a basis
    element lies in the subring of the other variables exactly when its
    leading monomial does, so these are a Groebner basis of the ideal cut
    down to that subring (the elimination property)."""
    ring = gb.ring
    return [p for p in gb if not any(ring.exponents(p.lm())[:k])]


def hilbert_numerator(ideal, weights=None, budget=None):
    """N(t) with HS(ring/I) = N(t) / prod(1 - t^w_i), unit weights by
    default, as the int coefficients of t^0, t^1, ... ([] for the unit
    ideal).  Read off the leading monomials: exact when the generators are
    homogeneous for the weights; with unit weights the pole order at t = 1
    is the dimension of any ideal.  Kept on the ideal, one per weight
    tuple."""
    ring = ideal.ring
    weights = tuple(weights or (1,) * ring.nvars)
    if weights not in ideal._numerators:
        ideal._numerators[weights] = tuple(monomial_numerator(
            ring, ideal.groebner(budget).lead_monomials(), weights, budget))
    return list(ideal._numerators[weights])


def monomial_numerator(ring, monos, weights, budget=None):
    """N(t) of the monomial ideal minimally generated by ``monos``, packed
    monomials of ``ring``, for the weight tuple ``weights``."""
    n = ring.nvars
    # variable i in field i under a guard bit, the weighted degree above
    leads = [sum(e << FIELD_BITS * i for i, e in enumerate(exps))
             + (sum(map(int.__mul__, exps, weights)) << FIELD_BITS * n)
             for exps in map(ring.exponents, monos)]
    guard = sum(1 << FIELD_BITS * i - 1 for i in range(1, n + 1))
    return _numerator(leads, weights, guard, budget)


def _numerator(gens, weights, guard, budget):
    """N(t) of the monomial ideal minimally generated by packed ``gens``:
    N(I) = N(I + x^k) + t^(k w_x) N(I : x^k) for x in the most generators
    and k the lower median of its exponents there (Bigatti), so x^k is not
    in I; pairwise coprime generators give prod(1 - t^deg)."""
    if budget is not None:
        budget.deadline()
    mask = (1 << FIELD_BITS) - 1
    top = FIELD_BITS * len(weights)
    # a sum of support indicators counts generators per field
    low = guard - (guard >> FIELD_BITS - 1)
    flags = sum(((g + low) & guard) >> FIELD_BITS - 1 for g in gens)
    counts = [(flags >> FIELD_BITS * i) & mask for i in range(len(weights))]
    most = max(counts, default=0)
    if most <= 1:
        out = [1]
        for g in gens:
            out = _plus_shifted(out, out, g >> top, -1)
        return out
    x = counts.index(most)
    shift = FIELD_BITS * x
    k = sorted(e for g in gens if (e := (g >> shift) & mask))[(most - 1) // 2]
    plus = [g for g in gens if (g >> shift) & mask < k]
    plus.append((k << shift) + (k * weights[x] << top))
    # in I : x^k only a generator that lost some x divides another (one
    # without x only if it lost all); divisors pack to smaller integers
    moved = sorted(g - (j << shift) - (j * weights[x] << top) for g in gens
                   if (j := min((g >> shift) & mask, k)))
    colon = []
    for g in moved:
        if all((g - h) & guard for h in colon):
            colon.append(g)
    cleared = [h for h in colon if not (h >> shift) & mask]
    colon += [g for g in gens if not (g >> shift) & mask
              and all((g - h) & guard for h in cleared)]
    return _plus_shifted(_numerator(plus, weights, guard, budget),
                         _numerator(colon, weights, guard, budget),
                         k * weights[x], 1)


def _plus_shifted(p, q, shift, sign):
    """p + sign * t^shift * q on coefficient lists, trailing zeros
    trimmed."""
    out = p + [0] * (len(q) + shift - len(p))
    for i, c in enumerate(q):
        out[i + shift] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def krull_dimension(ideal, budget=None):
    """Dimension of ring/I, read off the unit-weight Hilbert numerator (see
    ``dimension_and_degree``).  A numerator of [] is the unit ideal's, which
    has no dimension."""
    num = hilbert_numerator(ideal, None, budget)
    if not num:
        raise EmptyVariety("the unit ideal has no dimension")
    return dimension_and_degree(num, ideal.ring.nvars)[0]


def dimension_and_degree(num, nvars):
    """(dim, e) of R/I for a nonzero unit-weight numerator N(I) over
    ``nvars`` variables: with N = (1 - t)^c h and h(1) != 0, dim = nvars - c,
    the pole order at t = 1, and e = h(1) is the multiplicity."""
    dim = nvars
    while not sum(num):
        num = list(accumulate(num))[:-1]    # N = (1 - t) q
        dim -= 1
    return dim, sum(num)
