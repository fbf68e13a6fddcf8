"""Ideal-level operations built on Groebner bases.

Intersection, colon ideals, equality, Hilbert numerators read off leading
monomials and the Krull dimension they give, and the leading-term criteria
used by the component checks.  An ``Ideal`` caches its reduced Groebner
basis (one per ring order; moving an ideal to a ring with a different order
is an explicit re-generation) and the Hilbert numerators read off it, one
per weight vector.  A fiber made by ``pi_fiber`` reads its basis off its
source's when that is graded with pi of weight 2, so the fibers of I'' cost
no Buchberger run of their own.  An ideal made by ``ideal_sum`` is the sum
of summand ideals and some other generators, and its one Buchberger run
starts from the summands' bases as known blocks (see ``groebner``), so the
pairs inside each are not formed again.  The chart's seeded runs all have
work left after the blocks: the trace generator of I'', a component's
quadrics and the second summand of J + I_m lie outside the first block's
ideal.  A sum whose extra generators all lay inside it would only hand its
basis on.
"""

from itertools import accumulate

from .errors import EmptyVariety, InvalidDivisor
from .groebner import (GroebnerBasis, buchberger, multivariate_division,
                       reduce_basis)
from .orders import FIELD_BITS, GRLEX, Block
from .rings import Ring, cast, specialize_pi


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis
    and cached Hilbert numerators keyed by their weight tuple."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = None
        self._numerators = {}
        self._fiber_of = None   # (source, pi value): see pi_fiber
        self._summands = None   # (summands, other generators): see ideal_sum

    def __repr__(self):
        return "Ideal(%d generators in %r)" % (len(self.gens), self.ring)

    def groebner(self, budget=None):
        if self._gb is None:
            if self._fiber_of is not None:
                source, value = self._fiber_of
                self._gb = reduce_basis(
                    self.ring, [specialize_pi(g, value, self.ring)
                                for g in source.groebner(budget)], budget)
            elif self._summands is not None:
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

    def is_unit(self, budget=None):
        return self.groebner(budget).is_unit_ideal()

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
    generated by the other generators first, then each summand's in turn.

    Its basis is one ``buchberger`` run under the caller's budget that
    takes each summand's reduced basis as a known block, the first
    summand's first, and the other generators as its loose ones, so no
    pair inside a summand's basis is formed again.  The result is the
    reduced basis a run from its generators returns."""
    for s in summands:
        if s.ring is not ring:
            raise ValueError("a summand lives in a different ring")
    out = Ideal(ring, [*others, *(g for s in summands for g in s.gens)])
    out._summands = (tuple(summands), tuple(others))
    return out


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


def pi_fiber(ideal, value, target):
    """The ideal at pi = value (0 or 1) in ``target``, the ideal's ring
    without its last variable pi.

    Its reduced basis is read off the source's when the source ring is
    grlex and every source generator is homogeneous for ``pi_weights``.
    Then so is every element g of the source's reduced basis G, and its
    terms of least pi-degree have the greatest total degree, so pi | lm(g)
    exactly when pi | g, and lm(g at pi=1) is lm(g) with pi set to 1.  So
    G at pi = 0 less its zeros is a Groebner basis of the special fiber
    (Eisenbud, Commutative Algebra, Prop. 15.12) and G at pi = 1 one of the
    generic fiber (dehomogenization; Cox, Little, O'Shea, Ideals, Varieties,
    and Algorithms, ch. 8 sec. 4); ``reduce_basis`` makes either the unique
    reduced basis.  Otherwise the basis is computed from the generators."""
    out = Ideal(target, [specialize_pi(g, value, target) for g in ideal.gens])
    if ideal.ring.order == GRLEX and \
            inhomogeneous_generator(ideal, pi_weights(ideal.ring)) is None:
        out._fiber_of = (ideal, value)
    return out


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
    n = ring.nvars
    weights = tuple(weights or (1,) * n)
    if weights not in ideal._numerators:
        monos = ideal.groebner(budget).lead_monomials()
        # variable i in field i under a guard bit, the weighted degree above
        leads = [sum(e << FIELD_BITS * i for i, e in enumerate(exps))
                 + (sum(map(int.__mul__, exps, weights)) << FIELD_BITS * n)
                 for exps in map(ring.exponents, monos)]
        guard = sum(1 << FIELD_BITS * i - 1 for i in range(1, n + 1))
        ideal._numerators[weights] = tuple(
            _numerator(leads, weights, guard, budget))
    return list(ideal._numerators[weights])


def intersection_numerator(a, b, budget=None):
    """N(a cap b) for homogeneous ideals a and b, unit weights, without
    forming a cap b: by 0 -> R/(a cap b) -> R/a + R/b -> R/(a + b) -> 0 it
    is N(a) + N(b) - N(a + b)."""
    if b.ring is not a.ring:
        raise ValueError("ideals live in different rings")
    joined = ideal_sum(a.ring, (a, b), ())
    return _plus_shifted(_plus_shifted(hilbert_numerator(a, None, budget),
                                       hilbert_numerator(b, None, budget),
                                       0, 1),
                         hilbert_numerator(joined, None, budget), 0, -1)


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
    """Dimension of ring/I: nvars minus the power of (1 - t) dividing the
    unit-weight Hilbert numerator, the pole order at t = 1."""
    if ideal.is_unit(budget):
        raise EmptyVariety("the unit ideal has no dimension")
    num = hilbert_numerator(ideal, None, budget)
    dim = ideal.ring.nvars
    while not sum(num):
        num = list(accumulate(num))[:-1]    # N = (1 - t) q
        dim -= 1
    return dim


def pure_power_free(gb, name):
    """True iff no element of the basis has leading monomial v^m, m >= 1."""
    ring = gb.ring
    idx = ring.index(name)
    for m in gb.lead_monomials():
        exps = ring.exponents(m)
        if exps[idx] > 0 and all(e == 0 for i, e in enumerate(exps) if i != idx):
            return False
    return True

