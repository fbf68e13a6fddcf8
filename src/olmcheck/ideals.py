"""Ideal-level operations built on Groebner bases.

Elimination, intersection, colon ideals, equality, Krull dimension of the
quotient, and the leading-term criteria used by the component checks.  An
``Ideal`` caches its reduced Groebner basis (one per ring order; moving an
ideal to a ring with a different order is an explicit re-generation).
"""

from .errors import EmptyVariety, InvalidDivisor
from .groebner import GroebnerBasis, buchberger, multivariate_division
from .orders import GRLEX, Block
from .rings import Ring, cast


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = None

    def __repr__(self):
        return "Ideal(%d generators in %r)" % (len(self.gens), self.ring)

    def groebner(self, budget=None):
        if self._gb is None:
            if not self.gens:
                self._gb = GroebnerBasis(self.ring, ())
            else:
                self._gb = buchberger(self.gens, budget)
        return self._gb

    def contains(self, f, budget=None):
        if f.is_zero():
            return True
        return self.groebner(budget).contains(f)

    def normal_form(self, f, budget=None):
        return self.groebner(budget).normal_form(f)

    def is_unit(self, budget=None):
        return self.groebner(budget).is_unit_ideal()

    def equals(self, other, budget=None):
        """Reduced bases coincide term for term (canonical per order)."""
        if other.ring is not self.ring:
            raise ValueError("ideals live in different rings")
        return self.groebner(budget).polys == other.groebner(budget).polys

    # -- derived constructions ------------------------------------------------

    def eliminate(self, drop, budget=None):
        """Generators of I intersected with the subring without ``drop``.

        Computed with a block order that puts the dropped variables first.
        The result lives in the subring on the remaining variables.
        """
        drop = set(drop)
        unknown = drop - set(self.ring.names)
        if unknown:
            raise ValueError("not ring variables: %s" % sorted(unknown))
        keep = [nm for nm in self.ring.names if nm not in drop]
        if not drop:
            return Ideal(self.ring, self.gens)
        sub = Ring(keep, self.ring.field, GRLEX)
        if not self.gens:
            return Ideal(sub, ())
        if not keep:
            # dropping everything leaves only the constants
            one = [sub.one()] if self.is_unit(budget) else []
            return Ideal(sub, one)
        elim_names = [nm for nm in self.ring.names if nm in drop] + keep
        elim_ring = Ring(elim_names, self.ring.field, Block(len(drop)))
        return _eliminate_first(
            [cast(g, elim_ring) for g in self.gens], len(drop), sub, budget)

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

    def specialize(self, images, target):
        """Map the generators through a variable substitution."""
        return Ideal(target, [g.substitute(images, target) for g in self.gens])


def _eliminate_first(gens, k, sub, budget):
    """The ideal of ``gens`` cut down to the ring ``sub``.

    ``gens`` live in a ring under ``Block(k)`` whose first k variables are
    the ones eliminated.  Under a block order a basis element lies in the
    subring exactly when its leading monomial does, so only that is tested.
    """
    gb = buchberger(gens, budget)
    ring = gb.ring
    return Ideal(sub, [cast(p, sub) for p in gb
                       if not any(ring.exponents(p.lm())[:k])])


def krull_dimension(ideal, budget=None):
    """Dimension of ring/I from the leading-term ideal.

    The dimension equals the size of a largest set S of variables such that
    no leading monomial of the reduced basis is supported entirely inside S
    (combinatorial independent-set computation; exact, no Hilbert series).
    """
    gb = ideal.groebner(budget)
    if gb.is_unit_ideal():
        raise EmptyVariety("the unit ideal has no dimension")
    ring = ideal.ring
    supports = set()
    for m in gb.lead_monomials():
        supports.add(frozenset(i for i, e in enumerate(ring.exponents(m)) if e))
    # only inclusion-minimal supports constrain independence
    minimal = [s for s in supports
               if not any(t < s for t in supports)]
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    best = [0]
    memo = {}

    def explore(allowed):
        key = allowed
        if key in memo:
            return memo[key]
        for s in minimal:
            if s <= allowed:
                # allowed is dependent: branch on removing one variable of s
                out = 0
                for v in sorted(s):
                    out = max(out, explore(allowed - {v}))
                memo[key] = out
                return out
        memo[key] = len(allowed)
        return len(allowed)

    return explore(frozenset(range(ring.nvars)))


def pure_power_free(gb, name):
    """True iff no element of the basis has leading monomial v^m, m >= 1."""
    ring = gb.ring
    idx = ring.index(name)
    for m in gb.lead_monomials():
        exps = ring.exponents(m)
        if exps[idx] > 0 and all(e == 0 for i, e in enumerate(exps) if i != idx):
            return False
    return True


def is_regular_element(ideal, f, budget=None):
    """True iff f is a non-zerodivisor mod the ideal: (I : f) = I."""
    if ideal.is_unit(budget):
        raise EmptyVariety("regularity is mod a proper ideal")
    return ideal.quotient(f, budget).equals(ideal, budget)
