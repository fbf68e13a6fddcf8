"""Division, S-polynomials, Buchberger's algorithm, reduced Groebner bases.

The public surface works with ``Polynomial`` values.  Internally one engine,
``_Engine``, runs every computation on raw ``{packed monomial: int}`` dicts;
its single reduction loop serves Buchberger, the final auto-reduction and
``GroebnerBasis.normal_form`` alike.  The field characteristic p picks one of
two coefficient strategies:

* prime field (p > 0): coefficients are residues in [0, p), basis elements
  kept monic;
* rationals (p == 0): coefficients are integers, every polynomial kept
  primitive (content-free, positive lead) and reductions are fraction-free,
  so no Fraction ever enters the hot loop.  The reduction returns the
  scaling it applied, which turns its result into the exact remainder.

Pair management is Gebauer-Moeller: the coprime-leading-monomial skip plus
the chain criteria, with the normal selection strategy (smallest lcm degree
first, ties broken by the packed lcm, then by pair index) so runs are
deterministic.
"""

import heapq
import time
from fractions import Fraction
from math import gcd

from .errors import BudgetExceeded, InvalidDivisor, InvalidInput
from .rings import Polynomial


class Budget:
    """Explicit resource limits for a Groebner run."""

    def __init__(self, seconds=None, max_pairs=None, max_reductions=None):
        self.seconds = seconds
        self.max_pairs = max_pairs
        self.max_reductions = max_reductions
        self._t0 = time.monotonic()
        self._pairs = 0
        self._reductions = 0

    def pair(self):
        self._pairs += 1
        if self.max_pairs is not None and self._pairs > self.max_pairs:
            raise BudgetExceeded("pair budget %d exhausted" % self.max_pairs)
        if self.seconds is not None and self._pairs % 64 == 0 \
                and time.monotonic() - self._t0 > self.seconds:
            raise BudgetExceeded("time budget %.1fs exhausted" % self.seconds)

    def reduction_step(self):
        self._reductions += 1
        if self.max_reductions is not None and self._reductions > self.max_reductions:
            raise BudgetExceeded("reduction budget %d exhausted" % self.max_reductions)
        if self.seconds is not None and self._reductions % 1024 == 0 \
                and time.monotonic() - self._t0 > self.seconds:
            raise BudgetExceeded("time budget %.1fs exhausted" % self.seconds)


# ---------------------------------------------------------------------------
# public textbook operations
# ---------------------------------------------------------------------------

def _hull(ring, monomials):
    """Per-field max of the monomials: a shift that keeps the hull inside
    the packed fields keeps every one of them inside."""
    hull = 0
    for m in monomials:
        hull = ring.mono_max(hull, m)
    return hull


def _check_shift(ring, hull, shift):
    if (hull + shift) & ring.guard_mask:
        raise ValueError("shifted exponent overflows the packed field")


class DivisionResult:
    """Quotients and remainder with f = sum(q_i * f_i) + r."""

    def __init__(self, quotients, remainder):
        self.quotients = quotients
        self.remainder = remainder

    def recombine(self, divisors):
        acc = self.remainder
        for q, g in zip(self.quotients, divisors):
            acc = acc + q * g
        return acc


def multivariate_division(f, divisors):
    """Divide f by an ordered list of divisors (classical algorithm).

    Deterministic: at each step the first divisor whose leading term divides
    the current leading term is used; otherwise the leading term moves to the
    remainder.
    """
    ring = f.ring
    field = ring.field
    for g in divisors:
        if g.is_zero():
            raise InvalidDivisor("zero divisor polynomial")
        if g.ring is not ring:
            raise InvalidDivisor("divisor from a different ring")
    lts = [g.lt() for g in divisors]
    hulls = [_hull(ring, g._d) for g in divisors]
    quotients = [dict() for _ in divisors]
    remainder = {}
    work = dict(f._d)
    divides = ring.mono_divides
    while work:
        t = max(work)
        c = work.pop(t)
        for i, (lm, lc) in enumerate(lts):
            if divides(lm, t):
                shift = t - lm
                _check_shift(ring, hulls[i], shift)
                q = field.div(c, lc)
                acc = field.add(quotients[i].get(shift, field.zero), q)
                if field.is_zero(acc):
                    quotients[i].pop(shift, None)
                else:
                    quotients[i][shift] = acc
                for m, cv in divisors[i]._d.items():
                    if m == lm:
                        continue
                    key = m + shift
                    v = field.sub(work.get(key, field.zero), field.mul(q, cv))
                    if field.is_zero(v):
                        work.pop(key, None)
                    else:
                        work[key] = v
                break
        else:
            remainder[t] = c
    return DivisionResult([Polynomial(ring, q) for q in quotients],
                          Polynomial(ring, remainder))


def s_polynomial(f, g):
    """S(f, g) = (lcm/LT(f)) f - (lcm/LT(g)) g for the leading-monomial lcm."""
    if f.is_zero() or g.is_zero():
        raise InvalidInput("S-polynomial of a zero polynomial")
    ring = f.ring
    if g.ring is not ring:
        raise InvalidInput("operands from different rings")
    field = ring.field
    mf, cf = f.lt()
    mg, cg = g.lt()
    lcm = ring.mono_lcm(mf, mg)
    _check_shift(ring, _hull(ring, f._d), lcm - mf)
    _check_shift(ring, _hull(ring, g._d), lcm - mg)
    d = {}
    inv_cf = field.inv(cf)
    for m, c in f._d.items():
        d[m + lcm - mf] = field.mul(c, inv_cf)
    inv_cg = field.inv(cg)
    for m, c in g._d.items():
        key = m + lcm - mg
        v = field.sub(d.get(key, field.zero), field.mul(c, inv_cg))
        if field.is_zero(v):
            d.pop(key, None)
        else:
            d[key] = v
    return Polynomial(ring, d)


# ---------------------------------------------------------------------------
# raw engine
# ---------------------------------------------------------------------------

def _content(values, g=0):
    """gcd of g and the values, stopping early at 1."""
    for c in values:
        g = gcd(g, c)
        if g == 1:
            break
    return g


class _Engine:
    """Arithmetic on raw int-coefficient dicts for one ring.

    ``p`` is the field characteristic: over F_p (p > 0) coefficients are
    residues and basis elements are monic; over Q (p == 0) coefficients are
    integers, basis elements are primitive with a positive lead, and
    reductions are fraction-free.
    """

    def __init__(self, ring):
        self.guard = ring.guard_mask
        self.p = ring.field.characteristic
        self.ring = ring

    def split(self, d):
        """Leading monomial, leading coefficient, tail and tail hull of a
        raw dict."""
        lt = max(d)
        tail = tuple((m, c) for m, c in d.items() if m != lt)
        return lt, d[lt], tail, _hull(self.ring, (m for m, _ in tail))

    def add(self, arrays, d):
        """Append d to the parallel (lts, lcs, tails, hulls) lists that
        reduce reads."""
        for col, v in zip(arrays, self.split(d)):
            col.append(v)

    def prepare(self, poly_dict):
        """Normalised raw dict of a Polynomial's coefficient dict."""
        p = self.p
        if p:
            return self.normalise({m: c % p for m, c in poly_dict.items() if c % p})
        den = 1
        for c in poly_dict.values():
            den = den * c.denominator // gcd(den, c.denominator)
        return self.normalise({m: int(c * den) for m, c in poly_dict.items()})

    def normalise(self, d):
        """Monic over F_p; primitive with a positive lead over Q."""
        if not d:
            return d
        p = self.p
        lead = d[max(d)]
        if p:
            inv = pow(lead, -1, p)
            return {m: c * inv % p for m, c in d.items()} if inv != 1 else d
        g = _content(d.values())
        if lead < 0:
            g = -g
        return {m: c // g for m, c in d.items()} if g != 1 else d

    def finish(self, d, k=None):
        """Field coefficients of d times k; by default k makes d monic."""
        p = self.p
        if p:
            if k is None:
                k = pow(d[max(d)], -1, p)
            return {m: c * k % p for m, c in d.items()} if k != 1 else d
        if k is None:
            k = Fraction(1, d[max(d)])
        return {m: c * k for m, c in d.items()}

    def reduce(self, f, lts, lcs, tails, hulls, budget=None):
        """Full reduction of f (destroyed) against the basis arrays.

        Returns ``(out, mult)`` with ``out == mult * NF(f)``.  Over F_p the
        basis is monic and mult is 1.  Over Q every step first scales the
        remainder by the divisor's leading coefficient, and every 64 steps
        the joint content of the remainder is stripped; mult follows both.
        Raises ValueError when a shifted tail would overflow a packed field.
        """
        p = self.p
        guard = self.guard
        out = {}
        num = den = 1
        nb = len(lts)
        steps = 0
        while f:
            t = max(f)
            c = f.pop(t)
            if not c:
                continue
            hit = -1
            for i in range(nb):
                if not (t - lts[i]) & guard:
                    hit = i
                    break
            if hit < 0:
                out[t] = c
                continue
            if budget is not None:
                budget.reduction_step()
            shift = t - lts[hit]
            _check_shift(self.ring, hulls[hit], shift)
            a = lcs[hit]
            if a != 1:
                for k in f:
                    f[k] *= a
                for k in out:
                    out[k] *= a
                num *= a
            for m, cv in tails[hit]:
                key = m + shift
                v = f.get(key, 0) - c * cv
                if p:
                    v %= p
                if v:
                    f[key] = v
                else:
                    f.pop(key, None)
            steps += 1
            if not p and steps % 64 == 0 and f:
                # joint content strip keeps the integers small mid-reduction
                g = _content(f.values())
                if g != 1:
                    g = _content(out.values(), g)
                if g > 1:
                    f = {m: c2 // g for m, c2 in f.items()}
                    out = {m: c2 // g for m, c2 in out.items()}
                    den *= g
        return out, (num if den == 1 else Fraction(num, den))

    def spair(self, i, j, lts, lcs, tails, hulls, lcm):
        """lc_j (lcm/lt_i) g_i - lc_i (lcm/lt_j) g_j, leads cancelled."""
        p = self.p
        a, b = lcs[j], lcs[i]
        si, sj = lcm - lts[i], lcm - lts[j]
        _check_shift(self.ring, hulls[i], si)
        _check_shift(self.ring, hulls[j], sj)
        out = {m + si: a * c for m, c in tails[i]}
        for m, c in tails[j]:
            key = m + sj
            v = out.get(key, 0) - b * c
            if p:
                v %= p
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return out if p else self.normalise(out)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def _interreduce(engine, ding):
    """One ascending pass of input cleanup: each generator is fully reduced
    against the ones already kept.  Safe (never loses the ideal) and cheap;
    the final auto-reduction happens after Buchberger terminates.  Returns
    the kept dicts and their (lts, lcs, tails, hulls) arrays."""
    ding = sorted((d for d in ding if d), key=max)
    kept, arrays = [], ([], [], [], [])
    for d in ding:
        if kept:
            d = engine.normalise(engine.reduce(dict(d), *arrays)[0])
        if d:
            kept.append(d)
            engine.add(arrays, d)
    return kept, arrays


def buchberger(generators, budget=None):
    """Reduced Groebner basis of the ideal generated by ``generators``.

    Applies the coprime-leading-monomial skip and the Gebauer-Moeller chain
    criteria; pair selection is the normal strategy.  Raises BudgetExceeded
    when the optional budget runs out.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise InvalidInput("need at least one nonzero generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring is not ring:
            raise InvalidInput("generators from different rings")
    engine = _Engine(ring)

    basis = []
    seen = set()
    for g in gens:
        d = engine.prepare(g._d)
        if d:
            key = tuple(sorted(d.items()))
            if key not in seen:
                seen.add(key)
                basis.append(d)
    basis, arrays = _interreduce(engine, basis)
    if not basis:
        return GroebnerBasis(ring, ())
    lts, lcs, tails, hulls = arrays
    lcm_of = ring.mono_lcm
    mono_deg = ring.mono_degree

    pairs = {}          # (i, j) -> lcm, i < j
    heap = []

    def push_pairs(t):
        """Gebauer-Moeller update for the arrival of basis element t."""
        lt_t = lts[t]
        cand = {}
        for i in range(t):
            cand[i] = lcm_of(lts[i], lt_t)
        # chain criterion among the new pairs
        keep = {}
        for i in sorted(cand, key=lambda i: (mono_deg(cand[i]), cand[i], i)):
            li = cand[i]
            dominated = False
            for j, lj in keep.items():
                if lj != li and not (li - lj) & ring.guard_mask:
                    dominated = True
                    break
            if not dominated:
                keep[i] = li
        # drop duplicates of equal lcm (keep lowest index)
        by_lcm = {}
        for i in sorted(keep):
            by_lcm.setdefault(keep[i], i)
        survivors = {i: l for l, i in by_lcm.items()}
        # coprime-leading-monomial criterion
        survivors = {i: l for i, l in survivors.items() if l != lts[i] + lt_t}
        # prune old pairs via the new leading term
        stale = []
        for (i, j), l in pairs.items():
            if not (l - lt_t) & ring.guard_mask \
                    and cand[i] != l and cand[j] != l:
                stale.append((i, j))
        for key in stale:
            del pairs[key]
        for i, l in survivors.items():
            pairs[(i, t)] = l
            heapq.heappush(heap, (mono_deg(l), l, i, t))

    for t in range(len(basis)):
        push_pairs(t)

    while heap:
        _, l, i, j = heapq.heappop(heap)
        if pairs.get((i, j)) != l:
            continue
        del pairs[(i, j)]
        if budget is not None:
            budget.pair()
        s = engine.spair(i, j, lts, lcs, tails, hulls, l)
        if not s:
            continue
        r = engine.normalise(engine.reduce(s, *arrays, budget)[0])
        if not r:
            continue
        basis.append(r)
        engine.add(arrays, r)
        push_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another lead
    guard = ring.guard_mask
    order_idx = sorted(range(len(basis)), key=lambda i: lts[i])
    minimal = []
    for i in order_idx:
        if not any(not (lts[i] - lts[j]) & guard for j in minimal):
            minimal.append(i)
    # tail-reduce the minimal elements against each other
    mlts = [lts[i] for i in minimal]
    mlcs = [lcs[i] for i in minimal]
    mtails = [tails[i] for i in minimal]
    mhulls = [hulls[i] for i in minimal]
    reduced = []
    for k, i in enumerate(minimal):
        mlts[k] = guard     # divides no monomial, so g_k skips itself
        r = engine.normalise(engine.reduce(
            dict(basis[i]), mlts, mlcs, mtails, mhulls, budget)[0])
        reduced.append(r)
        mlts[k], mlcs[k], mtails[k], mhulls[k] = engine.split(r)
    reduced.sort(key=max, reverse=True)
    polys = tuple(Polynomial(ring, engine.finish(d)) for d in reduced)
    return GroebnerBasis(ring, polys)


class GroebnerBasis:
    """A reduced Groebner basis: monic, auto-reduced, sorted by leading term."""

    def __init__(self, ring, polys):
        self.ring = ring
        self.polys = tuple(polys)
        self._engine = _Engine(ring)
        arrays = ([], [], [], [])
        for p in self.polys:
            self._engine.add(arrays, self._engine.prepare(p._d))
        lts, self._lcs, self._tails, self._hulls = arrays
        self._lts = tuple(lts)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and self.ring is other.ring \
            and self.polys == other.polys

    def lead_monomials(self):
        return self._lts

    def is_unit_ideal(self):
        return len(self.polys) == 1 and self.polys[0].lm() == 0

    def normal_form(self, f):
        """Unique remainder of f against the reduced basis."""
        if f.ring is not self.ring:
            raise InvalidInput("polynomial from a different ring")
        if not self.polys or f.is_zero():
            return f
        engine = self._engine
        field = self.ring.field
        work = engine.prepare(f._d)
        t = max(work)
        lead = work[t]
        out, mult = engine.reduce(work, self._lts, self._lcs, self._tails,
                                  self._hulls)
        # work = (lead / lc(f)) * f and out = mult * NF(work)
        k = field.div(f._d[t], field.coerce(mult * lead))
        return Polynomial(self.ring, engine.finish(out, k))

    def contains(self, f):
        return self.normal_form(f).is_zero()


def normal_form_membership(f, gb):
    """Normal form and membership flag of f against a reduced basis."""
    nf = gb.normal_form(f)
    return nf, nf.is_zero()
