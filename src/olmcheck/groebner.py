"""Buchberger's algorithm, reduced Groebner bases, normal forms, division.

The public surface works with ``Polynomial`` values.  Internally one engine,
``_Engine``, runs every computation on raw ``{packed monomial: int}`` dicts;
its single reduction loop serves Buchberger, the auto-reduction and
``GroebnerBasis.normal_form`` alike.  One auto-reduction pass,
``_interreduce``, cleans the input generators and turns the minimal basis
into the reduced one.  That tail, minimalize then interreduce (``_reduced``),
ends every Buchberger run and is all of ``reduce_basis``, which turns a
Groebner basis found some other way (a fiber's, read off the basis over
k[pi]) into the reduced one.  A ``GroebnerBasis`` keeps the engine's arrays
the tail leaves, so a reduced basis never goes back through ``Polynomial``
values: its ``polys`` are built on demand.

``buchberger`` also takes reduced bases among its generators as known
blocks, so the basis of a sum of ideals starts from its summands' bases.
A block's elements enter the basis as they are and no pair inside a block
is formed: such an S-pair has a standard representation over the block,
hence over every larger basis, and Gebauer and Moeller's chain and B
criteria stay valid when they count those pairs as treated (Gebauer &
Moeller, J. Symbolic Comput. 6, 1988).  A run with no block is a run from
scratch.  The field characteristic p picks one of two coefficient
strategies:

* prime field (p > 0): coefficients are residues in [0, p), basis elements
  kept monic;
* rationals (p == 0): coefficients are integers, every polynomial kept
  primitive (content-free, positive lead) and reductions are fraction-free,
  so no Fraction ever enters the hot loop.  The reduction returns the
  scaling it applied, which turns its result into the exact remainder.

Divisor lookups go through one index, ``_DivisorIndex``: leading monomials
bucketed by one nonzero exponent field each (Roune & Stillman, ISSAC 2012,
section 3).  A query for t scans only the constant bucket and the buckets
of t's nonzero fields and returns the smallest index whose monomial divides
t, exactly what a linear scan returns.  It finds the reducer in ``reduce``,
the dominating lcm in the chain criterion and the redundant leads in the
minimalisation.

Pair management is Gebauer-Moeller: the coprime-leading-monomial skip plus
the chain criteria, with the normal selection strategy (smallest lcm degree
first, ties broken by the packed lcm, then by pair index) so runs are
deterministic.  When element t arrives, its candidate lcms are formed on
the exponent fields only and visited in increasing order, which puts every
strict divisor of an lcm before it; the kept lcms, all multiples of lt_t,
are indexed by their quotients by it, a kept quotient of degree 1 goes into
a support mask that drops every later quotient meeting it, and an lcm equal
to the one before it is dropped in the same pass.  Only the survivors get
the full lcm that keys the heap.  The B criterion, which drops an open pair
(i, j) once a later lead divides its lcm l without sharing l with lt_i or
lt_j, is applied when the pair is popped: the divisor index's buckets of l,
each bisected past j, give the later leads to test.  Every later element
arrived while the pair was open, so the popped pairs are exactly those the
eager rule keeps.
"""

import heapq
import time
from bisect import bisect_right
from fractions import Fraction
from math import gcd

from .errors import BudgetExceeded, InvalidDivisor, InvalidInput
from .orders import FIELD_BITS
from .rings import Polynomial


class Budget:
    """A time limit and work meter for a Groebner run.  ``pair`` and
    ``reduction_step`` count the S-pairs formed and the reduction steps
    taken (``pairs``, ``steps``) and meet the deadline every 64 pairs and
    1024 steps.  ``Budget()`` has no limit and only counts."""

    def __init__(self, seconds=None):
        self.seconds = seconds
        self._t0 = time.monotonic()
        self.pairs = 0
        self.steps = 0

    def deadline(self):
        """Raise BudgetExceeded once the time budget is spent; counts
        nothing, so callers between pairs and steps leave the counters as
        they are."""
        if self.seconds is not None and time.monotonic() - self._t0 > self.seconds:
            raise BudgetExceeded("time budget %.1fs exhausted" % self.seconds)

    def pair(self):
        self.pairs += 1
        if self.pairs % 64 == 0:
            self.deadline()

    def reduction_step(self):
        self.steps += 1
        if self.steps % 1024 == 0:
            self.deadline()


# ---------------------------------------------------------------------------
# shift guards and the textbook division (the colon ideal's exact quotient)
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


class _DivisorIndex:
    """Packed monomials bucketed by support, for first-divisor queries.

    ``lts`` lists the monomials in insertion order.  Each nonzero monomial
    is filed under one of its nonzero exponent fields, the one whose bucket
    is smallest at insertion; the constant monomial goes into bucket 0,
    which every query scans.  A divisor of t has its support inside t's, so
    it sits in bucket 0 or in the bucket of one of t's nonzero fields.
    The support is read word-parallel (see ``orders``); field k, counted
    from the bottom, has its guard bit at bit length 16k + 16 and its
    bucket at k + 1.
    """

    __slots__ = ("lts", "_buckets", "_guard", "_low", "_exp_guard")

    def __init__(self, ring):
        self.lts = []
        self._guard = ring.guard_mask
        self._low = ring._exp_low
        self._exp_guard = ring._exp_guard
        nfields = self._guard.bit_length() // FIELD_BITS
        self._buckets = [[] for _ in range(nfields + 1)]

    def append(self, m):
        buckets = self._buckets
        key = 0
        s = (m + self._low) & self._exp_guard
        while s:
            n = s.bit_length()
            s ^= 1 << (n - 1)
            n //= FIELD_BITS
            if not key or len(buckets[n]) < len(buckets[key]):
                key = n
        buckets[key].append(len(self.lts))
        self.lts.append(m)

    def first(self, t):
        """Smallest index whose monomial divides t, or -1.

        Indices ascend inside a bucket, so each bucket is scanned only up
        to the best hit so far; every candidate takes the full test.
        """
        lts, guard, buckets = self.lts, self._guard, self._buckets
        stop = best = len(lts)
        key, s = 0, (t + self._low) & self._exp_guard
        while True:
            for i in buckets[key]:
                if i >= best:
                    break
                if not (t - lts[i]) & guard:
                    best = i
                    break
            if not s:
                return best if best < stop else -1
            key = s.bit_length()
            s ^= 1 << (key - 1)
            key //= FIELD_BITS

    def stale(self, i, j, l):
        """Gebauer-Moeller B criterion for the pair (i, j), i < j, with lcm
        l: True when some k > j has lt_k | l, lcm(lt_i, lt_k) != l and
        lcm(lt_j, lt_k) != l.

        Such a k is a divisor of l, so it sits in bucket 0 or in the bucket
        of one of l's nonzero fields; each is bisected past j.  Two divisors
        of l have lcm l exactly when no exponent field falls short of l in
        both, so each lcm test is one AND of the supports of the shortfalls
        l - lt.
        """
        lts, guard, buckets = self.lts, self._guard, self._buckets
        low, exp_guard = self._low, self._exp_guard
        short_i = (l - lts[i] + low) & exp_guard
        short_j = (l - lts[j] + low) & exp_guard
        key, s = 0, (l + low) & exp_guard
        while True:
            bucket = buckets[key]
            for n in range(bisect_right(bucket, j), len(bucket)):
                d = l - lts[bucket[n]]
                if d & guard:
                    continue
                d = (d + low) & exp_guard
                if d & short_i and d & short_j:
                    return True
            if not s:
                return False
            key = s.bit_length()
            s ^= 1 << (key - 1)
            key //= FIELD_BITS


class _Engine:
    """Arithmetic on raw int-coefficient dicts for one ring.

    ``p`` is the field characteristic: over F_p (p > 0) coefficients are
    residues and basis elements are monic; over Q (p == 0) coefficients are
    integers, basis elements are primitive with a positive lead, and
    reductions are fraction-free.
    """

    def __init__(self, ring):
        self.p = ring.field.characteristic
        self.ring = ring

    def arrays(self):
        """Empty basis arrays (leads, lcs, tails, hulls): a divisor index
        over the leading monomials, then parallel lists of the leading
        coefficients, the tails and the tail hulls."""
        return _DivisorIndex(self.ring), [], [], []

    def add(self, arrays, d):
        """Append d's leading monomial, leading coefficient, tail and tail
        hull to the basis arrays that reduce reads."""
        leads, lcs, tails, hulls = arrays
        lt = max(d)
        tail = tuple((m, c) for m, c in d.items() if m != lt)
        leads.append(lt)
        lcs.append(d[lt])
        tails.append(tail)
        hulls.append(_hull(self.ring, (m for m, _ in tail)))

    def prepare(self, poly_dict):
        """Normalised raw dict of a Polynomial's coefficient dict."""
        p = self.p
        if p:
            return self.normalise({m: c % p for m, c in poly_dict.items() if c % p})
        den = 1
        for c in poly_dict.values():
            den = den * c.denominator // gcd(den, c.denominator)
        return self.normalise({m: c.numerator * (den // c.denominator)
                               for m, c in poly_dict.items()})

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

    def reduce(self, f, leads, lcs, tails, hulls, budget=None):
        """Full reduction of f (destroyed) against the basis arrays.

        Returns ``(out, mult)`` with ``out == mult * NF(f)``.  Over F_p the
        basis is monic and mult is 1.  Over Q every step first scales the
        remainder by the divisor's leading coefficient, and every 64 steps
        the joint content of the remainder is stripped; mult follows both.
        Raises ValueError when a shifted tail would overflow a packed field.
        """
        p = self.p
        first = leads.first
        lts = leads.lts
        out = {}
        num = den = 1
        steps = 0
        while f:
            t = max(f)
            c = f.pop(t)
            hit = first(t)
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

    def spair(self, i, j, leads, lcs, tails, hulls, lcm):
        """lc_j (lcm/lt_i) g_i - lc_i (lcm/lt_j) g_j, leads cancelled."""
        p = self.p
        lts = leads.lts
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

def _interreduce(engine, ding, budget=None, count=True, arrays=None):
    """Auto-reduce the nonzero dicts in ``ding``: each, in ascending lead
    order, is fully reduced against the basis arrays, which start as
    ``arrays`` (empty by default) and take in every dict kept, and a zero
    result is dropped.  Every monomial of g is at most lt(g) and a divisor
    is at most the monomial it divides, so only elements with smaller leads
    can reduce g; on a minimal Groebner basis one pass from empty arrays
    therefore gives the reduced basis.  The budget's deadline is met once
    per dict; its steps are counted only when ``count``.  Returns the kept
    dicts and the arrays."""
    kept = []
    if arrays is None:
        arrays = engine.arrays()
    steps = budget if count else None
    for d in sorted(ding, key=max):
        if budget is not None:
            budget.deadline()
        if arrays[1]:
            d = engine.normalise(engine.reduce(dict(d), *arrays, steps)[0])
        if d:
            kept.append(d)
            engine.add(arrays, d)
    return kept, arrays


def _new_pairs(ring, lts, t):
    """The pairs (i, t) kept by the chain criterion, the equal-lcm rule and
    the coprime criterion, as {i: lcm(lt_i, lt_t)}.

    The candidate lcms are formed on the exponent fields only, by the
    guard-bit max (see ``orders``), and visited in increasing order, which
    puts every strict divisor of an lcm first; one is dropped when an lcm
    kept before it divides it.  Every lcm is a multiple of lt_t, so the
    kept lcms are indexed by their quotients by lt_t.  A kept quotient of
    degree 1 goes into a support mask instead: a later quotient that meets
    the mask is a multiple of it and is dropped without a query.  A zero
    quotient divides every later one.  The sort is stable, so of a run of
    equal lcms only the first, with the lowest index, is tested and kept.
    The coprime criterion comes last: a coprime pair still dominates.  Only
    the survivors get the full lcm, degree fields included.
    """
    guard, exp_mask = ring.guard_mask, ring._exp_mask
    low, exp_guard = ring._exp_low, ring._exp_guard
    lt_t = lts[t]
    cand = []
    for a in lts[:t]:
        ge = ((a | guard) - lt_t) & guard
        cand.append((lt_t ^ ((a ^ lt_t) & (ge - (ge >> (FIELD_BITS - 1))))) & exp_mask)
    e_t = lt_t & exp_mask
    kept = _DivisorIndex(ring)
    survivors = {}
    prev, mask = None, 0
    for i in sorted(range(t), key=cand.__getitem__):
        e = cand[i]
        if e == prev:
            continue
        prev = e
        q = e - e_t
        s = (q + low) & exp_guard
        if s & mask:
            continue
        if q == s >> (FIELD_BITS - 1) and not s & (s - 1):
            mask |= s       # degree 1: its multiples all meet the mask
        elif kept.first(q) < 0:
            kept.append(q)
        else:
            continue
        if e != (lts[i] + lt_t) & exp_mask:
            survivors[i] = ring.mono_lcm(lts[i], lt_t)
        if not q:
            break           # lt_i divides lt_t: every later lcm is dominated
    return survivors


def buchberger(generators, budget=None):
    """Reduced Groebner basis of the ideal generated by ``generators``.

    A generator may also be a ``GroebnerBasis`` of the same ring, a known
    block (see the module docstring): its elements enter the basis
    unchanged and no pair inside it is pushed.  The elements of the first
    block skip the pair update altogether; an element of a later block
    pairs only with the blocks before its own.  The loose generators are
    interreduced against the blocks.  The run ends in the same
    minimalize-and-interreduce tail, so it returns the reduced basis a run
    from every block's generators returns.

    Applies the coprime-leading-monomial skip and the Gebauer-Moeller chain
    criteria; pair selection is the normal strategy.  Raises BudgetExceeded
    when the optional budget runs out.
    """
    blocks = [g for g in generators if isinstance(g, GroebnerBasis) and len(g)]
    gens = [g for g in generators
            if not isinstance(g, GroebnerBasis) and not g.is_zero()]
    if not blocks and not gens:
        raise InvalidInput("need at least one nonzero generator")
    ring = (blocks or gens)[0].ring
    for g in blocks + gens:
        if g.ring is not ring:
            raise InvalidInput("generators from different rings")
    engine = _Engine(ring)
    arrays = engine.arrays()
    leads, lcs, tails, hulls = arrays

    # below[t]: element t pairs with the elements before it up to there,
    # the start of its own block
    basis, below = [], []
    for gb in blocks:
        block_leads, block_lcs, block_tails, block_hulls = gb._arrays
        below += [len(basis)] * len(block_lcs)
        for lt, lc, tail in zip(block_leads.lts, block_lcs, block_tails):
            leads.append(lt)
            basis.append({lt: lc, **dict(tail)})
        lcs += block_lcs
        tails += block_tails
        hulls += block_hulls
    # repeated and scalar-multiple generators reduce to zero here; this pass
    # meets the deadline but counts no steps, so the step counter sees
    # S-pairs and the final pass
    loose, _ = _interreduce(engine, [engine.prepare(g._d) for g in gens],
                            budget, count=False, arrays=arrays)
    below += range(len(basis), len(basis) + len(loose))
    basis += loose
    lts = leads.lts
    stale = leads.stale
    mono_deg = ring.mono_degree
    heap = []

    def push_pairs(t, stop):
        """Gebauer-Moeller update for the arrival of basis element t: the
        kept pairs (i, t) with i < stop; the B criterion waits until a pair
        is popped."""
        if budget is not None:
            budget.deadline()
        for i, l in _new_pairs(ring, lts, t).items():
            if i < stop:
                heapq.heappush(heap, (mono_deg(l), l, i, t))

    for t, stop in enumerate(below):
        if stop:
            push_pairs(t, stop)

    while heap:
        _, l, i, j = heapq.heappop(heap)
        if stale(i, j, l):
            continue
        if budget is not None:
            budget.pair()
        s = engine.spair(i, j, *arrays, l)
        if not s:
            continue
        r = engine.normalise(engine.reduce(s, *arrays, budget)[0])
        if not r:
            continue
        basis.append(r)
        engine.add(arrays, r)
        push_pairs(len(basis) - 1, len(basis) - 1)
    return _reduced(engine, basis, budget)


def reduce_basis(ring, polys, budget=None):
    """The reduced Groebner basis of the ideal generated by ``polys``, which
    must already be a Groebner basis of it in ``ring``; zeros are dropped.
    This is the tail of ``buchberger`` without its pairs.  Raises
    BudgetExceeded when the optional budget runs out."""
    engine = _Engine(ring)
    return _reduced(engine, [engine.prepare(p._d) for p in polys
                             if not p.is_zero()], budget)


def _reduced(engine, basis, budget):
    """Minimalize the Groebner basis ``basis`` of normalised dicts, dropping
    every element whose lead another lead divides, then interreduce it into
    the reduced basis, kept in engine form."""
    ring = engine.ring
    minimal, leads = [], _DivisorIndex(ring)
    for d in sorted(basis, key=max):
        lt = max(d)
        if leads.first(lt) < 0:
            leads.append(lt)
            minimal.append(d)
    _, (up, lcs, tails, hulls) = _interreduce(engine, minimal, budget)
    gb = GroebnerBasis(ring, ())
    for dst, src in zip(gb._arrays, (up.lts, lcs, tails, hulls)):
        for x in reversed(src):
            dst.append(x)
    gb._polys = None
    return gb


class GroebnerBasis:
    """A reduced Groebner basis: monic, auto-reduced, sorted by leading term.

    It keeps its elements in the engine's form, in descending lead order:
    a divisor index over the leading monomials and the normalised leading
    coefficients, tails and tail hulls (see ``_Engine.arrays``).  That is
    what normal forms, ``buchberger``'s known blocks, the length, the
    unit-ideal test and equality read.  ``polys``, the elements as
    ``Polynomial`` values, is built on first use, except when the basis is
    made from them."""

    def __init__(self, ring, polys):
        self.ring = ring
        self._engine = engine = _Engine(ring)
        self._arrays = engine.arrays()
        self._polys = tuple(polys)
        for p in self._polys:
            engine.add(self._arrays, engine.prepare(p._d))

    @property
    def polys(self):
        if self._polys is None:
            leads, lcs, tails, _ = self._arrays
            finish = self._engine.finish
            self._polys = tuple(
                Polynomial(self.ring, finish({lt: lc, **dict(tail)}))
                for lt, lc, tail in zip(leads.lts, lcs, tails))
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._arrays[1])

    def __eq__(self, other):
        """Equal elements, read off the normalised arrays; a tail's term
        order is not compared."""
        if not isinstance(other, GroebnerBasis) or self.ring is not other.ring:
            return False
        (la, ca, ta, _), (lb, cb, tb, _) = self._arrays, other._arrays
        return la.lts == lb.lts and ca == cb and \
            all(s == t or dict(s) == dict(t) for s, t in zip(ta, tb))

    def lead_monomials(self):
        return tuple(self._arrays[0].lts)

    def is_unit_ideal(self):
        lts = self._arrays[0].lts
        return len(lts) == 1 and lts[0] == 0

    def normal_form(self, f):
        """Unique remainder of f against the reduced basis."""
        if f.ring is not self.ring:
            raise InvalidInput("polynomial from a different ring")
        if not self._arrays[1] or f.is_zero():
            return f
        engine = self._engine
        field = self.ring.field
        work = engine.prepare(f._d)
        t = max(work)
        lead = work[t]
        out, mult = engine.reduce(work, *self._arrays)
        # work = (lead / lc(f)) * f and out = mult * NF(work)
        k = field.div(f._d[t], field.coerce(mult * lead))
        return Polynomial(self.ring, engine.finish(out, k))

    def contains(self, f):
        return self.normal_form(f).is_zero()
