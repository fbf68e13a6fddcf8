"""Sparse multivariate polynomials over an exact coefficient field.

A ``Ring`` fixes the variable table (an ordered list of names; earlier names
are greater), the coefficient field, and the monomial order.  Monomials are
packed ints as described in ``orders``; polynomials are immutable wrappers
around a dict mapping packed monomial -> nonzero coefficient.

The distinguished variable ``pi`` (the uniformizer of the base ring) is, by
convention, the last and therefore least variable wherever it occurs.
"""

import re

from .errors import TableMismatch, MissingImage
from .fields import QQ
from .orders import GRLEX, FIELD_BITS, MAX_EXPONENT

# 2**16 is 1 modulo this, so a word taken mod it is the sum of its fields
_FIELD_FOLD = (1 << FIELD_BITS) - 1


class Ring:
    """Polynomial ring with a fixed variable precedence and monomial order."""

    def __init__(self, names, field=QQ, order=GRLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if "pi" in names and names[-1] != "pi":
            raise ValueError("pi must be the least (last) variable")
        self.names = names
        self.nvars = len(names)
        self.field = field
        self.order = order
        self._index = {nm: i for i, nm in enumerate(names)}

        layout = order.layout(self.nvars)
        nfields = len(layout)
        field_mask = (1 << FIELD_BITS) - 1
        self._exp_shift = [0] * self.nvars
        self._deg_fields = []
        exp_mask = (1 << (nfields * FIELD_BITS)) - 1
        for pos, field_spec in enumerate(layout):
            shift = (nfields - 1 - pos) * FIELD_BITS
            if field_spec[0] == "exp":
                self._exp_shift[field_spec[1]] = shift
            else:
                self._deg_fields.append((shift, field_spec[1], field_spec[2]))
                exp_mask ^= field_mask << shift
        guard = 0
        for pos in range(nfields):
            guard |= 1 << (pos * FIELD_BITS + FIELD_BITS - 1)
        self.guard_mask = guard
        # word-parallel lcm: per-field max over the exponent fields, then
        # each degree field refilled with the sum of its block's fields,
        # read as (block's exponent fields) mod 2**16 - 1
        self._exp_mask = exp_mask
        # support read: (m + _exp_low) & _exp_guard has the guard bit of
        # each nonzero exponent field set (0x7fff per field, no carry)
        self._exp_guard = guard & exp_mask
        self._exp_low = self._exp_guard - (self._exp_guard >> (FIELD_BITS - 1))
        refill = []
        for k, (shift, lo, hi) in enumerate(self._deg_fields):
            if hi == lo:
                continue        # a zero-variable ring's empty degree block
            if k == 0:          # the top block: shift the fields below out
                refill.append((shift - (hi - lo) * FIELD_BITS, 0, shift))
            else:               # the bottom block: mask the fields above off
                refill.append((0, (1 << shift) - 1, shift))
        self._refill = tuple(refill)
        # direct degree read: the top field is a degree field under grlex
        # and block orders; block orders add the second one
        deg_shifts = [shift for shift, _, _ in self._deg_fields]
        self._top_deg = deg_shifts[0] if deg_shifts else None
        self._low_deg = deg_shifts[1] if len(deg_shifts) > 1 else None

    def __repr__(self):
        return "Ring(%d vars, %r, %r)" % (self.nvars, self.field, self.order)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("no variable %r in ring" % (name,)) from None

    # -- packed monomials ---------------------------------------------------

    def monomial(self, exps):
        """Pack an exponent vector (sequence, or dict keyed by name)."""
        if isinstance(exps, dict):
            vec = [0] * self.nvars
            for name, e in exps.items():
                vec[self.index(name)] = e
        else:
            vec = list(exps)
            if len(vec) != self.nvars:
                raise ValueError("expected %d exponents" % self.nvars)
        m = 0
        for i, e in enumerate(vec):
            if e < 0 or e > MAX_EXPONENT:
                raise ValueError("exponent out of range: %r" % (e,))
            m |= e << self._exp_shift[i]
        for shift, lo, hi in self._deg_fields:
            deg = sum(vec[lo:hi])
            if deg > MAX_EXPONENT:
                raise ValueError("total degree %d overflows the packed field" % deg)
            m |= deg << shift
        return m

    def exponents(self, m):
        mask = (1 << FIELD_BITS) - 1
        return tuple((m >> s) & mask for s in self._exp_shift)

    def mono_degree(self, m):
        top = self._top_deg
        if top is None:
            return sum(self.exponents(m))
        low = self._low_deg
        if low is None:
            return m >> top
        return (m >> top) + ((m >> low) & ((1 << FIELD_BITS) - 1))

    def mono_divides(self, m1, m2):
        return not (m2 - m1) & self.guard_mask

    def mono_max(self, m1, m2):
        """Per-field max of two packed words, degree fields included.

        The result bounds both words field by field; it is a monomial only
        when the order has no degree field.
        """
        guard = self.guard_mask
        ge = ((m1 | guard) - m2) & guard     # guard bit set where m1 >= m2
        sel = ge - (ge >> (FIELD_BITS - 1))  # all ones below those guards
        return m2 ^ ((m1 ^ m2) & sel)

    def mono_lcm(self, m1, m2):
        """lcm of two packed monomials, computed on the whole word.

        Raises ValueError when a degree of the lcm overflows its field.
        """
        e = self.mono_max(m1, m2) & self._exp_mask
        m = e
        for low, mask, shift in self._refill:
            deg = (e & mask if mask else e >> low) % _FIELD_FOLD
            if deg > MAX_EXPONENT:
                raise ValueError("lcm degree %d overflows the packed field" % deg)
            m |= deg << shift
        return m

    def mono_str(self, m):
        parts = []
        for i, e in enumerate(self.exponents(m)):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append("%s^%d" % (self.names[i], e))
        return "*".join(parts) if parts else "1"

    # -- element constructors ------------------------------------------------

    def from_dict(self, d):
        field = self.field
        return Polynomial(self, {m: c for m, c in d.items() if not field.is_zero(c)})

    def zero(self):
        return Polynomial(self, {})

    def const(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {0: c})

    def one(self):
        return self.const(1)

    def var(self, name):
        m = self.monomial({name: 1})
        return Polynomial(self, {m: self.field.one})

    def gens(self):
        return [self.var(nm) for nm in self.names]

    def parse(self, text):
        return parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; terms kept as {packed monomial: coeff}."""

    __slots__ = ("ring", "_d", "_terms")

    def __init__(self, ring, d):
        self.ring = ring
        self._d = d
        self._terms = None

    # -- views ----------------------------------------------------------------

    def terms(self):
        """Term list, strictly descending in the ring order."""
        if self._terms is None:
            self._terms = tuple(sorted(self._d.items(), reverse=True))
        return self._terms

    def is_zero(self):
        return not self._d

    def __len__(self):
        return len(self._d)

    def __bool__(self):
        return bool(self._d)

    def lt(self):
        """Leading (monomial, coefficient) pair."""
        m = max(self._d)
        return m, self._d[m]

    def lm(self):
        return max(self._d)

    def lc(self):
        return self._d[max(self._d)]

    def total_degree(self):
        if not self._d:
            return -1
        deg = self.ring.mono_degree
        return max(deg(m) for m in self._d)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError("expected Polynomial, got %r" % (other,))
        if other.ring is not self.ring:
            raise TableMismatch("operands from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        field = self.ring.field
        d = dict(self._d)
        for m, c in other._d.items():
            acc = field.add(d.get(m, field.zero), c)
            if field.is_zero(acc):
                d.pop(m, None)
            else:
                d[m] = acc
        return Polynomial(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self._d.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        field = self.ring.field
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        guard = self.ring.guard_mask
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                if m & guard:
                    raise ValueError("product exponent overflows the packed field")
                acc = field.add(out.get(m, field.zero), field.mul(c1, c2))
                if field.is_zero(acc):
                    out.pop(m, None)
                else:
                    out[m] = acc
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        field = self.ring.field
        c = field.coerce(c)
        if field.is_zero(c):
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {m: field.mul(v, c) for m, v in self._d.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def monic(self):
        if not self._d:
            return self
        return self.scale(self.ring.field.inv(self.lc()))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not self._d and other == 0:
                return True
            return len(self._d) == 1 and 0 in self._d \
                and self._d[0] == self.ring.field.coerce(other)
        return self.ring is other.ring and self._d == other._d

    def __hash__(self):
        return hash((id(self.ring), self.terms()))

    # -- structural maps -----------------------------------------------------------

    def substitute(self, images, target=None):
        """Ring homomorphism determined by variable images.

        ``images`` maps variable names to polynomials of a common target
        ring; every variable actually appearing in ``self`` needs an image.
        Constants are carried over through the target's field.
        """
        if target is None:
            for img in images.values():
                target = img.ring
                break
            if target is None:
                target = self.ring
        ring = self.ring
        power_cache = {}

        def var_power(i, e):
            key = (i, e)
            got = power_cache.get(key)
            if got is None:
                name = ring.names[i]
                if name not in images:
                    raise MissingImage("no image for variable %r" % (name,))
                img = images[name]
                if img.ring is not target:
                    raise TableMismatch("image of %r lives in a different ring" % (name,))
                got = img ** e
                power_cache[key] = got
            return got

        field = target.field
        out = {}
        for m, c in self.terms():
            part = target.const(c)
            for i, e in enumerate(ring.exponents(m)):
                if e:
                    part = part * var_power(i, e)
            for k, v in part._d.items():
                acc = field.add(out.get(k, field.zero), v)
                if field.is_zero(acc):
                    out.pop(k, None)
                else:
                    out[k] = acc
        return Polynomial(target, out)

    # -- text form --------------------------------------------------------------

    def __str__(self):
        if not self._d:
            return "0"
        field = self.ring.field
        chunks = []
        for m, c in self.terms():
            cs = field.to_str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            ms = self.ring.mono_str(m)
            if m == 0:
                body = cs
            elif cs == "1":
                body = ms
            else:
                body = "%s*%s" % (cs, ms)
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "<poly %s>" % (str(self) if len(self._d) <= 8 else
                              "%d terms, deg %d" % (len(self._d), self.total_degree()))


def cast(f, target):
    """Move a polynomial to another ring by matching variable names.

    Raises KeyError when a variable of f is missing from ``target`` and
    ValueError when a monomial overflows the target's packed fields.
    """
    ring, field = f.ring, target.field
    out = {}
    for m, c in f._d.items():
        c = field.coerce(c)
        if not field.is_zero(c):
            exps = {nm: e for nm, e in zip(ring.names, ring.exponents(m)) if e}
            out[target.monomial(exps)] = c
    return Polynomial(target, out)


def specialize_pi(f, value, target):
    """f with pi set to 0 or 1, in ``target``: f's ring without its last
    variable pi, under the same order and field.

    pi's exponent is the lowest field of every layout and the degree fields
    that count it sit above it, so a monomial loses its pi by subtracting
    e * (packed pi) and shifting out one field.  At pi = 0 only the pi-free
    terms are kept; at pi = 1 every coefficient is kept and terms that meet
    are added.
    """
    ring = f.ring
    if (ring.names[-1:] != ("pi",) or target.names != ring.names[:-1]
            or target.order != ring.order or target.field != ring.field):
        raise TableMismatch("target must be the source ring without pi")
    if value not in (0, 1):
        raise ValueError("pi specializes to 0 or 1, got %r" % (value,))
    field = ring.field
    unit = ring.monomial({"pi": 1})
    mask = (1 << FIELD_BITS) - 1
    out = {}
    for m, c in f._d.items():
        e = m & mask
        if e and not value:
            continue
        key = (m - e * unit) >> FIELD_BITS
        if key in out:
            c = field.add(out[key], c)
            if field.is_zero(c):
                del out[key]
                continue
        out[key] = c
    return Polynomial(target, out)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+/\d+|\d+)|(?P<name>x\[\d+\]\[\d+\]|[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^]))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError("bad token at %r" % text[pos:pos + 12])
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append((m.group("op"), m.group("op")))
    return out


def parse_polynomial(ring, text):
    """Parse the generator grammar: terms joined by + or -, a term being
    ``coeff``, ``coeff*factors`` or ``factors``; a factor is a variable,
    ``var^e``, or a coefficient (integer or a/b)."""
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty polynomial text")
    field = ring.field
    result = {}
    pos = 0
    sign = 1
    n = len(toks)
    while pos < n:
        # leading sign of the term
        while pos < n and toks[pos][0] in ("+", "-"):
            if toks[pos][0] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise ValueError("dangling sign in %r" % (text,))
        coeff = field.coerce(sign)
        exps = {}
        need_factor = True
        while pos < n:
            kind, val = toks[pos]
            if kind in ("+", "-"):
                break
            if kind == "*":
                if need_factor:
                    raise ValueError("misplaced '*' in %r" % (text,))
                pos += 1
                need_factor = True
                continue
            if need_factor and kind == "num":
                try:
                    value = field.parse(val)
                except ZeroDivisionError:
                    raise ValueError("zero denominator in coefficient %r of %r"
                                     % (val, text)) from None
                coeff = field.mul(coeff, value)
                pos += 1
            elif need_factor and kind == "name":
                e = 1
                pos += 1
                if pos + 1 < n and toks[pos][0] == "^":
                    if toks[pos + 1][0] != "num" or "/" in toks[pos + 1][1]:
                        raise ValueError("bad exponent in %r" % (text,))
                    e = int(toks[pos + 1][1])
                    pos += 2
                exps[val] = exps.get(val, 0) + e
            else:
                raise ValueError("bad term syntax in %r" % (text,))
            need_factor = False
        if need_factor:
            raise ValueError("missing factor in %r" % (text,))
        m = ring.monomial(exps)
        acc = field.add(result.get(m, field.zero), coeff)
        if field.is_zero(acc):
            result.pop(m, None)
        else:
            result[m] = acc
        sign = 1
    return Polynomial(ring, result)
