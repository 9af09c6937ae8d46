"""Dense univariate polynomials over a domain, ascending coefficients.

Arithmetic runs on the domain's kernels: `add_scaled` (a * x^e * f + b *
x^e2 * g, the update of pseudo-division, of the PLCP recursion and of
`lfsr.next_identity`) on `Domain.axpy`, which the engine calls on its bare
coefficient lists, and `mul` on `Domain.inner` of the one pair of
coefficient lists; the discrepancies of the sequence-facing helpers are
`Domain.dot` sums.
`ScaledPoly` is a polynomial that records its content, c * base, as the
engine's integer views do.  Also provides the Laurent-side helpers the
sequence machinery needs: reciprocal, x-adic valuation, the polynomial part
of f * (s_1 x^-1 + ...), the prefix of the series u2/u, and pseudo-division.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest

from .ring import Domain, DomainError, IntegerRing, check_same_domain, formed, scaled_texts
from .sequence import SequenceView, parse_sequence


class Poly:
    """Canonical dense polynomial: empty coeffs = 0, otherwise lead != 0."""

    __slots__ = ("dom", "coeffs")

    def __init__(self, dom: Domain, coeffs=(), _canonical=False):
        object.__setattr__(self, "dom", dom)
        if _canonical:
            object.__setattr__(self, "coeffs", tuple(coeffs))
            return
        cs = [dom.coerce(c) for c in coeffs]
        while cs and dom.is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dom):
        return cls(dom, (), _canonical=True)

    @classmethod
    def one(cls, dom):
        return cls(dom, (dom.one,), _canonical=True)

    @classmethod
    def constant(cls, dom, c):
        return cls(dom, (c,))

    # -- basics -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.dom.zero

    def lead(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeff(0)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.dom.one

    def x_valuation(self) -> int:
        """Largest k with x^k | f; rejects the zero polynomial."""
        if not self.coeffs:
            raise DomainError("x-adic valuation of 0 is undefined")
        for k, c in enumerate(self.coeffs):
            if not self.dom.is_zero(c):
                return k
        raise AssertionError("non-canonical polynomial")

    def reciprocal(self) -> "Poly":
        """x^deg(f) * f(1/x); the reciprocal of 0 is 0."""
        return Poly(self.dom, self.coeffs[::-1])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return self._termwise(self.dom.add, other)

    def __sub__(self, other):
        return self._termwise(self.dom.sub, other)

    def _termwise(self, op, other) -> "Poly":
        """op(f_k, g_k) for every k, trimmed; op maps canonical values to one."""
        check_same_domain(self.dom, other.dom)
        dom = self.dom
        cs = [op(c, d) for c, d in zip_longest(self.coeffs, other.coeffs, fillvalue=dom.zero)]
        while cs and dom.is_zero(cs[-1]):
            cs.pop()
        return Poly(dom, cs, _canonical=True)

    def __neg__(self):
        return Poly(self.dom, [self.dom.neg(c) for c in self.coeffs], _canonical=True)

    def scale(self, c) -> "Poly":
        """c * self; c * a is canonical for canonical nonzero c and a."""
        dom = self.dom
        c = dom.coerce(c)
        if dom.is_zero(c):
            return Poly.zero(dom)
        return Poly(dom, [dom.mul(c, a) for a in self.coeffs], _canonical=True)

    def __mul__(self, other):
        return mul(self, other)

    def monic(self) -> "Poly":
        """Divide by the leading coefficient (fields only)."""
        return self.scale(self.dom.inv(self.lead()))

    def __eq__(self, other):
        # a view is compared with itself without forming its coefficients
        return self is other or (isinstance(other, Poly) and self.dom == other.dom
                                 and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.dom, self.coeffs))

    def __repr__(self):
        return "Poly(%s, %s)" % (self.dom.descriptor(), format_poly(self))


class ScaledPoly(Poly):
    """c * base for a canonical nonzero c, recording c and base.

    The engine's views over the integers, mu = c * mu^ and mu' = c' * mu^',
    are built as these, with c an int or a `ring.Product` formed when first
    read, so an identity check can take the content from the record instead
    of re-deriving it by gcd (`lfsr.verify_identity`), and a writer can
    write every coefficient from one conversion of c (`coeff_texts`).  The
    coefficients c * base are formed at their first read and kept; negation
    keeps the record, -f = c * (-base), and forms nothing.  Equality and
    hashing read the coefficients, as for any Poly.
    """

    __slots__ = ("c", "base")

    def __init__(self, c, base: Poly):
        object.__setattr__(self, "dom", base.dom)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "base", base)

    def __getattr__(self, name):
        # only an unset slot comes here: the coefficients, before their first read
        if name != "coeffs":
            raise AttributeError(name)
        dom, c = self.dom, formed(self.c)
        coeffs = tuple(dom.mul(c, a) for a in self.base.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    def __neg__(self):
        return ScaledPoly(self.c, -self.base)


def add_scaled(a, e: int, f: Poly, b, e2: int, g: Poly) -> Poly:
    """a * x^e * f + b * x^e2 * g, canonical (`Domain.axpy`).

    a and b must be canonical values of the domain (every caller in the
    library passes coefficients, discrepancies or their negations); they
    are not coerced here.
    """
    check_same_domain(f.dom, g.dom)
    dom = f.dom
    return Poly(dom, dom.axpy(a, e, f.coeffs, b, e2, g.coeffs), _canonical=True)


def mul(f: Poly, g: Poly) -> Poly:
    """f * g through the domain's list kernel, `Domain.inner` of the one pair.

    GF(2), GF(p) and GF(p)[y] pack each factor into one Python int and
    multiply once (`ring.packed_sum`, Kronecker substitution), so CPython's
    big-integer multiply does the work; for p < 256 the packing and the
    reduction mod p run on bytes, in C.  Small products stay schoolbook.
    The integers keep the schoolbook loop, which a signed Kronecker product
    was measured to beat from about 16-32 coefficients a pair on, 2.8-11.6x
    at 256 (two pairs of 8- to 4096-bit coefficients, best of 5).
    """
    check_same_domain(f.dom, g.dom)
    dom = f.dom
    if f.is_zero() or g.is_zero():
        return Poly.zero(dom)
    return Poly(dom, dom.inner(((f.coeffs, g.coeffs),)), _canonical=True)


def divmod_field(f: Poly, g: Poly):
    """(q, r) with f = q*g + r, deg r < deg g; requires a field and g != 0."""
    dom = f.dom
    check_same_domain(dom, g.dom)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if not dom.is_field:
        raise DomainError("polynomial division needs a field; use pseudo_divide")
    inv_lead = dom.inv(g.lead())
    r = list(f.coeffs)
    dg = g.degree()
    q = [dom.zero] * max(len(f.coeffs) - dg, 0)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = r[k + dg]
        if dom.is_zero(c):
            continue
        t = dom.mul(c, inv_lead)
        q[k] = t
        for i, gc in enumerate(g.coeffs):
            r[k + i] = dom.sub(r[k + i], dom.mul(t, gc))
    return Poly(dom, q), Poly(dom, r)


def pseudo_divide(f: Poly, g: Poly):
    """(q, r, scale) with scale*f = q*g + r and r = 0 or deg r < deg g.

    scale = lead(g)^(deg f - deg g + 1) when deg f >= deg g, else the
    trivial (0, f, 1).  Division-free, so valid over any integral domain.
    """
    dom = f.dom
    check_same_domain(dom, g.dom)
    if g.is_zero():
        raise DomainError("pseudo-division by the zero polynomial")
    if f.is_zero() or f.degree() < g.degree():
        return Poly.zero(dom), f, dom.one
    ell = g.lead()
    dg = g.degree()
    q = Poly.zero(dom)
    r = f
    scale = dom.one
    for k in range(f.degree() - dg, -1, -1):
        # t = 0 once the degree of r has dropped below dg + k; then the
        # update only multiplies q and r by ell (axpy skips a zero scalar)
        t = r.coeff(dg + k)
        q = add_scaled(ell, 0, q, t, k, Poly.one(dom))
        r = add_scaled(ell, 0, r, dom.neg(t), k, g)
        scale = dom.mul(ell, scale)
    return q, r, scale


class PairedPoly(namedtuple("PairedPoly", "f f2")):
    """A pair (f, f2) of polynomials over one domain, added component-wise."""

    __slots__ = ()

    def __new__(cls, f: Poly, f2: Poly):
        check_same_domain(f.dom, f2.dom)
        return super().__new__(cls, f, f2)

    @property
    def dom(self):
        return self.f.dom

    def tilde(self) -> "PairedPoly":
        """(f, f2) -> (-f2, f)."""
        return PairedPoly(-self.f2, self.f)

    def scale(self, c) -> "PairedPoly":
        return PairedPoly(self.f.scale(c), self.f2.scale(c))

    def __add__(self, other):
        return PairedPoly(self.f + other.f, self.f2 + other.f2)

    def __repr__(self):
        return "(%s, %s)" % (format_poly(self.f), format_poly(self.f2))


# -- sequence-facing helpers -----------------------------------------


def poly_part(f: Poly, s: SequenceView) -> Poly:
    """The polynomial summand of f * (s_1 x^-1 + ... + s_n x^-n).

    Coefficient j of the Laurent product is sum_i f_{j+i} * s_i; the
    polynomial part keeps exponents 0 .. v + deg f where v = -(index of the
    first nonzero term).  Zero for f = 0 or an all-zero sequence.
    """
    check_same_domain(f.dom, s.dom)
    dom = f.dom
    first = s.first_nonzero_index()
    if f.is_zero() or first is None:
        return Poly.zero(dom)
    top = f.degree() - first
    return Poly(dom, [dom.dot(f.coeffs[j + 1:], s.terms) for j in range(top + 1)])


def series_prefix(u2: Poly, u: Poly, m: int) -> SequenceView:
    """First m terms of the expansion u2/u = sum_{j>=1} s_j x^-j.

    Requires u monic with deg(u2) < deg(u) = d >= 1.  Uses the recurrence
    s_j = (u2)_{d-j} - sum_{i=1}^{j-1} u_{d-i} * s_{j-i}, coefficients out
    of range reading as 0, so only subtractions/multiplications in D.
    """
    check_same_domain(u2.dom, u.dom)
    dom = u.dom
    if not u.is_monic():
        raise DomainError("series expansion requires a monic denominator")
    d = u.degree()
    if d < 1:
        raise DomainError("denominator must have degree >= 1")
    if not u2.is_zero() and u2.degree() >= d:
        raise DomainError("numerator degree must be below the denominator's")
    # u_{d-1}, ..., u_0 against s_{j-1}, ..., s_1: the terms 1 <= i <= min(d, j-1)
    low = u.coeffs[-2::-1]
    terms = []
    for j in range(1, m + 1):
        terms.append(dom.sub(u2.coeff(d - j), dom.dot(low, reversed(terms))))
    return SequenceView(dom, terms)


# -- text formats -----------------------------------------------------


def parse_poly(dom: Domain, text: str) -> Poly:
    """Comma-separated ascending coefficients, e.g. '1,0,0,1' = x^3+1."""
    return Poly(dom, parse_sequence(dom, text).terms)


def coeff_texts(f: Poly) -> list:
    """The text of each coefficient of f, ascending: the one coefficient writer.

    Over the integers a ScaledPoly is written from its record c * base as
    it is held (`ring.scaled_texts`), so the coefficients are not formed and
    a long content c converts once however many polynomials it scales, and
    any other Poly as content 1.  Other domains `format` each coefficient.
    """
    dom = f.dom
    if not isinstance(dom, IntegerRing):
        return [dom.format(c) for c in f.coeffs]
    c, base = (f.c, f.base) if isinstance(f, ScaledPoly) else (1, f)
    return scaled_texts(c, base.coeffs)


def format_poly(f: Poly) -> str:
    """The parseable ascending-coefficient form."""
    return ",".join(coeff_texts(f)) or "0"


def pretty_poly(f: Poly) -> str:
    """Human-readable form like x^4 + x^2 + x (`coeff_texts`)."""
    zero, out = f.dom.format(f.dom.zero), ""
    for k, cs in reversed(list(enumerate(coeff_texts(f)))):
        if cs == zero:
            continue
        sign, cs = (" - ", cs[1:]) if cs[0] == "-" else (" + ", cs)
        if k:
            xs = "x" if k == 1 else "x^%d" % k
            cs = xs if cs == "1" else "%s*%s" % (cs, xs)
        out += sign + cs
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]
