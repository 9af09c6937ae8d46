"""Independent checks of seqmin's answers.

Nothing here imports seqmin.  Each check re-derives what an answer must
satisfy with textbook algorithms written from scratch:

* Berlekamp-Massey (Massey 1969) over GF(2) (bit-packed), GF(p), the
  rationals (``fractions.Fraction``) and GF(p)(y) gives the linear
  complexity LC and the LC profile (LC over Z equals LC over Q, and LC over
  GF(p)[y] equals LC over its fraction field);
* a polynomial product of our own (carry-less for GF(2), Kronecker
  substitution for GF(p) and GF(p)[y], schoolbook for Z) re-expands the
  identities and the window sums that say an annihilator annihilates;
* the Euclidean algorithm over GF(p) gives the gcd a Bezout ``g`` must be
  an associate of;
* the GF(2) stability criterion (s_1 = 1, s_{j+1} = s_j + s_{j/2} at even j)
  is checked against the perfect-profile answer.

Polynomials are lists of coefficients, lowest degree first, without
trailing zeros (the zero polynomial is ``[]``).  Coefficients of GF(p)[y]
are tuples in the same form.  Every check raises ``CheckFailed`` on a wrong
answer and returns ``None`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class CheckFailed(AssertionError):
    """An answer of the program does not satisfy an independent check."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


# -- coefficient domains ---------------------------------------------------


class GF2:
    """GF(2); polynomials are packed into ints for the product."""

    descriptor = "gf2"
    p = 2
    zero = 0

    def is_zero(self, c):
        return c == 0

    def mul(self, f, g):
        a, b = _pack_bits(f), _pack_bits(g)
        if a.bit_count() > b.bit_count():
            a, b = b, a
        r = 0
        while a:
            low = a & -a
            r ^= b << (low.bit_length() - 1)
            a ^= low
        return [(r >> k) & 1 for k in range(r.bit_length())]

    def add(self, f, g):
        return _unpack_bits(_pack_bits(f) ^ _pack_bits(g))

    def bm(self, s):
        return bm_gf2(s)


class GFp:
    """GF(p) with representatives 0..p-1; Kronecker product."""

    zero = 0

    def __init__(self, p):
        self.p = p
        self.descriptor = "gfp:%d" % p

    def is_zero(self, c):
        return c % self.p == 0

    def mul(self, f, g):
        if not f or not g:
            return []
        p = self.p
        width = ((p - 1) ** 2 * min(len(f), len(g))).bit_length() + 1
        prod = _kron_pack(f, width) * _kron_pack(g, width)
        return trim(c % p for c in _kron_unpack(prod, width, len(f) + len(g) - 1))

    def add(self, f, g):
        n = max(len(f), len(g))
        return trim((_at(f, k) + _at(g, k)) % self.p for k in range(n))

    def bm(self, s):
        return bm_gfp(s, self.p)


class ZZ:
    """The integers; BM runs over the rationals."""

    descriptor = "int"
    zero = 0

    def is_zero(self, c):
        return c == 0

    def mul(self, f, g):
        if not f or not g:
            return []
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return trim(out)

    def add(self, f, g):
        n = max(len(f), len(g))
        return trim(_at(f, k) + _at(g, k) for k in range(n))

    def bm(self, s):
        return bm_generic([Fraction(t) for t in s])


class GFpY:
    """GF(p)[y]: coefficients are tuples over GF(p), lowest y-degree first.

    The product packs both variables into one integer, so a coefficient
    sum never needs a carry: every slot is wide enough for the largest
    sum of products before it is reduced mod p.
    """

    zero = ()

    def __init__(self, p):
        self.p = p
        self.descriptor = "gfp_poly:%d" % p

    def is_zero(self, c):
        return not any(v % self.p for v in c)

    def mul(self, f, g):
        if not f or not g:
            return []
        p = self.p
        ylen = max(len(c) for c in list(f) + list(g)) or 1
        terms = min(len(f), len(g)) * ylen
        width = ((p - 1) ** 2 * terms).bit_length() + 1
        stride = 2 * ylen
        a = _kron_pack([_kron_pack(c, width) for c in f], width * stride)
        b = _kron_pack([_kron_pack(c, width) for c in g], width * stride)
        prod = a * b
        out = []
        for block in _kron_unpack(prod, width * stride, len(f) + len(g) - 1):
            out.append(tuple(trim(c % p for c in _kron_unpack(block, width, stride))))
        return trim(out)

    def add(self, f, g):
        n = max(len(f), len(g))
        return trim(tuple(_padd(_at(f, k, ()), _at(g, k, ()), self.p)) for k in range(n))

    def bm(self, s):
        return bm_generic([RatY.of(t, self.p) for t in s])


def domain(descriptor):
    """The reference domain for a seqmin ring descriptor."""
    if descriptor == "gf2":
        return GF2()
    if descriptor == "int":
        return ZZ()
    if descriptor.startswith("gfp:"):
        return GFp(int(descriptor[4:]))
    if descriptor.startswith("gfp_poly:"):
        return GFpY(int(descriptor[9:]))
    raise ValueError("unknown ring %r" % descriptor)


def _at(f, k, zero=0):
    return f[k] if k < len(f) else zero


def _pack_bits(f):
    r = 0
    for k, c in enumerate(f):
        if c & 1:
            r |= 1 << k
    return r


def _unpack_bits(r):
    return [(r >> k) & 1 for k in range(r.bit_length())]


def _kron_pack(cs, width):
    r = 0
    for c in reversed(cs):
        r = (r << width) | c
    return r


def _kron_unpack(r, width, count):
    mask = (1 << width) - 1
    out = []
    for _ in range(count):
        out.append(r & mask)
        r >>= width
    return out


# -- GF(p)[x] by lists, and GF(p)(y), the fraction field BM needs -----------


def _ptrim(a, p):
    return trim(c % p for c in a)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out, p)


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([_at(a, k) + _at(b, k) for k in range(n)], p)


def _pneg(a, p):
    return [(-c) % p for c in a]


def _pdivmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv % p
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                a[k + i] = (a[k + i] - c * bc) % p
    return _ptrim(q, p), _ptrim(a, p)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


class RatY:
    """An element num/den of GF(p)(y), kept reduced with a monic denominator."""

    __slots__ = ("num", "den", "p")

    def __init__(self, num, den, p):
        num, den = _ptrim(num, p), _ptrim(den, p)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _pgcd(num, den, p) if num else den
        num, den = _pdivmod(num, g, p)[0], _pdivmod(den, g, p)[0]
        inv = pow(den[-1], p - 2, p)
        self.num = [c * inv % p for c in num]
        self.den = [c * inv % p for c in den]
        self.p = p

    @classmethod
    def of(cls, coeffs, p):
        return cls(list(coeffs), [1], p)

    def __add__(self, o):
        p = self.p
        num = _padd(_pmul(self.num, o.den, p), _pmul(o.num, self.den, p), p)
        return RatY(num, _pmul(self.den, o.den, p), p)

    def __sub__(self, o):
        return self + RatY(_pneg(o.num, self.p), o.den, self.p)

    def __mul__(self, o):
        p = self.p
        return RatY(_pmul(self.num, o.num, p), _pmul(self.den, o.den, p), p)

    def __truediv__(self, o):
        if not o.num:
            raise ZeroDivisionError("division by zero in GF(p)(y)")
        p = self.p
        return RatY(_pmul(self.num, o.den, p), _pmul(self.den, o.num, p), p)

    def __bool__(self):
        return bool(self.num)


# -- Berlekamp-Massey --------------------------------------------------------
#
# Each returns (L, C, profile): the linear complexity, the connection
# polynomial C = 1 + c_1 x + ... (s_j + c_1 s_{j-1} + ... + c_L s_{j-L} = 0)
# and the complexity of every prefix.  The minimal polynomial in seqmin's
# convention is x^L C(1/x), so its constant term is c_L.


def bm_gf2(s):
    c, b, w = 1, 1, 0
    L, m = 0, 1
    profile = []
    for j, t in enumerate(s):
        w = (w << 1) | (t & 1)  # bit i of w holds s_{j-i}
        if (c & w).bit_count() & 1:
            t_poly = c
            c ^= b << m
            if 2 * L <= j:
                L, b, m = j + 1 - L, t_poly, 1
            else:
                m += 1
        else:
            m += 1
        profile.append(L)
    return L, _unpack_bits(c), profile


class MasseyGFp:
    """Berlekamp-Massey over GF(p), fed one term at a time."""

    def __init__(self, p):
        self.p = p
        self.s = []
        self.c, self.b = [1], [1]
        self.L, self.m, self.bd = 0, 1, 1

    def partial(self):
        """c_1 s_{j-1} + ... + c_L s_{j-L} for the next term s_j."""
        c, s, j = self.c, self.s, len(self.s)
        acc = 0
        for i in range(1, min(self.L, len(c) - 1) + 1):
            acc += c[i] * s[j - i]
        return acc % self.p

    def push(self, t):
        """Consume s_j = t; returns its discrepancy."""
        p = self.p
        j = len(self.s)
        d = (t + self.partial()) % p
        self.s.append(t)
        if d:
            c, b = self.c, self.b
            coef = d * pow(self.bd, p - 2, p) % p
            t_poly = list(c)
            need = len(b) + self.m
            if len(c) < need:
                c.extend([0] * (need - len(c)))
            for i, bc in enumerate(b):
                c[i + self.m] = (c[i + self.m] - coef * bc) % p
            if 2 * self.L <= j:
                self.L, self.b, self.bd, self.m = j + 1 - self.L, t_poly, d, 1
                return d
        self.m += 1
        return d


def bm_gfp(s, p):
    bm = MasseyGFp(p)
    profile = []
    for t in s:
        bm.push(t)
        profile.append(bm.L)
    return bm.L, trim(bm.c), profile


def bm_generic(s):
    """BM over a field whose elements support + - * / and bool (zero test)."""
    nonzero = [t for t in s if t]
    if not nonzero:
        return 0, [1], [0] * len(s)
    one = nonzero[0] / nonzero[0]
    zero = one - one
    c, b = [one], [one]
    L, m, bd = 0, 1, one
    profile = []
    for j in range(len(s)):
        d = s[j]
        for i in range(1, min(L, len(c) - 1) + 1):
            if c[i]:
                d = d + c[i] * s[j - i]
        if d:
            coef = d / bd
            t_poly = list(c)
            need = len(b) + m
            if len(c) < need:
                c.extend([zero] * (need - len(c)))
            for i, bc in enumerate(b):
                if bc:
                    c[i + m] = c[i + m] - coef * bc
            if 2 * L <= j:
                L, b, bd, m = j + 1 - L, t_poly, d, 1
            else:
                m += 1
        else:
            m += 1
        profile.append(L)
    return L, trim(c), profile


def bm_mu_gfp(s, p):
    """The monic minimal polynomial x^L C(1/x) from BM over GF(p)."""
    L, c, _ = bm_gf2(s) if p == 2 else bm_gfp(s, p)
    return [_at(c, L - k) for k in range(L + 1)]


# -- building blocks -------------------------------------------------------


def degree(f):
    return len(f) - 1


def annihilates(D, f, s):
    """f_0 s_{j-d} + ... + f_d s_j = 0 for d+1 <= j <= n (d = deg f).

    The window sums are the coefficients x^d .. x^(n-1) of rev(f) * S with
    S = s_1 + s_2 x + ... + s_n x^(n-1), so one product gives them all.
    """
    require(f, "annihilator is the zero polynomial")
    d = degree(f)
    prod = D.mul(list(reversed(f)), trim(s))
    return all(D.is_zero(_at(prod, k, D.zero)) for k in range(d, len(s)))


def check_inner_is_constant(D, a, b, c, d, nabla, what):
    """a*b + c*d == nabla (a nonzero constant)."""
    require(not D.is_zero(nabla), "%s: nabla is zero" % what)
    lhs = D.add(D.mul(a, b), D.mul(c, d))
    require(lhs == trim([nabla]), "%s: identity does not re-expand to nabla" % what)


def gcd_monic(f, g, p):
    """Monic gcd over GF(p) by the Euclidean algorithm."""
    f = _pgcd(_ptrim(f, p), _ptrim(g, p), p)
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def is_stable_gf2(s):
    if not s or s[0] != 1:
        return False
    return all(s[j] == (s[j - 1] + s[j // 2 - 1]) % 2 for j in range(2, len(s), 2))


def is_perfect(profile):
    return all(lc == (j + 1) // 2 for j, lc in enumerate(profile, start=1))


# -- checks of command outputs ----------------------------------------------


def check_mr(D, s, out):
    """`seqmin mr --json`: LC, profile, annihilation and both identities."""
    L, _, profile = D.bm(s)
    mu, mu2 = out["mu"], out["mu2"]
    mup, mup2 = out["mu_prime"]
    require(out["verified"] is True, "mr: program reports verified = false")
    require(degree(mu) == L, "mr: deg mu = %d, BM gives LC = %d" % (degree(mu), L))
    require(out["lc_profile"] == profile, "mr: LC profile differs from BM")
    require(annihilates(D, mu, s), "mr: mu does not annihilate s")
    check_realisation_identities(D, mu, mu2, mup, out["bez_numu"], out["bez_fg"], out["nabla"])


def check_realisation_identities(D, mu, mu2, mup, bez_numu, bez_fg, nabla):
    check_inner_is_constant(D, bez_numu[0], mu, bez_numu[1], mu2, nabla, "bez_numu.(mu, mu2)")
    check_inner_is_constant(D, bez_fg[0], mu, bez_fg[1], mup, nabla, "bez_fg.(mu, mu')")


def check_library_mr(D, s, res):
    """minimal_realisation plus verify_identity, read as plain lists."""
    require(res["verified"] == (True, True), "library: verify_identity returned false")
    L, _, _ = D.bm(s)
    mu = res["mu"]
    require(degree(mu) == L, "library: deg mu = %d, BM gives LC = %d" % (degree(mu), L))
    require(annihilates(D, mu, s), "library: mu does not annihilate s")
    check_realisation_identities(
        D, mu, res["mu2"], res["mu_prime"][0], res["bez_numu"], res["bez_fg"], res["nabla"]
    )


def check_minpoly_monic(D, s, out):
    L, _, _ = D.bm(s)
    mu = out["mu"]
    require(out["verified"] is True, "minpoly: program reports verified = false")
    require(mu and mu[-1] == 1, "minpoly: mu is not monic")
    require(degree(mu) == L, "minpoly: deg mu = %d, BM gives LC = %d" % (degree(mu), L))
    require(annihilates(D, mu, s), "minpoly: mu does not annihilate s")
    if 2 * L <= len(s):  # the minimal polynomial is unique
        require(mu == bm_mu_gfp(s, D.p), "minpoly: mu differs from the unique BM answer")


def check_bezout(D, u, u2, out):
    """f.f*u + f.f2*u2 = g, and g is an associate of gcd(u, u2)."""
    f, f2 = out["f"]
    g = out["g"]
    require(g, "bezout: g is zero")
    require(D.add(D.mul(f, u), D.mul(f2, u2)) == g, "bezout: f.(u, u2) != g")
    p = D.p
    inv = pow(g[-1], p - 2, p)
    require([c * inv % p for c in g] == gcd_monic(u, u2, p),
            "bezout: g is not an associate of gcd(u, u2)")


def check_plcp_seq(D, s, out):
    _, _, profile = D.bm(s)
    require(out["profile"] == profile, "plcp: profile differs from BM")
    require(out["is_plcp"] == is_perfect(profile), "plcp: verdict contradicts the profile")
    require(out["is_plcp"] == all(d % D.p for d in out["odd_discrepancies"]),
            "plcp: verdict contradicts the odd discrepancies")
    if D.p == 2:
        require(out["is_plcp"] == is_stable_gf2(s), "plcp: verdict contradicts stability")


@lru_cache(maxsize=None)
def exhaustive_expected(n):
    """(count of perfect-profile sequences, profile == stability for all) over GF(2)^n."""
    count, same = 0, True
    for bits in range(1 << n):
        s = [(bits >> i) & 1 for i in range(n)]
        perfect = is_perfect(bm_gf2(s)[2])
        count += perfect
        same = same and perfect == is_stable_gf2(s)
    return count, same


def check_plcp_exhaustive(n, out):
    count, same = exhaustive_expected(n)
    require(out["n"] == n, "plcp --exhaustive: wrong n")
    require(out["plcp_count"] == count, "plcp --exhaustive: count %r, enumeration gives %d"
            % (out["plcp_count"], count))
    require(out["equivalent"] is True and same, "plcp --exhaustive: equivalence not shown")


def lc_bullet_expected(D, s):
    """LC* = n + 1 - LC when mu is unique (2 LC <= n) with mu_0 = 0, else LC."""
    L, c, _ = D.bm(s)
    if 2 * L <= len(s) and D.is_zero(_at(c, L)):
        return len(s) + 1 - L
    return L


def check_annihilator(D, s, out):
    f = out["mu_bullet"][0]
    require(out["verified"] is True, "annihilator: program reports verified = false")
    require(f and not D.is_zero(f[0]), "annihilator: constant term is zero")
    expected = lc_bullet_expected(D, s)
    require(out["degree"] == expected, "annihilator: degree %d, expected %d"
            % (out["degree"], expected))
    require(degree(f) == expected, "annihilator: deg mu_bullet = %d, expected %d"
            % (degree(f), expected))
    require(annihilates(D, f, s), "annihilator: mu_bullet does not annihilate s")
    if "s_next" in out:
        ext = list(s) + [out["s_next"]]
        require(D.bm(ext)[0] == expected,
                "annihilator --extend: extended sequence has the wrong LC")
        require(annihilates(D, f, ext), "annihilator --extend: mu_bullet misses s_next")


def check_reverse_classify(D, s, out):
    L = D.bm(s)[0]
    require(out["verified"] is True, "reverse-lc: program reports verified = false")
    require(out["lc"] == L, "reverse-lc: LC %d, BM gives %d" % (out["lc"], L))
    require(len(s) == 2 * L, "reverse-lc: n != 2 LC")
    require(out["rev_lc"] == D.bm(s[::-1])[0], "reverse-lc: reversed LC differs from BM")
