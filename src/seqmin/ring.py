"""Coefficient domains: GF(2), GF(p), arbitrary-precision integers and GF(p)[y].

Every domain is a commutative unital integral domain with exact arithmetic.
Values are plain Python objects (ints for gf2/gfp/int, coefficient tuples
for gfp_poly); the domain object carries the operations.  Mismatched-domain
errors are raised wherever two domain-carrying containers meet (polynomials,
sequences), since bare values do not know their domain.

Each domain is arithmetic, the content split (`Domain.split_content`) and
three list kernels.  `Domain.inner` is the sum of f * g over pairs of
coefficient lists, as many coefficients as its longest product: one pair
is a whole product (`poly.mul`), two pairs expand an identity
(`lfsr.verify_identity`, which also takes the contents out and compares
the sum with the constant).  Its generic schoolbook loop, one `mul` per
pair of nonzero coefficients, is the reference the others are tested
against: the integers run it on ints with no method call per product,
GF(p) forms the sum as one packed sum of products, `inner_mod`, and
GF(p)[y] flattens it with x = y^D into one `inner` of its base field GF(p).

The engine's two scalar kernels are `Domain.dot`, a sum of products such as
a discrepancy, and `Domain.axpy`, a * x^e * f + b * x^e2 * g, the update,
which `lfsr.mr_step` calls on its bare coefficient lists and
`poly.add_scaled` on a Poly's.  GF(2) and GF(p) run the generic loops, one
`mul` per product; the integers run loops on plain ints with no method
call per coefficient, and GF(p)[y] forms the discrepancy as one `inner` of
its base field and the update as one `inner` of its own.  So over the
integers and GF(p)[y] a `count_mults` pass (`lfsr.run`) counts no product
of a discrepancy or an update.

`int_text` writes an int in decimal in subquadratic time, for
`IntegerRing.format` and the integers' JSON answers, and `scaled_texts` the
coefficients c * m of a content c over a list, for `poly.coeff_texts`.
"""

from __future__ import annotations

import array
import operator
import sys
from itertools import zip_longest
from math import gcd


class DomainError(ValueError):
    """Invalid domain construction or an operation outside a domain's contract."""


class DomainMismatchError(DomainError):
    """Two operands belong to different domains."""


def parse_int(text: str) -> int:
    """An optional sign and ASCII digits, blanks around them allowed.

    int() also reads digit-group underscores and non-ASCII digits, so '1_0'
    would read as 10; such text is refused with int()'s own message.
    """
    if "_" in text or not text.isascii():
        raise ValueError("invalid literal for int() with base 10: %r" % text)
    return int(text)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# inner_mod's crossover for a single pair: it packs once (len(fs) - 1) *
# (len(gs) - 1) reaches this, and below it a schoolbook loop on ints beats
# packing, unpacking and one big-integer multiplication.  Both ways end in
# one pass reducing each output coefficient, so a one-coefficient factor (a
# scaling) gains little from packing and stays schoolbook at any length.
# Measured on CPython 3.11 (best of 15 x 1000 calls, GF(2) / GF(3) / GF(7),
# schoolbook against packed us): 5 x 5 is faster schoolbook, 6 x 6 (25)
# packs (5.7/5.4, 3.6/3.0, 3.5/3.1), 2 x 24 (23) breaks even, 2 x 32 packs
# (7.9/7.4, 7.6/6.9, 8.1/7.3); 1 x 64 is faster schoolbook (5.7/6.4,
# 9.8/9.9, 5.5/6.2), 1 x 128 breaks even and 1 x 256 packs 8-20 % faster
# (20.7/19.2, 19.0/17.1, 25.0/20.5).
PACK_CROSSOVER = 25

# array typecode for each slot size in bytes that a C integer type has, in
# ascending size.  Slots of these sizes pack and unpack as arrays in C; the
# byte-by-byte loop that every wider slot needs is 3-4.5x slower on the same
# products (CPython 3.11, best of 7): all of the packed products in one
# round of the benchmark's gf2-mr take 3.0 ms as arrays and 13.7 ms byte by
# byte, gfp-mr 1.9 and 7.5 ms, ring-growth (GF(3)[y]) 17.2 and 59.7 ms.
_SLOT_CODES = {array.array(c).itemsize: c for c in "BHILQ"}

# i % p for each byte i (0, 1, ..., p-1 repeated), for every p whose slots
# can be one byte wide: such a slot must hold (p-1)^2 <= 255, so p < 17.
# One bytes.translate reduces a whole sum of byte slots in C, where a % p
# per coefficient runs in the interpreter.
_BYTE_MOD = {p: bytes(range(p)) * (256 // p) + bytes(range(256 % p)) for p in (2, 3, 5, 7, 11, 13)}


def inner_mod(pairs, p: int) -> list:
    """The sum of f * g over the (fs, gs) in pairs, reduced mod p.

    pairs is a nonempty list or tuple and every fs and gs a nonempty GF(p)
    coefficient list (ints in [0, p-1], ascending).  The result has the
    largest len(fs) + len(gs) - 1 coefficients and is not trimmed.  A single
    pair below PACK_CROSSOVER runs the integers' loop, `IntegerRing.inner`,
    and one % p per output coefficient.  Otherwise Kronecker substitution
    (Harvey, JSC 2009): each factor packs into one int, one slot per
    coefficient, each slot wide enough for a coefficient of the unreduced
    sum -- at most (p-1)^2 times the sum of min(len fs, len gs) over the
    pairs -- rounded up to whole bytes.  One big-integer product per pair
    forms every coefficient of that pair at once, the products are added
    as ints, and the sum is unpacked and reduced once.
    """
    if len(pairs) == 1:
        fs, gs = pairs[0]
        if (len(fs) - 1) * (len(gs) - 1) < PACK_CROSSOVER:
            return [c % p for c in IntegerRing.inner(pairs)]
    n = max(len(fs) + len(gs) for fs, gs in pairs) - 1
    bound = (p - 1) ** 2 * sum(min(len(fs), len(gs)) for fs, gs in pairs)
    width = (bound.bit_length() + 7) // 8
    size = next((s for s in _SLOT_CODES if s >= width), None)
    if size is None:
        total = sum(_pack_wide(fs, width) * _pack_wide(gs, width) for fs, gs in pairs)
        v = total.to_bytes(width * n, "little")
        return [int.from_bytes(v[k:k + width], "little") % p for k in range(0, width * n, width)]
    # slots that are C integers: pack and unpack them as arrays
    code, order = _SLOT_CODES[size], sys.byteorder
    total = 0
    for fs, gs in pairs:
        total += (int.from_bytes(array.array(code, fs).tobytes(), order)
                  * int.from_bytes(array.array(code, gs).tobytes(), order))
    v = total.to_bytes(size * n, order)
    if size == 1:
        return list(v.translate(_BYTE_MOD[p]))
    return [c % p for c in array.array(code, v)]


def _pack_wide(cs, width: int) -> int:
    """cs packed into one int, width bytes per slot: the byte-by-byte path."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")


# int_text's crossover: an int of more than this many bits converts faster
# through `decimal` than by str().  Measured on CPython 3.11 (best of 5, str
# against decimal in ms): 16k bits 0.42/0.46, 32k 1.7/1.8, 36k 2.1/2.1, 40k
# 2.7/2.3, 64k 6.9/4.2, 10^5 16.8/8.1, 10^6 1640/145.  Leaves of at most
# _LEAF_BITS bits are converted by Decimal(int) itself; leaves of 512 to
# 8192 bits ran within 10 % of each other from 40k to 10^6 bits.
DECIMAL_BITS = 36_000
_LEAF_BITS = 2048

# `decimal`'s exact context and the powers 2^(2^k) as Decimals, made at the
# first long int and kept, so that no conversion squares its way up to
# them again: constants, one per k, and k stays below 24 for any int that
# MAX_CONTENT_BITS lets a content reach
_ctx = None
_powers = {}


def int_text(n: int) -> str:
    """str(n), in subquadratic time for a long n.

    CPython before 3.12 converts an int to text in time quadratic in its
    length, and the integers' answers reach millions of bits.  An int of
    more than DECIMAL_BITS bits is written from its exact Decimal
    (`_to_decimal`), whose text is read off in linear time; so is one that
    str() refuses, past sys.get_int_max_str_digits().
    """
    if n.bit_length() <= DECIMAL_BITS:
        try:
            return str(n)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return str(_to_decimal(n))


def scaled_texts(c, ms) -> list:
    """[int_text(c * m) for m in ms], c an int or a `Product`, converted once if long.

    c is taken as it is held: a Product past DECIMAL_BITS converts through
    its own `Product.decimal`, once however many lists it scales, and each
    c * m is one short product of that Decimal by m.
    """
    v = formed(c)
    if v.bit_length() <= DECIMAL_BITS:
        return [int_text(v * m) for m in ms]
    d = c.decimal() if type(c) is Product else _to_decimal(v)
    # a zero m is written apart: the product of a negative d and 0 reads -0
    return [str(_ctx.multiply(d, m)) if m else "0" for m in ms]


def _to_decimal(n: int):
    """n as an exact Decimal, by divide and conquer (the scheme of CPython 3.12's
    _pylong): split at 2^h, with h the largest power of two below its bit
    length, convert both halves, and join them with one product by 2^h as
    a Decimal, which `decimal` multiplies in subquadratic time.  `decimal`
    is imported here, at the first long int."""
    global _ctx
    if _ctx is None:
        import decimal

        _ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                               traps=[decimal.Inexact])
    d = _split(abs(n))
    return _ctx.minus(d) if n < 0 else d


def _split(n: int):
    w = n.bit_length()
    if w <= _LEAF_BITS:
        return _ctx.create_decimal(n)
    k = (w - 1).bit_length() - 1
    hi = n >> (1 << k)
    lo = n - (hi << (1 << k))
    return _ctx.add(_split(lo), _ctx.multiply(_split(hi), _power(k)))


def _power(k: int):
    """2^(2^k) as a Decimal."""
    d = _powers.get(k)
    if d is None:
        if 1 << k <= _LEAF_BITS:
            d = _ctx.create_decimal(1 << (1 << k))
        else:
            half = _power(k - 1)
            d = _ctx.multiply(half, half)
        _powers[k] = d
    return d


# The largest bound, in bits, for which Product.value forms a product.  The
# engine's integer contents grow doubly exponentially with the length, so a
# few terms past this limit their products alone would take minutes: one
# product of two 2^23-bit ints takes 3.3 s, and writing a 2^23-bit int in
# decimal 1.4 s (CPython 3.11).  The 30-term integer answers of the CI step
# are bounded by 1.3 M bits (c) and 1.8 M bits (nabla), below 2^21.
MAX_CONTENT_BITS = 1 << 24


class Product:
    """The product a * b * g of integer factors, formed when first read and at most once.

    a and b are ints or other Products and g is an int, so a chain of them
    is a power product that costs O(1) to extend: the engine's contents over
    the integers, c <- c * c' * g, are these.  `bits` is an upper bound on
    the value's bit length, the sum of the factors' bounds.  `value()` forms
    every factor not yet formed, each once, and refuses a bound above
    MAX_CONTENT_BITS with a DomainError that names both sizes.  `decimal()`
    is the value as an exact Decimal, converted when first read and at most
    once, for the writers of a long content (`scaled_texts`).
    """

    __slots__ = ("a", "b", "g", "bits", "_value", "_decimal")

    def __init__(self, a, b, g):
        self.a, self.b, self.g, self._value, self._decimal = a, b, g, None, None
        self.bits = ((a.bits if type(a) is Product else a.bit_length())
                     + (b.bits if type(b) is Product else b.bit_length()) + g.bit_length())

    def value(self) -> int:
        if self._value is None:
            if self.bits > MAX_CONTENT_BITS:
                raise DomainError("an integer of up to %d bits is past the limit of %d bits"
                                  " (ring.MAX_CONTENT_BITS)" % (self.bits, MAX_CONTENT_BITS))
            # the chain of first factors not yet formed, formed oldest first:
            # the engine's c' is an earlier c on that chain, so it is formed
            # by then, and any other factor is formed by its own value()
            chain, node = [], self
            while type(node) is Product and node._value is None:
                chain.append(node)
                node = node.a
            for node in reversed(chain):
                a, b = node.a, node.b
                if type(b) is Product:
                    b = b._value if b._value is not None else b.value()
                node._value = (a._value if type(a) is Product else a) * b * node.g
        return self._value

    def decimal(self):
        if self._decimal is None:
            self._decimal = _to_decimal(self.value())
        return self._decimal


def formed(x):
    """The value of x: x.value() for a Product, x itself otherwise."""
    return x.value() if type(x) is Product else x


class Domain:
    """Abstract coefficient domain."""

    is_field: bool = False

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise DomainError("%s is not a field; no inverses" % self.descriptor())

    def dot(self, cs, ts):
        """sum c_k * t_k over zip(cs, ts), skipping zero factors.

        The engine's discrepancy kernel (`lfsr.mr_step`).  This generic loop,
        one `mul` per pair of nonzero factors, is what GF(2) and GF(p) run,
        and the reference the integers' int loop and GFpPolyRing's packed
        sum are tested against.
        """
        acc = self.zero
        for c, t in zip(cs, ts):
            if not self.is_zero(c) and not self.is_zero(t):
                acc = self.add(acc, self.mul(c, t))
        return acc

    def axpy(self, a, e: int, fs, b, e2: int, gs) -> list:
        """a * x^e * f + b * x^e2 * g as a trimmed coefficient list.

        The engine's update kernel (`lfsr.mr_step`, `poly.add_scaled`).  a,
        b and every coefficient of fs and gs are canonical; each output
        coefficient comes out of `mul` and `add` on canonical values, so it
        is canonical already and the list is only trimmed.  This generic
        loop is what GF(2) and GF(p) run, and the reference the integers'
        int loop and GFpPolyRing's packed sum are tested against.
        """
        n = max(len(fs) + e, len(gs) + e2)
        out = [self.zero] * n
        if not self.is_zero(a):
            for k, c in enumerate(fs):
                if not self.is_zero(c):
                    out[k + e] = self.mul(a, c)
        if not self.is_zero(b):
            for k, c in enumerate(gs):
                if not self.is_zero(c):
                    out[k + e2] = self.add(out[k + e2], self.mul(b, c))
        while out and self.is_zero(out[-1]):
            out.pop()
        return out

    def inner(self, pairs) -> list:
        """The sum of f * g over the (fs, gs) in pairs, as a coefficient list.

        pairs is not empty and every fs and gs is a nonempty canonical
        coefficient list (ascending).  The result has the largest len(fs) +
        len(gs) - 1 coefficients and is not trimmed.  This generic
        schoolbook loop, one `mul` per pair of nonzero coefficients, is the
        reference that the int loop of IntegerRing and the packed sums of
        GFp and GFpPolyRing are tested against.
        """
        out = [self.zero] * (max(len(fs) + len(gs) for fs, gs in pairs) - 1)
        for fs, gs in pairs:
            for i, c in enumerate(fs):
                if not self.is_zero(c):
                    for k, d in enumerate(gs, i):
                        if not self.is_zero(d):
                            out[k] = self.add(out[k], self.mul(c, d))
        return out

    def split_content(self, cs):
        """(c, cs / c): a common factor c of the coefficients cs, and the quotients.

        The engine carries its realisation as c times the quotients, so that
        its arithmetic runs on them, and `lfsr.verify_identity` splits the
        factors of an identity that carry no record of their content, and
        then their pairs' products of contents for the common content M, so
        that it expands the quotients.  The default keeps every list whole,
        (one, cs): in a field every nonzero scalar is a unit, and GF(p)[y]
        keeps its lists whole too, because a y-gcd after every update made
        the engine slower up to n = 12.  The integers take the gcd.
        """
        return self.one, cs

    def is_zero(self, a) -> bool:
        return a == self.zero

    def coerce(self, x):
        """Bring x into canonical form, raising DomainError if impossible."""
        raise NotImplementedError

    def parse(self, text: str):
        """An integer, coerced: GF(p) reduces it mod p, so -1 reads as p - 1."""
        return self.coerce(parse_int(text))

    def format(self, a) -> str:
        return str(a)

    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return "Domain(%s)" % self.descriptor()

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Domain) and self.descriptor() == other.descriptor()
        )

    def __hash__(self):
        return hash(self.descriptor())


class GFp(Domain):
    """Prime field GF(p), canonical representatives in [0, p-1]."""

    is_field = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError("modulus %r is not prime" % (p,))
        if p >= 2**31:
            raise DomainError("modulus too large (p < 2^31 required)")
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DomainError("zero is not invertible")
        return pow(a, self.p - 2, self.p)

    def inner(self, pairs):
        """`inner_mod`: one packed sum reduced mod p (schoolbook for one small pair)."""
        return inner_mod(pairs, self.p)

    def coerce(self, x):
        if not isinstance(x, int):
            raise DomainError("cannot coerce %r into GF(%d)" % (x, self.p))
        return x % self.p

    def descriptor(self):
        return "gfp:%d" % self.p


class GF2(GFp):
    """GF(2), a common enough special case to get its own descriptor tag."""

    def __init__(self):
        super().__init__(2)

    def descriptor(self):
        return "gf2"


class IntegerRing(Domain):
    """Arbitrary-precision integers; a factorial (and principal ideal) domain."""

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def dot(self, cs, ts):
        """sum c_k * t_k as one `sum` of int products: no method call per product."""
        return sum(map(operator.mul, cs, ts))

    def axpy(self, a, e, fs, b, e2, gs):
        """a * x^e * f + b * x^e2 * g on ints, trimmed: no method call per coefficient.

        One comprehension over both factors, each behind its shift's zeros
        and the shorter one padded with zeros.
        """
        out = [a * x + b * y
               for x, y in zip_longest([*[0] * e, *fs], [*[0] * e2, *gs], fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return out

    def split_content(self, cs):
        """(g, [c // g for c in cs]) with g > 0 the gcd of cs, one `math.gcd` call.

        A gcd of 1 returns cs whole with content 1; so does a list of zeros.
        """
        g = gcd(*cs)
        if g <= 1:
            return 1, cs
        return g, [c // g for c in cs]

    @staticmethod
    def inner(pairs):
        """The schoolbook loop on ints, out[k] += c * d; `inner_mod` runs it too."""
        out = [0] * (max(len(fs) + len(gs) for fs, gs in pairs) - 1)
        for fs, gs in pairs:
            for i, c in enumerate(fs):
                if c:
                    for k, d in enumerate(gs, i):
                        out[k] += c * d
        return out

    def coerce(self, x):
        if not isinstance(x, int):
            raise DomainError("cannot coerce %r into the integers" % (x,))
        return x

    def format(self, a):
        """str(a), in subquadratic time for a long a (`int_text`)."""
        return int_text(a)

    def descriptor(self):
        return "int"


class GFpPolyRing(Domain):
    """Univariate polynomials over GF(p) in a variable y, as a coefficient domain.

    Values are tuples of ints in [0, p-1], ascending in y, with no trailing
    zeros; the zero polynomial is the empty tuple.  A principal ideal domain,
    so the Bezout machinery applies to (GF(p)[y])[x], i.e. bivariate inputs.
    `base` is GF(p), whose list kernel runs every product of y-polynomials.
    """

    def __init__(self, p: int):
        self.base = GFp(p)
        self.p = p
        self.zero = ()
        self.one = (1,)

    @staticmethod
    def _trim(cs):
        i = len(cs)
        while i > 0 and cs[i - 1] == 0:
            i -= 1
        return tuple(cs[:i])

    def add(self, a, b):
        return self._trim([(x + y) % self.p for x, y in zip_longest(a, b, fillvalue=0)])

    def neg(self, a):
        return tuple((-c) % self.p for c in a)

    def mul(self, a, b):
        """The base field's product of the y-coefficient lists, one `GFp.inner`.

        The engine's nabla products call this; its discrepancies and updates
        are packed sums (`dot`, `axpy`) that do not.  The product of two
        canonical values is canonical: lead(a) * lead(b) != 0 mod p.
        """
        if not a or not b:
            return ()
        return tuple(self.base.inner(((a, b),)))

    def dot(self, cs, ts):
        """sum c_k * t_k as one `GFp.inner` over the pairs of nonzero factors.

        Each product of y-polynomials is one pair of the packed sum, which
        adds them as ints and reduces each y-coefficient once, in place of
        a `mul` and an `add` per term.
        """
        pairs = [(c, t) for c, t in zip(cs, ts) if c and t]
        if not pairs:
            return ()
        return self._trim(self.base.inner(pairs))

    def axpy(self, a, e, fs, b, e2, gs):
        """a * x^e * f + b * x^e2 * g as one `inner`, trimmed.

        Each scalar goes in as the x-constant (a,), its factor shifted to
        x^e * f, so the update is the sum of the two products and a scalar
        packs as itself.  The packed products are not `mul` calls, so a
        `count_mults` pass counts none for the update.
        """
        pairs = [((s,), ((),) * k + tuple(hs)) for s, k, hs in ((a, e, fs), (b, e2, gs))
                 if s and hs]
        if not pairs:
            return []
        out = self.inner(pairs)
        while out and not out[-1]:
            out.pop()
        return out

    def inner(self, pairs):
        """The sum of f * g over x-polynomials, as one `inner` of the base field.

        Substituting x = y^D, with D above every product's y-degree, turns
        each factor into one GF(p) coefficient list, each x-coefficient but
        the last padded to D y-coefficients, so no two y-coefficients of the
        sum share a slot: x-coefficient k of the sum is the k-th D-slot
        chunk, trimmed; the top x-coefficient fills at least one slot of the
        last chunk, so there are as many chunks as x-coefficients.  A chunk
        whose top slot is nonzero needs no trim, and most chunks of a true
        identity are zero, which `any` finds without a trim.
        """
        D = max(max(map(len, fs)) + max(map(len, gs)) for fs, gs in pairs) - 1
        total = self.base.inner([(self._flatten(fs, D), self._flatten(gs, D)) for fs, gs in pairs])
        out = []
        for i in range(0, len(total), D):
            c = total[i:i + D]
            out.append(tuple(c) if c and c[-1] else self._trim(c) if any(c) else ())
        return out

    @staticmethod
    def _flatten(cs, D):
        """cs with x = y^D as one GF(p) list: each x-coefficient but the last
        padded to D y-coefficients.  A lone x-coefficient comes back as it is."""
        if len(cs) == 1:
            return cs[0]
        flat, pad = [], (0,) * D
        for c in cs[:-1]:
            flat += c
            flat += pad[len(c):]
        flat += cs[-1]
        return flat

    def coerce(self, x):
        if isinstance(x, int):
            return self._trim([x % self.p])
        if isinstance(x, (tuple, list)):
            if not all(isinstance(c, int) for c in x):
                raise DomainError("bad coefficient in %r" % (x,))
            return self._trim([c % self.p for c in x])
        raise DomainError("cannot coerce %r into GF(%d)[y]" % (x, self.p))

    def parse(self, text):
        """Ascending y-coefficients, optionally in parentheses: '(1,0,2)'.

        Each integer coefficient is reduced mod p, as GF(p) parses it.
        """
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        if not text:
            return ()
        return self.coerce([parse_int(t) for t in text.split(",")])

    def format(self, a):
        if not a:
            return "(0)"
        return "(" + ",".join(str(c) for c in a) + ")"

    def descriptor(self):
        return "gfp_poly:%d" % self.p


def domain_from_string(text: str) -> Domain:
    """Parse a descriptor string: gf2 | gfp:<p> | int | gfp_poly:<p>; gfp:2 is gf2."""
    text = text.strip()
    if text == "gf2":
        return GF2()
    if text == "int":
        return IntegerRing()
    if text.startswith("gfp:"):
        p = parse_int(text[4:])
        return GF2() if p == 2 else GFp(p)
    if text.startswith("gfp_poly:"):
        return GFpPolyRing(parse_int(text[9:]))
    raise DomainError("unknown ring descriptor %r" % text)


def check_same_domain(d1: Domain, d2: Domain) -> None:
    if d1 != d2:
        raise DomainMismatchError("domain mismatch: %s vs %s" % (d1.descriptor(), d2.descriptor()))
