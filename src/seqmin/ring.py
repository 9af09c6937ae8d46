"""Coefficient domains: GF(2), GF(p), arbitrary-precision integers and GF(p)[y].

Every domain is a commutative unital integral domain with exact arithmetic.
Values are plain Python objects (ints for gf2/gfp/int, coefficient tuples
for gfp_poly); the domain object carries the operations.  Mismatched-domain
errors are raised wherever two domain-carrying containers meet (polynomials,
sequences), since bare values do not know their domain.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Invalid domain construction or an operation outside a domain's contract."""


class DomainMismatchError(DomainError):
    """Two operands belong to different domains."""


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


class Domain:
    """Abstract coefficient domain."""

    kind: str = ""
    is_field: bool = False
    is_factorial: bool = True

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise DomainError("%s is not a field; no inverses" % self.kind)

    def pow(self, a, k: int):
        if k < 0:
            raise DomainError("negative exponent")
        r = self.one
        for _ in range(k):
            r = self.mul(r, a)
        return r

    def is_zero(self, a) -> bool:
        return a == self.zero

    def coerce(self, x):
        """Bring x into canonical form, raising DomainError if impossible."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def descriptor(self) -> str:
        return self.kind

    def __repr__(self):
        return "Domain(%s)" % self.descriptor()

    def __eq__(self, other):
        return isinstance(other, Domain) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())


class GFp(Domain):
    """Prime field GF(p), canonical representatives in [0, p-1]."""

    is_field = True
    is_factorial = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError("modulus %r is not prime" % (p,))
        if p >= 2**31:
            raise DomainError("modulus too large (p < 2^31 required)")
        self.p = p
        self.kind = "gfp"
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

    def pow(self, a, k):
        if k < 0:
            raise DomainError("negative exponent")
        return pow(a, k, self.p)

    def coerce(self, x):
        if not isinstance(x, int):
            raise DomainError("cannot coerce %r into GF(%d)" % (x, self.p))
        return x % self.p

    def parse(self, text):
        """An integer, reduced mod p (the map Z -> GF(p)): -1 reads as p - 1."""
        return int(text) % self.p

    def format(self, a):
        return str(a)

    def descriptor(self):
        return "gfp:%d" % self.p


class GF2(GFp):
    """GF(2), a common enough special case to get its own descriptor tag."""

    def __init__(self):
        super().__init__(2)
        self.kind = "gf2"

    def descriptor(self):
        return "gf2"


class IntegerRing(Domain):
    """Arbitrary-precision integers; a factorial (and principal ideal) domain."""

    kind = "int"
    is_field = False
    is_factorial = True
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

    def pow(self, a, k):
        if k < 0:
            raise DomainError("negative exponent")
        return a**k

    def coerce(self, x):
        if not isinstance(x, int):
            raise DomainError("cannot coerce %r into the integers" % (x,))
        return x

    def parse(self, text):
        return int(text)

    def format(self, a):
        return str(a)


class GFpPolyRing(Domain):
    """Univariate polynomials over GF(p) in a variable y, as a coefficient domain.

    Values are tuples of ints in [0, p-1], ascending in y, with no trailing
    zeros; the zero polynomial is the empty tuple.  A principal ideal domain,
    so the Bezout machinery applies to (GF(p)[y])[x], i.e. bivariate inputs.
    """

    is_field = False
    is_factorial = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError("modulus %r is not prime" % (p,))
        if p >= 2**31:
            raise DomainError("modulus too large (p < 2^31 required)")
        self.p = p
        self.kind = "gfp_poly"
        self.zero = ()
        self.one = (1,)

    @staticmethod
    def _trim(cs):
        i = len(cs)
        while i > 0 and cs[i - 1] == 0:
            i -= 1
        return tuple(cs[:i])

    def add(self, a, b):
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return self._trim(out)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return tuple((-c) % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] = (out[i + j] + c * d) % self.p
        return self._trim(out)

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

        Each integer coefficient is reduced mod p, as in GFp.parse.
        """
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        if not text:
            return ()
        return self.coerce([int(t) for t in text.split(",")])

    def format(self, a):
        if not a:
            return "(0)"
        return "(" + ",".join(str(c) for c in a) + ")"

    def descriptor(self):
        return "gfp_poly:%d" % self.p


def domain_from_string(text: str) -> Domain:
    """Parse a descriptor string: gf2 | gfp:<p> | int | gfp_poly:<p>."""
    text = text.strip()
    if text == "gf2":
        return GF2()
    if text == "int":
        return IntegerRing()
    if text.startswith("gfp:"):
        return GFp(int(text[4:]))
    if text.startswith("gfp_poly:"):
        return GFpPolyRing(int(text[9:]))
    raise DomainError("unknown ring descriptor %r" % text)


def check_same_domain(d1: Domain, d2: Domain) -> None:
    if d1 != d2:
        raise DomainMismatchError("domain mismatch: %s vs %s" % (d1.descriptor(), d2.descriptor()))
