"""Independent reference implementations for cross-checks.

The library modules never import this one; the test suite and the CLI's
``--oracle`` flags do, to check the engine's answers.  The brute-force
annihilator search enumerates polynomials by ascending degree and checks
the defining windows directly; the extended Euclidean routine is the
classical division-based algorithm over a field.
"""

from __future__ import annotations

import operator
from itertools import product

from .poly import Poly, divmod_field
from .ring import DomainError, GFp
from .sequence import SequenceView

# a search over n terms tries p^(n+1) - 1 candidates (p^d tails times p - 1
# leads at each degree d <= n); p^(n+1) <= 3^9 bounds that count, and
# p^n <= 3^8 also keeps GF(2) at n <= 12
_BUDGET = 3**8


def brute_min_annihilator(s: SequenceView, require_nonzero_constant: bool = False):
    """Smallest-degree annihilator set of a sequence over GF(p).

    Returns (degree, polys, any_nonzero_constant_term) where polys is the
    set of all annihilators of minimal degree d (each with nonzero lead),
    found by enumerating every coefficient vector of each degree in turn.
    With the flag set, the search is restricted to candidates with a
    nonzero constant term.  Each window sum is taken on plain ints mod p,
    so the search shares no arithmetic with the library.
    """
    dom = s.dom
    if not isinstance(dom, GFp):
        raise DomainError("brute-force search only supports prime fields")
    p = dom.p
    n = len(s)
    if p**n > _BUDGET or p ** (n + 1) > 3 * _BUDGET:
        raise DomainError("sequence too long for brute force over GF(%d): it "
                          "needs p^n <= 3^8 and p^(n+1) <= 3^9, and n = %d" % (p, n))
    if s.is_zero():
        return 0, {Poly.constant(dom, c) for c in range(1, p)}, True
    for d in range(n + 1):
        # the windows (s_{j-d}, ..., s_j) for d < j <= n, latest first; d = n
        # has none, so everything of degree n annihilates vacuously
        windows = [s.terms[j - d - 1 : j] for j in range(n, d, -1)]
        found = set()
        for tail in product(range(p), repeat=d):
            if require_nonzero_constant and d > 0 and tail[0] == 0:
                continue
            for lead in range(1, p):
                coeffs = tail + (lead,)
                for w in windows:
                    if sum(map(operator.mul, coeffs, w)) % p:
                        break
                else:
                    found.add(Poly(dom, coeffs))
        if found:
            return d, found, any(f.coeff(0) != 0 for f in found)
    raise AssertionError("unreachable")


def ext_euclid(u: Poly, u2: Poly):
    """Classical extended gcd over a field: (g, a, b) with a*u + b*u2 = g monic.

    Conventions: gcd(u, 0) = monic u with (lead(u)^-1, 0); when the inputs
    are equal the first argument wins the same way.
    """
    dom = u.dom
    if not dom.is_field:
        raise DomainError("extended gcd requires a field")
    if u.is_zero() and u2.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    if u2.is_zero() or u == u2:
        c = dom.inv(u.lead())
        return u.scale(c), Poly.constant(dom, c), Poly.zero(dom)
    if u.is_zero():
        c = dom.inv(u2.lead())
        return u2.scale(c), Poly.zero(dom), Poly.constant(dom, c)
    r0, r1 = u, u2
    a0, a1 = Poly.one(dom), Poly.zero(dom)
    b0, b1 = Poly.zero(dom), Poly.one(dom)
    while not r1.is_zero():
        q, r = divmod_field(r0, r1)
        r0, r1 = r1, r
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    c = dom.inv(r0.lead())
    return r0.scale(c), a0.scale(c), b0.scale(c)
