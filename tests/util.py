"""Shared test helpers: exact identity checks and random generators."""

import random
from collections import namedtuple

from seqmin import ring
from seqmin.poly import PairedPoly, Poly, mul
from seqmin.ring import Domain, GFp, IntegerRing
from seqmin.sequence import SequenceView


def random_sequence(dom, n, rng, int_bound=5):
    if isinstance(dom, GFp):
        return SequenceView(dom, [rng.randrange(dom.p) for _ in range(n)])
    if isinstance(dom, IntegerRing):
        return SequenceView(
            dom, [rng.randint(-int_bound, int_bound) for _ in range(n)]
        )
    raise ValueError("unsupported domain for random sequences")


def verify_pair_identity(a: PairedPoly, b: PairedPoly, expected) -> bool:
    """Exact check a.f*b.f + a.f2*b.f2 == constant expected."""
    total = mul(a.f, b.f) + mul(a.f2, b.f2)
    return total == Poly.constant(a.dom, expected)


def schoolbook_is_constant(dom, pairs, c) -> bool:
    """Whether sum f * g over the coefficient-list pairs is the constant c.

    Expanded by the generic schoolbook loop `Domain.inner`, whatever dom's
    own kernel, and compared with c after trimming.
    """
    pairs = [(fs, gs) for fs, gs in pairs if fs and gs]
    if not pairs:
        return dom.is_zero(c)
    total = Domain.inner(dom, pairs)
    while total and dom.is_zero(total[-1]):
        total.pop()
    return total == ([] if dom.is_zero(c) else [c])


def count_conversions(monkeypatch) -> list:
    """The ints converted to a Decimal from now on, in order: `ring._to_decimal`
    patched, for the test, to record each argument."""
    converted, real = [], ring._to_decimal

    def counted(n):
        converted.append(n)
        return real(n)

    monkeypatch.setattr(ring, "_to_decimal", counted)
    return converted


def reduce_widths(monkeypatch) -> list:
    """The slot widths of the packed sums reduced from now on, in order:
    `ring._reduce` patched, for the test, to record the w it receives."""
    widths, real = [], ring._reduce

    def recorded(v, w, p):
        widths.append(w)
        return real(v, w, p)

    monkeypatch.setattr(ring, "_reduce", recorded)
    return widths


def seeded(seed=20260825):
    return random.Random(seed)


# the state after one step of `divfree_mr`; polynomials are coefficient tuples
DivfreeStep = namedtuple(
    "DivfreeStep",
    ["delta", "e", "mu", "mu2", "mu_prime", "mu2_prime", "bez", "nabla", "delta_prime"],
)


def divfree_mr(dom, terms, eps=None):
    """The division-free recursion on plain coefficient lists, one DivfreeStep a term.

    The reference for `seqmin.lfsr`: the update Delta' x^up mu - Delta x^down
    mu' on whole coefficients (no content split off), and bez = (bez_1,
    bez_2) carried by its own update, bez_2 <- Delta' x^up bez_2 + Delta
    x^down bez_1, with bez_1 <- -bez_2 at a jump.  Only the domain's scalar
    operations are shared with the library.
    """
    one = dom.one

    def trim(cs):
        cs = list(cs)
        while cs and dom.is_zero(cs[-1]):
            cs.pop()
        return tuple(cs)

    def update(a, up, f, b, down, g):
        """a x^up f + b x^down g."""
        out = [dom.zero] * max(len(f) + up, len(g) + down)
        for k, c in enumerate(f):
            out[k + up] = dom.add(out[k + up], dom.mul(a, c))
        for k, c in enumerate(g):
            out[k + down] = dom.add(out[k + down], dom.mul(b, c))
        return trim(out)

    terms = [dom.coerce(t) for t in terms]
    mu, mu2 = (one,), ()
    mup, mup2 = trim([dom.zero if eps is None else dom.coerce(eps)]), (dom.neg(one),)
    bez, bez2 = (one,), ()
    dp = nabla = one
    e = 1
    out = []
    for j in range(1, len(terms) + 1):
        window = terms[(j + e) // 2 - 1:j]
        delta = dom.zero
        for c, t in zip(mu, window):
            delta = dom.add(delta, dom.mul(c, t))
        if not dom.is_zero(delta):
            up, down = (e, 0) if e > 0 else (0, -e)
            new = (update(dp, up, mu, dom.neg(delta), down, mup),
                   update(dp, up, mu2, dom.neg(delta), down, mup2),
                   update(dp, up, bez2, delta, down, bez))
            if e > 0:
                bez = tuple(dom.neg(c) for c in bez2)
                mup, mup2 = mu, mu2
                nabla = dom.mul(delta, nabla)
                dp = delta
                e = -e
            else:
                nabla = dom.mul(dp, nabla)
            mu, mu2, bez2 = new
        e += 1
        out.append(DivfreeStep(delta, e, mu, mu2, mup, mup2, (bez, bez2), nabla, dp))
    return out
