"""Bezout coefficients for a polynomial pair via sequence expansion.

Given u monic and u2 with deg(u2) <= deg(u) = d over a principal ideal
domain, expand u2/u into the first 2d terms of its power series in 1/x,
run the realisation engine on that sequence, and read off a pair f with

    f.f * u + f.f2 * u2 = nabla * gcd(u, u2)

where nabla is the engine's nonzero product of discrepancies.  No division
happens anywhere, so the same code covers Z and GF(p)[y] coefficients.
"""

from __future__ import annotations

from collections import namedtuple

from .lfsr import minimal_realisation, run
from .poly import PairedPoly, Poly, mul, series_prefix
from .ring import DomainError, check_same_domain
from .sequence import SequenceView

BezoutResult = namedtuple("BezoutResult", ["f", "nabla", "g", "mults"])

LrsResult = namedtuple("LrsResult", ["f", "nabla", "mu", "stable"])


def reduce_equal_degree(u: Poly, u2: Poly):
    """Replace u2 of equal degree by u2' = l2*u - u2 of lower degree.

    u is monic and l2 = lead(u2).  Returns (u2', adapter) where adapter
    maps a coefficient pair (f, f2) valid for (u, u2') to one valid for
    (u, u2): since f*u + f2*(l2*u - u2) = (f + l2*f2)*u + (-f2)*u2.
    """
    check_same_domain(u.dom, u2.dom)
    if not u.is_monic():
        raise DomainError("u must be monic")
    if u2.is_zero() or u2.degree() != u.degree():
        raise DomainError("degrees must be equal")
    ell2 = u2.lead()
    u2r = u.scale(ell2) - u2

    def adapter(pair: PairedPoly) -> PairedPoly:
        return PairedPoly(pair.f + pair.f2.scale(ell2), -pair.f2)

    return u2r, adapter


def bezout_pair(u: Poly, u2: Poly, count_mults: bool = False) -> BezoutResult:
    """Coefficients f with f.f*u + f.f2*u2 = nabla*gcd(u, u2), exactly.

    u must be monic with deg(u2) <= deg(u) = d >= 1.  u2 = 0 returns the
    trivial ((1, 0), 1, u) by convention.  With count_mults, mults is the
    engine pass's exact number of domain multiplications (else 0).
    """
    check_same_domain(u.dom, u2.dom)
    dom = u.dom
    if not u.is_monic():
        raise DomainError("u must be monic")
    d = u.degree()
    if d < 1:
        raise DomainError("deg(u) must be at least 1")
    # the engine expands v/u for v = u2, or for the lower-degree u2' that
    # reduce_equal_degree makes of an equal-degree u2
    v, adapter = u2, None
    if u2.degree() == d:
        v, adapter = reduce_equal_degree(u, u2)
    if v.is_zero():
        return BezoutResult(
            PairedPoly(Poly.one(dom), Poly.zero(dom)), dom.one, u, 0
        )
    if v.degree() > d:
        raise DomainError("deg(u2) must not exceed deg(u)")
    st = run(series_prefix(v, u, 2 * d), count_mults=count_mults)
    f = st.mu_prime.tilde()
    if adapter is not None:
        f = adapter(f)
    g = mul(f.f, u) + mul(f.f2, u2)
    return BezoutResult(f, st.nabla, g, st.mults)


def lrs_identity(s_prefix: SequenceView, epsilon=None) -> LrsResult:
    """Coefficients f with f . (mu, mu2) = nabla for the prefix's realisation.

    When the prefix really comes from a linear recurrence of order deg(mu)
    observed over >= 2*deg(mu) terms, mu settles; `stable` reports whether
    mu last changed more than deg(mu) steps ago.
    """
    res = minimal_realisation(s_prefix, epsilon)
    d = res.state.lc
    n = len(s_prefix)
    dom = s_prefix.dom
    # mu changes at a step exactly when its discrepancy c * delta^ (c != 0) is nonzero
    stable = all(
        dom.is_zero(step.delta_hat) for step in res.state.steps[max(n - d, 0):]
    )
    return LrsResult(f=res.bez_numu, nabla=res.nabla, mu=res.mu, stable=stable)
