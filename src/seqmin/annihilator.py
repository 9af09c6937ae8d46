"""Annihilators with nonzero constant term.

When the minimal polynomial mu of s has mu_0 = 0 it cannot seed an LFSR
whose last cell feeds back, so one asks for the least degree LC* among
annihilators with a nonzero constant term.  LC* is LC itself unless the
exponent is positive and mu_0 = 0, in which case it is n + 1 - LC; members
are built from (mu, mu') without re-running the engine, or by extending
the sequence one term to force a jump.
"""

from __future__ import annotations

from collections import namedtuple

from .lfsr import (annihilates, mr_step, partial_discrepancy, read_step_log, run,
                   verify_identity)
from .poly import PairedPoly, Poly, pseudo_divide
from .ring import DomainError
from .sequence import SequenceView

ExtendResult = namedtuple("ExtendResult", ["s_next", "mu_ext", "nabla"])

CharResult = namedtuple("CharResult", ["q", "r", "scale", "verdict"])


def lc_bullet(s: SequenceView, epsilon=None) -> int:
    """Least degree of an annihilator with nonzero constant term."""
    return _run_nonzero(s, epsilon).lc_bullet


def min_nonvanishing(s: SequenceView, epsilon=None) -> PairedPoly:
    """A least-degree realisation pair whose first entry has nonzero f_0.

    mu itself (as mu + 0 * mu') when mu_0 != 0; otherwise the
    `mr_bullet_family` member with a = 1: mu + mu' (exponent <= 0) or
    x^e * mu + mu' (exponent e > 0).  Its degree is asserted to be LC-bullet.
    """
    st = _run_nonzero(s, epsilon)
    dom = s.dom
    vanishes = dom.is_zero(st.mu_hat[0])
    q = Poly(dom, [dom.zero] * st.e + [dom.one]) if vanishes and st.e > 0 else None
    out = _member(st, q, dom.one if vanishes else dom.zero)
    if out.f.degree() != st.lc_bullet:
        raise AssertionError("degree does not meet the minimum")
    return out


def mr_bullet_family(s: SequenceView, q: Poly, a, epsilon=None) -> PairedPoly:
    """The member q*mu + a*mu' (exponent > 0) or mu + a*mu' (exponent <= 0).

    Requires mu_0 = 0 and a != 0; when the exponent e is positive q must
    have degree exactly e, otherwise q is ignored (pass None or 1).  Its
    pairing identity and nonzero constant term are asserted (`_member`).
    """
    st = _run_nonzero(s, epsilon)
    dom = s.dom
    a = dom.coerce(a)
    if dom.is_zero(a):
        raise DomainError("a must be nonzero")
    if not dom.is_zero(st.mu_hat[0]):
        raise DomainError("mu already has a nonzero constant term")
    if st.e <= 0:
        q = None
    elif q is None or q.is_zero() or q.degree() != st.e:
        raise DomainError("q must have degree %d" % st.e)
    return _member(st, q, a)


def _member(st, q, a) -> PairedPoly:
    """q*mu + a*mu', or mu + a*mu' when q is None, with a nonzero constant term.

    Asserted before returning, with the exact pairing (`verify_identity`):
    tilde(mu) . (q*mu + a*mu') = -a * nabla, or tilde(mu') . (mu + a*mu')
    = nabla.
    """
    dom, mu, mu_prime = st.dom, st.mu, st.mu_prime
    if q is None:
        out = mu + mu_prime.scale(a)
        held = verify_identity(mu_prime.tilde(), out, st.nabla)
    else:
        out = PairedPoly(q * mu.f + mu_prime.f.scale(a), q * mu.f2 + mu_prime.f2.scale(a))
        held = verify_identity(mu.tilde(), out, dom.neg(dom.mul(a, st.nabla)))
    if not held:
        raise AssertionError("pairing identity failed")
    if dom.is_zero(out.f.constant_term()):
        raise AssertionError("constant term vanishes")
    return out


def extend_by_jump(s: SequenceView, epsilon=None, f_prime: Poly = None) -> ExtendResult:
    """Append one term forcing a jump, yielding a nonzero constant term.

    Requires exponent e > 0 and mu_0 = 0.  The appended s_{n+1} makes the
    next discrepancy nonzero (1 over a field, via the leading coefficient;
    the smallest workable value otherwise), and the new realisation --
    optionally shifted by f_prime * mu with deg(f_prime) <= e - 1 -- lies
    in the nonzero-constant-term family of both the extended and the
    original sequence.
    """
    st = _run_nonzero(s, epsilon)
    dom = s.dom
    e = st.e
    if e <= 0:
        raise DomainError("exponent must be positive")
    if not dom.is_zero(st.mu_hat[0]):
        raise DomainError("mu already has a nonzero constant term")
    if f_prime is not None and not f_prime.is_zero() and f_prime.degree() > e - 1:
        raise DomainError("deg(f_prime) must be at most %d" % (e - 1))
    n = len(s)
    # discrepancy of the extended prefix over mu's content: partial +
    # lead(mu^) * s_{n+1}, with mu^ = mu over a field
    partial = partial_discrepancy(st)
    if dom.is_field:
        s_next = dom.mul(dom.inv(st.mu_hat[-1]), dom.sub(dom.one, partial))
    else:
        s_next = dom.zero if not dom.is_zero(partial) else dom.one
    prev_mu, lc = st.mu, st.lc
    mr_step(st, s_next)
    out = st.mu
    if f_prime is not None and not f_prime.is_zero():
        out = PairedPoly(
            out.f + f_prime * prev_mu.f, out.f2 + f_prime * prev_mu.f2
        )
    if dom.is_zero(out.f.constant_term()):
        raise AssertionError("constant term vanishes")
    # only a jump lifts the degree from LC to LC + e = n + 1 - LC
    if out.f.degree() != n + 1 - lc:
        raise AssertionError("appended term did not force a jump to the minimum")
    nabla = st.nabla
    if not verify_identity(prev_mu.tilde(), out, nabla):
        raise AssertionError("pairing identity failed")
    return ExtendResult(s_next=s_next, mu_ext=out, nabla=nabla)


def char_decompose(f: Poly, s: SequenceView, epsilon=None) -> CharResult:
    """Pseudo-divide f by mu and test least-degree membership.

    Preconditions: n >= 2, mu_0 = 0, exponent > 0, f_0 != 0 and f
    annihilates s.  The verdict is true exactly when deg(f) = n + 1 - LC,
    the last jump happened at step >= 2, and the pseudo-remainder r has
    nonzero constant term and minimal degree among annihilators of the
    prefix up to that jump's predecessor.
    """
    st = _run_nonzero(s, epsilon)
    dom = s.dom
    n = len(s)
    if n < 2:
        raise DomainError("need at least two terms")
    if st.e <= 0:
        raise DomainError("exponent must be positive")
    if not dom.is_zero(st.mu_hat[0]):
        raise DomainError("mu must have zero constant term")
    if dom.is_zero(f.constant_term()):
        raise DomainError("f must have a nonzero constant term")
    if not annihilates(f, s):
        raise DomainError("f does not annihilate the sequence")
    q, r, scale = pseudo_divide(f, st.mu.f)
    log = read_step_log(st)
    n_prime = log.last_jump
    verdict = (
        f.degree() == n + 1 - st.lc
        and n_prime >= 1
        and not r.is_zero()
        and not dom.is_zero(r.constant_term())
        and r.degree() == log.profile[n_prime - 1]
        and annihilates(r, s.prefix(n_prime))
    )
    return CharResult(q=q, r=r, scale=scale, verdict=verdict)


def _run_nonzero(s: SequenceView, epsilon):
    if len(s) < 1 or s.is_zero():
        raise ValueError("sequence must have a nonzero term")
    return run(s, epsilon)
