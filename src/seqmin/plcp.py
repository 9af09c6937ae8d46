"""Perfect linear-complexity-profile predicates and the binary criterion.

A sequence has a perfect profile when LC_j = floor((j+1)/2) for every
prefix; equivalently every odd-step discrepancy is nonzero, equivalently
the exponent alternates 1, 0, 1, 0, ...  Over GF(2) the profile is perfect
exactly when s_1 = 1 and s_{j+1} = s_j + s_{j/2} for even j.
"""

from __future__ import annotations

from collections import namedtuple

from .lfsr import (mr_gf2_scan, mr_init, mr_step, partial_discrepancy,
                   read_step_log, run)
from .poly import PairedPoly, Poly, add_scaled
from .ring import DomainError, GF2, GFp
from .sequence import SequenceView, bits_from_sequence


class PlcpReport(namedtuple("PlcpReport", "is_plcp profile odd_steps exponent_trace")):
    """The verdict, profile and exponents, and the odd steps' `StepRecord`s;
    `odd_discrepancies` forms their Delta = c * delta^ on each read."""

    __slots__ = ()

    @property
    def odd_discrepancies(self):
        return tuple(rec.delta for rec in self.odd_steps)


def is_plcp(s: SequenceView) -> PlcpReport:
    """Evaluate all three perfect-profile criteria and cross-check them."""
    if len(s) < 1:
        raise ValueError("empty sequence")
    dom = s.dom
    st = run(s)
    log = read_step_log(st)
    odd = tuple(st.steps[0::2])
    by_profile = all(lc == (j + 1) // 2 for j, lc in enumerate(log.profile, start=1))
    # Delta = c * delta^ with c != 0 in a domain: delta^ decides, no content formed
    by_delta = all(not dom.is_zero(rec.delta_hat) for rec in odd)
    by_exponent = all(
        e == (1 if j % 2 == 0 else 0) for j, e in enumerate(log.exponents, start=1)
    )
    if not (by_profile == by_delta == by_exponent):
        raise AssertionError("perfect-profile criteria disagree")
    return PlcpReport(by_profile, tuple(log.profile), odd, tuple(log.exponents))


def count_plcp(q: int, n: int) -> int:
    """(q-1)^ceil(n/2) * q^floor(n/2): perfect-profile sequences in GF(q)^n."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    return (q - 1) ** ((n + 1) // 2) * q ** (n // 2)


def is_stable(s: SequenceView) -> bool:
    """s_1 = 1 and s_{j+1} = s_j + s_{j/2} for even j < n (binary only)."""
    if not isinstance(s.dom, GF2):
        raise DomainError("stability is defined for binary sequences")
    if len(s) < 1:
        raise ValueError("empty sequence")
    return stable_bits(bits_from_sequence(s), len(s))


def plcp_bits(sbits: int, n: int) -> bool:
    """Perfect-profile test for a bit-packed binary sequence, early exit.

    The profile is perfect exactly when e_j = (j + 1) mod 2 at every step.
    """
    want = 0
    for _, _, _, _, e in mr_gf2_scan(sbits, n):
        if e != want:
            return False
        want ^= 1
    return True


def stable_bits(sbits: int, n: int) -> bool:
    if n < 1 or not sbits & 1:
        return False
    for j in range(2, n, 2):
        if ((sbits >> j) ^ (sbits >> (j - 1)) ^ (sbits >> (j // 2 - 1))) & 1:
            return False
    return True


def plcp_mr_specialized(s: SequenceView) -> PairedPoly:
    """Realisation of a perfect-profile sequence by the short recursion.

    Uses only the two-term updates available when every odd discrepancy is
    nonzero (odd j: Delta_{j-2}*x*prev - Delta_j*third-back; even j:
    Delta_{j-1}*prev - Delta_j*second-back), then checks the result against
    the general engine.
    """
    dom = s.dom
    n = len(s)
    if n < 1:
        raise ValueError("empty sequence")
    # the pairs one, two and three steps back and the discrepancies one and
    # two steps back; before step 1 they are (1, 0), (0, -1), (0, -1), 1, 1
    minus_one = (Poly.zero(dom), Poly.constant(dom, dom.neg(dom.one)))
    prev, back2, back3 = (Poly.one(dom), Poly.zero(dom)), minus_one, minus_one
    d1 = d2 = dom.one
    for j in range(1, n + 1):
        # deg prev = LC_{j-1} = floor(j/2) < j: prev against s_{j-deg}..s_j
        fs = prev[0].coeffs
        d = dom.dot(fs, s.terms[j - len(fs):j])
        if dom.is_zero(d):
            if j % 2 == 1:
                raise DomainError("sequence does not have a perfect profile")
            new = prev
        else:
            a, e, back = (d2, 1, back3) if j % 2 == 1 else (d1, 0, back2)
            new = tuple(add_scaled(a, e, f, dom.neg(d), 0, g) for f, g in zip(prev, back))
        prev, back2, back3 = new, prev, back2
        d1, d2 = d, d1
    mu = PairedPoly(*prev)
    if mu != run(s).mu:
        raise AssertionError("specialized recursion diverged from the engine")
    return mu


def random_plcp_sequence(dom: GFp, n: int, rng) -> SequenceView:
    """Draw a perfect-profile sequence over GF(p) uniformly.

    Inverts the discrepancy relation term by term: the free choices are a
    nonzero discrepancy at each odd step and an arbitrary one at each even
    step, and each choice pins s_j since lead(mu) multiplies s_j.
    """
    if not isinstance(dom, GFp):
        raise DomainError("perfect-profile sampling needs a prime field")
    st = mr_init(dom)
    for j in range(1, n + 1):
        # Delta_j = partial + lead(mu) * s_j; solve for s_j
        partial = partial_discrepancy(st)
        if j % 2 == 1:
            target = rng.randrange(1, dom.p)
        else:
            target = rng.randrange(dom.p)
        s_j = dom.mul(dom.inv(st.mu_hat[-1]), dom.sub(target, partial))
        mr_step(st, s_j)
        if not st.steps[-1].delta == target:
            raise AssertionError("discrepancy inversion failed")
    return SequenceView(dom, st.terms)


def check_stable_theorem(n: int) -> bool:
    """Exhaustive GF(2) check that perfect profile == stability at length n.

    Also asserts the count (q-1)^ceil(n/2) * q^floor(n/2) and, after every
    step of every perfect-profile sequence, sigma_0 = 1 and sigma_2 = 0 for
    sigma = nu^2 + (x+1)*nu*mu + mu^2 with nu = mu2, the second entry of
    the realisation (mu, mu2).  Stability (s_{j+1} + s_j + s_{j/2} = 0 at
    even j) is what the verdict is compared with.
    """
    if not 1 <= n <= 18:
        raise ValueError("exhaustive check supports 1 <= n <= 18")
    found = 0
    for sbits in range(1 << n):
        p = plcp_bits(sbits, n)
        if p != stable_bits(sbits, n):
            return False
        if p:
            found += 1
            _check_sigma(sbits, n)
    return found == count_plcp(2, n)


def _check_sigma(sbits, n):
    # over GF(2) f^2 = f(x^2), so with t = nu*mu mod x^3 the packed pass gives
    # sigma_0 = nu_0 + t_0 + mu_0 = nu_0 | mu_0 and sigma_2 = nu_1 + t_1 + t_2 + mu_1
    for mu, nu, _, _, _ in mr_gf2_scan(sbits, n):
        t = (nu & 1) * mu ^ (nu >> 1 & 1) * (mu << 1) ^ (nu >> 2 & 1) * (mu << 2)
        if not (mu | nu) & 1 or ((nu ^ mu) >> 1 ^ t >> 1 ^ t >> 2) & 1:
            raise AssertionError("sigma invariant failed")
