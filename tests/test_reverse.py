import sys
from pathlib import Path

import pytest

from seqmin.annihilator import lc_bullet
from seqmin.lfsr import minimal_polynomial, run
from seqmin.oracle import brute_min_annihilator
from seqmin.poly import Poly, parse_poly
from seqmin.reverse import (
    iy_classify,
    max_iy_prefix,
    reciprocal_annihilates,
    reverse_lc,
)
from seqmin.ring import DomainError, GF2, GFp, IntegerRing, Product
from seqmin.sequence import SequenceView
from util import random_sequence, seeded

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402  the benchmark's independent rational Berlekamp-Massey

F2 = GF2()
F3 = GFp(3)
Z = IntegerRing()


def B(*bits):
    return SequenceView(F2, bits)


def test_reverse_lc_examples():
    assert reverse_lc(B(1, 1, 0, 0)) == 3
    assert reverse_lc(B(0, 0, 1, 1)) == 2
    assert reverse_lc(B(0, 0, 0)) == 0
    assert reverse_lc(SequenceView(Z, [5])) == 1
    with pytest.raises(ValueError):
        reverse_lc(B())


def test_reverse_lc_palindromes():
    rng = seeded(61)
    for dom in (F2, F3):
        for _ in range(30):
            half = [rng.randrange(dom.p) for _ in range(rng.randint(1, 8))]
            s = SequenceView(dom, half + list(reversed(half)))
            assert reverse_lc(s) == run(s).mu.f.degree()


def test_reciprocal_annihilates_examples():
    s = B(0, 1, 1, 0, 0, 1, 0, 1)
    mu = minimal_polynomial(s)  # x^4 + x^2 + x, x-valuation 1
    assert mu.x_valuation() == 1
    assert reciprocal_annihilates(mu, s)
    # x-coprime annihilator covers the full reverse
    f = parse_poly(F2, "1,1,0,0,0,1")
    assert reciprocal_annihilates(f, s)
    assert run(s.reversed()).mu.f.degree() <= f.degree()


def test_reciprocal_annihilates_random():
    rng = seeded(62)
    for dom in (F2, F3, Z):
        for _ in range(40):
            s = random_sequence(dom, rng.randint(1, 14), rng)
            mu = run(s).mu.f
            if mu.degree() == 0 and not s.is_zero():
                continue
            assert reciprocal_annihilates(mu, s)


def test_reciprocal_annihilates_preconditions():
    with pytest.raises(DomainError):
        reciprocal_annihilates(Poly.zero(F2), B(1))
    with pytest.raises(DomainError):
        reciprocal_annihilates(parse_poly(F2, "1,1"), B(1, 0, 1))


def test_iy_classify_example():
    res = iy_classify(B(1, 1, 0, 0))
    assert res.lc == 2 and res.rev_lc == 3 and res.verdict


def test_iy_classify_exhaustive_gf2():
    for n in (2, 4, 6, 8, 10):
        for v in range(1 << n):
            s = B(*[(v >> i) & 1 for i in range(n)])
            st = run(s)
            if n != 2 * st.mu.f.degree():
                continue
            res = iy_classify(s)
            assert res.verdict
            mu0 = st.mu.f.constant_term()
            assert res.rev_lc == (res.lc if mu0 else res.lc + 1)


def test_iy_classify_random_gf3_and_int():
    rng = seeded(63)
    for dom in (F3, Z):
        done = 0
        while done < 20:
            s = random_sequence(dom, rng.choice([2, 4, 6, 8]), rng)
            if len(s) != 2 * run(s).mu.f.degree():
                continue
            assert iy_classify(s).verdict
            done += 1


def test_iy_classify_requires_balanced_length():
    with pytest.raises(DomainError):
        iy_classify(B(1, 1, 0))
    with pytest.raises(DomainError):
        iy_classify(B(0, 0, 1, 1))  # LC = 3, so n = 4 != 6


def test_max_iy_prefix():
    s = B(1, 1, 0, 0, 0)
    assert max_iy_prefix(s) == 4
    assert iy_classify(s.prefix(4)).verdict
    assert max_iy_prefix(B(0, 0, 0)) is None


def test_reverse_bounds_from_constant_term():
    # mu_0 != 0 bounds the reversed complexity above by LC;
    # mu_0 = 0 bounds it below by n + 1 - LC
    rng = seeded(64)
    for dom in (F2, F3):
        for _ in range(60):
            s = random_sequence(dom, rng.randint(1, 16), rng)
            if s.is_zero():
                continue
            st = run(s)
            lc = st.mu.f.degree()
            rev = reverse_lc(s)
            if not dom.is_zero(st.mu.f.constant_term()):
                assert rev <= lc
            else:
                assert rev >= len(s) + 1 - lc


def test_reverse_lc_matches_oracle():
    rng = seeded(65)
    for _ in range(30):
        s = random_sequence(F2, rng.randint(1, 12), rng)
        d, _, _ = brute_min_annihilator(s.reversed())
        assert reverse_lc(s) == d


TERMS = (-5, -4, -3, 3, 4, 5)


@pytest.fixture
def no_content(monkeypatch):
    """Forming any ring.Product (an engine content or nabla over Z) fails the test."""
    def refuse(self):
        raise AssertionError("a content was formed")
    monkeypatch.setattr(Product, "value", refuse)


def test_int_applications_at_200_terms_form_no_content(no_content):
    """reverse_lc, lc_bullet, max_iy_prefix and iy_classify over Z at n = 200
    read LC, e and mu^_0 off the engine's state, so they answer without
    forming a content.  Each answer, on s and on s reversed, is checked against the rational
    Berlekamp-Massey of the benchmark's checks: LC-bullet is LC, or
    n + 1 - LC when e = n + 1 - 2 LC > 0 and the connection polynomial has
    degree below L (mu_0 = 0)."""
    rng, n = seeded(66), 200
    for _ in range(3):
        terms = [rng.choice(TERMS) for _ in range(n)]
        fwd, back = (checks.ZZ().bm(ts) for ts in (terms, terms[::-1]))
        for ts, (L, c, profile), rev_L in ((terms, fwd, back[0]), (terms[::-1], back, fwd[0])):
            s = SequenceView(Z, ts)
            assert reverse_lc(s) == rev_L
            vanishes = n + 1 - 2 * L > 0 and (len(c) <= L or c[L] == 0)
            assert lc_bullet(s) == (n + 1 - L if vanishes else L)
            iy = [j for j in range(2, n + 1) if j == 2 * profile[j - 1]]
            assert max_iy_prefix(s) == (iy[-1] if iy else None)
            assert n == 2 * L  # as for almost every +-3..+-5 draw
            assert iy_classify(s) == (L, rev_L, rev_L == (L + 1 if vanishes else L))


def _iy_generic(rng, n):
    """Random +-3..+-5 terms with n = 2 LC (mu_0 != 0 as a rule)."""
    while True:
        s = SequenceView(Z, [rng.choice(TERMS) for _ in range(n)])
        if n == 2 * run(s).lc:
            return s


def _iy_vanishing(rng, n):
    """s_1, t with n = 2 LC and mu = x * h: t of length n - 1 follows the monic
    recurrence h of degree n/2 - 1 (h_0 = +-1, other coefficients in -1..1),
    and s_1 breaks it, so x * h annihilates s and h does not."""
    L = n // 2 - 1
    while True:
        h = [rng.choice((-1, 1))] + [rng.choice((-1, 0, 1)) for _ in range(L - 1)] + [1]
        t = [rng.choice(TERMS) for _ in range(L)]
        while len(t) < n - 1:
            t.append(-sum(h[i] * t[len(t) - L + i] for i in range(L)))
        s1 = rng.choice(TERMS)
        if h[0] * s1 + sum(h[i] * t[i - 1] for i in range(1, L + 1)) == 0:
            continue
        s = SequenceView(Z, [s1] + t)
        if n == 2 * run(s).lc:
            return s


def test_iy_dichotomy_over_int_up_to_200_terms(no_content):
    """The Imamura-Yoshida verdict holds on 50 seeded Z inputs with n = 2 LC,
    two at each size 8, 16, ..., 200: random terms, and a recurrence with its
    first term broken, where mu_0 = 0 by construction, so the reversed
    complexity must be LC + 1 and LC-bullet n + 1 - LC.  No content is
    formed."""
    rng = seeded(67)
    for n in range(8, 201, 8):
        for make in (_iy_generic, _iy_vanishing):
            s = make(rng, n)
            res = iy_classify(s)
            assert res.verdict and res.lc == n // 2
            if make is _iy_vanishing:
                assert res.rev_lc == res.lc + 1 and lc_bullet(s) == n + 1 - res.lc
