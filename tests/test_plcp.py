import sys
from pathlib import Path

import pytest

from seqmin import plcp
from seqmin.lfsr import mr_gf2_scan, mr_scan, run
from seqmin.plcp import (
    check_stable_theorem,
    count_plcp,
    is_plcp,
    is_stable,
    plcp_bits,
    plcp_mr_specialized,
    random_plcp_sequence,
    stable_bits,
)
from seqmin.poly import PairedPoly, Poly, mul, parse_poly
from seqmin.ring import DomainError, GF2, GFp, IntegerRing, Product
from seqmin.sequence import SequenceView, sequence_from_bits
from util import seeded

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402  the benchmark's independent rational Berlekamp-Massey

F2 = GF2()
F3 = GFp(3)


def B(*bits):
    return SequenceView(F2, bits)


def test_short_binary_examples():
    # every binary PLCP sequence of length <= 4
    expected = {(1,), (1, 0), (1, 1),
                (1, 1, 0), (1, 0, 1),
                (1, 1, 0, 0), (1, 1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1)}
    for n in (1, 2, 3, 4):
        got = {
            tuple((v >> i) & 1 for i in range(n))
            for v in range(1 << n)
            if is_plcp(B(*[(v >> i) & 1 for i in range(n)])).is_plcp
        }
        assert got == {t for t in expected if len(t) == n}


def test_report_criteria_consistency():
    rep = is_plcp(B(1, 1, 0))
    assert rep.is_plcp
    assert rep.profile == (1, 1, 2)
    assert rep.exponent_trace == (0, 1, 0)
    assert all(d == 1 for d in rep.odd_discrepancies)
    rep = is_plcp(B(0, 1, 1))
    assert not rep.is_plcp


def test_is_plcp_over_int_at_200_terms_forms_no_content(monkeypatch):
    """Over Z the verdict reads each odd step's delta^ (Delta = c * delta^
    with c != 0), so is_plcp answers at n = 200 with no content formed,
    agreeing with the rational Berlekamp-Massey of the benchmark's checks;
    the odd discrepancies are formed only when read."""
    def refuse(self):
        raise AssertionError("a content was formed")

    monkeypatch.setattr(Product, "value", refuse)
    rng, n = seeded(29), 200
    draws = [[rng.choice((-5, -4, -3, 3, 4, 5)) for _ in range(n)] for _ in range(3)]
    draws[2][0] = 0  # Delta_1 = 0: not a perfect profile
    verdicts = []
    for terms in draws:
        _, _, profile = checks.ZZ().bm(terms)
        rep = is_plcp(SequenceView(IntegerRing(), terms))
        assert rep.profile == tuple(profile)
        assert rep.is_plcp == (profile == [(j + 1) // 2 for j in range(1, n + 1)])
        with pytest.raises(AssertionError, match="a content was formed"):
            rep.odd_discrepancies
        verdicts.append(rep.is_plcp)
    assert verdicts == [True, True, False]


def test_count_plcp_formula():
    assert count_plcp(2, 4) == 4
    assert count_plcp(2, 1) == 1
    assert count_plcp(3, 3) == 12
    with pytest.raises(ValueError):
        count_plcp(1, 3)


def test_count_matches_enumeration_gf3():
    for n in (1, 2, 3, 4):
        total = 0
        for v in range(3 ** n):
            digits = []
            x = v
            for _ in range(n):
                digits.append(x % 3)
                x //= 3
            if is_plcp(SequenceView(F3, digits)).is_plcp:
                total += 1
        assert total == count_plcp(3, n)


def test_is_stable_examples():
    assert is_stable(B(1, 1, 0))
    assert not is_stable(B(1, 0, 1, 1, 0, 1))
    assert is_stable(B(1))
    assert not is_stable(B(0, 1))
    with pytest.raises(DomainError):
        is_stable(SequenceView(F3, [1]))


def test_bit_predicates_match_slow_paths():
    for n in range(1, 13):
        for v in range(1 << n):
            s = B(*[(v >> i) & 1 for i in range(n)])
            assert plcp_bits(v, n) == is_plcp(s).is_plcp == stable_bits(v, n)


def test_specialized_recursion_matches_engine():
    rng = seeded(41)
    for dom in (F2, F3, GFp(7)):
        for _ in range(25):
            n = rng.randint(1, 14)
            s = random_plcp_sequence(dom, n, rng)
            pair = plcp_mr_specialized(s)
            assert pair == run(s).mu


def test_specialized_recursion_table_instance():
    # discrepancy choices 1,1,1,1 reconstruct to s = (1,1,0,0)
    s = B(1, 1, 0, 0)
    st = run(s)
    assert [r.delta for r in st.steps] == [1, 1, 1, 1]
    pair = plcp_mr_specialized(s)
    assert pair == PairedPoly(parse_poly(F2, "0,0,1"), parse_poly(F2, "1,1"))


def test_specialized_recursion_j1():
    pair = plcp_mr_specialized(B(1))
    assert pair == PairedPoly(parse_poly(F2, "0,1"), parse_poly(F2, "1"))


def test_specialized_recursion_rejects_non_plcp():
    with pytest.raises(DomainError):
        plcp_mr_specialized(B(0, 1))


def test_random_plcp_sequences_are_plcp():
    rng = seeded(42)
    for dom in (F2, F3, GFp(11)):
        for _ in range(20):
            s = random_plcp_sequence(dom, rng.randint(1, 20), rng)
            assert is_plcp(s).is_plcp


def test_nabla_product_of_odd_discrepancies():
    # for a perfect profile, each nonzero step multiplies in the current
    # discrepancy (odd j, a jump) or the previous one (even j); when every
    # discrepancy is nonzero this collapses to squares of the odd ones
    rng = seeded(43)
    for _ in range(30):
        n = rng.randint(1, 12)
        s = random_plcp_sequence(F3, n, rng)
        st = run(s)
        deltas = [r.delta for r in st.steps]
        nabla = 1
        for j in range(1, n + 1):
            if deltas[j - 1] == 0:
                continue
            factor = deltas[j - 1] if j % 2 == 1 else deltas[j - 2]
            nabla = (nabla * factor) % 3
        assert nabla == st.nabla
        if all(deltas):
            odd = [deltas[j - 1] for j in range(1, n + 1, 2)]
            if n % 2 == 0:
                closed = 1
                for d in odd:
                    closed = closed * d * d % 3
            else:
                closed = odd[-1]
                for d in odd[:-1]:
                    closed = closed * d * d % 3
            assert closed == st.nabla


def test_check_stable_theorem_small():
    for n in (1, 2, 4, 8, 12):
        assert check_stable_theorem(n)
    with pytest.raises(ValueError):
        check_stable_theorem(0)


def _poly_sigma_holds(st):
    """sigma_0 = 1 and sigma_2 = 0, sigma = nu^2 + (x+1)*nu*mu + mu^2, on Polys."""
    mu, nu = st.mu.f, st.mu.f2
    sigma = mul(nu, nu) + mul(mul(Poly(F2, (1, 1)), nu), mu) + mul(mu, mu)
    return sigma.coeff(0) == 1 and sigma.coeff(2) == 0


def test_packed_sigma_check_agrees_with_the_poly_sigma(monkeypatch):
    # feed _check_sigma one packed step at a time and compare its verdict with
    # sigma formed from the generic engine's Poly views at the same step
    step = []
    monkeypatch.setattr(plcp, "mr_gf2_scan", lambda sbits, n: step)
    verdicts = set()
    for n in range(1, 11):
        for sbits in range(1 << n):
            s = sequence_from_bits(F2, sbits, n)
            for st, state in zip(mr_scan(s), mr_gf2_scan(sbits, n), strict=True):
                step[:] = [state]
                try:
                    plcp._check_sigma(sbits, n)
                    packed = True
                except AssertionError:
                    packed = False
                assert packed == _poly_sigma_holds(st), (n, sbits)
                verdicts.add(packed)
    assert verdicts == {True, False}


def test_planted_nu_fault_fails_the_sigma_check(monkeypatch):
    real = plcp.mr_gf2_scan

    def nu_flipped(sbits, n):
        for mu, nu, mup, mup2, e in real(sbits, n):
            yield mu, nu ^ 1, mup, mup2, e

    monkeypatch.setattr(plcp, "mr_gf2_scan", nu_flipped)
    with pytest.raises(AssertionError, match="sigma invariant failed"):
        check_stable_theorem(8)
