"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every algebraic check is exact (integer / modular equality, zero tolerance);
the only numeric tolerance is the fitted timing exponent in criterion 10.
"""

import itertools
import time

import pytest

from seqmin.annihilator import min_nonvanishing, mr_bullet_family
from seqmin.bezout import bezout_pair
from seqmin.lfsr import (
    minimal_realisation,
    mr_gf2_bits,
    mr_init,
    mr_scan,
    mr_step,
    run,
)
from seqmin.oracle import brute_min_annihilator, ext_euclid
from seqmin.plcp import count_plcp, plcp_bits, stable_bits
from seqmin.poly import PairedPoly, Poly, mul, parse_poly
from seqmin.reverse import reverse_lc
from seqmin.ring import GF2, GFp, IntegerRing
from seqmin.sequence import SequenceView
from util import random_sequence, seeded, verify_pair_identity

F2 = GF2()
F3 = GFp(3)
F7 = GFp(7)
Z = IntegerRing()


def pp(text):
    return parse_poly(F2, text)


def bv(v, n):
    return SequenceView(F2, [(v >> i) & 1 for i in range(n)])


def _table1_rows(s):
    """The Table 1 rows of one replay of s, and the replay's wall time."""
    t0 = time.perf_counter()
    st = mr_init(F2)
    # the j = 0 row prints the initial Delta' in the Delta column
    rows = [(st.mu.f, st.mu_prime.f, st.mu.f2, st.mu_prime.f2,
             st.delta_prime, None)]
    for t in s:
        mr_step(st, t)
        rec = st.steps[-1]
        rows.append((st.mu.f, st.mu_prime.f, st.mu.f2, st.mu_prime.f2,
                     rec.delta, rec.e_before))
    return rows, time.perf_counter() - t0


def test_criterion_01_table1_replay():
    s = SequenceView(F2, [0, 1, 1, 0, 0, 1, 0, 1])
    # five timed replays, every one checked row by row; the fastest must
    # stay under 1 ms, so one scheduler pause cannot fail the criterion
    replays = [_table1_rows(s) for _ in range(5)]
    expected = [
        # (mu, mu', mu2, mu2', delta_j, e_{j-1})
        ("1", "0", "0", "1", 1, None),
        ("1", "0", "0", "1", 0, 1),
        ("0,0,1", "1", "1", "0", 1, 2),
        ("0,1,1", "1", "1", "0", 1, -1),
        ("1,1,1", "1", "1", "0", 1, 0),
        ("1,1,1,1", "1,1,1", "0,1", "1", 1, 1),
        ("1,1,1,1", "1,1,1", "0,1", "1", 0, 0),
        ("1,0,0,1,1", "1,1,1,1", "1,0,1", "0,1", 1, 1),
        ("0,1,1,0,1", "1,1,1,1", "1,1,1", "0,1", 1, 0),
    ]
    for rows, _ in replays:
        assert len(rows) == len(expected)
        for row, exp in zip(rows, expected):
            mu, mup, mu2, mup2, delta, e_before = row
            assert mu == pp(exp[0]) and mup == pp(exp[1])
            assert mu2 == pp(exp[2]) and mup2 == pp(exp[3])
            assert delta == exp[4] and e_before == exp[5]
    assert min(elapsed for _, elapsed in replays) < 1e-3


def test_criterion_02_table2_replay():
    s = SequenceView(F2, [1, 0, 1, 1, 0, 1])
    expected = [
        # (e_{j-1}, delta_j, mu, mu2, mu', mu2', tilde mu')
        (1, 1, "0,1", "1", "1", "0", ("0", "1")),
        (0, 0, "0,1", "1", "1", "0", ("0", "1")),
        (1, 1, "1,0,1", "0,1", "0,1", "1", ("1", "0,1")),
        (0, 1, "1,1,1", "1,1", "0,1", "1", ("1", "0,1")),
        (1, 0, "1,1,1", "1,1", "0,1", "1", ("1", "0,1")),
        (2, 0, "1,1,1", "1,1", "0,1", "1", ("1", "0,1")),
    ]
    full = run(s)
    for j, (st, exp) in enumerate(zip(mr_scan(s), expected), start=1):
        e_before, delta, mu, mu2, mup, mup2, tilde_exp = exp
        assert st.j == j
        assert full.steps[j - 1].e_before == e_before
        assert st.steps[-1].delta == delta
        assert st.mu == PairedPoly(pp(mu), pp(mu2))
        assert st.mu_prime == PairedPoly(pp(mup), pp(mup2))
        tilde = st.mu_prime.tilde()
        assert tilde == PairedPoly(pp(tilde_exp[0]), pp(tilde_exp[1]))
        if j >= 3:
            # both identity families evaluate to the constant 1
            assert mul(tilde.f, st.mu.f) + mul(tilde.f2, st.mu.f2) == Poly.one(F2)
            assert mul(st.bez.f, st.mu.f) + mul(st.bez.f2, st.mu_prime.f) == Poly.one(F2)


def test_criterion_03_bezout_example():
    res = bezout_pair(pp("1,0,0,1"), pp("1,0,1"))
    assert res.f.f == pp("1")
    assert res.f.f2 == pp("0,1")
    assert res.nabla == 1
    assert res.g == pp("1,1")


def test_criterion_04_identity_suites_random():
    rng = seeded(101)
    plan = [(F2, 64, 5000), (F7, 32, 3000), (Z, 16, 2000)]
    for dom, n_max, count in plan:
        for _ in range(count):
            s = random_sequence(dom, rng.randint(1, n_max), rng)
            st = mr_init(dom)
            for t in s:
                mr_step(st, t)
                res = st.result()  # bez_numu is tilde(mu'), bez_fg is bez
                assert verify_pair_identity(res.bez_numu, res.mu, res.nabla)
                assert verify_pair_identity(
                    res.bez_fg, PairedPoly(res.mu.f, res.mu_prime.f), res.nabla
                )


def test_criterion_05_oracle_equivalence():
    def compare(s, dom):
        d, ws, star_flag = brute_min_annihilator(s)
        mu = run(s).mu.f
        assert mu.degree() == d
        units = [c for c in range(1, dom.p) if not dom.is_zero(c)]
        assert any(mu == w.scale(c) for w in ws for c in units)
        if not s.is_zero():
            d_star, _, _ = brute_min_annihilator(s, require_nonzero_constant=True)
            assert min_nonvanishing(s).f.degree() == d_star

    for n in range(1, 13):
        for v in range(1 << n):
            compare(bv(v, n), F2)
    rng = seeded(102)
    for _ in range(500):
        compare(random_sequence(F3, rng.randint(1, 8), rng), F3)


def test_criterion_06_extended_euclid_agreement():
    for d in range(1, 7):
        for uc in itertools.product((0, 1), repeat=d):
            u = Poly(F2, list(uc) + [1])
            for d2 in range(d):
                for u2c in itertools.product((0, 1), repeat=d2 + 1):
                    u2 = Poly(F2, u2c)
                    if u2.is_zero():
                        continue
                    res = bezout_pair(u, u2)
                    g, a, a2 = ext_euclid(u, u2)
                    # over GF(2) nabla = 1, so the comparison is direct
                    assert res.nabla == 1
                    assert res.g == g
                    assert (res.f.f, res.f.f2) == (a, a2)


def test_criterion_07_plcp_stability_and_counts():
    t0 = time.perf_counter()
    for n in range(1, 17):
        total = 0
        for v in range(1 << n):
            p = plcp_bits(v, n)
            assert p == stable_bits(v, n)
            total += p
        assert total == count_plcp(2, n)
    assert time.perf_counter() - t0 < 60


def test_criterion_08_nonvanishing_annihilator_set():
    s = SequenceView(F2, [0, 1, 1, 0, 0, 1, 0, 1])
    assert min_nonvanishing(s) == PairedPoly(pp("1,1,0,0,0,1"), pp("0,0,1,1"))
    family = {
        mr_bullet_family(s, q, 1).f
        for q in (Poly(F2, (0, 1)), Poly(F2, (1, 1)))
    }
    expected = {pp("1,1,0,0,0,1"), pp("1,0,1,0,1,1")}
    assert family == expected
    _, ws, _ = brute_min_annihilator(s, require_nonzero_constant=True)
    assert ws == expected


def test_criterion_09_reversed_complexity_dichotomy():
    def check(s, dom):
        st = run(s)
        lc = st.mu.f.degree()
        if len(s) != 2 * lc:
            return False
        expected = lc if not dom.is_zero(st.mu.f.constant_term()) else lc + 1
        assert reverse_lc(s) == expected
        return True

    for n in range(2, 11, 2):
        for v in range(1 << n):
            check(bv(v, n), F2)
    rng = seeded(103)
    for dom in (F3, Z):
        done = 0
        while done < 50:
            s = random_sequence(dom, rng.choice([2, 4, 6, 8]), rng)
            if check(s, dom):
                done += 1
    assert reverse_lc(SequenceView(F2, [1, 1, 0, 0])) == 3


def test_criterion_10_quadratic_scaling():
    rng = seeded(104)
    import math

    mr_gf2_bits(rng.getrandbits(4096), 4096)  # warm-up
    # n = 2^15, 2^15.5, ..., 2^17, where the quadratic term dominates.  Each
    # step also costs a constant, so the local slope rises from 1.6 at 2^13
    # to 1.9-2.0 at 2^17; a fit from 2^13 read 1.78-1.81 and this one
    # 1.84-1.95 (twelve runs, CPython 3.11.7, shared 2-CPU VM)
    sizes = [int(2 ** (k / 2)) for k in range(30, 35)]
    inputs = [(n, rng.getrandbits(n)) for n in sizes]
    # best of 7 rounds over all sizes: a slow spell of a shared machine
    # then slows one round of every size, not every run of one size.  Some
    # rounds there run twice as slow; in ten runs of 10 rounds, the best of
    # 5 (either half) fitted 1.80-1.94 and the best of the first 7 1.82-1.90
    best = [float("inf")] * len(inputs)
    for _ in range(7):
        for i, (n, bits) in enumerate(inputs):
            t0 = time.perf_counter()
            mr_gf2_bits(bits, n)
            best[i] = min(best[i], time.perf_counter() - t0)
    pts = [(math.log(n), math.log(t)) for (n, _), t in zip(inputs, best)]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    alpha = sum((x - mx) * (y - my) for x, y in pts) / sum(
        (x - mx) ** 2 for x, _ in pts
    )
    print("fitted exponent over n = 2^15..2^17: %.3f" % alpha)
    assert 1.7 <= alpha <= 2.3

    n = 10 ** 5
    bits = rng.getrandbits(n)
    t0 = time.perf_counter()
    mr_gf2_bits(bits, n)
    assert time.perf_counter() - t0 < 10

    # multiplication count is reported, not asserted
    s = random_sequence(F2, 512, rng)
    st = run(s, count_mults=True)
    print("multiplications at n=512: %d (5*LC^2 = %d)"
          % (st.mults, 5 * st.mu.f.degree() ** 2))
