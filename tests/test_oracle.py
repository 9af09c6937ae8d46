from itertools import product

import pytest

from seqmin.lfsr import annihilates, run
from seqmin.oracle import brute_min_annihilator, ext_euclid
from seqmin.poly import Poly, mul, parse_poly
from seqmin.ring import DomainError, GF2, GFp, IntegerRing, domain_from_string
from seqmin.sequence import SequenceView
from util import random_sequence, seeded

F2 = GF2()
F3 = GFp(3)


def test_brute_worked_example():
    s = SequenceView(F2, [0, 1, 1, 0, 0, 1, 0, 1])
    d, ws, flag = brute_min_annihilator(s)
    assert d == 4
    assert parse_poly(F2, "0,1,1,0,1") in ws
    assert flag is False
    d, ws, _ = brute_min_annihilator(s, require_nonzero_constant=True)
    assert d == 5
    assert ws == {parse_poly(F2, "1,1,0,0,0,1"), parse_poly(F2, "1,0,1,0,1,1")}


def test_brute_all_zero():
    d, ws, flag = brute_min_annihilator(SequenceView(F2, [0, 0, 0]))
    assert d == 0 and flag
    assert ws == {Poly.one(F2)}


def test_brute_witnesses_annihilate():
    rng = seeded(21)
    for dom, n_max in ((F2, 10), (F3, 6)):
        for _ in range(20):
            s = random_sequence(dom, rng.randint(1, n_max), rng)
            d, ws, _ = brute_min_annihilator(s)
            for w in ws:
                assert w.degree() == d
                assert annihilates(w, s)


def test_brute_matches_engine_lc():
    rng = seeded(22)
    for dom, n_max in ((F2, 12), (F3, 8)):
        for _ in range(25):
            s = random_sequence(dom, rng.randint(1, n_max), rng)
            d, ws, _ = brute_min_annihilator(s)
            mu = run(s).mu.f
            assert mu.degree() == d
            assert any(mu == w.scale(c) for w in ws for c in range(1, dom.p))


def test_brute_rejects_large_inputs():
    with pytest.raises(DomainError):
        brute_min_annihilator(SequenceView(F2, [1] * 13))
    with pytest.raises(DomainError):
        brute_min_annihilator(SequenceView(IntegerRing(), [1, 2]))


def test_brute_size_rule():
    # p^n <= 3^8 and p^(n+1) <= 3^9: GF(3) up to n = 8 as before, GF(5) up to
    # 5, GF(7) up to 4, GF(11) up to 3, GF(13) up to 2 (GF(2)'s n <= 12 is
    # pinned above and by the exhaustive oracle criterion); 0, ..., 0, 1 has
    # LC = n, the deepest search at each bound
    for p, n in ((3, 8), (5, 5), (7, 4), (11, 3), (13, 2)):
        dom = GFp(p)
        d, _, _ = brute_min_annihilator(SequenceView(dom, [0] * (n - 1) + [1]))
        assert d == n
        with pytest.raises(DomainError, match=r"p\^\(n\+1\) <= 3\^9, and n = %d" % (n + 1)):
            brute_min_annihilator(SequenceView(dom, [0] * n + [1]))
    # a search over one term still tries p^2 - 1 candidates
    for p in (1009, 6553):
        with pytest.raises(DomainError, match="too long"):
            brute_min_annihilator(SequenceView(GFp(p), [1]))


def test_ext_euclid_example():
    g, a, a2 = ext_euclid(parse_poly(F2, "1,0,0,1"), parse_poly(F2, "1,0,1"))
    assert g == parse_poly(F2, "1,1")
    assert a == Poly.one(F2)
    assert a2 == parse_poly(F2, "0,1")


def test_ext_euclid_conventions():
    u = parse_poly(GFp(5), "2,1,3")
    g, a, a2 = ext_euclid(u, Poly.zero(GFp(5)))
    assert g == u.monic() and a2.is_zero()
    assert mul(a, u) == g
    g, a, a2 = ext_euclid(u, u)
    assert g == u.monic() and a2.is_zero()
    g, a, a2 = ext_euclid(Poly.zero(GFp(5)), u)
    assert g == u.monic() and a.is_zero()
    assert mul(a2, u) == g
    with pytest.raises(DomainError):
        ext_euclid(Poly.zero(F2), Poly.zero(F2))


def test_ext_euclid_identity_random():
    rng = seeded(23)
    F7 = GFp(7)
    for _ in range(60):
        u = Poly(F7, [rng.randrange(7) for _ in range(rng.randint(1, 7))] + [1])
        u2 = Poly(F7, [rng.randrange(7) for _ in range(rng.randint(0, u.degree() + 1))])
        if u2.is_zero():
            continue
        g, a, a2 = ext_euclid(u, u2)
        assert g.is_monic()
        assert mul(a, u) + mul(a2, u2) == g
        # g divides both inputs
        from seqmin.poly import divmod_field
        assert divmod_field(u, g)[1].is_zero()
        assert divmod_field(u2, g)[1].is_zero()


@pytest.mark.parametrize("p, n", [(2, 12), (3, 8), (7, 4), (13, 2)])
def test_brute_vacuous_degree(p, n):
    # 0, ..., 0, 1 has LC = n, and degree n has no windows, so every degree-n
    # polynomial annihilates it: the largest search the size rule allows
    dom = domain_from_string("gfp:%d" % p)
    s = SequenceView(dom, [0] * (n - 1) + [1])
    every = {tail + (lead,) for tail in product(range(p), repeat=n) for lead in range(1, p)}
    d, ws, flag = brute_min_annihilator(s)
    assert d == n and flag
    assert len(every) == (p - 1) * p**n
    assert ws == {Poly(dom, cs) for cs in every}
    d, ws, flag = brute_min_annihilator(s, require_nonzero_constant=True)
    assert d == n and flag
    assert len(ws) == (p - 1) ** 2 * p ** (n - 1)
    assert ws == {Poly(dom, cs) for cs in every if cs[0]}
