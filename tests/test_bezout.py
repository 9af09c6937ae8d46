import pytest

from seqmin.bezout import bezout_pair, lrs_identity, reduce_equal_degree
from seqmin.oracle import ext_euclid
from seqmin.poly import Poly, mul, parse_poly, series_prefix
from seqmin.ring import DomainError, GF2, GFp, GFpPolyRing, IntegerRing
from seqmin.sequence import SequenceView
from util import seeded

F2 = GF2()
F5 = GFp(5)
Z = IntegerRing()


def test_reduce_equal_degree_examples():
    u2r, adapter = reduce_equal_degree(parse_poly(F2, "1,0,1"), parse_poly(F2, "0,1,1"))
    assert u2r == parse_poly(F2, "1,1")
    u2r, _ = reduce_equal_degree(parse_poly(Z, "1,1"), parse_poly(Z, "3,2"))
    assert u2r.coeffs == (-1,)
    u = parse_poly(Z, "1,1")
    u2r, _ = reduce_equal_degree(u, u)
    assert u2r.is_zero()


def test_reduce_equal_degree_adapter_identity():
    rng = seeded(31)
    for _ in range(30):
        d = rng.randint(1, 5)
        u = Poly(F5, [rng.randrange(5) for _ in range(d)] + [1])
        u2 = Poly(F5, [rng.randrange(5) for _ in range(d)] + [rng.randrange(1, 5)])
        u2r, adapter = reduce_equal_degree(u, u2)
        if u2r.is_zero():
            continue
        res = bezout_pair(u, u2r)
        mapped = adapter(res.f)
        assert mul(mapped.f, u) + mul(mapped.f2, u2) == res.g


def test_reduce_equal_degree_preconditions():
    with pytest.raises(DomainError):
        reduce_equal_degree(parse_poly(Z, "1,2"), parse_poly(Z, "1,1"))  # not monic
    with pytest.raises(DomainError):
        reduce_equal_degree(parse_poly(Z, "1,0,1"), parse_poly(Z, "1,1"))


def test_worked_bezout_example():
    res = bezout_pair(parse_poly(F2, "1,0,0,1"), parse_poly(F2, "1,0,1"))
    assert res.f.f == Poly.one(F2)
    assert res.f.f2 == parse_poly(F2, "0,1")
    assert res.nabla == 1
    assert res.g == parse_poly(F2, "1,1")


def test_bezout_u2_constant():
    res = bezout_pair(parse_poly(F5, "2,0,1"), parse_poly(F5, "3"))
    assert res.g.degree() == 0 and not res.g.is_zero()
    assert mul(res.f.f, parse_poly(F5, "2,0,1")) + res.f.f2.scale(3) == res.g


def test_bezout_u2_zero_convention():
    u = parse_poly(F2, "1,1")
    res = bezout_pair(u, Poly.zero(F2))
    assert res.f.f == Poly.one(F2) and res.f.f2.is_zero()
    assert res.g == u and res.nabla == 1


def test_bezout_repeated_factor():
    # (x+1)^2 and (x+1) over GF(5): g is a scalar multiple of x+1
    u = parse_poly(F5, "1,2,1")
    u2 = parse_poly(F5, "1,1")
    res = bezout_pair(u, u2)
    assert res.g.monic() == parse_poly(F5, "1,1")
    assert mul(res.f.f, u) + mul(res.f.f2, u2) == res.g


def test_bezout_matches_euclid_up_to_scalar():
    rng = seeded(32)
    for _ in range(60):
        d = rng.randint(1, 6)
        u = Poly(F5, [rng.randrange(5) for _ in range(d)] + [1])
        u2 = Poly(F5, [rng.randrange(5) for _ in range(rng.randint(0, d))])
        res = bezout_pair(u, u2)
        assert mul(res.f.f, u) + mul(res.f.f2, u2) == res.g
        if u2.is_zero():
            continue
        g, _, _ = ext_euclid(u, u2)
        assert res.g == g.scale(res.g.lead())


def test_bezout_over_integers():
    rng = seeded(33)
    for _ in range(40):
        d = rng.randint(1, 6)
        u = Poly(Z, [rng.randint(-9, 9) for _ in range(d)] + [1])
        u2 = Poly(Z, [rng.randint(-9, 9) for _ in range(rng.randint(0, d))])
        res = bezout_pair(u, u2)
        assert mul(res.f.f, u) + mul(res.f.f2, u2) == res.g
        if not res.g.is_zero():
            import sympy
            x = sympy.symbols("x")
            pu = sympy.Poly(list(reversed(u.coeffs)), x)
            pu2 = sympy.Poly(list(reversed(u2.coeffs)) or [0], x)
            pg = sympy.Poly(list(reversed(res.g.coeffs)), x)
            expected = sympy.gcd(pu, pu2)
            quot, rem = sympy.div(pg, expected, x)
            assert rem == 0 and sympy.degree(quot, x) <= 0


def test_bezout_bivariate_coefficients():
    # u, u2 in (GF(3)[y])[x] with u monic in x
    R = GFpPolyRing(3)
    u = Poly(R, [(1, 1), (0,), (1,)])        # x^2 + (1+y)
    u2 = Poly(R, [(2,), (0, 1)])             # y*x + 2
    res = bezout_pair(u, u2)
    assert mul(res.f.f, u) + mul(res.f.f2, u2) == res.g
    assert not res.g.is_zero()


def test_bezout_degree_bounds():
    rng = seeded(34)
    for _ in range(40):
        d = rng.randint(2, 6)
        u = Poly(F2, [rng.randrange(2) for _ in range(d)] + [1])
        u2 = Poly(F2, [rng.randrange(2) for _ in range(rng.randint(1, d))])
        if u2.is_zero():
            continue
        res = bezout_pair(u, u2)
        assert res.f.f.is_zero() or res.f.f.degree() < d
        assert res.f.f2.is_zero() or res.f.f2.degree() < d


def test_bezout_preconditions():
    with pytest.raises(DomainError):
        bezout_pair(parse_poly(Z, "1,2"), parse_poly(Z, "1"))  # not monic
    with pytest.raises(DomainError):
        bezout_pair(parse_poly(F2, "1"), parse_poly(F2, "1"))  # degree 0
    with pytest.raises(DomainError):
        bezout_pair(parse_poly(F2, "1,1"), parse_poly(F2, "1,1,1"))


def test_lrs_identity_fibonacci():
    dom = GFp(5)
    s = SequenceView(dom, [1, 1, 2, 3, 0, 3, 3, 1])
    res = lrs_identity(s)
    assert res.mu.f.monic() == parse_poly(dom, "4,4,1")  # x^2 - x - 1
    assert res.stable
    total = mul(res.f.f, res.mu.f) + mul(res.f.f2, res.mu.f2)
    assert total == Poly.constant(dom, res.nabla)


def test_lrs_identity_all_zero():
    res = lrs_identity(SequenceView(F2, [0, 0, 0, 0]))
    assert res.mu.f == Poly.one(F2)
    assert res.nabla == 1 and res.stable


def test_lrs_identity_series_roundtrip():
    u = parse_poly(Z, "1,0,1")
    s = series_prefix(Poly.one(Z), u, 4)
    res = lrs_identity(s)
    # mu is x^2+1 up to a scalar
    assert res.mu.f == u.scale(res.mu.f.lead())


def test_lrs_identity_instability_flag():
    # a prefix too short for its recurrence: mu still moving at the end
    s = SequenceView(F2, [0, 0, 0, 1])
    res = lrs_identity(s)
    assert not res.stable


def test_count_mults_reported():
    res = bezout_pair(parse_poly(F2, "1,0,0,1"), parse_poly(F2, "1,0,1"),
                      count_mults=True)
    assert res.mults > 0
