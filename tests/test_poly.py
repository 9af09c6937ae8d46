import sys

import pytest

from seqmin import ring
from seqmin.poly import (
    PairedPoly,
    Poly,
    ScaledPoly,
    add_scaled,
    divmod_field,
    format_poly,
    mul,
    parse_poly,
    poly_part,
    pretty_poly,
    pseudo_divide,
    series_prefix,
)
from seqmin.ring import (
    GF2,
    DomainError,
    DomainMismatchError,
    GFp,
    GFpPolyRing,
    IntegerRing,
    Product,
)
from seqmin.sequence import SequenceView
from util import count_conversions, seeded

GF2_ = GF2()
Z = IntegerRing()


def P(dom, *coeffs):
    return Poly(dom, coeffs)


def test_canonical_form_trims_leading_zeros():
    f = P(Z, 1, 2, 0, 0)
    assert f.coeffs == (1, 2)
    assert f.degree() == 1
    assert Poly(Z, []).is_zero()
    assert Poly.zero(Z).degree() is None


def test_coeff_lead_constant():
    f = P(Z, 3, 0, 5)
    assert f.coeff(0) == 3 and f.coeff(2) == 5 and f.coeff(7) == 0
    assert f.lead() == 5
    assert f.constant_term() == 3
    with pytest.raises(DomainError):
        Poly.zero(Z).lead()


def test_arithmetic():
    f = P(Z, 1, 1)
    g = P(Z, -1, 1)
    assert (f * g).coeffs == (-1, 0, 1)
    assert (f + g).coeffs == (0, 2)
    assert (f - f).is_zero()
    assert (-f).coeffs == (-1, -1)
    assert f.scale(3).coeffs == (3, 3)


@pytest.mark.parametrize("dom", [GF2_, GFp(7), Z, GFpPolyRing(3)], ids=lambda d: d.descriptor())
def test_add_sub_match_add_scaled(dom):
    """f + g and f - g equal add_scaled(1, 0, f, +-1, 0, g), also when leads cancel."""
    terms = [(), (1,), (2, 1), (0, 0, 1)] if isinstance(dom, GFpPolyRing) else [0, 1, 2, 5, -3]
    vals = [dom.coerce(t) for t in terms]
    polys = [Poly(dom, [vals[(3 * k + j) % len(vals)] for j in range(n)])
             for k in range(4) for n in range(5)]
    one = dom.one
    for f in polys:
        for g in polys:
            assert f + g == add_scaled(one, 0, f, one, 0, g)
            assert f - g == add_scaled(one, 0, f, dom.neg(one), 0, g)
        assert (f - f).is_zero()
    with pytest.raises(DomainMismatchError):
        P(GF2_, 1) + P(GFp(3), 1)


def test_mul_over_gfp():
    F = GFp(5)
    f = P(F, 2, 3)
    g = P(F, 4, 1)
    assert mul(f, g).coeffs == (3, 4, 3)  # (2+3x)(4+x) = 8+14x+3x^2


def test_x_valuation_and_reciprocal():
    f = P(GF2_, 0, 1, 0, 1)  # x + x^3
    assert f.x_valuation() == 1
    assert f.reciprocal().coeffs == (1, 0, 1)  # x^3 f(1/x) = 1 + x^2
    assert Poly.zero(GF2_).reciprocal().is_zero()
    with pytest.raises(DomainError):
        Poly.zero(GF2_).x_valuation()


def test_monic_and_divide_exact():
    F = GFp(7)
    f = P(F, 2, 4)
    assert f.monic().coeffs == (4, 1)


def test_add_scaled():
    # 2*x*(1+x) + (-1)*(3+x) = -3 + x + 2x^2
    out = add_scaled(2, 1, P(Z, 1, 1), -1, 0, P(Z, 3, 1))
    assert out.coeffs == (-3, 1, 2)


def test_dot_stops_at_the_shorter_factor_list():
    F = GFp(7)
    assert F.dot((3, 0, 5), (2, 4, 1, 6)) == (3 * 2 + 5 * 1) % 7
    assert F.dot((3, 5), ()) == 0
    assert Z.dot((2, -1), (0, 4)) == -4


def test_divmod_field():
    F = GFp(5)
    f = P(F, 1, 0, 0, 1)  # x^3+1
    g = P(F, 1, 1)        # x+1
    q, r = divmod_field(f, g)
    assert (mul(q, g) + r) == f
    assert r.is_zero()
    with pytest.raises(DomainError):
        divmod_field(P(Z, 1, 1), P(Z, 2))


def test_pseudo_divide_over_integers():
    f = P(Z, -5, 2, 8, -3, -3, 0, 1, 0, 1)
    g = P(Z, 21, -9, -4, 0, 5, 0, 3)
    q, r, scale = pseudo_divide(f, g)
    assert add_scaled(scale, 0, f, -1, 0, mul(q, g)) == r
    assert r.degree() < g.degree()
    assert scale == 3 ** (f.degree() - g.degree() + 1)


def _pseudo_divide_two_branch(f, g):
    """Pseudo-division as a two-branch loop: a reduction step when r still
    has degree dg + k, else q and r only multiplied by ell; ell^k is formed
    afterwards by repeated products."""
    dom = f.dom
    if f.is_zero() or f.degree() < g.degree():
        return Poly.zero(dom), f, dom.one
    ell = g.lead()
    dg = g.degree()
    q = Poly.zero(dom)
    r = f
    for k in range(f.degree() - dg, -1, -1):
        if r.degree() is not None and r.degree() == dg + k:
            t = r.lead()
            q = add_scaled(ell, 0, q, t, k, Poly.one(dom))
            r = add_scaled(ell, 0, r, dom.neg(t), k, g)
        else:
            q = q.scale(ell)
            r = r.scale(ell)
    scale = dom.one
    for _ in range(f.degree() - dg + 1):
        scale = dom.mul(scale, ell)
    return q, r, scale


def _random_coeff(dom, rng):
    """A random canonical coefficient, zero about a third of the time."""
    if rng.random() < 0.35:
        return dom.zero
    if isinstance(dom, IntegerRing):
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    if isinstance(dom, GFpPolyRing):
        return dom.coerce([rng.randrange(dom.p) for _ in range(rng.randint(1, 3))])
    return dom.coerce(rng.randrange(dom.p))


def _random_poly(dom, deg, rng):
    """A polynomial of exactly degree deg with random lower coefficients."""
    lead = dom.zero
    while dom.is_zero(lead):
        lead = _random_coeff(dom, rng)
    return Poly(dom, [_random_coeff(dom, rng) for _ in range(deg)] + [lead])


def test_pseudo_divide_matches_the_two_branch_loop():
    """The one-update loop gives the two-branch loop's (q, r, scale) exactly.

    Over GF(2), GF(7), Z and GF(3)[y], on random f and g of four kinds:
    deg f >= deg g, deg f < deg g, constant g, and f a multiple of g (so
    the degree of r drops early).  Coefficients are zero a third of the
    time, which puts interior zeros in f and g and the zero y-polynomial
    () in GF(3)[y]'s.
    """
    rng = seeded(17)
    kinds = ("general", "low", "constant g", "multiple")
    seen = {"inputs": 0, "interior zero": 0, "zero y-polynomial": 0, "early drop": 0}
    for dom in (GF2_, GFp(7), Z, GFpPolyRing(3)):
        for i in range(560):
            kind = kinds[i % 4]
            dg = 0 if kind == "constant g" else rng.randint(1, 4)
            g = _random_poly(dom, dg, rng)
            if kind == "low":
                f = _random_poly(dom, rng.randint(0, dg - 1), rng)
            elif kind == "multiple":
                f = mul(_random_poly(dom, rng.randint(0, 4), rng), g)
            else:
                f = _random_poly(dom, rng.randint(dg, dg + 6), rng)
            q, r, scale = pseudo_divide(f, g)
            assert (q, r, scale) == _pseudo_divide_two_branch(f, g)
            assert add_scaled(scale, 0, f, dom.neg(dom.one), 0, mul(q, g)) == r
            assert r.is_zero() or r.degree() < g.degree()
            seen["inputs"] += 1
            seen["interior zero"] += any(dom.is_zero(c) for c in f.coeffs)
            seen["zero y-polynomial"] += () in f.coeffs + g.coeffs
            seen["early drop"] += kind == "multiple" and f.degree() > dg
    assert seen["inputs"] >= 2000
    assert min(seen.values()) >= 100, seen


def test_pseudo_divide_trivial_cases():
    q, r, scale = pseudo_divide(P(Z, 1), P(Z, 0, 1))
    assert q.is_zero() and r.coeffs == (1,) and scale == 1
    with pytest.raises(DomainError):
        pseudo_divide(P(Z, 1), Poly.zero(Z))


def test_paired_poly_ops():
    p = PairedPoly(P(GF2_, 1, 1), P(GF2_, 0, 1))
    t = p.tilde()
    assert t.f.coeffs == (0, 1) and t.f2.coeffs == (1, 1)
    assert (mul(p.f, t.f) + mul(p.f2, t.f2)).is_zero()  # f*(-f2) + f2*f = 0
    # x * p + p, componentwise: (1 + x, x) -> (1 + x^2, x + x^2)
    assert add_scaled(1, 1, p.f, 1, 0, p.f) == P(GF2_, 1, 0, 1)
    assert add_scaled(1, 1, p.f2, 1, 0, p.f2) == P(GF2_, 0, 1, 1)


def test_paired_poly_is_its_tuple():
    f, f2 = P(GF2_, 1, 1), P(GF2_, 0, 1)
    p = PairedPoly(f, f2)
    a, b = p
    assert (a, b) == (f, f2) and p == (f, f2) and hash(p) == hash((f, f2))
    assert repr(p) == "(1,1, 0,1)"
    assert p + p == PairedPoly(Poly.zero(GF2_), Poly.zero(GF2_))
    with pytest.raises(DomainMismatchError):
        PairedPoly(f, P(GFp(3), 0, 1))


def test_poly_part_examples():
    # mu = x^4+x^2+x on the engine's worked sequence gives mu2 = x^2+x+1
    s = SequenceView(GF2_, [0, 1, 1, 0, 0, 1, 0, 1])
    f = P(GF2_, 0, 1, 1, 0, 1)
    assert poly_part(f, s).coeffs == (1, 1, 1)
    assert poly_part(Poly.zero(GF2_), s).is_zero()
    assert poly_part(f, SequenceView(GF2_, [0, 0])).is_zero()


def test_series_prefix_gf2():
    u2 = P(GF2_, 1, 0, 1)
    u = P(GF2_, 1, 0, 0, 1)
    s = series_prefix(u2, u, 6)
    assert list(s) == [1, 0, 1, 1, 0, 1]


def test_series_prefix_int():
    # (x+1)/(x^2+1): 1/x + 1/x^2 - 1/x^3 - 1/x^4 + ...
    s = series_prefix(P(Z, 1, 1), P(Z, 1, 0, 1), 4)
    assert list(s) == [1, 1, -1, -1]


def test_series_prefix_requires_monic():
    with pytest.raises(DomainError):
        series_prefix(P(Z, 1), P(Z, 1, 2), 3)


def test_parse_and_format():
    f = parse_poly(GF2_, "1,0,0,1")
    assert f.coeffs == (1, 0, 0, 1)
    assert format_poly(f) == "1,0,0,1"
    assert format_poly(Poly.zero(GF2_)) == "0"
    assert pretty_poly(f) == "x^3 + 1"
    assert pretty_poly(parse_poly(IntegerRing(), "-3,1")) == "x - 3"
    assert pretty_poly(Poly.zero(GF2_)) == "0"
    R3 = GFpPolyRing(3)
    for dom, cs, pretty, plain in [
        (Z, (-1, 2, 0, -1), "-x^3 + 2*x - 1", "-1,2,0,-1"),
        (Z, (0, -1), "-x", "0,-1"),
        (Z, (5,), "5", "5"),
        (Z, (-5,), "-5", "-5"),
        (Z, (0, 0, 1, -1), "-x^3 + x^2", "0,0,1,-1"),
        (Z, (1, 1, -3, 1), "x^3 - 3*x^2 + x + 1", "1,1,-3,1"),
        (GFp(7), (6, 0, 3, 1), "x^3 + 3*x^2 + 6", "6,0,3,1"),
        (R3, ((1, 2), (), (0, 1)), "(0,1)*x^2 + (1,2)", "(1,2),(0),(0,1)"),
        (R3, ((2,), (1,)), "(1)*x + (2)", "(2),(1)"),
    ]:
        assert (pretty_poly(Poly(dom, cs)), format_poly(Poly(dom, cs))) == (pretty, plain), cs
    g = parse_poly(GFpPolyRing(3), "(1,2),(0,1)")
    assert g.coeffs == ((1, 2), (0, 1))


def test_scaled_poly_text_converts_its_content_once(monkeypatch):
    """pretty_poly and format_poly of a ScaledPoly whose content c is longer than
    DECIMAL_BITS, with zero, negative and long m, print what they print for a
    plain Poly with the same coefficients, and convert c, and nothing else, to a
    Decimal once per polynomial when c is an int (`poly.coeff_texts` through
    `ring.scaled_texts`), and once for every polynomial it scales when c is
    a `ring.Product`."""
    rng = seeded(2401)
    converted = count_conversions(monkeypatch)
    w = ring.DECIMAL_BITS + 1000
    ms = [0, 7, -1, 1, 0, -(2**200 + 7), rng.getrandbits(50000), 0, -12345, 1]
    for c in (rng.getrandbits(w) | 1 << (w - 1), -(rng.getrandbits(w) | 1 << (w - 1))):
        for f in (ScaledPoly(c, Poly(Z, ms)), -ScaledPoly(c, Poly(Z, ms))):
            plain = Poly(Z, f.coeffs)
            assert type(plain) is Poly and plain == f
            for write in (pretty_poly, format_poly):
                converted.clear()
                text = write(f)
                assert converted == [c], write
                assert text == write(plain), write
            limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
            try:
                if limit is not None:
                    sys.set_int_max_str_digits(0)
                assert format_poly(f) == ",".join(map(str, f.coeffs))
            finally:
                if limit is not None:
                    sys.set_int_max_str_digits(limit)
        node, texts = Product(c, 1, 1), []
        converted.clear()
        for f in (ScaledPoly(node, Poly(Z, ms)), -ScaledPoly(node, Poly(Z, ms))):
            texts += [(write, f, write(f)) for write in (pretty_poly, format_poly)]
        assert converted == [c]
        for write, f, text in texts:
            assert text == write(Poly(Z, f.coeffs)), write
