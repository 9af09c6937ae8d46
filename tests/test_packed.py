"""Packed (Kronecker) products and identity checks against independent references.

`poly.mul` over GF(2), GF(p) and GF(p)[y], and `GFpPolyRing.mul`, go
through `ring.inner_mod`.  Each product here is compared with sympy's
`Poly(..., modulus=p)` and with the generic schoolbook loop `Domain.inner`,
over a seeded sweep of lengths on both sides of the crossover, with zero
coefficients, all-(p-1) factors (the fullest slots) and sums whose leading
terms cancel mod p.  Sums of products, `inner_mod`, are checked in one-byte
slots (reduced by a translate table) for every prime that has them.  The
identity checks of GFp and GFpPolyRing (`lfsr.verify_identity`, one
`inner_mod` each) are compared with the schoolbook expansion
`util.schoolbook_is_constant` and with `util.verify_pair_identity` on true
identities, on the same identities with one coefficient moved by one and
with the constant moved by one.
"""

import pytest
import sympy

from seqmin.lfsr import minimal_realisation, verify_identity
from seqmin.poly import PairedPoly, Poly, mul
from seqmin.ring import GF2, Domain, GFp, GFpPolyRing, inner_mod
from seqmin.sequence import SequenceView

from util import schoolbook_is_constant, seeded, verify_pair_identity

X, Y = sympy.symbols("x y")
FIELDS = [GF2(), GFp(7), GFp(2**31 - 1)]

# (len f, len g): every pair up to 12 x 12 straddles the crossover
# ((len f - 1) * (len g - 1) = 25); then unbalanced and long products up to
# 333 coefficients
LENGTHS = [(a, b) for a in range(1, 13) for b in range(1, 13)] + [
    (1, 300), (2, 300), (300, 3), (7, 9), (9, 7), (8, 8), (13, 5),
    (31, 32), (64, 100), (128, 129), (300, 301), (50, 333)]


def _sympy_mul(fs, gs, p):
    """Ascending coefficients of fs * gs in GF(p)[x], all len fs + len gs - 1."""
    prod = sympy.Poly.from_list(fs[::-1], X, modulus=p) * sympy.Poly.from_list(gs[::-1], X, modulus=p)
    cs = [int(c) % p for c in reversed(prod.all_coeffs())]
    return cs + [0] * (len(fs) + len(gs) - 1 - len(cs))


def _schoolbook(dom, fs, gs):
    """fs * gs by the generic loop `Domain.inner`, whatever dom's own kernel."""
    return Domain.inner(dom, [(fs, gs)])


def _random_coeffs(rng, p, n, zeros):
    """n coefficients, each zero with probability `zeros`, nonzero lead."""
    cs = [0 if rng.random() < zeros else rng.randrange(p) for _ in range(n)]
    cs[-1] = rng.randrange(1, p)
    return cs


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.descriptor())
def test_mul_matches_sympy_and_schoolbook(dom):
    p, rng = dom.p, seeded(101)
    for a, b in LENGTHS:
        for zeros in (0.0, 0.5):
            fs, gs = _random_coeffs(rng, p, a, zeros), _random_coeffs(rng, p, b, zeros)
            want = _sympy_mul(fs, gs, p)
            assert GFp(p).inner([(fs, gs)]) == want, (a, b)
            assert _schoolbook(dom, fs, gs) == want, (a, b)
            assert mul(Poly(dom, fs), Poly(dom, gs)).coeffs == tuple(want)
        # all coefficients p - 1: every slot holds its largest unreduced value
        top = [p - 1] * a, [p - 1] * b
        assert GFp(p).inner([top]) == _sympy_mul(*top, p) == _schoolbook(dom, *top), (a, b)


@pytest.mark.parametrize("dom", FIELDS, ids=lambda d: d.descriptor())
def test_leading_terms_cancelling_mod_p(dom):
    """f*g + f*(c - g) = c*f: every coefficient above deg f cancels mod p."""
    p, rng = dom.p, seeded(102)
    for a, b in [(3, 4), (20, 30), (300, 310)]:
        f = Poly(dom, _random_coeffs(rng, p, a, 0.3))
        g = Poly(dom, _random_coeffs(rng, p, b, 0.3))
        c = rng.randrange(1, p)
        rest = Poly(dom, [c]) - g
        total = mul(f, g) + mul(f, rest)
        assert total == f.scale(c)
        assert total.coeffs == tuple(_sympy_mul(list(f.coeffs), [c], p))


def _random_ypoly(rng, p, n, zeros=0.3):
    return tuple(_random_coeffs(rng, p, n, zeros)) if n else ()


def _sympy_ypoly(a, p):
    return sympy.Poly.from_list(list(a[::-1]) or [0], Y, modulus=p)


def test_gfp_poly_scalar_mul_matches_sympy_and_schoolbook():
    R = GFpPolyRing(3)
    F3, rng = GFp(3), seeded(103)
    for a, b in LENGTHS:
        x, y = _random_ypoly(rng, 3, a), _random_ypoly(rng, 3, b)
        got = R.mul(x, y)
        prod = _sympy_ypoly(x, 3) * _sympy_ypoly(y, 3)
        assert got == tuple(int(c) % 3 for c in reversed(prod.all_coeffs())), (a, b)
        assert list(got) == _schoolbook(F3, list(x), list(y)), (a, b)
    assert R.mul((), (1, 2)) == R.mul((2,), ()) == ()


def _sympy_xypoly(cs, p):
    terms = {(i, k): c for i, ys in enumerate(cs) for k, c in enumerate(ys)}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, Y, modulus=p)


def _from_sympy_xy(poly, p, n):
    """Ascending x-coefficients (trimmed y-tuples) of a sympy poly in x, y."""
    out = [[] for _ in range(n)]
    for (i, k), c in poly.as_dict().items():
        ys = out[i]
        ys += [0] * (k + 1 - len(ys))
        ys[k] = int(c) % p
    return tuple(GFpPolyRing._trim(ys) for ys in out)


@pytest.mark.parametrize("xlens,ylen", [
    ((1, 1), 1), ((2, 3), 4), ((4, 5), 3), ((7, 9), 2), ((12, 12), 6),
    ((40, 33), 5), ((300, 2), 3), ((301, 300), 1), ((5, 8), 60)])
def test_gfp_poly_x_mul_matches_sympy_and_schoolbook(xlens, ylen):
    """Coefficients are y-polynomials of length 0..ylen, zero ones included."""
    R, rng = GFpPolyRing(3), seeded(104)
    for _ in range(3):
        f, g = ([_random_ypoly(rng, 3, rng.randrange(ylen + 1)) for _ in range(n)]
                for n in xlens)
        f[-1] = _random_ypoly(rng, 3, ylen)
        g[-1] = _random_ypoly(rng, 3, rng.randrange(1, ylen + 1))
        got = mul(Poly(R, f), Poly(R, g))
        n = len(f) + len(g) - 1
        prod = _sympy_xypoly(f, 3) * _sympy_xypoly(g, 3)
        assert got.coeffs == _from_sympy_xy(prod, 3, n)
        assert got.coeffs == tuple(_schoolbook(R, f, g))


def test_gfp_poly_x_mul_trims_cancelled_y_leads():
    """(y + (1+y) x)(2y + y x): x^1 is y^2 + 2y + 2y^2 = 2y over GF(3)."""
    R = GFpPolyRing(3)
    got = mul(Poly(R, [(0, 1), (1, 1)]), Poly(R, [(0, 2), (0, 1)]))
    assert got.coeffs == ((0, 0, 2), (0, 2), (0, 1, 1))
    # a zero y-polynomial in the middle of both factors
    got = mul(Poly(R, [(1,), (), (2, 1)]), Poly(R, [(2,), (), (1, 1)]))
    assert got.coeffs == tuple(_schoolbook(R, [(1,), (), (2, 1)], [(2,), (), (1, 1)]))
    assert got.coeffs[1] == got.coeffs[3] == ()


def test_identity_checker_past_the_old_slot_widths():
    """Two true identities the fixed 8- and 16-bit packers got wrong.

    GF(2): f*f + 1*(f^2 + 1) = 1 with deg f = 300 (f^2 has coefficients up
    to 301 before reduction).  GF(7): f*f + 1*(1 - f^2) = 1 with
    f = 6*(1 + ... + x^2000) (unreduced coefficients up to 36 * 2001).
    """
    F2 = GF2()
    f = Poly(F2, [1] * 301)
    a, b = PairedPoly(f, Poly.one(F2)), PairedPoly(f, mul(f, f) + Poly.one(F2))
    assert verify_pair_identity(a, b, 1)
    assert not verify_pair_identity(a, b, 0)

    F7 = GFp(7)
    f = Poly(F7, [6] * 2001)
    a, b = PairedPoly(f, Poly.one(F7)), PairedPoly(f, Poly.one(F7) - mul(f, f))
    assert verify_pair_identity(a, b, 1)
    assert not verify_pair_identity(a, b, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_inner_mod_in_byte_slots_and_just_past_them(p):
    """Sums of two products with the fullest one-byte slots, and one slot wider.

    A slot is one byte while (p - 1)^2 * (sum of min(len f, len g)) <= 255;
    `top` is the largest such sum, so the all-(p - 1) factors below fill a
    byte slot to within (p - 1)^2 of 255, and `top + 1` needs two bytes.
    """
    dom, rng = GFp(p), seeded(105)
    top = 255 // (p - 1) ** 2
    for total in (top, top + 1):
        a = rng.randint(1, max(1, total - 1))
        shapes = [(a, a + rng.randrange(4)), (total - a + rng.randrange(4), total - a)][:1 + (total > a)]
        for fill in ("top", "random"):
            pairs = []
            for la, lb in shapes:
                if fill == "top":
                    pairs.append(([p - 1] * la, [p - 1] * lb))
                else:
                    pairs.append((_random_coeffs(rng, p, la, 0.2), _random_coeffs(rng, p, lb, 0.2)))
            want = [0] * (max(len(f) + len(g) for f, g in pairs) - 1)
            for f, g in pairs:
                for k, c in enumerate(_schoolbook(dom, f, g)):
                    want[k] = (want[k] + c) % p
            assert inner_mod(pairs, p) == want, (total, fill)
            for f, g in pairs:
                assert inner_mod([(f, g)], p) == _sympy_mul(f, g, p)


def _identity(dom, pairs, c):
    """verify_identity's verdict on sum f * g == c over one or two pairs (f, g);
    the schoolbook expansion must reach the same verdict."""
    (f, g), (f2, g2) = (list(pairs) + [((), ())])[:2]
    a, b = PairedPoly(Poly(dom, f), Poly(dom, f2)), PairedPoly(Poly(dom, g), Poly(dom, g2))
    verdict = verify_identity(a, b, c)
    assert schoolbook_is_constant(dom, pairs, c) == verdict
    return verdict


def test_gfp_poly_check_tells_x_coefficients_from_y_coefficients():
    """f * g = 1 + x, the constant is 1 + y: false, though both read [1, 1].

    With x = y^D and D = 1, which the products alone ask for, the x^1 chunk
    of the flattened sum sits in y^1's slot.  `verify_identity` reads the
    sum back x-coefficient by x-coefficient and compares it with c, 0, 0,
    ...: 1 against 1 + y and 1 against 0, so 1 + x cannot pass for 1 + y.
    Each verdict is also the schoolbook expansion's
    (`util.schoolbook_is_constant`), which shares no packing.
    """
    R = GFpPolyRing(3)
    pairs = [(((1,), (1,)), ((1,),))]
    assert not _identity(R, pairs, (1, 1))
    assert not _identity(R, pairs, (1,))
    one_plus_y = [(((1,),), ((1, 1),))]
    assert _identity(R, one_plus_y, (1, 1))
    assert not _identity(R, one_plus_y, (1, 1, 1))
    # c longer than every product, with a zero x^1 chunk beside it
    assert not _identity(R, [(((1,), (), (1,)), ((1,),))], (1, 0, 1))
    assert _identity(R, [(((1, 0, 1),), ((1,),))], (1, 0, 1))
    assert _identity(R, [(((1,),), ((1,),)), (((2,),), ((1,),))], ())


PACKED_CHECK_DOMAINS = {
    "gf2": (GF2(), 40, lambda rng: rng.randrange(2)),
    "gfp:7": (GFp(7), 30, lambda rng: rng.randrange(7)),
    "gfp:2147483647": (GFp(2**31 - 1), 20, lambda rng: rng.randrange(2**31 - 1)),
    "gfp_poly:3": (GFpPolyRing(3), 10,
                   lambda rng: tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))),
}


def _check_agrees(dom, a, b, c):
    """The packed check, the schoolbook expansion and the reference agree; the verdict."""
    want = verify_pair_identity(a, b, c)
    pairs = ((a.f.coeffs, b.f.coeffs), (a.f2.coeffs, b.f2.coeffs))
    assert schoolbook_is_constant(dom, pairs, c) == want
    assert verify_identity(a, b, c) == want
    return want


def _moved_by_one(dom, p: Poly, rng):
    """p with one coefficient (anywhere up to one past the lead) plus one."""
    cs = list(p.coeffs) + [dom.zero]
    k = rng.randrange(len(cs))
    cs[k] = dom.add(cs[k], dom.one)
    return Poly(dom, cs)


def _long_identity(dom, draw, rng, la, lb, c):
    """(f, 1) . (g, c - f g) = c, with f, g of lengths la, lb."""
    f = Poly(dom, [draw(rng) for _ in range(la - 1)] + [dom.one])
    g = Poly(dom, [draw(rng) for _ in range(lb - 1)] + [dom.one])
    return PairedPoly(f, Poly.one(dom)), PairedPoly(g, Poly.constant(dom, c) - mul(f, g)), c


@pytest.mark.parametrize("ring", sorted(PACKED_CHECK_DOMAINS))
def test_packed_checks_agree_with_the_generic_route_and_the_reference(ring):
    """The engine's identities and long synthetic ones, true and moved by one.

    Moving a coefficient of a factor by one moves the sum by x^k times the
    factor's partner, so the moved identity is false unless the partner is
    zero; moving the constant by one makes it false.  The synthetic
    identities reach slots of two bytes over GF(2) and GF(7); GF(2^31 - 1)
    always needs more than eight, the byte-by-byte path.
    """
    dom, nmax, draw = PACKED_CHECK_DOMAINS[ring]
    rng = seeded(106)
    cases = []
    for n in range(1, nmax + 1):
        res = minimal_realisation(SequenceView(dom, [draw(rng) for _ in range(n)]))
        mu_fg = PairedPoly(res.mu.f, res.mu_prime.f)
        cases += [(res.bez_numu, res.mu, res.nabla), (res.bez_fg, mu_fg, res.nabla)]
    for la, lb in [(1, 1), (3, 40), (70, 90), (200, 300)]:
        if isinstance(dom, GFpPolyRing):
            if lb <= 40:
                cases.append(_long_identity(dom, draw, rng, la, lb, (1, 2, 1)))
        else:
            cases.append(_long_identity(dom, draw, rng, la, lb, rng.randrange(1, dom.p)))
    held = moved = 0
    for a, b, c in cases:
        assert _check_agrees(dom, a, b, c)
        assert not _check_agrees(dom, a, b, dom.add(c, dom.one))
        polys = [a.f, a.f2, b.f, b.f2]
        for k in range(4):
            changed = list(polys)
            changed[k] = _moved_by_one(dom, polys[k], rng)
            verdict = _check_agrees(dom, PairedPoly(*changed[:2]), PairedPoly(*changed[2:]), c)
            # a.f pairs with b.f, a.f2 with b.f2
            assert verdict == polys[k ^ 2].is_zero()
            held += verdict
            moved += 1
    assert held < moved // 2
