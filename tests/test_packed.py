"""Packed (Kronecker) products against two independent references.

`poly.mul` over GF(2), GF(p) and GF(p)[y], and `GFpPolyRing.mul`, go
through `ring.mul_mod`.  Each product here is compared with sympy's
`Poly(..., modulus=p)` and with the generic schoolbook loop
`Domain.polymul`, over a seeded sweep of lengths on both sides of the
crossover, with zero coefficients, all-(p-1) factors (the fullest slots)
and sums whose leading terms cancel mod p.
"""

import pytest
import sympy

from seqmin.poly import PairedPoly, Poly, mul
from seqmin.ring import GF2, Domain, GFp, GFpPolyRing, mul_mod

from util import seeded, verify_pair_identity

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
            assert mul_mod(fs, gs, p) == want, (a, b)
            assert Domain.polymul(dom, fs, gs) == want, (a, b)
            assert mul(Poly(dom, fs), Poly(dom, gs)).coeffs == tuple(want)
        # all coefficients p - 1: every slot holds its largest unreduced value
        top = [p - 1] * a, [p - 1] * b
        assert mul_mod(*top, p) == _sympy_mul(*top, p) == Domain.polymul(dom, *top), (a, b)


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
        assert list(got) == Domain.polymul(F3, list(x), list(y)), (a, b)
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
        assert got.coeffs == tuple(Domain.polymul(R, f, g))


def test_gfp_poly_x_mul_trims_cancelled_y_leads():
    """(y + (1+y) x)(2y + y x): x^1 is y^2 + 2y + 2y^2 = 2y over GF(3)."""
    R = GFpPolyRing(3)
    got = mul(Poly(R, [(0, 1), (1, 1)]), Poly(R, [(0, 2), (0, 1)]))
    assert got.coeffs == ((0, 0, 2), (0, 2), (0, 1, 1))
    # a zero y-polynomial in the middle of both factors
    got = mul(Poly(R, [(1,), (), (2, 1)]), Poly(R, [(2,), (), (1, 1)]))
    assert got.coeffs == tuple(Domain.polymul(R, [(1,), (), (2, 1)], [(2,), (), (1, 1)]))
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
