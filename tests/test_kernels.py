"""The kernels of GF(p), GF(p)[y] and the integers against the generic loops.

`GFpPolyRing.dot` and `GFpPolyRing.axpy` (the discrepancy and the update
behind `lfsr.mr_step` and `poly.add_scaled`) are each one `packed_sum`.  Here
they are compared with the generic `Domain.dot` and `Domain.axpy`, called
on the same ring as base-class functions, over p = 2, 3, 7 and 2^31 - 1,
so that the packed sums run in slots of 1, 2 and 3 bytes and wider than 8;
with zero scalars, empty lists, zero interior x-coefficients, shifts and
sums that cancel to zero.  The list kernels `GFp.inner`,
`GFpPolyRing.inner` and the integers' int loop `IntegerRing.inner` are
compared with the schoolbook `Domain.inner` in the same way, and each sum
must have the largest len(fs) + len(gs) - 1 coefficients.  The integers'
`dot` and `axpy`, loops on plain ints, are compared with the generic loops
too, and their one-call `split_content` with a running gcd.
"""

from math import gcd

import pytest

from seqmin import ring
from seqmin.poly import Poly, add_scaled, mul
from seqmin.ring import Domain, GFp, GFpPolyRing, IntegerRing

from util import reduce_widths, seeded

PRIMES = [2, 3, 7, 2**31 - 1]


def _ypoly(rng, p, ylen):
    """A y-polynomial of length at most ylen, often zero or short."""
    if ylen == 0 or rng.random() < 0.2:
        return ()
    cs = [rng.randrange(p) for _ in range(rng.randint(1, ylen))]
    cs[-1] = rng.randrange(1, p)
    return tuple(cs)


def _xpoly(rng, p, xlen, ylen):
    """A canonical list of xlen y-polynomials: zero interior entries, nonzero lead."""
    cs = [_ypoly(rng, p, ylen) for _ in range(xlen)]
    if cs:
        cs[-1] = _ypoly(rng, p, ylen) or (1,)
    return cs


@pytest.fixture
def packed(monkeypatch):
    """Calls a kernel, recording the slot width of each packed sum it makes.

    The width is the w that `ring._reduce` receives, the width the sum was
    packed at (`util.reduce_widths`).  Products inside the generic loops run
    between the calls and are not recorded.
    """
    widths = reduce_widths(monkeypatch)

    def call(kernel, *args):
        widths.clear()
        out = kernel(*args)
        call.slots.update(widths)
        return out

    call.slots = set()
    return call


@pytest.mark.parametrize("p", PRIMES)
def test_dot_matches_the_generic_loop(p, packed):
    R, rng = GFpPolyRing(p), seeded(1201 + p % 1000)
    for _ in range(150):
        cs = [_ypoly(rng, p, 8) for _ in range(rng.randint(0, 12))]
        ts = [_ypoly(rng, p, 8) for _ in range(rng.randint(0, 14))]
        assert packed(R.dot, cs, ts) == Domain.dot(R, cs, ts)
    assert R.dot([], []) == Domain.dot(R, [], []) == ()
    assert R.dot([(), ()], [(1,), (2,)]) == ()
    # c * t + c * (-t) = 0
    t = (1, 0, 1, 1)
    assert R.dot([(1, 1), (1, 1)], [t, R.neg(t)]) == ()
    if p < 2**31 - 1:
        assert packed.slots == ({1} if p < 7 else {1, 2})
    else:
        assert max(packed.slots) > 8


@pytest.mark.parametrize("p", PRIMES)
def test_axpy_matches_the_generic_loop(p, packed):
    R, rng = GFpPolyRing(p), seeded(1301 + p % 1000)
    for _ in range(150):
        a, b = _ypoly(rng, p, 6), _ypoly(rng, p, 6)
        fs = _xpoly(rng, p, rng.randint(0, 9), 7)
        gs = _xpoly(rng, p, rng.randint(0, 9), 7)
        e, e2 = rng.randint(0, 3), rng.randint(0, 3)
        want = Domain.axpy(R, a, e, fs, b, e2, gs)
        assert packed(R.axpy, a, e, fs, b, e2, gs) == want, (a, e, fs, b, e2, gs)
        assert add_scaled(a, e, Poly(R, fs), b, e2, Poly(R, gs)).coeffs == tuple(want)
    # scalars of 1000 y-coefficients: sums of up to 2000 products a slot
    a, b = (1,) * 1000, tuple(rng.randrange(p) for _ in range(999)) + (1,)
    fs, gs = _xpoly(rng, p, 4, 30), _xpoly(rng, p, 3, 90)
    assert packed(R.axpy, a, 2, fs, b, 0, gs) == Domain.axpy(R, a, 2, fs, b, 0, gs)
    if p < 2**31 - 1:
        assert packed.slots == {2: {1, 2}, 3: {1, 2}, 7: {1, 2, 3}}[p]
    else:
        assert max(packed.slots) > 8


@pytest.mark.parametrize("p", PRIMES)
def test_axpy_edge_cases(p):
    R = GFpPolyRing(p)
    f = [(1, 2 % p or 1), (), (0, 1)]
    g = [(1,), (0, 0, 1)]
    one, a = (1,), (2 % p or 1, 1)
    cases = [
        ((), 0, f, (), 0, g),           # both scalars zero
        ((), 2, f, one, 1, g),          # a zero
        (a, 1, f, (), 3, g),            # b zero
        (a, 0, [], one, 0, []),         # both lists empty
        (a, 3, [], one, 1, g),          # f empty, g shifted
        (a, 2, f, a, 0, [(), (), ()] + f),
    ]
    for case in cases:
        assert R.axpy(*case) == Domain.axpy(R, *case), case
    # b * g = -a * f: the sum trims to zero, also with equal shifts on both sides
    for e in (0, 1, 4):
        assert R.axpy(a, e, f, R.neg(a), e, f) == Domain.axpy(R, a, e, f, R.neg(a), e, f) == []
    # the top x-coefficients cancel and the rest does not
    top = R.axpy(one, 0, [(1,), (1,)], R.neg(one), 1, [(1,)])
    assert top == Domain.axpy(R, one, 0, [(1,), (1,)], R.neg(one), 1, [(1,)]) == [(1,)]


@pytest.mark.parametrize("p", PRIMES)
def test_poly_dot_reads_the_domain_kernel(p):
    R, rng = GFpPolyRing(p), seeded(1401)
    cs = [_ypoly(rng, p, 5) for _ in range(6)]
    ts = [_ypoly(rng, p, 5) for _ in range(6)]
    assert R.dot(cs, ts) == Domain.dot(R, cs, ts)
    assert R.dot(cs, iter(ts)) == R.dot(cs, ts)


def _coeffs(rng, p, n):
    """n GF(p) coefficients, often zero, with a nonzero lead."""
    cs = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
    cs[-1] = rng.randrange(1, p)
    return cs


def _inner_cases(rng, draw, shift, neg, one):
    """Lists of (fs, gs) pairs for `inner`: draw(n) is a nonzero-lead factor of
    length n, shift(k, fs) puts k zero coefficients in front and neg negates.

    Multi-pair sums; a factor with leading zeros (the shifted scalar of an
    update) as the first or the second of its pair; one-coefficient factors;
    single pairs just below and at PACK_CROSSOVER; and sums cancelling to zero.
    """
    cases = [[(draw(rng.randint(1, 12)), draw(rng.randint(1, 12)))
              for _ in range(rng.randint(1, 4))] for _ in range(60)]
    for _ in range(20):
        a, fs = shift(rng.randint(1, 4), draw(rng.randint(1, 3))), draw(rng.randint(1, 9))
        cases += [[(a, fs)], [(fs, a)], [(a, fs), (draw(2), shift(rng.randint(0, 3), draw(4)))]]
    cases += [[(one, draw(1))], [(draw(1), draw(30))], [(draw(40), draw(1)), (draw(1), one)]]
    assert (5 - 1) * (7 - 1) == (2 - 1) * (25 - 1) == ring.PACK_CROSSOVER - 1
    assert (6 - 1) * (6 - 1) == (2 - 1) * (26 - 1) == ring.PACK_CROSSOVER
    cases += [[(draw(a), draw(b))] for a, b in [(5, 7), (7, 5), (2, 25), (6, 6), (2, 26), (26, 2)]]
    for a, b in [(1, 1), (3, 8), (6, 6), (20, 30)]:
        fs, gs = draw(a), draw(b)
        cases += [[(fs, gs), (fs, neg(gs))], [(fs, gs), (neg(fs), gs), (gs, fs)]]
    return cases


def _inner_agrees(dom, pairs):
    """dom's own `inner` equals the schoolbook loop, at the worked-out length."""
    got = dom.inner(pairs)
    assert got == Domain.inner(dom, pairs), pairs
    assert len(got) == max(len(fs) + len(gs) for fs, gs in pairs) - 1, pairs


@pytest.mark.parametrize("p", PRIMES)
def test_gfp_inner_matches_the_generic_loop(p):
    F, rng = GFp(p), seeded(1501 + p % 1000)
    cases = _inner_cases(rng, lambda n: _coeffs(rng, p, n), lambda k, fs: [0] * k + fs,
                         lambda fs: [F.neg(c) for c in fs], [1])
    for pairs in cases:
        _inner_agrees(F, pairs)
    fs, gs = _coeffs(rng, p, 9), _coeffs(rng, p, 9)
    assert F.inner([(fs, gs), (fs, [F.neg(c) for c in gs])]) == [0] * 17


@pytest.mark.parametrize("p", PRIMES)
def test_gfp_poly_inner_matches_the_generic_loop(p):
    """x-polynomials over GF(p)[y], and the same shapes in y-constants alone (D = 1)."""
    R, rng = GFpPolyRing(p), seeded(1601 + p % 1000)

    def neg(fs):
        return [R.neg(c) for c in fs]

    for ylen in (1, 6):
        cases = _inner_cases(rng, lambda n: _xpoly(rng, p, n, ylen), lambda k, fs: [()] * k + fs,
                             neg, [(1,)])
        for pairs in cases:
            _inner_agrees(R, pairs)
    fs, gs = _xpoly(rng, p, 5, 4), _xpoly(rng, p, 7, 4)
    assert R.inner([(fs, gs), (neg(fs), gs)]) == [()] * 11


def test_int_inner_matches_the_generic_loop():
    """The integers' int loop and `poly.mul` against the schoolbook `Domain.inner`:
    negative coefficients, interior zeros and leading zeros, 1 to 40
    coefficients of up to 15k bits, and several pairs per sum."""
    Z, rng = IntegerRing(), seeded(1701)

    def draw(n):
        bits = rng.choice((3, 64, 1000, 15000))
        cs = [rng.choice((-1, 1)) * rng.getrandbits(bits) if rng.random() < 0.7 else 0
              for _ in range(n)]
        cs[-1] = cs[-1] or rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1)
        return cs

    cases = _inner_cases(rng, draw, lambda k, fs: [0] * k + fs, lambda fs: [-c for c in fs], [1])
    cases += [[(draw(rng.randint(1, 40)), draw(rng.randint(1, 40)))
               for _ in range(rng.randint(1, 5))] for _ in range(30)]
    lengths = {len(fs) for pairs in cases for fs, _ in pairs}
    assert {1, 40} <= lengths
    for pairs in cases:
        _inner_agrees(Z, pairs)
        for fs, gs in pairs:
            assert mul(Poly(Z, fs), Poly(Z, gs)).coeffs == tuple(Domain.inner(Z, [(fs, gs)]))
    fs, gs = draw(9), draw(11)
    assert Z.inner([(fs, gs), (fs, [-c for c in gs])]) == [0] * 19


def _int_list(rng, n):
    """n ints of up to 200 bits, often zero or negative; all zero now and then."""
    if rng.random() < 0.1:
        return [0] * n
    return [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 3, 64, 200)))
            if rng.random() < 0.7 else 0 for _ in range(n)]


def _running_gcd_split(cs):
    """The integers' split before one-call gcd: a running gcd that stops at 1."""
    g = 0
    for c in cs:
        g = gcd(g, c)
        if g == 1:
            break
    if g <= 1:
        return 1, cs
    return g, [c // g for c in cs]


def test_int_kernels_match_the_generic_loops():
    """`IntegerRing.dot`, `.axpy` and `.split_content` against `Domain.dot`,
    `Domain.axpy` and the running gcd: zero and negative coefficients, empty
    and all-zero lists, zero scalars, shifts, sums that cancel, and lists
    with a common factor."""
    Z, rng = IntegerRing(), seeded(1801)
    for _ in range(400):
        cs, ts = _int_list(rng, rng.randint(0, 12)), _int_list(rng, rng.randint(0, 12))
        assert Z.dot(cs, ts) == Domain.dot(Z, cs, ts), (cs, ts)
        assert Z.dot(cs, iter(ts)) == Z.dot(cs, ts)
        a, b = (rng.choice((0, rng.randint(-9, 9), rng.getrandbits(100))) for _ in range(2))
        fs, gs = _int_list(rng, rng.randint(0, 9)), _int_list(rng, rng.randint(0, 9))
        while fs and not fs[-1]:
            fs.pop()
        while gs and not gs[-1]:
            gs.pop()
        e, e2 = rng.randint(0, 4), rng.randint(0, 4)
        assert Z.axpy(a, e, fs, b, e2, gs) == Domain.axpy(Z, a, e, fs, b, e2, gs), (a, e, fs, b, e2, gs)
        k = rng.choice((1, 2, 6, 2**70 + 1))
        for xs in (cs, [k * c for c in cs], fs + gs):
            assert Z.split_content(xs) == _running_gcd_split(xs), xs
    f = [3, 0, -2, 5]
    for e in (0, 2):
        # b * g = -a * f: the sum trims to zero; the top coefficients cancel and the rest does not
        assert Z.axpy(4, e, f, -4, e, f) == Domain.axpy(Z, 4, e, f, -4, e, f) == []
        assert Z.axpy(1, e, [1, 1], -1, e + 1, [1]) == [0] * e + [1]
    assert Z.axpy(2, 3, [], 5, 1, []) == Z.axpy(0, 1, f, 0, 0, f) == []
    assert Z.dot([], []) == Z.dot([0, 0], [5, 7]) == 0
    assert Z.split_content([]) == (1, []) and Z.split_content([0, 0]) == (1, [0, 0])
    assert Z.split_content([-6, 0, 4]) == (2, [-3, 0, 2])
