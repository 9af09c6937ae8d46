"""The integers' identity check: the content split, then one expansion.

On plain factors `verify_identity` splits every factor into its content and
primitive part (`IntegerRing.split_content`), divides out M, the gcd of the
pairs' c_f * c_g (M must divide c), and then expands
sum (c_f * c_g / M) * f^ * g^ with the integers' int loop
`IntegerRing.inner` and compares it with c / M, 0, 0, ....
That split route, taken on plain `PairedPoly`s, is checked here against
`util.verify_pair_identity`, which multiplies the whole factors
(`poly.mul`) and compares the sum as a polynomial, and against
`util.schoolbook_is_constant`, which expands without the split by the
schoolbook `Domain.inner` (the int loop itself is checked against that
loop in test_kernels): on the engine's true identities, on the same identities
made false by one unit, on false identities that a check by evaluation at
a few points could accept (differences that vanish at the first D small
integers, at x = 1 and at a power of two, or with a coefficient at exactly
+-B, the bound a one-point check at 2^k > 2B uses), on a common content
that does not divide c, on pairs that cancel, on factors with large
contents (made false in ways that keep those contents) and on factors
whose content is 1.  The engine's views record their content
(`poly.ScaledPoly`), which `verify_identity` reads in place of the split;
the records are checked to be sound, to give the plain copies' verdict and
to cost no split at all.
"""

from math import gcd

import pytest

from seqmin.annihilator import extend_by_jump, mr_bullet_family
from seqmin.lfsr import _recorded_contents, minimal_realisation, run, verify_identity
from seqmin.poly import PairedPoly, Poly, ScaledPoly, mul
from seqmin.ring import DomainError, IntegerRing, formed
from seqmin.sequence import SequenceView

from util import schoolbook_is_constant, seeded, verify_pair_identity

Z = IntegerRing()
TERMS = (-5, -4, -3, 3, 4, 5)


def _points(k):
    """The first k evaluation points, in the order the earlier check used them."""
    return [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(k)]


def _from_roots(roots, scale=1):
    """scale * prod (x - r), ascending coefficients."""
    cs = [scale]
    for r in roots:
        cs = [a - r * b for a, b in zip([0] + cs, cs + [0])]
    return cs


def _pair(f, f2):
    return PairedPoly(Poly(Z, f), Poly(Z, f2))


def _plain(p: PairedPoly) -> PairedPoly:
    return PairedPoly(Poly(Z, p.f.coeffs), Poly(Z, p.f2.coeffs))


def _checks_agree(a, b, c):
    """`verify_identity` as given and on plain copies (the split route), the
    expansion without the split and the reference agree."""
    want = verify_pair_identity(a, b, c)
    pairs = ((a.f.coeffs, b.f.coeffs), (a.f2.coeffs, b.f2.coeffs))
    assert verify_identity(a, b, c) == want
    assert verify_identity(_plain(a), _plain(b), c) == want
    assert schoolbook_is_constant(Z, pairs, c) == want
    return want


def _bumped(p: Poly, rng):
    """p with one coefficient (anywhere up to one past the lead) moved by +-1."""
    cs = list(p.coeffs) + [0]
    cs[rng.randrange(len(cs))] += rng.choice((-1, 1))
    return Poly(Z, cs)


@pytest.mark.parametrize("D", range(0, 16))
def test_difference_vanishing_at_the_first_D_points_is_rejected(D):
    """sum f * g - c = prod over the first D points (x - x_i) is nonzero.

    It vanishes at those D points, so a check that used only them would
    accept it; the (D + 1)-th point must reject it.  The product is split
    between f and g so that D is exactly len f + len g - 2.
    """
    rng = seeded(600 + D)
    roots = _points(D)
    rng.shuffle(roots)
    cut = rng.randint(0, D)
    for scale in (1, -1, rng.randint(2, 10**30)):
        f, g = _from_roots(roots[:cut], scale), _from_roots(roots[cut:])
        prod = _from_roots(roots, scale)
        assert all(sum(cf * x**k for k, cf in enumerate(prod)) == 0 for x in _points(D))
        assert not verify_identity(_pair(prod, [0]), _pair([1], [0]), 0)
        for c in (0, rng.randint(-10**20, 10**20)):
            assert not _checks_agree(_pair(f, [c]), _pair(g, [1]), c)


def test_engine_identities_agree_with_the_reference():
    """True identities at n = 1..25 (terms +-3..+-5) and unit-off variants.

    The reference expands each true identity once.  Its sum is then nabla,
    so it rejects nabla +- 1 and -nabla; and moving one coefficient of a
    factor by +-1 moves the sum by +-x^i times that factor's partner, so it
    rejects the moved identity unless the partner is zero.  Up to n = 18,
    where expanding is cheap, the reference also expands every variant.
    """
    rng = seeded(611)
    for n in range(1, 26):
        res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]))
        mu_fg = PairedPoly(res.mu.f, res.mu_prime.f)
        for a, b in ((res.bez_numu, res.mu), (res.bez_fg, mu_fg)):
            nabla = res.nabla
            assert verify_pair_identity(a, b, nabla)
            assert verify_identity(a, b, nabla)
            for c in (nabla + 1, nabla - 1, -nabla):
                assert not verify_identity(a, b, c)
                if n <= 18:
                    assert not _checks_agree(a, b, c)
            polys = [a.f, a.f2, b.f, b.f2]
            for k in range(4):
                moved = list(polys)
                moved[k] = _bumped(polys[k], rng)
                a2, b2 = PairedPoly(*moved[:2]), PairedPoly(*moved[2:])
                # a.f pairs with b.f, a.f2 with b.f2
                assert verify_identity(a2, b2, nabla) == polys[k ^ 2].is_zero()
                if n <= 18:
                    _checks_agree(a2, b2, nabla)


def test_random_small_sums_agree_with_the_reference():
    """Short factors with small coefficients, so constant sums occur often."""
    rng = seeded(612)
    constant = 0
    for _ in range(3000):
        fs = [[rng.randint(-2, 2) for _ in range(rng.randint(0, 3))] for _ in range(4)]
        a, b = _pair(fs[0], fs[1]), _pair(fs[2], fs[3])
        for c in {0, 1, -1, rng.randint(-8, 8)}:
            constant += _checks_agree(a, b, c)
    assert constant > 300


def test_annihilator_pairings_over_the_integers():
    """`mr_bullet_family` (both branches) and `extend_by_jump` assert their
    pairing identities through `verify_identity`; the reference re-checks
    every pairing they accepted."""
    rng = seeded(613)
    seen = {"family e > 0": 0, "family e <= 0": 0, "extend": 0}
    for _ in range(600):
        terms = [0 if rng.random() < 0.4 else rng.choice(TERMS) for _ in range(rng.randint(2, 14))]
        s = SequenceView(Z, terms)
        if s.is_zero():
            continue
        st = run(s)
        if not Z.is_zero(st.mu.f.constant_term()):
            continue
        a = rng.choice(TERMS)
        if st.e > 0:
            q = Poly(Z, [rng.randint(-3, 3) for _ in range(st.e)] + [rng.choice(TERMS)])
            out = mr_bullet_family(s, q, a)
            assert verify_pair_identity(st.mu.tilde(), out, -a * st.nabla)
            f_prime = Poly(Z, [rng.randint(-3, 3) for _ in range(st.e)])
            res = extend_by_jump(s, f_prime=f_prime)
            assert verify_pair_identity(st.mu.tilde(), res.mu_ext, res.nabla)
            seen["family e > 0"] += 1
            seen["extend"] += 1
        else:
            out = mr_bullet_family(s, None, a)
            assert verify_pair_identity(st.mu_prime.tilde(), out, st.nabla)
            seen["family e <= 0"] += 1
    assert min(seen.values()) >= 20, seen


def test_zero_factors_and_constants():
    zero, one = Poly.zero(Z), Poly.one(Z)
    f = Poly(Z, [3, -1, 4])
    assert _checks_agree(PairedPoly(zero, zero), PairedPoly(f, f), 0)
    assert not _checks_agree(PairedPoly(zero, zero), PairedPoly(f, f), 1)
    assert _checks_agree(PairedPoly(f, zero), PairedPoly(zero, f), 0)
    assert not _checks_agree(PairedPoly(f, zero), PairedPoly(one, f), 0)
    assert verify_identity(PairedPoly(zero, zero), PairedPoly(zero, zero), 0)
    assert not verify_identity(PairedPoly(zero, zero), PairedPoly(zero, zero), 5)
    # D = 0: constants only
    a, b = _pair([3], [0]), _pair([5], [7])
    assert _checks_agree(a, b, 15)
    for c in (0, 14, 16, -15):
        assert not _checks_agree(a, b, c)
    assert _checks_agree(_pair([3], [2]), _pair([5], [-7]), 1)
    assert _checks_agree(_pair([-(10**40)], [1]), _pair([10**40], [10**80]), 0)


def test_large_contents_agree_with_the_reference():
    """The engine's identities with both factors scaled by large contents.

    They hold; moving one coefficient of a factor by that factor's content
    keeps every content and breaks the identity unless the partner is
    zero; and nabla +- a product of contents is rejected.
    """
    rng = seeded(614)
    broken = 0
    for n in range(6, 19):
        res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]))
        mu_fg = PairedPoly(res.mu.f, res.mu_prime.f)
        for a, b in ((res.bez_numu, res.mu), (res.bez_fg, mu_fg)):
            ka, kb = rng.getrandbits(3000) | 1, -(rng.getrandbits(2000) | 1)
            a, b = a.scale(ka), b.scale(kb)
            nabla = ka * kb * res.nabla
            assert _checks_agree(a, b, nabla)
            polys = [a.f, a.f2, b.f, b.f2]
            contents = [gcd(*p.coeffs) for p in polys]
            for k in range(4):
                if polys[k].is_zero():
                    continue
                cs = list(polys[k].coeffs) + [0]
                cs[rng.randrange(len(cs))] += rng.choice((-1, 1)) * contents[k]
                moved = list(polys)
                moved[k] = Poly(Z, cs)
                assert gcd(*moved[k].coeffs) % contents[k] == 0
                held = _checks_agree(PairedPoly(*moved[:2]), PairedPoly(*moved[2:]), nabla)
                assert held == polys[k ^ 2].is_zero()
                broken += not held
            for m in (contents[0] * contents[2], contents[1] * contents[3], contents[0]):
                for c in (nabla + m, nabla - m):
                    assert not _checks_agree(a, b, c)
    assert broken > 80


def test_content_one_factors_agree_with_the_reference():
    """15k-bit random coefficients, so every content is 1 and nothing is stripped.

    a = (f, 1) and b = (1, c - f) give f + (c - f) = c.
    """
    rng = seeded(615)

    def big():
        return rng.choice((-1, 1)) * rng.getrandbits(15000)

    for length in (2, 3, 6):
        f, c = [big() for _ in range(length)], big()
        assert Z.split_content(f)[0] == 1
        rest = [-x for x in f]
        rest[0] += c
        a, b = _pair(f, [1]), _pair([1], rest)
        assert _checks_agree(a, b, c)
        for wrong in (c + 1, c - 1, -c, 0):
            assert not _checks_agree(a, b, wrong)
        f[rng.randrange(length)] += 1
        assert not _checks_agree(_pair(f, [1]), b, c)


def test_zero_factor_beside_large_contents():
    """A zero factor drops its pair; the other pair still carries its contents."""
    k = 3**2000
    f, g = [3 * k, -5 * k, k], [7 * k, k]
    a, b = _pair([], [2 * k]), _pair(f, [-4 * k])
    assert _checks_agree(a, b, -8 * k * k)
    assert not _checks_agree(a, b, -8 * k * k + k)
    assert not _checks_agree(a, b, 0)
    a, b = _pair(g, [2 * k]), _pair(f, [])
    assert not _checks_agree(a, b, 0)
    assert _checks_agree(_pair([], g), _pair(f, []), 0)


def test_expected_must_be_an_integer():
    a = _pair([1], [0])
    with pytest.raises(DomainError):
        verify_identity(a, a, "1")


def _value_at_one(a, b, c):
    """sum f * g - c at x = 1, from the sums of the coefficients."""
    return sum(a.f.coeffs) * sum(b.f.coeffs) + sum(a.f2.coeffs) * sum(b.f2.coeffs) - c


def test_common_content_must_divide_c():
    """M = gcd of the pairs' c_f * c_g divides sum f * g, so a c it does not
    divide is rejected, and so is a multiple of M that is not the sum."""
    rng = seeded(616)
    for n in range(4, 16):
        res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]))
        ka, kb = 6 * rng.randint(1, 10**6), 10 * rng.randint(1, 10**6)
        a, b = res.bez_numu.scale(ka), res.mu.scale(kb)
        nabla, m = ka * kb * res.nabla, ka * kb  # m divides M
        assert _checks_agree(a, b, nabla)
        for k in (1, 2, 3, 5, 7, 30, m - 1, m, -m, 2 * m):
            assert not _checks_agree(a, b, nabla + k)
    # (2 + 4x)(3 - 3x) = 6 + 6x - 12x^2, M = 6
    a, b = _pair([2, 4], [0]), _pair([3, -3], [0])
    for c in (7, 1, 0, 6, -6):
        assert not _checks_agree(a, b, c)
    # (6 + 6x) 2 + 4 (-3 - 3x) = 0, M = gcd(12, 12)
    a, b = _pair([6, 6], [4]), _pair([2], [-3, -3])
    assert _checks_agree(a, b, 0)
    for c in (12, 5, -1):
        assert not _checks_agree(a, b, c)


def test_difference_at_exactly_plus_minus_B():
    """A false identity whose difference has a coefficient at exactly +-B.

    f = M K (1, -1, ..., -1) with r entries -1, g = (K) and
    c = -M K^2 (r - 1).  Once the common content M K^2 is divided out, the
    difference is r - x - ... - x^r: its constant term is exactly
    B = |c / (M K^2)| + 1 = r, and it is 0 at x = 1, so a screen by the sums
    of the coefficients would pass it; the check must reject it.  The signs
    flipped give -B.
    """
    for K in (1, 2, 3, 255, 256, 2**31 - 1, 3**50):
        for r in (1, 2, 3, 7, 40):
            for sign in (1, -1):
                for M in (1, 15):
                    f = [sign * M * K] + [-sign * M * K] * r
                    c = -sign * M * K * K * (r - 1)
                    a, b = _pair(f, [0]), _pair([K], [0])
                    assert _value_at_one(a, b, c) == 0
                    assert not _checks_agree(a, b, c)


@pytest.mark.parametrize("t", [1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 65, 200])
def test_difference_vanishing_at_one_and_at_a_power_of_two(t):
    """d = (x - 1)(x - 2^t) vanishes at x = 1 and at 2^t.

    With c = 0 the coefficient bound B is 2^t + 1, so a point 2^k chosen
    only above B / 2 could be 2^t itself and accept it.  A nonzero c moves
    part of the constant term from f into c; scale 7 adds a content.
    """
    d = [2**t, -(2**t + 1), 1]
    for c in (0, 2**t, -(3**t)):
        f = [d[0] + c] + d[1:]
        for scale in (1, 7):
            a, b = _pair([scale * x for x in f], [0]), _pair([1], [0])
            assert _value_at_one(a, b, scale * c) == 0
            assert not _checks_agree(a, b, scale * c)
            # the same difference split across two pairs
            a, b = _pair([scale * x for x in f[:2]], [scale]), _pair([1], [0, 0, 1])
            assert _value_at_one(a, b, scale * c) == 0
            assert not _checks_agree(a, b, scale * c)


def test_pairs_cancelling_to_zero():
    """f * g + (-f) * g and f * g + g * (-f): the sum is 0, so c = 0 holds only."""
    rng = seeded(617)
    for _ in range(60):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))] + [rng.choice(TERMS)]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))] + [rng.choice(TERMS)]
        k = rng.choice((1, 3, 2**64 + 1, 5**40))
        f, g = [k * x for x in f], [rng.choice((1, k)) * x for x in g]
        minus = [-x for x in f]
        for a, b in ((_pair(f, minus), _pair(g, g)), (_pair(f, g), _pair(g, minus))):
            assert _checks_agree(a, b, 0)
            for c in (1, -1, k, k * k):
                assert not _checks_agree(a, b, c)


def test_false_identities_that_pass_the_screen():
    """The engine's identities with a.f moved by (x - 1) x^i: false, yet 0 at
    x = 1, where a screen by the sums of the coefficients would pass them."""
    rng = seeded(618)
    for n in range(2, 26):
        res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]))
        mu_fg = PairedPoly(res.mu.f, res.mu_prime.f)
        for a, b in ((res.bez_numu, res.mu), (res.bez_fg, mu_fg)):
            i = rng.randrange(len(a.f.coeffs) + 1)
            k = rng.choice((1, -1, gcd(*a.f.coeffs) if a.f.coeffs else 1))
            moved = PairedPoly(a.f + Poly(Z, [0] * i + [-k, k]), a.f2)
            assert _value_at_one(moved, b, res.nabla) == 0
            assert not verify_identity(moved, b, res.nabla)
            if n <= 18:
                assert not _checks_agree(moved, b, res.nabla)


def test_content_one_factors_with_15k_bit_coefficients():
    """Content-1 factors, 15k-bit coefficients: nothing to divide out.

    a = (f, g) and b = (g, -f) give f g - g f = 0 (expanded at full size);
    the same with one coefficient of f moved by one, false at x = 1, and
    moved by (x - 1) x^i, false yet 0 at x = 1.
    """
    rng, length = seeded(619), 12

    def big():
        return rng.choice((-1, 1)) * rng.getrandbits(15000)

    f, g = [big() for _ in range(length)], [big() for _ in range(length)]
    assert Z.split_content(f)[0] == Z.split_content(g)[0] == 1
    minus_f = [-x for x in f]
    a, b = _pair(f, g), _pair(g, minus_f)
    assert _checks_agree(a, b, 0)
    assert not _checks_agree(a, b, 1)
    moved = list(f)
    moved[rng.randrange(length)] += 1
    assert not _checks_agree(_pair(moved, g), b, 0)
    i = rng.randrange(length - 1)
    moved = list(f)
    moved[i] -= 1
    moved[i + 1] += 1
    assert _value_at_one(_pair(moved, g), b, 0) == 0
    assert not _checks_agree(_pair(moved, g), b, 0)


def _views(res):
    """Every polynomial of a result that the engine's views form."""
    return [res.mu.f, res.mu.f2, res.mu_prime.f, res.mu_prime.f2,
            res.bez_numu.f, res.bez_numu.f2, res.bez_fg.f, res.bez_fg.f2]


def test_views_record_their_content_soundly():
    """coeffs == c * base for every view that records (c, base), and for its
    negation; a record changes neither equality nor the hash."""
    rng = seeded(616)
    recorded = 0
    for n in range(1, 26):
        for eps in (None, rng.choice(TERMS)):
            res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]), eps)
            for v in _views(res):
                plain = Poly(Z, v.coeffs)
                assert v == plain and plain == v and hash(v) == hash(plain)
                if not isinstance(v, ScaledPoly):
                    continue
                recorded += 1
                c, base = formed(v.c), v.base
                assert c > 1 and v.coeffs == tuple(c * b for b in base.coeffs)
                neg = -v
                assert isinstance(neg, ScaledPoly) and (formed(neg.c), neg.base) == (c, -base)
                assert neg.coeffs == tuple(-x for x in v.coeffs) == (-plain).coeffs
                assert neg.coeffs == tuple(c * b for b in neg.base.coeffs)
    assert recorded > 300


def test_recorded_contents_give_the_plain_verdict():
    """`verify_identity` decides the same with the views' records and with
    plain copies of them: true identities, nabla +- 1, -nabla, and one
    coefficient moved on a plain factor (which takes the plain route)."""
    rng = seeded(617)
    via_records = 0
    for n in range(1, 26):
        for eps in (None, rng.choice(TERMS)):
            res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]), eps)
            mu_fg = PairedPoly(res.mu.f, res.mu_prime.f)
            for a, b in ((res.bez_numu, res.mu), (res.bez_fg, mu_fg)):
                via_records += _recorded_contents(a, b) is not None
                nabla = res.nabla
                for c in (nabla, nabla + 1, nabla - 1, -nabla):
                    assert verify_identity(a, b, c) == verify_identity(_plain(a), _plain(b), c)
                assert verify_identity(a, b, nabla)
                polys = [a.f, a.f2, b.f, b.f2]
                for k in range(4):
                    moved = list(polys)
                    moved[k] = _bumped(polys[k], rng)
                    a2, b2 = PairedPoly(*moved[:2]), PairedPoly(*moved[2:])
                    assert _recorded_contents(a2, b2) is None
                    assert verify_identity(a2, b2, nabla) == polys[k ^ 2].is_zero()
    assert via_records > 60


def test_mixed_recorded_contents_take_the_plain_route():
    """Records whose two pairs do not share the contents {c, c'} are not used,
    even when the products of the contents agree."""
    f, f2, g, g2 = Poly(Z, [1, 2]), Poly(Z, [3]), Poly(Z, [-3]), Poly(Z, [1, 2])
    # f * g + f2 * g2 = 0 over the bases
    for (ca, ca2, cb, cb2) in ((2, 3, 5, 7), (2, 3, 15, 10), (6, 6, 5, 1)):
        a = PairedPoly(ScaledPoly(ca, f), ScaledPoly(ca2, f2))
        b = PairedPoly(ScaledPoly(cb, g), ScaledPoly(cb2, g2))
        assert _recorded_contents(a, b) is None
        for c in (0, 1, ca * cb):
            assert verify_identity(a, b, c) == verify_identity(_plain(a), _plain(b), c)
    # one plain factor among recorded ones
    a = PairedPoly(ScaledPoly(2, f), ScaledPoly(5, f2))
    b = PairedPoly(Poly(Z, [-15]), ScaledPoly(2, g2))
    assert _recorded_contents(a, b) is None
    assert verify_identity(a, b, 0) == verify_identity(_plain(a), _plain(b), 0)


def test_recorded_contents_must_divide_expected():
    """With contents {6, 35} on both pairs, the sum is 210 * (the bases' sum)."""
    f, f2, g, g2 = Poly(Z, [1, 1]), Poly(Z, [1]), Poly(Z, [1, -1]), Poly(Z, [1, 0, 1])
    # (1 + x)(1 - x) + 1 * (1 + x^2) = 2
    a = PairedPoly(ScaledPoly(6, f), ScaledPoly(35, f2))
    b = PairedPoly(ScaledPoly(35, g), ScaledPoly(6, g2))
    assert _recorded_contents(a, b)[0] == 210
    assert verify_identity(a, b, 420)
    for c in (421, 419, 210, 630, -420, 0, 2):
        assert not verify_identity(a, b, c)
        assert not verify_identity(_plain(a), _plain(b), c)


def test_each_content_is_stripped_once(monkeypatch):
    """On the engine's recorded views `verify_identity` makes no
    `split_content` call: the records hold every content.  On plain pairs it
    splits each factor of a pair of nonzero factors exactly once, and then
    the pairs' products of contents once, for their common content M; a
    factor whose partner is zero is not split."""
    calls = []
    real = IntegerRing.split_content
    monkeypatch.setattr(IntegerRing, "split_content",
                        lambda self, cs: calls.append(cs) or real(self, cs))
    rng = seeded(620)
    recorded = 0
    for n in range(6, 22):
        res = minimal_realisation(SequenceView(Z, [rng.choice(TERMS) for _ in range(n)]))
        mu_fg = PairedPoly(res.mu.f, res.mu_prime.f)
        for a, b in ((res.bez_numu, res.mu), (res.bez_fg, mu_fg)):
            if _recorded_contents(a, b) is None:
                continue
            recorded += 1
            del calls[:]
            assert verify_identity(a, b, res.nabla)
            assert not verify_identity(a, b, res.nabla + 1)
            assert calls == []
            a, b = _plain(a), _plain(b)
            factors = [p.coeffs for p in (a.f, b.f, a.f2, b.f2)]
            assert all(factors)
            del calls[:]
            assert verify_identity(a, b, res.nabla)
            assert [sum(c is cs for c in calls) for cs in factors] == [1, 1, 1, 1]
            assert len(calls) == 5 and len(calls[-1]) == 2
    assert recorded > 20
    f, g, h = Poly(Z, [6, 4]), Poly(Z, [9, 3]), Poly(Z, [10, 5])
    a, b = PairedPoly(f, Poly.zero(Z)), PairedPoly(g, h)
    del calls[:]
    assert verify_identity(a, b, 6 * 5) == verify_pair_identity(a, b, 6 * 5)
    assert [sum(c is cs for c in calls) for cs in (f.coeffs, g.coeffs, h.coeffs)] == [1, 1, 0]
    assert len(calls) == 3 and calls[-1] == [6]
