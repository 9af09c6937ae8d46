import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqmin import ring
from seqmin.ring import (
    DomainError,
    DomainMismatchError,
    GF2,
    GFp,
    GFpPolyRing,
    IntegerRing,
    Product,
    check_same_domain,
    domain_from_string,
    int_text,
    is_prime,
    scaled_texts,
)

from util import count_conversions, seeded


def test_is_prime_small():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("p", [4, 6, 9, 1, 0, -7, 91])
def test_gfp_rejects_composite(p):
    with pytest.raises(DomainError):
        GFp(p)


def test_gfp_arithmetic():
    F = GFp(7)
    assert F.add(5, 4) == 2
    assert F.sub(2, 5) == 4
    assert F.neg(3) == 4
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    with pytest.raises(DomainError):
        F.inv(0)


def test_gfp_coerce_and_parse():
    F = GFp(5)
    assert F.coerce(-1) == 4
    assert F.parse("12") == 2
    with pytest.raises(DomainError):
        F.coerce("3")


def test_gf2_descriptor():
    F = GF2()
    assert F.descriptor() == "gf2"
    assert F.p == 2
    assert F.add(1, 1) == 0


def test_integers_have_no_inverses():
    Z = IntegerRing()
    assert Z.mul(-3, 4) == -12
    with pytest.raises(DomainError):
        Z.inv(2)


def test_gfp_poly_ring():
    R = GFpPolyRing(3)
    a = R.coerce([1, 2])      # 1 + 2y
    b = R.coerce([0, 1])      # y
    assert R.mul(a, b) == (0, 1, 2)
    assert R.add(a, R.neg(a)) == ()
    assert R.coerce([1, 3]) == (1,)   # trailing zero trimmed after reduction
    assert R.parse("(1,2)") == (1, 2)
    assert R.format(()) == "(0)"
    assert not R.is_field


def test_domain_from_string_roundtrip():
    for text in ["gf2", "gfp:7", "int", "gfp_poly:3"]:
        assert domain_from_string(text).descriptor() == text
    with pytest.raises(DomainError):
        domain_from_string("gf:4")


def test_gfp_2_is_gf2():
    """`gfp:2` and `gf2` name one domain, GF(2), with the descriptor `gf2`."""
    dom = domain_from_string("gfp:2")
    assert isinstance(dom, GF2) and dom == GF2() and dom.descriptor() == "gf2"
    assert domain_from_string(" gfp:2 ") == GF2()
    assert domain_from_string("gfp:3") == GFp(3) and not isinstance(domain_from_string("gfp:3"), GF2)


def test_domain_equality_and_mismatch():
    assert GFp(7) == domain_from_string("gfp:7")
    assert GFp(7) != GFp(5)
    assert GF2() != GFp(2)  # distinct descriptors by design
    with pytest.raises(DomainMismatchError):
        check_same_domain(GFp(7), IntegerRing())



@pytest.fixture
def no_digit_limit():
    """str() of ints past CPython's default 4300-digit limit, as the CLI allows."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def _signed(ns):
    return [m for n in ns for m in (n, -n)]


def test_decimal_text_matches_str(no_digit_limit):
    """`int_text` against str: 0, +-1, 10^k +- 1 and 2^k +- 1 on both sides of
    DECIMAL_BITS, and seeded random ints of 10^3 to 10^6 bits."""
    rng = seeded(1901)
    k = int(ring.DECIMAL_BITS / math.log2(10))  # 10^k has about DECIMAL_BITS bits
    ns = [0, 1] + [10**j + d for j in (1, 5, k - 3, k, k + 3, 2 * k) for d in (-1, 0, 1)]
    ns += [2**j + d for j in (ring.DECIMAL_BITS - 1, ring.DECIMAL_BITS, 2**16, 2**16 + 1)
           for d in (-1, 0, 1)]
    bits = {n.bit_length() for n in ns}
    assert {ring.DECIMAL_BITS, ring.DECIMAL_BITS + 1} <= bits
    ns = _signed(ns) + [rng.choice((-1, 1)) * (rng.getrandbits(w) | 1 << (w - 1))
                        for w in (1000, 30000, 40000, 10**5, 10**6)]
    for n in ns:
        assert int_text(n) == str(n) == IntegerRing().format(n), n.bit_length()


def test_decimal_text_long_path_below_the_crossover(no_digit_limit, monkeypatch):
    """Every int through the divide and conquer: leaves, splits at 2^(2^k), signs."""
    monkeypatch.setattr(ring, "DECIMAL_BITS", 0)
    rng = seeded(1902)
    ns = [0, 1, 9, 10, 99, 100] + [10**j + d for j in range(1, 700, 37) for d in (-1, 0, 1)]
    ns += [2**j + d for j in (ring._LEAF_BITS - 1, ring._LEAF_BITS, 4096, 4097, 9000)
           for d in (-1, 0, 1)]
    ns += [rng.getrandbits(rng.randint(1, 20000)) for _ in range(40)]
    for n in _signed(ns):
        assert int_text(n) == str(n), n


def test_decimal_text_scaled(no_digit_limit, monkeypatch):
    """`scaled_texts` writes c * m for each m, converting c once when its bits
    times the count of ms pass the crossover: zero, negative and long m, a
    negative c, a c below the crossover, and a short c over so many m that
    writing each c * m by str() would cost more, held as an int (converted
    once per call) and as a `Product` (converted once for both calls, on the
    node)."""
    rng = seeded(1903)
    converted = count_conversions(monkeypatch)
    ms7 = [0, 1, -1, 12345, -(2**200 + 7), rng.getrandbits(50000), 0]
    ms40 = [0, -1] + [rng.getrandbits(60) * rng.choice((-1, 1)) for _ in range(38)]
    for w, ms in ((100, ms7), (ring.DECIMAL_BITS + 1, ms7), (200000, ms7), (2000, ms40)):
        c = rng.getrandbits(w) | 1 << (w - 1)
        for c in (c, -c):
            long = w * len(ms) > ring.DECIMAL_BITS
            want = [str(c * m) for m in ms]
            converted.clear()
            assert scaled_texts(c, ms) == want
            assert scaled_texts(c, ms) == want
            assert [n for n in converted if n == c] == [c, c] * long
            node = Product(c, 1, 1)
            converted.clear()
            assert scaled_texts(node, ms) == want
            assert scaled_texts(node, ms) == want
            assert [n for n in converted if n == c] == [c] * long


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this CPython has no int digit limit")
def test_decimal_text_under_the_default_digit_limit():
    """With CPython's default limit of 4300 digits, past which str() of an int
    raises ValueError, `int_text`, `IntegerRing.format` and `scaled_texts` write
    +-10^5000 (below DECIMAL_BITS), 10^20000 and an int of DECIMAL_BITS bits,
    as str() writes them once the limit is lifted."""
    ns = [10**5000, -10**5000, 10**20000, (1 << ring.DECIMAL_BITS) - 1]
    assert ns[0].bit_length() < ring.DECIMAL_BITS < ns[2].bit_length()
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(ns[0])
        got = [(int_text(n), IntegerRing().format(n)) for n in ns]
        got_scaled = scaled_texts(10**3000, [0, -10**2000, 1])
        sys.set_int_max_str_digits(0)
        assert got == [(str(n), str(n)) for n in ns]
        assert got_scaled == ["0", str(-10**5000), str(10**3000)]
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_is_imported_for_long_ints_only():
    """A fresh interpreter imports `decimal` neither with seqmin.cli nor for a
    short answer over the integers, and does for a long int."""
    code = ("import sys, seqmin.cli, seqmin.ring as r\n"
            "seqmin.cli.main(['mr', '--ring', 'int', '--seq=3,-5,4,4', '--json'])\n"
            "assert 'decimal' not in sys.modules\n"
            "assert r.int_text(7 ** 20000) and 'decimal' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ring.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)
