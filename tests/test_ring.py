import pytest

from seqmin.ring import (
    DomainError,
    DomainMismatchError,
    GF2,
    GFp,
    GFpPolyRing,
    IntegerRing,
    check_same_domain,
    domain_from_string,
    is_prime,
)


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
