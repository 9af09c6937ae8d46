import random

import pytest

from seqmin.ring import GF2, GFp, GFpPolyRing, IntegerRing
from seqmin.sequence import (
    SequenceView,
    bits_from_sequence,
    format_sequence,
    parse_sequence,
    sequence_from_bits,
)


def test_basic_accessors():
    s = SequenceView(GF2(), [0, 1, 1, 0])
    assert len(s) == 4
    assert s.term(1) == 0 and s.term(2) == 1
    with pytest.raises(IndexError):
        s.term(0)
    with pytest.raises(IndexError):
        s.term(5)


def test_immutability():
    s = SequenceView(GF2(), [1])
    with pytest.raises(AttributeError):
        s.terms = ()


def test_prefix_slice_reverse():
    s = SequenceView(IntegerRing(), [3, 1, 4, 1, 5])
    assert list(s.prefix(2)) == [3, 1]
    assert list(s.slice(2, 4)) == [1, 4, 1]
    assert list(s.reversed()) == [5, 1, 4, 1, 3]
    assert list(s.append(9)) == [3, 1, 4, 1, 5, 9]


def test_zero_predicates():
    s = SequenceView(GFp(5), [0, 0, 2, 0])
    assert not s.is_zero()
    assert s.first_nonzero_index() == 3
    assert SequenceView(GFp(5), [0, 0]).is_zero()
    assert SequenceView(GFp(5), []).first_nonzero_index() is None


def test_coercion_into_field():
    s = SequenceView(GFp(5), [-1, 7])
    assert list(s) == [4, 2]


def test_parse_format_roundtrip():
    dom = GFp(7)
    s = parse_sequence(dom, "1, 6, 0,3")
    assert list(s) == [1, 6, 0, 3]
    assert format_sequence(s) == "1,6,0,3"
    assert len(parse_sequence(dom, "")) == 0


def test_parse_poly_coefficient_terms():
    dom = GFpPolyRing(3)
    s = parse_sequence(dom, "(0,1),(1),(2,2)")
    assert list(s) == [(0, 1), (1,), (2, 2)]
    assert format_sequence(s) == "(0,1),(1),(2,2)"
    with pytest.raises(ValueError):
        parse_sequence(dom, "(0,1),(1")


def test_gf2_bits_codec_round_trip():
    F2 = GF2()
    rng = random.Random(7)
    for n in (0, 1, 2, 63, 64, 65, 300):
        bits = rng.getrandbits(n) if n else 0
        s = sequence_from_bits(F2, bits, n)
        assert len(s) == n and bits_from_sequence(s) == bits
        assert sequence_from_bits(F2, bits_from_sequence(s), n) == s
    # trailing zero terms survive: the length comes from n, not from the bits
    assert sequence_from_bits(F2, 0b01, 4) == SequenceView(F2, [1, 0, 0, 0])
