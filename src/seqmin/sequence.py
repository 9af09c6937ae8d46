"""Finite sequences over a domain, 1-based externally."""

from __future__ import annotations

from .ring import Domain


class SequenceView:
    """Immutable finite sequence s_1..s_n over one domain.

    The terms are coerced into the domain once, here, unless _canonical says
    they already are (parsed terms, or another view's).
    """

    __slots__ = ("dom", "terms")

    def __init__(self, dom: Domain, terms, _canonical=False):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "terms", tuple(terms if _canonical else map(dom.coerce, terms)))

    def __setattr__(self, name, value):
        raise AttributeError("SequenceView is immutable")

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SequenceView)
            and self.dom == other.dom
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dom, self.terms))

    def __repr__(self):
        return "SequenceView(%s, %r)" % (self.dom.descriptor(), list(self.terms))

    def term(self, i: int):
        """s_i with 1-based i; raises IndexError outside 1..n."""
        if not 1 <= i <= len(self.terms):
            raise IndexError("sequence index %d out of range 1..%d" % (i, len(self.terms)))
        return self.terms[i - 1]

    def prefix(self, j: int) -> "SequenceView":
        return SequenceView(self.dom, self.terms[:j], _canonical=True)

    def reversed(self) -> "SequenceView":
        return SequenceView(self.dom, self.terms[::-1], _canonical=True)

    def slice(self, i: int, j: int) -> "SequenceView":
        """(s_i, ..., s_j) with 1-based inclusive bounds."""
        return SequenceView(self.dom, self.terms[i - 1 : j], _canonical=True)

    def is_zero(self) -> bool:
        return all(self.dom.is_zero(t) for t in self.terms)

    def first_nonzero_index(self):
        """Smallest 1-based i with s_i != 0, or None."""
        for i, t in enumerate(self.terms, start=1):
            if not self.dom.is_zero(t):
                return i
        return None

    def append(self, value) -> "SequenceView":
        return SequenceView(self.dom, self.terms + (self.dom.coerce(value),), _canonical=True)


def parse_sequence(dom: Domain, text: str) -> SequenceView:
    """Parse comma-separated terms; gfp_poly terms are parenthesized lists."""
    text = text.strip()
    if not text:
        return SequenceView(dom, ())
    return SequenceView(dom, [dom.parse(tok) for tok in _split_terms(text)], _canonical=True)


def bits_from_sequence(s: SequenceView) -> int:
    """GF(2) terms packed into an int, s_i at bit i - 1."""
    bits = 0
    for i, t in enumerate(s):
        if t:
            bits |= 1 << i
    return bits


def sequence_from_bits(dom: Domain, bits: int, n: int) -> SequenceView:
    """The n-term GF(2) sequence with s_i at bit i - 1 of bits."""
    return SequenceView(dom, [(bits >> i) & 1 for i in range(n)])


def format_sequence(s: SequenceView) -> str:
    return ",".join(s.dom.format(t) for t in s.terms)


def _split_terms(text: str):
    """Split on commas at paren depth zero (gfp_poly terms contain commas)."""
    if "(" not in text and ")" not in text:
        return text.split(",")
    toks, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in %r" % text)
        if ch == "," and depth == 0:
            toks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses in %r" % text)
    toks.append("".join(cur))
    return toks
