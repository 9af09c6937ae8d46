"""Reciprocal annihilators and the complexity of reversed sequences.

If f annihilates s then its reciprocal f* annihilates the reverse of the
slice (s_{k+1}, ..., s_n), where k is the multiplicity of x in f; for
x-coprime f the full reverse is covered.  Over a factorial domain with
n = 2 * LC(s) exactly, the reversed complexity is LC when mu_0 != 0 and
LC + 1 when mu_0 = 0.
"""

from __future__ import annotations

from collections import namedtuple

from .lfsr import annihilates, read_step_log, run
from .poly import Poly
from .ring import DomainError
from .sequence import SequenceView

IYResult = namedtuple("IYResult", ["lc", "rev_lc", "verdict"])


def reverse_lc(s: SequenceView, epsilon=None) -> int:
    """Linear complexity of the reversed sequence."""
    if len(s) < 1:
        raise ValueError("empty sequence")
    return run(s.reversed(), epsilon).lc


def reciprocal_annihilates(f: Poly, s: SequenceView) -> bool:
    """Whether f* annihilates (s_n, ..., s_{k+1}) with k = v_x(f).

    f must annihilate s (checked); the reciprocal is then guaranteed to
    annihilate the truncated reverse, so this returning False on a valid
    input would falsify the theory -- the operation exists to be testable.
    """
    if f.is_zero():
        raise DomainError("zero polynomial has no reciprocal statement")
    if not annihilates(f, s):
        raise DomainError("f does not annihilate the sequence")
    k = f.x_valuation()
    rev_slice = s.slice(k + 1, len(s)).reversed()
    return annihilates(f.reciprocal(), rev_slice)


def iy_classify(s: SequenceView, epsilon=None) -> IYResult:
    """The reversed-complexity dichotomy for sequences with n = 2 * LC.

    Requires n = 2 * LC(s) exactly (every domain here is factorial).
    verdict is true iff rev_lc equals lc (mu_0 != 0) or lc + 1 (mu_0 = 0).
    """
    st = run(s, epsilon)
    lc = st.lc
    if len(s) != 2 * lc:
        j = _longest_iy_prefix(st)
        hint = "no prefix has n = 2*LC" if j is None else "try a prefix of length %d" % j
        raise DomainError("need n = 2*LC exactly (n=%d, LC=%d); %s" % (len(s), lc, hint))
    # at n = 2 * LC the exponent is 1, so LC-bullet is LC (mu_0 != 0) or
    # n + 1 - LC = LC + 1 (mu_0 = 0): the lower-bound lemma gives the answer
    rev = reverse_lc(s, epsilon)
    return IYResult(lc=lc, rev_lc=rev, verdict=rev == st.lc_bullet)


def max_iy_prefix(s: SequenceView, epsilon=None):
    """Longest prefix length j with j = 2 * LC(s^(j)), or None."""
    return _longest_iy_prefix(run(s, epsilon))


def _longest_iy_prefix(st):
    exponents = read_step_log(st).exponents
    # e_j = j + 1 - 2*LC_j, so e_j = 1 means j = 2*LC_j
    return max((j for j, e in enumerate(exponents, start=1) if e == 1 and j >= 2),
               default=None)
