"""Shared test helpers: exact identity checks and random generators."""

import random

from seqmin.poly import PairedPoly, mul
from seqmin.ring import GFp, IntegerRing
from seqmin.sequence import SequenceView


def random_sequence(dom, n, rng, int_bound=5):
    if isinstance(dom, GFp):
        return SequenceView(dom, [rng.randrange(dom.p) for _ in range(n)])
    if isinstance(dom, IntegerRing):
        return SequenceView(
            dom, [rng.randint(-int_bound, int_bound) for _ in range(n)]
        )
    raise ValueError("unsupported domain for random sequences")


def verify_pair_identity(a: PairedPoly, b: PairedPoly, expected) -> bool:
    """Exact check a.f*b.f + a.f2*b.f2 == constant expected."""
    total = mul(a.f, b.f) + mul(a.f2, b.f2)
    return total.eq_constant(expected)


def seeded(seed=20260825):
    return random.Random(seed)
