"""The engine against the division-free recursion on whole coefficients.

The engine carries each pair as a content times a pair and reads `bez` off
the realisation as (-mu2', mu2).  `util.divfree_mr` does neither: it runs
the recursion on whole coefficient lists and carries `bez` by its own
update.  At every step of `mr_scan` both must hold the same mu, mu2, mu',
mu2', bez_fg and nabla, and log the same discrepancy and exponent.
"""

import random

import pytest

from seqmin.lfsr import mr_scan
from seqmin.ring import domain_from_string
from seqmin.sequence import SequenceView

from util import divfree_mr

# ring -> (longest input, term generator); zero terms occur in every ring
RINGS = {
    "gf2": (40, lambda rng: rng.randrange(2)),
    "gfp:7": (30, lambda rng: rng.randrange(7)),
    "int": (24, lambda rng: rng.randint(-5, 5)),
    "gfp_poly:3": (12, lambda rng: tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))),
}


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_engine_matches_the_divfree_reference(ring, with_epsilon):
    """160 seeded inputs per ring and epsilon setting, a fifth of the terms zero."""
    dom = domain_from_string(ring)
    longest, term = RINGS[ring]
    rng = random.Random("divfree/%s/%s" % (ring, with_epsilon))
    for _ in range(160):
        terms = [0 if rng.random() < 0.2 else term(rng) for _ in range(rng.randint(1, longest))]
        eps = term(rng) if with_epsilon else None
        ref = divfree_mr(dom, terms, eps)
        for st, want in zip(mr_scan(SequenceView(dom, terms), eps), ref, strict=True):
            assert (st.steps[-1].delta, st.e, st.nabla) == (want.delta, want.e, want.nabla)
            res = st.result()
            assert (res.mu.f.coeffs, res.mu.f2.coeffs) == (want.mu, want.mu2)
            assert (res.mu_prime.f.coeffs, res.mu_prime.f2.coeffs) == (
                want.mu_prime, want.mu2_prime)
            assert (res.bez_fg.f.coeffs, res.bez_fg.f2.coeffs) == want.bez
