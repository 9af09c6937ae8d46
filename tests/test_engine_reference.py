"""The engine against the division-free recursion on whole coefficients.

The engine carries each pair as a content times a pair and reads `bez` off
the realisation as (-mu2', mu2).  `util.divfree_mr` does neither: it runs
the recursion on whole coefficient lists and carries `bez` by its own
update.  At every step of `mr_scan` both must hold the same mu, mu2, mu',
mu2', bez_fg, nabla and delta', and log the same discrepancy and exponent.
A pass whose views are read only at the end must agree with the last step.
"""

import random

import pytest

from seqmin.lfsr import mr_scan, run, verify_identity
from seqmin.ring import domain_from_string, formed
from seqmin.sequence import SequenceView

from util import divfree_mr

# ring -> (longest input, term generator); zero terms occur in every ring
RINGS = {
    "gf2": (40, lambda rng: rng.randrange(2)),
    "gfp:7": (30, lambda rng: rng.randrange(7)),
    "int": (24, lambda rng: rng.randint(-5, 5)),
    "gfp_poly:3": (12, lambda rng: tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))),
}


def seeded_inputs(ring, with_epsilon):
    """160 seeded (terms, epsilon) inputs per ring and setting, a fifth of the terms zero."""
    longest, term = RINGS[ring]
    rng = random.Random("divfree/%s/%s" % (ring, with_epsilon))
    for _ in range(160):
        terms = [0 if rng.random() < 0.2 else term(rng) for _ in range(rng.randint(1, longest))]
        yield terms, term(rng) if with_epsilon else None


def assert_matches(st, want):
    assert (st.steps[-1].delta, st.e, st.nabla, st.delta_prime) == (
        want.delta, want.e, want.nabla, want.delta_prime)
    res = st.result()
    assert (res.mu.f.coeffs, res.mu.f2.coeffs) == (want.mu, want.mu2)
    assert (res.mu_prime.f.coeffs, res.mu_prime.f2.coeffs) == (want.mu_prime, want.mu2_prime)
    assert (res.bez_fg.f.coeffs, res.bez_fg.f2.coeffs) == want.bez


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_engine_matches_the_divfree_reference(ring, with_epsilon):
    """Every step's state, its mu and mu' views read at that step."""
    dom = domain_from_string(ring)
    for terms, eps in seeded_inputs(ring, with_epsilon):
        ref = divfree_mr(dom, terms, eps)
        for st, want in zip(mr_scan(SequenceView(dom, terms), eps), ref, strict=True):
            assert_matches(st, want)


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_views_read_at_some_steps_or_none(ring, with_epsilon):
    """A view slot that goes stale, or is not moved at a jump, shows here.

    `run` forms no view before the pass ends; the scan reads the state at a
    third of its steps, so some slots are filled and others left empty
    across a jump.
    """
    dom = domain_from_string(ring)
    rng = random.Random("views/%s/%s" % (ring, with_epsilon))
    for terms, eps in seeded_inputs(ring, with_epsilon):
        s = SequenceView(dom, terms)
        ref = divfree_mr(dom, terms, eps)
        assert_matches(run(s, eps), ref[-1])
        for st, want in zip(mr_scan(s, eps), ref, strict=True):
            if rng.random() < 1 / 3:
                assert_matches(st, want)
        assert_matches(st, ref[-1])


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_views_kept_through_the_pass(ring, with_epsilon):
    """The mu and mu' view objects taken at every step, compared after the pass.

    mu^ and mu^' are bare lists, and at a jump mu^' takes over mu^'s lists
    themselves; a view that shared a list the engine later wrote in place
    would hold a later step's value here.
    """
    dom = domain_from_string(ring)
    for terms, eps in seeded_inputs(ring, with_epsilon):
        kept = [(st.mu, st.mu_prime) for st in mr_scan(SequenceView(dom, terms), eps)]
        for (mu, mu_prime), want in zip(kept, divfree_mr(dom, terms, eps), strict=True):
            assert (mu.f.coeffs, mu.f2.coeffs) == (want.mu, want.mu2)
            assert (mu_prime.f.coeffs, mu_prime.f2.coeffs) == (want.mu_prime, want.mu2_prime)


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_rho_times_both_contents_is_nabla(ring, with_epsilon):
    """A step carries rho = nabla / (c * c'): at every step rho * c * c'
    equals the reference's nabla, and the identity on the primitive parts,
    tilde(mu^') . (mu^, mu2^) = rho, holds (`MRState.primitive`)."""
    dom = domain_from_string(ring)
    for terms, eps in seeded_inputs(ring, with_epsilon):
        ref = divfree_mr(dom, terms, eps)
        for st, want in zip(mr_scan(SequenceView(dom, terms), eps), ref, strict=True):
            c, c_prime = formed(st.c), formed(st.c_prime)
            assert dom.mul(dom.mul(st.rho, c), c_prime) == want.nabla
            assert verify_identity(*st.primitive())
