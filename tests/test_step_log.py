"""One engine pass per request: the step log carries the whole profile."""

import random

import pytest
from hypothesis import given, settings, strategies as hs

import seqmin.lfsr as lfsr
from seqmin.cli import main
from seqmin.lfsr import lc_profile, mr_scan, read_step_log, run, verify_identity
from seqmin.poly import PairedPoly
from seqmin.ring import domain_from_string
from seqmin.sequence import SequenceView

from util import verify_pair_identity

# ring -> (longest random input, term generator)
RINGS = {
    "gf2": (40, lambda rng: rng.randrange(2)),
    "gfp:7": (30, lambda rng: rng.randrange(7)),
    "int": (12, lambda rng: rng.randint(-5, 5)),
    "gfp_poly:3": (8, lambda rng: (rng.randrange(3), rng.randrange(3))),
}


@pytest.mark.parametrize("with_epsilon", [False, True])
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_step_log_matches_mr_scan(ring, with_epsilon):
    dom = domain_from_string(ring)
    longest, term = RINGS[ring]
    rng = random.Random("%s/%s" % (ring, with_epsilon))
    eps = dom.one if with_epsilon else None
    for _ in range(40):
        s = SequenceView(dom, [term(rng) for _ in range(rng.randint(1, longest))])
        degrees, exponents, jumps = [], [], []
        for scanned in mr_scan(s, eps):
            degrees.append(scanned.mu.f.degree())
            exponents.append(scanned.e)
            if scanned.steps[-1].jumped:
                jumps.append(scanned.j - 1)
        st = run(s, eps)
        log = read_step_log(st)
        assert log.profile == degrees
        assert log.exponents == exponents
        assert log.last_jump == (jumps[-1] if jumps else -1)
        assert read_step_log(scanned) == log
        assert lc_profile(s, eps) == log.profile


# ring -> strategy for one term, lengths as in RINGS
TERMS = {
    "gf2": hs.integers(0, 1),
    "gfp:7": hs.integers(0, 6),
    "int": hs.integers(-5, 5),
    "gfp_poly:3": hs.tuples(hs.integers(0, 2), hs.integers(0, 2)),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(derandomize=True, deadline=None)
@given(data=hs.data())
def test_live_state_at_every_step(ring, data):
    """One mr_scan pass: at each step both identities hold (by the library's
    check and by the schoolbook reference), LC does not fall, bez is
    (-mu2', mu2), and mu, mu', e are those of a fresh pass over the prefix."""
    dom = domain_from_string(ring)
    term = TERMS[ring]
    terms = data.draw(hs.lists(term, min_size=1, max_size=RINGS[ring][0]))
    eps = data.draw(hs.none() | term)
    s = SequenceView(dom, terms)
    lc = 0
    for j, st in enumerate(mr_scan(s, eps), start=1):
        assert st.j == j and len(st.steps) == j
        res = st.result()
        assert verify_identity(res.bez_numu, res.mu, res.nabla)
        assert verify_identity(
            res.bez_fg, PairedPoly(res.mu.f, res.mu_prime.f), res.nabla
        )
        assert verify_pair_identity(res.bez_numu, res.mu, res.nabla)
        assert verify_pair_identity(
            res.bez_fg, PairedPoly(res.mu.f, res.mu_prime.f), res.nabla
        )
        assert st.bez == PairedPoly(-st.mu_prime.f2, st.mu.f2)
        assert st.lc >= lc
        lc = st.lc
        ref = run(s.prefix(j), eps)
        assert (st.mu, st.mu_prime, st.e) == (ref.mu, ref.mu_prime, ref.e)
    assert j == len(s)


@pytest.fixture
def engine_passes(monkeypatch):
    """Counts the engine passes: every pass starts with mr_init."""
    calls = []
    real = lfsr.mr_init

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lfsr, "mr_init", counted)
    return calls


S8 = "0,1,1,0,0,1,0,1"


@pytest.mark.parametrize("argv, passes", [
    (["mr", "--seq", S8], 1),
    (["mr", "--seq", S8, "--json"], 1),
    (["mr", "--ring", "gfp:7", "--seq", "1,3,2,6", "--monic"], 1),
    (["mr", "--seq", S8, "--trace"], 1),
    (["mr", "--seq", S8, "--trace", "--json"], 1),
    (["mr", "--ring", "gfp:7", "--seq", "1,3,2,6", "--monic", "--trace"], 1),
    (["annihilator", "--seq", S8], 1),
    (["annihilator", "--seq", S8, "--extend"], 1),
    (["annihilator", "--seq", S8, "--oracle"], 1),
])
def test_cli_engine_passes(capsys, engine_passes, argv, passes):
    assert main(argv) == 0
    capsys.readouterr()
    assert len(engine_passes) == passes


def test_classify_error_reads_the_prefix_from_its_own_pass(capsys, engine_passes):
    assert main(["reverse-lc", "--classify", "--seq", "1,1,0"]) == 2
    assert capsys.readouterr().err == (
        "error: need n = 2*LC exactly (n=3, LC=2); try a prefix of length 2\n")
    assert len(engine_passes) == 1
