"""One engine pass per request: the step log carries the whole profile."""

import random

import pytest

import seqmin.lfsr as lfsr
from seqmin.cli import main
from seqmin.lfsr import lc_profile, mr_scan, read_step_log, run
from seqmin.ring import domain_from_string
from seqmin.sequence import SequenceView

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
        snaps = mr_scan(s, eps)
        st = run(s, eps)
        log = read_step_log(st)
        assert log.profile == [snap.mu.f.degree() for snap in snaps]
        assert log.exponents == [snap.e for snap in snaps]
        jumps = [snap.j - 1 for snap in snaps if snap.jumped]
        assert log.last_jump == (jumps[-1] if jumps else -1)
        assert st.last_jump_index == log.last_jump
        assert lc_profile(s, eps) == log.profile


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
    (["mr", "--seq", S8, "--trace"], 2),
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
