import subprocess
import sys
from pathlib import Path

import pytest

from seqmin.annihilator import (
    char_decompose,
    extend_by_jump,
    lc_bullet,
    min_nonvanishing,
    mr_bullet_family,
)
from seqmin.lfsr import MRState, annihilates, run
from seqmin.oracle import brute_min_annihilator
from seqmin.poly import PairedPoly, Poly, parse_poly
from seqmin.ring import DomainError, GF2, GFp, IntegerRing
from seqmin.sequence import SequenceView
from util import random_sequence, seeded

F2 = GF2()
F3 = GFp(3)
Z = IntegerRing()

S8 = SequenceView(F2, [0, 1, 1, 0, 0, 1, 0, 1])


def pp(text):
    return parse_poly(F2, text)


def test_lc_bullet_examples():
    assert lc_bullet(S8) == 5
    assert lc_bullet(SequenceView(F2, [1])) == 1
    assert lc_bullet(SequenceView(F2, [0, 1, 0, 0])) == 3
    with pytest.raises(ValueError):
        lc_bullet(SequenceView(F2, [0, 0]))


def test_min_nonvanishing_examples():
    assert min_nonvanishing(S8) == PairedPoly(pp("1,1,0,0,0,1"), pp("0,0,1,1"))
    assert min_nonvanishing(SequenceView(F2, [0, 1, 0, 0])) == PairedPoly(
        pp("1,0,0,1"), pp("0,1")
    )
    # s1 != 0: engine gives mu = (x, s1) with e = 0, so mu + mu' applies
    assert min_nonvanishing(SequenceView(F2, [1])) == PairedPoly(pp("1,1"), pp("1"))


def test_min_nonvanishing_annihilates_with_nonzero_constant():
    rng = seeded(51)
    for dom in (F2, F3, Z):
        for _ in range(40):
            s = random_sequence(dom, rng.randint(1, 14), rng)
            if s.is_zero():
                continue
            pair = min_nonvanishing(s)
            assert not dom.is_zero(pair.f.constant_term())
            assert annihilates(pair.f, s)
            assert pair.f.degree() == lc_bullet(s)


def _branch(st):
    """Which member min_nonvanishing builds: mu, mu + mu' or x^e * mu + mu'."""
    if not st.dom.is_zero(st.mu.f.constant_term()):
        return "mu"
    return "x^e mu + mu'" if st.e > 0 else "mu + mu'"


def test_min_nonvanishing_proves_its_pairing(monkeypatch):
    """Each of the three members is checked by its pairing identity: with
    nabla moved by one the call raises, on every branch over GF(2), GF(3)
    and the integers."""
    rng, seen = seeded(53), {}
    real = MRState.nabla
    monkeypatch.setattr(MRState, "nabla", property(
        lambda st: st.dom.add(real.fget(st), st.dom.one)))
    for dom in (F2, F3, Z):
        for _ in range(40):
            s = random_sequence(dom, rng.randint(1, 10), rng)
            if s.is_zero():
                continue
            branch = _branch(run(s))
            seen[dom, branch] = seen.get((dom, branch), 0) + 1
            with pytest.raises(AssertionError, match="pairing identity failed"):
                min_nonvanishing(s)
    assert len(seen) == 9, seen


@pytest.mark.parametrize("argv", [
    ["--seq", "0,1,1,0,0,1,0,1"],
    ["--seq", "0,1,1,0,0,1,0,1", "--extend"],
    ["--ring", "int", "--seq=3,-5,4,4,-3,5,-4,3", "--json"],
    ["--ring", "int", "--seq=-4,0,4,0,0,-4,0,-4,4,-4", "--extend", "--json"],
])
def test_annihilator_cli_exits_1_on_a_failed_pairing(argv):
    """The same moved nabla under the CLI, plain and with --extend: the
    AssertionError ends the process with status 1, as the console script's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from seqmin.cli import main\n"
            "from seqmin.lfsr import MRState\n"
            "real = MRState.nabla\n"
            "MRState.nabla = property(lambda st: st.dom.add(real.fget(st), st.dom.one))\n"
            "sys.exit(main(sys.argv[2:]))\n")
    out = subprocess.run([sys.executable, "-I", "-c", code, src, "annihilator"] + argv,
                         capture_output=True, text=True)
    assert out.returncode == 1, out
    assert out.stdout == "" and "AssertionError: pairing identity failed" in out.stderr


def test_lc_bullet_is_minimal_by_brute_force():
    rng = seeded(52)
    for dom, n_max in ((F2, 12), (F3, 8)):
        for _ in range(25):
            s = random_sequence(dom, rng.randint(1, n_max), rng)
            if s.is_zero():
                continue
            d, _, _ = brute_min_annihilator(s, require_nonzero_constant=True)
            assert lc_bullet(s) == d


def test_family_recovers_both_members():
    q_x = Poly(F2, (0, 1))
    q_x1 = Poly(F2, (1, 1))
    assert mr_bullet_family(S8, q_x, 1) == PairedPoly(pp("1,1,0,0,0,1"), pp("0,0,1,1"))
    assert mr_bullet_family(S8, q_x1, 1) == PairedPoly(
        pp("1,0,1,0,1,1"), pp("1,1,0,1")
    )


def test_family_e_nonpositive_branch():
    # (1,1) over GF(3): mu = x - 1 has mu0 != 0... use a mu0 = 0, e <= 0 case
    s = SequenceView(F3, [0, 1, 1])
    st = run(s)
    assert st.e <= 0 and st.mu.f.constant_term() == 0
    for a in (1, 2):
        pair = mr_bullet_family(s, None, a)
        assert annihilates(pair.f, s)
        assert pair.f.constant_term() != 0
        assert pair.f.degree() == st.mu.f.degree()


def test_family_preconditions():
    with pytest.raises(DomainError):
        mr_bullet_family(S8, Poly(F2, (0, 1)), 0)  # a = 0
    with pytest.raises(DomainError):
        mr_bullet_family(S8, Poly(F2, (1,)), 1)  # wrong degree for e = 1
    with pytest.raises(DomainError):
        mr_bullet_family(SequenceView(F2, [1, 1]), Poly(F2, (0, 1)), 1)  # mu0 != 0


def test_extend_by_jump_worked_example():
    res = extend_by_jump(S8)
    assert res.s_next == 0
    assert res.mu_ext == PairedPoly(pp("1,1,0,0,0,1"), pp("0,0,1,1"))
    res = extend_by_jump(S8, f_prime=Poly.one(F2))
    assert res.mu_ext == PairedPoly(pp("1,0,1,0,1,1"), pp("1,1,0,1"))


def test_extend_by_jump_random_fields():
    rng = seeded(53)
    for dom in (F2, F3, GFp(5)):
        for _ in range(40):
            s = random_sequence(dom, rng.randint(2, 14), rng)
            st = run(s)
            if s.is_zero() or st.e <= 0 or not dom.is_zero(st.mu.f.constant_term()):
                continue
            res = extend_by_jump(s)
            ext = s.append(res.s_next)
            assert run(ext).steps[-1].jumped
            assert annihilates(res.mu_ext.f, s)
            assert not dom.is_zero(res.mu_ext.f.constant_term())


def test_extend_by_jump_integer_choice():
    s = SequenceView(Z, [2, 0])
    st = run(s)
    assert st.e > 0 and st.mu.f.constant_term() == 0
    res = extend_by_jump(s)
    assert annihilates(res.mu_ext.f, s)
    assert res.mu_ext.f.constant_term() != 0


def test_extend_by_jump_preconditions():
    with pytest.raises(DomainError):
        extend_by_jump(SequenceView(F2, [1, 1]))  # mu0 != 0
    with pytest.raises(DomainError):
        extend_by_jump(S8, f_prime=Poly(F2, (1, 1)))  # deg too big for e=1


def test_char_decompose_minimal_member():
    res = char_decompose(pp("1,1,0,0,0,1"), S8)
    assert res.verdict
    assert res.q == Poly(F2, (0, 1))
    assert res.r == pp("1,1,1,1")  # the prejump minimal polynomial
    assert res.scale == 1


def test_char_decompose_non_minimal_member():
    # degree-6 annihilator with nonzero constant: (x+1) times the minimal one
    g = pp("1,1,0,0,0,1") * Poly(F2, (1, 1))
    assert annihilates(g, S8) and g.constant_term() == 1
    res = char_decompose(g, S8)
    assert not res.verdict


def test_char_decompose_preconditions():
    with pytest.raises(DomainError):
        char_decompose(pp("0,1,1,0,1"), S8)  # f0 = 0
    with pytest.raises(DomainError):
        char_decompose(pp("1,1"), S8)  # does not annihilate
    with pytest.raises(DomainError):
        char_decompose(pp("1,1"), SequenceView(F2, [1, 1]))  # mu0 != 0


def test_char_decompose_scale_matches_lead_power():
    s = SequenceView(Z, [0, 2, 2, 2])
    st = run(s)
    assert st.e > 0 and st.mu.f.constant_term() == 0
    f = min_nonvanishing(s).f
    res = char_decompose(f, s)
    assert res.scale == st.mu.f.lead() ** (st.e + 1)
    assert res.verdict


def test_jump_points_match_profile():
    from seqmin.lfsr import lc_profile

    rng = seeded(54)
    for _ in range(30):
        s = random_sequence(F3, rng.randint(2, 16), rng)
        st = run(s)
        degs = lc_profile(s)
        for j in range(1, len(s) + 1):
            prev = degs[j - 2] if j >= 2 else 0
            assert st.steps[j - 1].jumped == (degs[j - 1] > prev)
