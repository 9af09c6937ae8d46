import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import seqmin.cli as cli
import seqmin.plcp as plcp_mod
from seqmin.cli import main
from seqmin.lfsr import run, verify_identity
from seqmin.poly import PairedPoly, Poly, format_poly, pretty_poly
from seqmin.ring import DECIMAL_BITS, GF2, MAX_CONTENT_BITS, GFp, IntegerRing, formed
from seqmin.sequence import SequenceView, sequence_from_bits
from util import count_conversions


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minpoly_text(capsys):
    code, out, _ = run_cli(capsys, "minpoly", "--seq", "0,1,1,0,0,1,0,1")
    assert code == 0
    assert "mu = x^4 + x^2 + x" in out
    assert "LC = 4" in out


def test_minpoly_json_monic(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--ring", "gfp:5", "--seq", "2,4", "--monic", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"]
    assert data["mu"][-1] == 1


def test_mr_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "mr", "--seq", "1,0,1,1,0,1", "--json")
    assert code == 0
    data = json.loads(out)
    dom = GF2()
    mu = PairedPoly(Poly(dom, data["mu"]), Poly(dom, data["mu2"]))
    bez = PairedPoly(*(Poly(dom, c) for c in data["bez_numu"]))
    assert verify_identity(bez, mu, data["nabla"])
    assert data["lc_profile"] == [1, 1, 2, 2, 2, 2]
    assert data["verified"]


def test_mr_trace(capsys):
    code, out, _ = run_cli(capsys, "mr", "--seq", "0,1,1", "--trace")
    assert code == 0
    assert "j | delta" in out
    assert out.count("\n") >= 5


@pytest.mark.parametrize("ring, seq, n", [
    ("gf2", "0,1,1,0,0,1,0,1", 8),
    ("gfp:7", "1,3,2,6,0,5", 6),
    ("int", "3,-1,4,1,-5,2", 6),
    ("gfp_poly:3", "(1,1),(2,1),(1,2),(2,2)", 4),
])
@pytest.mark.parametrize("epsilon", [[], ["--epsilon", "1"]])
def test_mr_trace_json_is_one_document(capsys, ring, seq, n, epsilon):
    """`mr --trace --json` prints one JSON object: the answer, with one row per
    step under "trace", whose last mu is the answer's."""
    code, out, _ = run_cli(capsys, "mr", "--ring", ring, "--seq", seq, "--trace", "--json",
                           *epsilon)
    assert code == 0
    data = json.loads(out)
    assert [row["j"] for row in data["trace"]] == list(range(1, n + 1))
    keys = ["j", "delta", "e", "mu", "mu2", "mu_prime", "mu2_prime"]
    assert all(list(row) == keys for row in data["trace"])
    last = data["trace"][-1]
    assert last["mu"] == data["mu"] and last["mu2"] == data["mu2"]
    assert [last["mu_prime"], last["mu2_prime"]] == data["mu_prime"]
    plain = json.loads(run_cli(capsys, "mr", "--ring", ring, "--seq", seq, "--json",
                               *epsilon)[1])
    assert {k: v for k, v in data.items() if k != "trace"} == plain


def test_bezout_text(capsys):
    code, out, _ = run_cli(
        capsys, "bezout", "--u", "1,0,0,1", "--u2", "1,0,1", "--oracle",
        "--count-mults",
    )
    assert code == 0
    assert "g     = x + 1" in out
    assert "mults =" in out
    assert "verified: True" in out


# `bezout --count-mults` on fixed inputs: every `dom.mul` call of the engine
# pass.  GF(2) and GF(7) run the generic kernels, one `mul` per product.
# The integers' discrepancy and update are loops on plain ints that make
# none, and their contents are formed only when read, so their count is the
# one x * rho product of each nonzero step (128 while they ran the generic
# kernels, 18 while each step formed its content and nabla); GF(p)[y]'s
# packed discrepancy and update make none either, so its count is the
# nabla products alone (39 while its kernels called `mul`).
@pytest.mark.parametrize("argv,mults", [
    (["--u", "1,0,0,1", "--u2", "1,0,1"], 20),
    (["--ring", "gfp:7", "--u", "3,1,4,1,5,1", "--u2", "2,6,5,3"], 99),
    (["--ring", "int", "--u=3,-1,4,1,-5,1", "--u2=2,7,-1,8"], 9),
    (["--ring", "gfp_poly:3", "--u=(0,1),(2),(1,1),(1)", "--u2=(1,2),(0,1)"], 5),
])
def test_bezout_count_mults_pinned(capsys, argv, mults):
    code, out, _ = run_cli(capsys, "bezout", *argv, "--count-mults", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] and data["mults"] == mults


def test_bezout_json_gfp(capsys):
    code, out, _ = run_cli(
        capsys, "bezout", "--ring", "gfp:5", "--u", "1,2,1", "--u2", "1,1",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    dom = GFp(5)
    f = Poly(dom, data["f"][0])
    f2 = Poly(dom, data["f"][1])
    u = Poly(dom, [1, 2, 1])
    u2 = Poly(dom, [1, 1])
    assert f * u + f2 * u2 == Poly(dom, data["g"])


def test_bezout_oracle_needs_field(capsys):
    code, _, err = run_cli(
        capsys, "bezout", "--ring", "int", "--u", "0,1", "--u2", "1", "--oracle"
    )
    assert code == 2
    assert "field" in err


def test_plcp_sequence(capsys):
    code, out, _ = run_cli(capsys, "plcp", "--seq", "1,1,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["is_plcp"] and data["profile"] == [1, 1, 2]
    code, out, _ = run_cli(capsys, "plcp", "--seq", "0,1")
    assert code == 0
    assert "PLCP: False" in out


def test_plcp_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "plcp", "--exhaustive", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] and data["plcp_count"] == 8


def test_plcp_requires_an_input(capsys):
    code, _, err = run_cli(capsys, "plcp")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("argv, message", [
    (["mr", "--seq="], "error: empty sequence"),
    (["mr", "--trace", "--seq="], "error: empty sequence"),
    (["minpoly", "--seq="], "error: empty sequence"),
    (["reverse-lc", "--seq="], "error: empty sequence"),
    (["plcp", "--seq="], "error: empty sequence"),
    (["annihilator", "--seq="], "error: sequence must have a nonzero term"),
    (["plcp", "--seq", "1,1", "--exhaustive", "3"], "not allowed with"),
    *((argv, "error: invalid literal for int() with base 10: '%s'" % bad) for argv, bad in (
        (["minpoly", "--ring", "gf2", "--seq", "1,1_0"], "1_0"),
        (["minpoly", "--ring", "gf2", "--seq", "1,\u0661"], "\u0661"),
        (["minpoly", "--ring", "int", "--seq", "1_0,2"], "1_0"),
        (["minpoly", "--ring", "int", "--seq", "\u0661,2"], "\u0661"),
        (["minpoly", "--ring", "gfp_poly:3", "--seq", "1_0,(1)"], "1_0"),
        (["minpoly", "--ring", "gfp_poly:3", "--seq", "(1,1_0),(1)"], "1_0"),
        (["minpoly", "--ring", "gfp_poly:3", "--seq", "(1,\u0661),(1)"], "\u0661"),
        (["mr", "--seq", "1,1", "--epsilon", "1_0"], "1_0"),
        (["mr", "--ring", "int", "--seq", "1,1", "--epsilon", "\u0661"], "\u0661"),
        (["bezout", "--u", "1_0,1", "--u2", "1"], "1_0"),
        (["bezout", "--ring", "int", "--u", "\u0661,1", "--u2", "1"], "\u0661"),
        (["minpoly", "--ring", "gfp:1_1", "--seq", "1"], "1_1"))),
    (["bezout", "--u", "1,0,0,1", "--u2", "1,0,1", "--epsilon", "1"], "unrecognized arguments"),
])
def test_bad_sequence_input_exits_2(capsys, argv, message):
    # plcp takes exactly one of --seq and --exhaustive; a term is a sign and
    # ASCII digits, though int() alone reads 1_0 as 10 and the Arabic-Indic
    # one as 1; bezout reads no sequence and so takes no --epsilon
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err and not out


def test_annihilator_text(capsys):
    code, out, _ = run_cli(
        capsys, "annihilator", "--seq", "0,1,1,0,0,1,0,1", "--oracle"
    )
    assert code == 0
    assert "degree    = 5" in out
    assert "oracle agreement: True" in out


def test_annihilator_oracle_over_gf7_and_gf1009(capsys):
    # GF(7) allows 4 terms; GF(1009) allows none, since even one term
    # means 1009^2 - 1 candidates
    code, out, _ = run_cli(
        capsys, "annihilator", "--ring", "gfp:7", "--seq", "1,2,3", "--oracle", "--json"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, _, err = run_cli(
        capsys, "annihilator", "--ring", "gfp:1009", "--seq", "1", "--oracle"
    )
    assert code == 2
    assert "GF(1009): it needs p^n <= 3^8 and p^(n+1) <= 3^9, and n = 1" in err


def test_annihilator_oracle_rejects_a_non_annihilator(capsys, monkeypatch):
    import seqmin.annihilator as ann

    def x5_plus_1(s, eps=None):
        # degree 5 = LC-bullet and a nonzero constant term, but s_1 + s_6 = 1
        return PairedPoly(Poly(s.dom, [1, 0, 0, 0, 0, 1]), Poly.zero(s.dom))

    monkeypatch.setattr(ann, "min_nonvanishing", x5_plus_1)
    code, out, _ = run_cli(
        capsys, "annihilator", "--seq", "0,1,1,0,0,1,0,1", "--oracle"
    )
    assert code == 1
    assert "degree    = 5" in out
    assert "oracle agreement: False" in out


def test_annihilator_extend_json(capsys):
    code, out, _ = run_cli(
        capsys, "annihilator", "--seq", "0,1,1,0,0,1,0,1", "--extend", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["s_next"] == 0
    assert data["mu_bullet"][0] == [1, 1, 0, 0, 0, 1]


def test_annihilator_extend_writes_s_next_in_its_ring(capsys):
    """s_next is written as every value of its ring is: over GF(3)[y] as
    (1), not as the Python list [1]; the JSON answer writes it as an array."""
    argv = ["annihilator", "--ring", "gfp_poly:3", "--extend", "--seq", "(1,2,1),0,0,0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "s_next = (1)"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["s_next"] == [1]


def test_reverse_lc(capsys):
    code, out, _ = run_cli(capsys, "reverse-lc", "--seq", "1,1,0,0")
    assert code == 0
    assert "reversed LC = 3" in out
    code, out, _ = run_cli(
        capsys, "reverse-lc", "--seq", "1,1,0,0", "--classify", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"lc": 2, "rev_lc": 3, "verified": True}


@pytest.mark.parametrize("ring, terms, reduced", [
    ("gf2", "1,2,3", "1,0,1"),
    ("gfp:7", "8,-1", "1,6"),
    # blanks around a term and a leading sign are allowed
    ("gfp:7", " +8, 1,-1 ", "1,1,6"),
    ("gfp_poly:3", "( 4,+1),(-1 )", "(1,1),(2)"),
])
def test_out_of_range_terms_reduce_mod_p(capsys, ring, terms, reduced):
    for cmd in (["mr", "--json"], ["annihilator"]):
        assert (run_cli(capsys, *cmd, "--ring", ring, "--seq", terms)
                == run_cli(capsys, *cmd, "--ring", ring, "--seq", reduced))


def test_bench_small(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "256,512,1024", "--count-mults", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 3
    assert all(r["mults"] > 0 for r in data["rows"])
    assert isinstance(data["alpha"], float)


def test_bench_count_mults_text(capsys):
    """The text rows name each size's generic-engine multiplication count."""
    code, out, _ = run_cli(capsys, "bench", "--sizes", "16,32", "--seed", "3", "--count-mults")
    assert code == 0
    rng = random.Random(3)
    lines = out.splitlines()
    for line, n in zip(lines, (16, 32)):
        mults = run(sequence_from_bits(GF2(), rng.getrandbits(n), n), count_mults=True).mults
        assert line.endswith("s  (%d mults at n=%d)" % (mults, n))
    assert lines[2].startswith("fitted exponent alpha = ")


def test_exit_code_on_bad_input(capsys):
    code, _, err = run_cli(capsys, "minpoly", "--seq", "")
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(capsys, "minpoly", "--ring", "gfp:4", "--seq", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_epsilon_flag(capsys):
    code, out, _ = run_cli(
        capsys, "minpoly", "--ring", "int", "--seq", "3", "--epsilon", "1"
    )
    assert code == 0
    assert "x - 3" in out


def test_bezout_rejects_a_g_that_is_not_a_common_divisor(capsys, monkeypatch):
    import seqmin.bezout as bz

    real = bz.bezout_pair

    def off_by_x_plus_1(u, u2, count_mults=False):
        # f and g both times (x + 1): still f.u + f2.u2 = g, but g no longer
        # divides u = x^3 + 1
        res = real(u, u2, count_mults)
        x1 = Poly(u.dom, [1, 1])
        f = PairedPoly(res.f.f * x1, res.f.f2 * x1)
        return res._replace(f=f, g=res.g * x1)

    monkeypatch.setattr(bz, "bezout_pair", off_by_x_plus_1)
    code, out, _ = run_cli(
        capsys, "bezout", "--u", "1,0,0,1", "--u2", "1,0,1", "--json"
    )
    assert code == 1
    assert json.loads(out)["verified"] is False


@pytest.mark.parametrize("ring, u, u2", [
    ("int", "2,3,1", "1,1"),
    ("gfp_poly:3", "(0,1),(1,1),(1)", "(0,1),(1)"),
    ("gfp:7", "1,1", "2"),
])
def test_bezout_divisibility_check_over_every_domain(capsys, ring, u, u2):
    code, out, _ = run_cli(
        capsys, "bezout", "--ring", ring, "--u", u, "--u2", u2, "--json"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


# the first terms of the 30-term integer input of the CI step: at 25 terms
# c (113 k bits), c' (80 k bits) and nabla (194 k bits) are all longer than
# ring.DECIMAL_BITS, so each of them is converted through `decimal`
CI_INT_TERMS = "-5,4,3,-3,5,4,-4,3,5,-5,3,4,-3,5,-4,4,3,-5,5,3,-4,4,-3,5,3,-5,4,-4,3,5"


@pytest.mark.parametrize("argv", [["mr"], ["mr", "--json"], ["mr", "--trace"]])
def test_integer_answers_convert_each_long_int_once(capsys, monkeypatch, argv):
    """A whole answer over the integers, as text and as JSON, converts every
    distinct int past DECIMAL_BITS once: the contents c and c' on their
    `ring.Product` nodes, however many polynomials they scale."""
    converted = count_conversions(monkeypatch)
    terms = CI_INT_TERMS.split(",")[:25]
    st = run(SequenceView(IntegerRing(), [int(t) for t in terms]))
    contents = [formed(st.c), formed(st.c_prime)]
    assert min(c.bit_length() for c in contents) > DECIMAL_BITS
    code, _, _ = run_cli(capsys, *argv, "--ring", "int", "--seq=" + ",".join(terms))
    assert code == 0
    assert len(converted) == len(set(converted))
    assert all(converted.count(c) == 1 for c in contents)


def test_a_content_converts_once_however_often_its_views_are_written(monkeypatch):
    """On 25 integer terms c (113 k bits) and c' (80 k bits) are past
    DECIMAL_BITS.  Writing mu, mu2 and mu' twice each, through format_poly
    and pretty_poly, from views built afresh on each read of the state,
    converts each content once, on its `ring.Product` node."""
    terms = [int(t) for t in CI_INT_TERMS.split(",")[:25]]
    st = run(SequenceView(IntegerRing(), terms))
    c, c_prime = formed(st.c), formed(st.c_prime)
    assert (c.bit_length(), c_prime.bit_length()) == (113_423, 80_215)
    converted = count_conversions(monkeypatch)
    for read in (lambda: st.mu.f, lambda: st.mu.f2, lambda: st.mu_prime.f):
        for write in (format_poly, pretty_poly):
            write(read())
    assert converted == [c, c_prime]


def test_plcp_json_over_int_writes_through_decimal_text(capsys, monkeypatch):
    """plcp --json over the integers writes its odd discrepancies through
    ring.int_text, as every --json answer over the integers is written: on
    the CI step's 30 terms three of them are past DECIMAL_BITS (the longest
    468 k bits), and each is converted once; the report reads back unchanged."""
    converted = count_conversions(monkeypatch)
    terms = [int(t) for t in CI_INT_TERMS.split(",")]
    report = plcp_mod.is_plcp(SequenceView(IntegerRing(), terms))
    long = [d for d in report.odd_discrepancies if d.bit_length() > DECIMAL_BITS]
    assert len(long) == 3
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        want = {"is_plcp": report.is_plcp, "profile": list(map(str, report.profile)),
                "odd_discrepancies": list(map(str, report.odd_discrepancies)),
                "exponents": list(map(str, report.exponent_trace))}
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    code, out, _ = run_cli(capsys, "plcp", "--ring", "int", "--json", "--seq=" + CI_INT_TERMS)
    assert code == 0
    assert sorted(converted) == sorted(long)
    assert json.loads(out, parse_int=str) == want


def test_mr_past_the_content_limit_exits_2(capsys):
    """200 integer terms: the pass carries rho and forms no content, and
    reading the answer would form contents of astronomically many bits, so
    the request stops at once with exit 2, naming both sizes."""
    rng = random.Random("content-limit")
    terms = ",".join(str(rng.choice((-5, -4, -3, 3, 4, 5))) for _ in range(200))
    code, out, err = run_cli(capsys, "mr", "--ring", "int", "--seq=" + terms)
    assert code == 2 and out == ""
    assert err.startswith("error: an integer of up to ")
    assert "past the limit of %d bits (ring.MAX_CONTENT_BITS)" % MAX_CONTENT_BITS in err


def test_plcp_over_int_answers_at_200_terms(capsys):
    """plcp over Z on the CI step's 200 terms: the verdict reads each odd
    step's delta^, so the text answer forms no content and exits 0; the
    JSON answer writes the odd discrepancies, and from 37 terms on one of
    them is past ring.MAX_CONTENT_BITS, so it exits 2 naming the limit."""
    rng = random.Random(1)
    terms = [str(rng.choice((-5, -4, -3, 3, 4, 5))) for _ in range(200)]
    code, out, _ = run_cli(capsys, "plcp", "--ring", "int", "--seq=" + ",".join(terms))
    assert code == 0
    assert out.splitlines()[0] == "PLCP: True"
    code, out, err = run_cli(capsys, "plcp", "--ring", "int", "--json",
                             "--seq=" + ",".join(terms[:37]))
    assert code == 2 and out == ""
    assert "past the limit of %d bits (ring.MAX_CONTENT_BITS)" % MAX_CONTENT_BITS in err


def test_integer_output_past_the_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", None)
    before = limit() if limit else None
    code, out, _ = run_cli(
        capsys, "mr", "--ring", "int", "--json",
        "--seq", "3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6",
    )
    assert code == 0
    assert '"verified": true' in out
    if limit:
        assert limit() == before


@pytest.mark.parametrize("option, value, rest", [
    ("--seq", "-1,2,3", ["mr", "--ring", "int"]),
    ("--u", "-2,0,1", ["bezout", "--ring", "int", "--u2=-3,1"]),
    ("--u2", "-3,1", ["bezout", "--ring", "int", "--u=-2,0,1"]),
    ("--epsilon", "-1,1", ["mr", "--ring", "gfp_poly:3", "--seq", "1,2", "--json"]),
])
def test_leading_negative_term(capsys, option, value, rest):
    joined = run_cli(capsys, *rest, "%s=%s" % (option, value))
    spaced = run_cli(capsys, *rest, option, value)
    assert joined[0] == 0
    assert spaced == joined


@pytest.mark.parametrize("sizes", ["0", "", "8,-1", "16,x"])
def test_bench_rejects_bad_sizes(capsys, sizes):
    code, _, err = run_cli(capsys, "bench", "--sizes", sizes)
    bad = [t for t in sizes.split(",") if not t.isdigit() or t == "0"][0]
    assert code == 2
    assert repr(bad) in err


@pytest.mark.parametrize("argv, message", [
    (["bench", "--sizes", "64", "--seed", "1_0", "--json"],
     "argument --seed: invalid int value: '1_0'"),
    (["plcp", "--exhaustive", "\u0663", "--json"],
     "argument --exhaustive: invalid int value: '\u0663'"),
    (["bench", "--sizes", "\u0661\u0660", "--json"],
     "--sizes: '\u0661\u0660' is not a length >= 1"),
])
def test_integer_options_read_ascii_digits_only(capsys, argv, message):
    # int() alone reads 1_0 as 10 and Arabic-Indic digits as their values
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err and not out


def _reject_constant(name):
    raise ValueError("not JSON: %s" % name)


@pytest.mark.parametrize("sizes", ["100", "64,64"])
def test_bench_with_one_distinct_size_prints_valid_json(capsys, sizes):
    code, out, _ = run_cli(capsys, "bench", "--sizes", sizes, "--json")
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["alpha"] is None
    code, out, _ = run_cli(capsys, "bench", "--sizes", sizes)
    assert code == 0
    assert out.endswith("fitted exponent alpha = n/a\n")


@pytest.mark.parametrize("ring", ["gfp:7", "int", "gfp_poly:3"])
def test_plcp_exhaustive_needs_gf2(capsys, ring):
    code, out, err = run_cli(capsys, "plcp", "--ring", ring, "--exhaustive", "4")
    assert code == 2
    assert out == ""
    assert "GF(2)" in err and "--ring gf2" in err


@pytest.mark.parametrize("argv, message", [
    (["bezout", "--ring", "int", "--u", "0,1", "--u2", "1", "--oracle"],
     "oracle cross-check needs a field"),
    (["bezout", "--ring", "gfp_poly:3", "--u", "(1),(1)", "--u2", "(2)", "--oracle"],
     "oracle cross-check needs a field"),
    (["plcp", "--exhaustive", "4", "--ring", "gfp:7"],
     "--exhaustive checks GF(2)^N only; use --ring gf2"),
])
def test_option_needing_another_ring_is_a_usage_error(capsys, monkeypatch, argv, message):
    """bezout --oracle over a non-field and plcp --exhaustive off GF(2) are
    refused as every usage error is, before any pass runs: `error: ...` on
    stderr and exit 2."""
    calls = []
    monkeypatch.setattr(cli.bz, "bezout_pair", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(cli.plcp_mod, "check_stable_theorem", calls.append)
    assert run_cli(capsys, *argv) == (2, "", "error: %s\n" % message)
    assert calls == []


def test_plcp_exhaustive_over_gfp_2_is_gf2(capsys):
    """`gfp:2` names GF(2), so the exhaustive check runs and prints what `gf2` does."""
    code, out, err = run_cli(capsys, "plcp", "--ring", "gfp:2", "--exhaustive", "4")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "plcp", "--ring", "gf2", "--exhaustive", "4") == (code, out, err)


def test_classify_error_without_a_prefix(capsys):
    code, out, err = run_cli(capsys, "reverse-lc", "--seq", "0,0,0", "--classify")
    assert code == 2
    assert out == ""
    assert err == "error: need n = 2*LC exactly (n=3, LC=0); no prefix has n = 2*LC\n"


def test_import_does_not_load_dataclasses():
    """A fresh, isolated interpreter imports seqmin and its CLI without dataclasses.

    On CPython 3.11 `dataclasses` pulls in `inspect`, `ast`, `dis` and
    `tokenize`, about half the cost of starting the CLI.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import seqmin, seqmin.cli; "
            "print(seqmin.__file__); print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert out[0].startswith(src) and out[1] == "False"


# -- the one identity check of `mr` and `minpoly` ----------------------------

REALISE = [["mr"], ["mr", "--json"], ["mr", "--trace"], ["mr", "--trace", "--json"],
           ["minpoly"], ["minpoly", "--json"]]


class _LiveState:
    """The engine's live state as `mr_scan` yields it, with a tampered result."""

    def __init__(self, st, tamper):
        self._st, self._tamper = st, tamper

    def __getattr__(self, name):
        return getattr(self._st, name)

    def result(self):
        return self._tamper(self._st.result())


def _tamper_engine(monkeypatch, tamper):
    """Hand the CLI's check a changed realisation, on the plain and the traced pass."""
    real_mr, real_scan = cli.minimal_realisation, cli.mr_scan
    monkeypatch.setattr(cli, "minimal_realisation",
                        lambda s, eps=None: tamper(real_mr(s, eps)))
    monkeypatch.setattr(cli, "mr_scan", lambda s, eps=None: (
        _LiveState(st, tamper) for st in real_scan(s, eps)))


def _assert_rejected(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1, argv
    if "--json" in argv:
        assert json.loads(out.splitlines()[-1])["verified"] is False, argv
    elif argv[0] == "mr":
        assert out.endswith("verified: False\n"), argv


def _nabla_plus_one(res):
    dom = res.mu.dom
    return res._replace(nabla=dom.add(res.nabla, dom.one))


def _bez_fg_second_plus_one(res):
    f, f2 = res.bez_fg.f, res.bez_fg.f2
    return res._replace(bez_fg=PairedPoly(f, f2 + Poly.one(f2.dom)))


def _mu_prime_plus_one(res):
    f, f2 = res.mu_prime.f, res.mu_prime.f2
    return res._replace(mu_prime=PairedPoly(f + Poly.one(f.dom), f2))


@pytest.mark.parametrize("ring, seq", [
    ("gf2", "0,1,1,0,0,1,0,1"),
    ("int", "3,-1,4,1,-5,2"),
])
@pytest.mark.parametrize("tamper", [_nabla_plus_one, _bez_fg_second_plus_one,
                                    _mu_prime_plus_one])
def test_mr_and_minpoly_reject_a_changed_realisation(capsys, monkeypatch, ring, seq, tamper):
    """∇ moved by one (over ℤ through the recorded contents of `verify_identity`),
    a bez_fg whose second entry is no longer μ₂, or a μ′ whose first entry
    is no longer bez_numu's second: exit 1, verified false."""
    _tamper_engine(monkeypatch, tamper)
    for argv in REALISE:
        _assert_rejected(capsys, argv + ["--ring", ring, "--seq=" + seq])


def test_mr_and_minpoly_reject_an_unrescaled_monic_bez_fg(capsys, monkeypatch):
    """`--monic` that leaves bez_fg as it was (lead(μ) = 3 over GF(7)): exit 1."""
    real = cli.normalize_monic
    monkeypatch.setattr(cli, "normalize_monic",
                        lambda res: real(res)._replace(bez_fg=res.bez_fg))
    for argv in REALISE:
        _assert_rejected(capsys, argv + ["--ring", "gfp:7", "--seq", "1,3,2,6,0,5", "--monic"])


@pytest.mark.parametrize("argv", [
    ["mr", "--seq", "0,1,1,0,0,1,0,1"],
    ["mr", "--ring", "int", "--seq=3,-1,4,1,-5,2", "--trace", "--json"],
    ["mr", "--ring", "gfp:7", "--seq", "1,3,2,6,0,5", "--monic", "--json"],
    ["mr", "--ring", "gfp_poly:3", "--seq", "(1,1),(2,1),(1,2),(2,2)", "--trace"],
    ["minpoly", "--ring", "int", "--seq=3,-1,4,1,-5,2"],
    ["minpoly", "--ring", "gfp:7", "--seq", "1,3,2,6,0,5", "--monic"],
])
def test_mr_and_minpoly_expand_one_identity(capsys, monkeypatch, argv):
    """Both identities are one sum: one `verify_identity` call per request."""
    calls = []
    real = cli.verify_identity
    monkeypatch.setattr(cli, "verify_identity", lambda *a: calls.append(a) or real(*a))
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == 1


# the whole JSON answer of fixed GF(3)[y] requests: coefficient tuples,
# nested ones included, print as arrays
@pytest.mark.parametrize("argv, printed", [
    (["mr", "--seq", "(1,1),(2,1),(1,2),(2,2)"],
     '{"mu": [[0, 2, 2, 1, 1], [0, 1, 2, 1], [0, 2, 2, 1, 1]], "mu2": [[0, 2, 0, 1, 1, 1], '
     '[0, 2, 1, 0, 2, 1]], "mu_prime": [[[1, 2], [1, 1]], [[1, 2, 1]]], "bez_numu": '
     '[[[2, 1, 2]], [[1, 2], [1, 1]]], "bez_fg": [[[2, 1, 2]], [[0, 2, 0, 1, 1, 1], '
     '[0, 2, 1, 0, 2, 1]]], "nabla": [0, 0, 1, 0, 1, 0, 1], "lc_profile": [1, 1, 2, 2], '
     '"verified": true}'),
    (["mr", "--seq", "(1,2),(0,1),(2)", "--epsilon", "(1,1)"],
     '{"mu": [[1, 2, 1], [0, 2, 1], [1, 1, 1]], "mu2": [[], [1, 0, 0, 2]], "mu_prime": '
     '[[[0, 2], [1, 2]], [[1, 1, 1]]], "bez_numu": [[[2, 2, 2]], [[0, 2], [1, 2]]], '
     '"bez_fg": [[[2, 2, 2]], [[], [1, 0, 0, 2]]], "nabla": [2, 0, 2, 0, 2], '
     '"lc_profile": [1, 1, 2], "verified": true}'),
    (["bezout", "--u=(0,1),(2),(1,1),(1)", "--u2=(1,2),(0,1)"],
     '{"f": [[[0, 0, 0, 2]], [[1, 0, 0, 1], [0, 2, 2, 1], [0, 0, 1]]], "nabla": '
     '[0, 0, 0, 1, 1, 1, 2, 0, 1, 1, 2, 1], "g": [[1, 2, 0, 1, 1]], "verified": true}'),
    (["plcp", "--seq", "(1,1),(2,1),(1,2),(2,2)"],
     '{"is_plcp": true, "profile": [1, 1, 2, 2], "odd_discrepancies": [[1, 1], [0, 2, 1]], '
     '"exponents": [0, 1, 0, 1]}'),
])
def test_gfp_poly_json_is_pinned(capsys, argv, printed):
    assert run_cli(capsys, *argv, "--ring", "gfp_poly:3", "--json") == (0, printed + "\n", "")
