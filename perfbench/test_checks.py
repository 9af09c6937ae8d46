"""Each independent check accepts seqmin's answer and rejects a corrupted one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import seqmin  # noqa: E402
import seqmin.cli  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def cli_json(*argv):
    op = workloads.cli_op(seqmin.cli, "test", list(argv), lambda out: None)
    ok, text = op.call()
    return ok, json.loads(text)


def text(terms):
    return ",".join(str(t) for t in terms)


def rejects(check, *args):
    with pytest.raises(CheckFailed):
        check(*args)


def bump(D, c):
    """A different coefficient of the same domain."""
    if isinstance(c, tuple):
        return tuple(checks.trim([(c[0] if c else 0) + 1] + list(c[1:])))
    return (c + 1) % D.p if hasattr(D, "p") else c + 1


# -- the textbook algorithms themselves ------------------------------------------


def test_bm_variants_agree():
    rng = random.Random(1)
    for _ in range(50):
        s = [rng.randrange(2) for _ in range(rng.randint(1, 40))]
        assert checks.bm_gf2(s) == checks.bm_gfp(s, 2)
        s3 = [rng.randrange(3) for _ in range(rng.randint(1, 20))]
        L, _, profile = checks.bm_gfp(s3, 3)
        assert checks.bm_generic([checks.RatY.of((t,), 3) for t in s3])[0::2] == (L, profile)
    # over Q: 1, 2, 4, 8 satisfies s_j = 2 s_{j-1}
    assert checks.bm_generic([Fraction(2 ** k) for k in range(8)])[0] == 1


@pytest.mark.parametrize("D", [checks.GF2(), checks.GFp(7), checks.ZZ(), checks.GFpY(3)])
def test_products_match_schoolbook(D):
    rng = random.Random(2)

    def coeff():
        if isinstance(D, checks.GFpY):
            return tuple(checks.trim(rng.randrange(3) for _ in range(rng.randint(0, 6))))
        return rng.randrange(-9, 10) if isinstance(D, checks.ZZ) else rng.randrange(D.p)

    def school(f, g):
        out = [D.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                if isinstance(D, checks.GFpY):
                    out[i + j] = tuple(checks._padd(out[i + j], checks._pmul(a, b, 3), 3))
                elif isinstance(D, checks.ZZ):
                    out[i + j] += a * b
                else:
                    out[i + j] = (out[i + j] + a * b) % D.p
        return checks.trim(out)

    for _ in range(30):
        f = checks.trim(coeff() for _ in range(rng.randint(1, 12)))
        g = checks.trim(coeff() for _ in range(rng.randint(1, 12)))
        if f and g:
            assert D.mul(f, g) == school(f, g)


# -- checks of answers ----------------------------------------------------------


@pytest.mark.parametrize("ring", ["gf2", "gfp:7"])
def test_mr_check(ring):
    D = checks.domain(ring)
    rng = random.Random(3)
    s = [rng.randrange(D.p) for _ in range(60)]
    ok, out = cli_json("mr", "--ring", ring, "--json", "--seq", text(s))
    assert ok
    checks.check_mr(D, s, out)
    for path in (("mu", 0), ("mu2", 1), ("bez_numu", 0, 1), ("bez_fg", 1, 0), ("mu_prime", 0, 0),
                 ("lc_profile", 30)):
        bad = copy.deepcopy(out)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bump(D, node[path[-1]])
        rejects(checks.check_mr, D, s, bad)
    bad = dict(out, nabla=0)
    rejects(checks.check_mr, D, s, bad)


@pytest.mark.parametrize("ring,terms", [
    ("int", [3, -1, 4, 1, -5, 2, 0, 2, -3, 5]),
    ("gfp_poly:3", [(1, 2), (), (0, 1), (2,), (1, 1), (2, 2), (0, 1)]),
])
def test_library_check(ring, terms):
    D = checks.domain(ring)
    op = workloads.library_op(seqmin, ring, terms)
    ok, payload = op.call()
    assert ok
    op.check(payload)
    res = payload[0]
    for field in ("mu", "bez_numu", "bez_fg"):
        pair = getattr(res, field)
        coeffs = list(pair.f.coeffs)
        coeffs[0] = bump(D, coeffs[0])
        bad = seqmin.PairedPoly(seqmin.Poly(pair.f.dom, coeffs), pair.f2)
        with pytest.raises(CheckFailed):
            op.check((res._replace(**{field: bad}), payload[1]))


@pytest.mark.parametrize("ring", ["gf2", "gfp:7"])
def test_bezout_check(ring):
    D = checks.domain(ring)
    u, u2 = [1, 0, 1, 1, 0, 1, 1], [1, 1, 0, 1]
    ok, out = cli_json("bezout", "--ring", ring, "--json", "--u", text(u), "--u2", text(u2))
    assert ok
    checks.check_bezout(D, u, u2, out)
    rejects(checks.check_bezout, D, u, u2, dict(out, g=[bump(D, out["g"][0])] + out["g"][1:]))
    f = copy.deepcopy(out["f"])
    f[0][0] = bump(D, f[0][0])
    rejects(checks.check_bezout, D, u, u2, dict(out, f=f))


def test_unit_fault_answer_is_right():
    """The failing short-mix request is a fault of the CLI's check, not of g."""
    ok, out = cli_json(*workloads.FAILING_BEZOUT)
    assert not ok and out["verified"] is False
    checks.check_bezout(checks.GFp(7), [1, 1], [2], out)


def _op(kind, ok=True, raises=False):
    def call():
        if raises:
            raise ValueError("broken")
        return ok, "{}"
    return workloads.Op(kind, call, lambda text: None)


def test_only_the_unit_fault_may_fail():
    runner = run.Runner()
    runner.run([[_op(workloads.FAILING_KIND, ok=False), _op("mr gf2 n=200")]] * 2)
    assert runner.correct

    for bad in (_op("annihilator --extend gf2", ok=False), _op("reverse-lc gf2", raises=True)):
        runner = run.Runner()
        runner.run([[_op(workloads.FAILING_KIND, ok=False), bad]])
        assert not runner.correct and runner.faults()


def test_unit_fault_fails_on_every_call_or_none():
    mended = run.Runner()
    mended.run([[_op(workloads.FAILING_KIND)]] * 2)
    assert mended.correct
    flaky = run.Runner()
    flaky.run([[_op(workloads.FAILING_KIND, ok=False)], [_op(workloads.FAILING_KIND)]])
    assert not flaky.correct


@pytest.mark.parametrize("ring,s", [("gf2", [1, 1, 0, 1, 1, 1, 1, 0]),
                                    ("gf2", [0, 1, 1, 0, 1]),
                                    ("gfp:7", [3, 1, 4, 1, 5, 2, 6])])
def test_plcp_check(ring, s):
    D = checks.domain(ring)
    ok, out = cli_json("plcp", "--ring", ring, "--json", "--seq", text(s))
    assert ok
    checks.check_plcp_seq(D, s, out)
    rejects(checks.check_plcp_seq, D, s, dict(out, is_plcp=not out["is_plcp"]))
    profile = list(out["profile"])
    profile[-1] += 1
    rejects(checks.check_plcp_seq, D, s, dict(out, profile=profile))


def test_plcp_exhaustive_check():
    ok, out = cli_json("plcp", "--exhaustive", "6", "--json")
    assert ok
    checks.check_plcp_exhaustive(6, out)
    rejects(checks.check_plcp_exhaustive, 6, dict(out, plcp_count=out["plcp_count"] + 1))
    rejects(checks.check_plcp_exhaustive, 6, dict(out, equivalent=False))


@pytest.mark.parametrize("ring,extra", [("gf2", []), ("gfp:7", []), ("gf2", ["--extend"]),
                                        ("gfp:7", ["--extend"]), ("gf2", ["--oracle"])])
def test_annihilator_check(ring, extra):
    D = checks.domain(ring)
    rng = random.Random(5)
    n = 10 if "--oracle" in extra else 40
    s = workloads._extendable(rng, D, n)  # mu_0 = 0: LC* = n + 1 - LC
    ok, out = cli_json("annihilator", *extra, "--ring", ring, "--json", "--seq", text(s))
    assert ok
    checks.check_annihilator(D, s, out)
    rejects(checks.check_annihilator, D, s, dict(out, degree=out["degree"] - 1))
    f, f2 = out["mu_bullet"]
    rejects(checks.check_annihilator, D, s, dict(out, mu_bullet=[[0] + f, f2]))
    rejects(checks.check_annihilator, D, s, dict(out, mu_bullet=[[bump(D, f[0])] + f[1:], f2]))
    if "s_next" in out:
        rejects(checks.check_annihilator, D, s, dict(out, s_next=bump(D, out["s_next"])))


@pytest.mark.parametrize("ring", ["gf2", "gfp:7"])
def test_reverse_check(ring):
    D = checks.domain(ring)
    s = workloads._iy_prefix(random.Random(6), D, 40)
    ok, out = cli_json("reverse-lc", "--classify", "--ring", ring, "--json", "--seq", text(s))
    assert ok
    checks.check_reverse_classify(D, s, out)
    rejects(checks.check_reverse_classify, D, s, dict(out, rev_lc=out["rev_lc"] + 1))
    rejects(checks.check_reverse_classify, D, s, dict(out, lc=out["lc"] - 1))


@pytest.mark.parametrize("ring", ["gf2", "gfp:7"])
def test_minpoly_check(ring):
    D = checks.domain(ring)
    s = [t % D.p for t in (1, 3, 0, 2, 5, 1, 1, 4, 6, 2, 0, 3)]
    ok, out = cli_json("minpoly", "--monic", "--ring", ring, "--json", "--seq", text(s))
    assert ok
    checks.check_minpoly_monic(D, s, out)
    mu = out["mu"]
    rejects(checks.check_minpoly_monic, D, s, dict(out, mu=[bump(D, mu[0])] + mu[1:]))
    rejects(checks.check_minpoly_monic, D, s, dict(out, mu=mu + [1]))


# -- the benchmark's own contract -------------------------------------------------


def test_benchmark_json_matches_run():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_repeat_the_same_kinds(name):
    gen = workloads.WORKLOADS[name](seqmin, random.Random(7))
    first, second = next(gen), next(gen)
    assert sorted(op.kind.split(" n=")[0] for op in first) == sorted(
        op.kind.split(" n=")[0] for op in second)
