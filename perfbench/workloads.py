"""The four workloads: seeded inputs, the calls into seqmin, and their checks.

A workload is an endless series of rounds.  Every round holds the same
operation kinds in the same number, with fresh inputs drawn from the
seeded generator, so every run has the same input mix and the same share
of failing operations however many rounds it completes.

An operation reaches seqmin only through its public functions:
``seqmin.cli.main`` for CLI requests, the library modules for
``ring-growth``.  ``call()`` returns ``(ok, payload)``: for a CLI request
``ok`` is a zero exit status and the payload is the printed JSON; for a
library call ``ok`` means both identities verified.  ``check(payload)``
then runs the independent checks of ``checks.py`` on a successful answer.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable, Optional

import checks


@dataclass
class Op:
    kind: str
    call: Callable
    check: Callable
    # (ring descriptor, terms) when the operation consumes one sequence;
    # the traced run re-runs the engine on it with the multiplication counter
    seq: Optional[tuple] = None
    # the coefficients of the answer, for the coefficient-size metrics
    coeffs: Optional[Callable] = None


def _text(terms):
    return ",".join(str(t) for t in terms)


def cli_op(seqmin_cli, kind, argv, check, seq=None, coeffs=None):
    """A CLI request run in-process through seqmin.cli.main."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = seqmin_cli.main(argv)
        return rc == 0, out.getvalue()

    def check_json(text):
        check(json.loads(text))

    return Op(kind, call, check_json, seq, coeffs and (lambda text: coeffs(json.loads(text))))


def _mr_coeffs(out):
    for key in ("mu", "mu2"):
        yield from out[key]
    for key in ("mu_prime", "bez_numu", "bez_fg"):
        for poly in out[key]:
            yield from poly
    yield out["nabla"]


# -- gf2-mr and gfp-mr ---------------------------------------------------------

# A round runs each listed size once, so a repeated size runs more often.
# The lists are laid out so that a run's median and 90th percentile fall
# inside one size class, not in the gap between two, where a few inputs
# more or less on either side would move them most.
GF2_MR_SIZES = (200, 240, 280, 320, 360, 400, 400, 400, 450, 500, 600, 800, 800)
GFP_MR_SIZES = (150, 200, 250, 300, 350, 400, 450, 500, 500)


def mr_rounds(seqmin, rng, ring, sizes):
    D = checks.domain(ring)
    p = D.p
    while True:
        ops = []
        for n in rng.sample(sizes, len(sizes)):
            s = [rng.randrange(p) for _ in range(n)]
            ops.append(cli_op(
                seqmin.cli, "mr %s n=%d" % (ring, n),
                ["mr", "--ring", ring, "--json", "--seq", _text(s)],
                lambda out, s=s: checks.check_mr(D, s, out),
                seq=(ring, s), coeffs=_mr_coeffs,
            ))
        yield ops


# -- short-mix -----------------------------------------------------------------

SHORT_MIN, SHORT_MAX = 8, 128
# Every round uses each of these lengths (or degrees) once, handed to its 14
# sized requests in a random order: the cost of a request grows with its
# size, and independent draws made the share of large ones, and with it the
# run's 90th percentile, vary from run to run.
SHORT_SIZES = tuple(SHORT_MIN + round(k * (SHORT_MAX - SHORT_MIN) / 13) for k in range(14))

# seqmin's CLI checks the Bezout answer as g == +-nabla*gcd, which is wrong
# whenever g is nabla*gcd times another unit.  This smallest such input
# fails on every call; random GF(7) inputs would fail on a seed-dependent
# share, so they run without --oracle (the benchmark's own check still
# tests g against the gcd).
FAILING_BEZOUT = ["bezout", "--ring", "gfp:7", "--json", "--u", "1,1", "--u2", "2", "--oracle"]
# the one operation kind that may fail, and then only on every call
FAILING_KIND = "bezout gfp:7 --oracle (unit fault)"


def _nonzero_seq(rng, p, n):
    while True:
        s = [rng.randrange(p) for _ in range(n)]
        if any(s):
            return s


def _stable_gf2(rng, n):
    """A binary sequence with a perfect profile: the stability recursion."""
    s = [1]
    while len(s) < n:
        j = len(s)  # s_j is the last term; s_{j+1} is next
        s.append((s[j - 1] + s[j // 2 - 1]) % 2 if j % 2 == 0 else rng.randrange(2))
    return s


def _plcp_gfp(rng, p, n):
    """A GF(p) sequence with a perfect profile: nonzero odd discrepancies."""
    bm = checks.MasseyGFp(p)
    for j in range(1, n + 1):
        d = rng.randrange(1, p) if j % 2 else rng.randrange(p)
        bm.push((d - bm.partial()) % p)
    return bm.s


def _extendable(rng, D, n):
    """A sequence meeting --extend's precondition: e > 0 and mu_0 = 0."""
    while True:
        s = _nonzero_seq(rng, D.p, n)
        L, c, _ = D.bm(s)
        if 2 * L <= n and D.is_zero(c[L] if L < len(c) else 0):
            return s


def _iy_prefix(rng, D, n):
    """The longest prefix of a random sequence with n = 2 LC, at least 8 terms."""
    while True:
        s = [rng.randrange(D.p) for _ in range(n)]
        profile = D.bm(s)[2]
        lengths = [j for j in range(SHORT_MIN, n + 1) if j == 2 * profile[j - 1]]
        if lengths:
            return s[: lengths[-1]]


def _poly_pair(rng, p, d):
    u = [rng.randrange(p) for _ in range(d)] + [1]
    d2 = rng.randrange(d + 1)
    u2 = [rng.randrange(p) for _ in range(d2)] + [rng.randrange(1, p)]
    return u, u2


def short_mix_rounds(seqmin, rng):
    gf2, gf7 = checks.domain("gf2"), checks.domain("gfp:7")
    cli = seqmin.cli

    exhaustive = rng.sample(range(4, 13), 9)  # N of plcp --exhaustive, in turn
    rounds = 0

    def seq_op(kind, D, argv, s, check):
        return cli_op(cli, kind, argv + ["--ring", D.descriptor, "--json", "--seq", _text(s)],
                      lambda out: check(D, s, out), seq=(D.descriptor, s))

    def bezout_op(kind, D, u, u2, extra):
        argv = ["bezout", "--ring", D.descriptor, "--json", "--u", _text(u), "--u2", _text(u2)]
        return cli_op(cli, kind, argv + extra, lambda out: checks.check_bezout(D, u, u2, out))

    while True:
        sizes = iter(rng.sample(SHORT_SIZES, len(SHORT_SIZES)))

        def n():
            return next(sizes)

        ops = [
            bezout_op("bezout gf2 --oracle", gf2, *_poly_pair(rng, 2, n()), ["--oracle"]),
            bezout_op("bezout gfp:7", gf7, *_poly_pair(rng, 7, n()), []),
            cli_op(cli, FAILING_KIND, FAILING_BEZOUT,
                   lambda out: checks.check_bezout(gf7, [1, 1], [2], out)),
        ]
        for D, s in ((gf2, [rng.randrange(2) for _ in range(n())]), (gf2, _stable_gf2(rng, n())),
                     (gf7, [rng.randrange(7) for _ in range(n())]), (gf7, _plcp_gfp(rng, 7, n()))):
            ops.append(seq_op("plcp --seq " + D.descriptor, D, ["plcp"], s, checks.check_plcp_seq))
        k = exhaustive[rounds % len(exhaustive)]
        rounds += 1
        ops.append(cli_op(cli, "plcp --exhaustive", ["plcp", "--exhaustive", str(k), "--json"],
                          lambda out, k=k: checks.check_plcp_exhaustive(k, out)))
        for D in (gf2, gf7):
            ops.append(seq_op("annihilator " + D.descriptor, D, ["annihilator"],
                              _nonzero_seq(rng, D.p, n()), checks.check_annihilator))
            ops.append(seq_op("annihilator --extend " + D.descriptor, D,
                              ["annihilator", "--extend"], _extendable(rng, D, n()),
                              checks.check_annihilator))
        ops.append(seq_op("annihilator --oracle gf2", gf2, ["annihilator", "--oracle"],
                          _nonzero_seq(rng, 2, rng.randint(SHORT_MIN, 12)), checks.check_annihilator))
        for D in (gf2, gf7):
            ops.append(seq_op("reverse-lc --classify " + D.descriptor, D,
                              ["reverse-lc", "--classify"], _iy_prefix(rng, D, n()),
                              checks.check_reverse_classify))
            ops.append(seq_op("minpoly --monic " + D.descriptor, D, ["minpoly", "--monic"],
                              [rng.randrange(D.p) for _ in range(n())], checks.check_minpoly_monic))
        yield ops


# -- ring-growth ---------------------------------------------------------------

# As above; the median falls among the six int n=17 calls, the 90th
# percentile among the six largest.
INT_SIZES = (10, 12, 14, 15, 16, 17, 17, 17, 17, 17, 17, 18, 21, 21, 21)
GFPY_SIZES = (5, 6, 7, 8, 9, 11, 12, 12, 12)


def _plain(c):
    return c if isinstance(c, int) else tuple(c)


def library_op(seqmin, ring, s):
    """What `seqmin mr` does minus printing: parse, realise, verify both identities."""
    D = checks.domain(ring)
    if ring == "int":
        text = _text(s)
    else:
        text = ",".join("(%s)" % _text(t) for t in s)

    def call():
        dom = seqmin.domain_from_string(ring)
        seq = seqmin.parse_sequence(dom, text)
        res = seqmin.minimal_realisation(seq)
        ok1 = seqmin.verify_identity(res.bez_numu, res.mu, res.nabla)
        ok2 = seqmin.verify_identity(
            res.bez_fg, seqmin.PairedPoly(res.mu.f, res.mu_prime.f), res.nabla)
        return ok1 and ok2, (res, (ok1, ok2))

    def lists(payload):
        res, verified = payload

        def poly(f):
            return [_plain(c) for c in f.coeffs]

        def pair(p):
            return [poly(p.f), poly(p.f2)]

        return {"mu": poly(res.mu.f), "mu2": poly(res.mu.f2), "mu_prime": pair(res.mu_prime),
                "bez_numu": pair(res.bez_numu), "bez_fg": pair(res.bez_fg),
                "nabla": _plain(res.nabla), "verified": verified}

    return Op("library mr %s n=%d" % (ring, len(s)), call,
              lambda payload: checks.check_library_mr(D, s, lists(payload)),
              seq=(ring, s), coeffs=lambda payload: _mr_coeffs(lists(payload)))


# Zero and small terms make the coefficient growth, and with it the cost, of
# two inputs of the same length differ several-fold; these term sets halve
# that spread while keeping every term within -5..5 and of y-degree 1.
INT_TERMS = (-5, -4, -3, 3, 4, 5)
GFPY_TERMS = ((1, 1), (1, 2), (2, 1), (2, 2))  # a + b*y


def ring_growth_rounds(seqmin, rng):
    while True:
        ops = [library_op(seqmin, "int", [rng.choice(INT_TERMS) for _ in range(n)])
               for n in INT_SIZES]
        ops += [library_op(seqmin, "gfp_poly:3", [rng.choice(GFPY_TERMS) for _ in range(n)])
                for n in GFPY_SIZES]
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "gf2-mr": lambda seqmin, rng: mr_rounds(seqmin, rng, "gf2", GF2_MR_SIZES),
    "gfp-mr": lambda seqmin, rng: mr_rounds(seqmin, rng, "gfp:7", GFP_MR_SIZES),
    "short-mix": short_mix_rounds,
    "ring-growth": ring_growth_rounds,
}
