"""Command-line front end.

Subcommands: minpoly, mr, bezout, plcp, annihilator, reverse-lc, bench.
Results go to stdout (optionally as JSON, where coefficient tuples are
arrays), diagnostics to stderr; exit status is 0 on success, 1 when a
verification fails, 2 on usage errors.  `minpoly` and `mr` share one
engine pass and one identity check (`_realisation`).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

from . import annihilator as ann
from . import bezout as bz
from . import plcp as plcp_mod
from . import reverse as rev
from .lfsr import (
    minimal_realisation,
    mr_gf2_bits,
    mr_scan,
    normalize_monic,
    read_step_log,
    run,
    verify_identity,
)
from .oracle import brute_min_annihilator, ext_euclid
from .poly import PairedPoly, Poly, coeff_texts, parse_poly, pretty_poly, pseudo_divide
from .ring import GF2, DomainError, IntegerRing, domain_from_string, int_text, parse_int
from .sequence import parse_sequence, sequence_from_bits


def _add_common(p, seq=True):
    p.add_argument("--ring", default="gf2", help="gf2 | gfp:<p> | int | gfp_poly:<p>")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if seq:
        p.add_argument("--seq", required=True, help="comma-separated terms, s1 first")
        p.add_argument("--epsilon", default=None, help="initial-state constant (default 0)")


def build_parser():
    def int(text):  # the name argparse prints: "invalid int value: 'x'"
        return parse_int(text)

    ap = argparse.ArgumentParser(
        prog="seqmin",
        description="Exact minimal polynomials, realisations and Bezout identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minpoly", help="minimal polynomial of a sequence")
    _add_common(p)
    p.add_argument("--monic", action="store_true", help="normalize monic (fields)")
    p.set_defaults(run=cmd_minpoly)

    p = sub.add_parser("mr", help="minimal realisation with Bezout coefficients")
    _add_common(p)
    p.add_argument("--monic", action="store_true", help="normalize monic (fields)")
    p.add_argument("--trace", action="store_true", help="print the per-step table")
    p.set_defaults(run=cmd_mr)

    p = sub.add_parser("bezout", help="Bezout pair for u, u2 with u monic")
    _add_common(p, seq=False)
    p.add_argument("--u", required=True, help="monic polynomial, ascending coeffs")
    p.add_argument("--u2", required=True, help="second polynomial")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against extended Euclid (fields only)")
    p.add_argument("--count-mults", action="store_true",
                   help="report the multiplication count")
    p.set_defaults(run=cmd_bezout)

    p = sub.add_parser("plcp", help="perfect linear-complexity-profile report")
    p.add_argument("--ring", default="gf2")
    p.add_argument("--json", action="store_true")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--seq", help="sequence to test")
    given.add_argument("--exhaustive", type=int, metavar="N",
                       help="verify profile/stability equivalence over GF(2)^N")
    p.set_defaults(run=cmd_plcp)

    p = sub.add_parser("annihilator", help="least-degree nonvanishing annihilator")
    _add_common(p)
    p.add_argument("--extend", action="store_true",
                   help="use the one-term sequence extension")
    p.add_argument("--oracle", action="store_true",
                   help="check the answer by brute force over GF(p) "
                        "(p^n <= 3^8 and p^(n+1) <= 3^9)")
    p.set_defaults(run=cmd_annihilator)

    p = sub.add_parser("reverse-lc", help="complexity of the reversed sequence")
    _add_common(p)
    p.add_argument("--classify", action="store_true",
                   help="check the n = 2*LC dichotomy")
    p.set_defaults(run=cmd_reverse_lc)

    p = sub.add_parser("bench", help="timing scan over random binary sequences")
    p.add_argument("--sizes", default="4096,8192,16384,32768,65536,131072",
                   help="comma-separated lengths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--count-mults", action="store_true",
                   help="also report generic-engine multiplication counts")
    p.set_defaults(run=cmd_bench)
    return ap


def _dumps(out, dom=None) -> str:
    """json.dumps(out) for an answer that holds its coefficient arrays as Polys,
    and a pair of them as the tuple it is: the writer of every --json
    answer, `dom` its ring (None for one that has none, as `bench`'s).

    Over the integers the text is put together here, with json.dumps's
    separators, because json.dumps writes an int by int.__repr__, quadratic
    in its length before CPython 3.12, and the answers' ints reach millions
    of bits.  ring.int_text writes every int and `poly.coeff_texts` every
    Poly, which converts each long content once.  Every other ring's answer
    is json.dumps's own, which writes short ints faster.
    """
    if not isinstance(dom, IntegerRing):
        return json.dumps(out, default=lambda v: v.coeffs)

    def dump(v):
        if isinstance(v, dict):
            return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), dump(x)) for k, x in v.items())
        if isinstance(v, (list, tuple)):
            return "[%s]" % ", ".join(map(dump, v))
        if isinstance(v, Poly):
            return "[%s]" % ", ".join(coeff_texts(v))
        return int_text(v) if type(v) is int else json.dumps(v)

    return dump(out)


def _pretty_pair(p: PairedPoly) -> str:
    return "(%s, %s)" % (pretty_poly(p.f), pretty_poly(p.f2))


def _realisation(args, trace=False):
    """One engine pass for `mr` and `minpoly`: (result, verified, rows).

    The pass is `minimal_realisation`, or with `trace` `mr_scan`, whose
    live state gives one row per step: j, delta, e, mu, mu2, mu', mu2'.
    `--monic` is applied before the check.  bez_numu . (mu, mu2) = nabla is
    expanded once; the two equalities bez_fg = (bez_numu.f, mu2) and
    mu'.f = bez_numu.f2 make bez_fg . (mu, mu') the same sum term for term,
    so both identities are proven exactly.
    """
    rows = []
    if trace:
        for st in mr_scan(args.seq, args.epsilon):
            mu, mu_prime = st.mu, st.mu_prime
            rows.append((st.j, st.steps[-1].delta, st.e,
                         mu.f, mu.f2, mu_prime.f, mu_prime.f2))
        if not rows:
            raise ValueError("empty sequence")
        res = st.result()
    else:
        res = minimal_realisation(args.seq, args.epsilon)
    if args.monic:
        res = normalize_monic(res)
    verified = (verify_identity(res.bez_numu, res.mu, res.nabla)
                and res.bez_fg == PairedPoly(res.bez_numu.f, res.mu.f2)
                and res.mu_prime.f == res.bez_numu.f2)
    return res, verified, rows


def cmd_minpoly(args):
    res, verified, _ = _realisation(args)
    if args.json:
        print(_dumps({"mu": res.mu.f, "verified": verified}, args.ring))
    else:
        print("mu = %s" % pretty_poly(res.mu.f))
        print("LC = %d" % res.state.lc)
    return 0 if verified else 1


_TRACE_KEYS = ("j", "delta", "e", "mu", "mu2", "mu_prime", "mu2_prime")


def cmd_mr(args):
    dom = args.ring
    res, verified, rows = _realisation(args, args.trace)
    profile = read_step_log(res.state).profile
    if args.json:
        out = {
            "mu": res.mu.f,
            "mu2": res.mu.f2,
            "mu_prime": res.mu_prime,
            "bez_numu": res.bez_numu,
            "bez_fg": res.bez_fg,
            "nabla": res.nabla,
            "lc_profile": profile,
            "verified": verified,
        }
        if args.trace:
            out["trace"] = [dict(zip(_TRACE_KEYS, row)) for row in rows]
        print(_dumps(out, dom))
    else:
        if args.trace:
            print("  j | delta | e | mu ; mu2 | mu' ; mu2'")
            for j, delta, e, *polys in rows:
                print(" %2d | %5s | %2d | %s ; %s | %s ; %s"
                      % (j, dom.format(delta), e, *map(pretty_poly, polys)))
        for name, pair in (("mu", res.mu), ("mu'", res.mu_prime),
                           ("bez_numu", res.bez_numu), ("bez_fg", res.bez_fg)):
            print("%-8s= %s" % (name, _pretty_pair(pair)))
        print("nabla   = %s" % dom.format(res.nabla))
        print("profile = %s" % profile)
        print("verified: %s" % verified)
    return 0 if verified else 1


def cmd_bezout(args):
    dom = args.ring
    u = parse_poly(dom, args.u)
    u2 = parse_poly(dom, args.u2)
    if args.oracle and not dom.is_field:
        raise DomainError("oracle cross-check needs a field")
    res = bz.bezout_pair(u, u2, count_mults=args.count_mults)
    # g divides u and u2: zero pseudo-remainders (a constant g divides both)
    verified = all(res.g.degree() == 0 or pseudo_divide(v, res.g)[1].is_zero()
                   for v in (u, u2))
    if args.oracle:
        g, a, a2 = ext_euclid(u, u2)
        oracle_ok = res.g == g.scale(res.nabla) or res.g == g.scale(
            dom.neg(res.nabla)
        )
        verified = verified and oracle_ok
    if args.json:
        out = {
            "f": res.f,
            "nabla": res.nabla,
            "g": res.g,
            "verified": verified,
        }
        if args.count_mults:
            out["mults"] = res.mults
        print(_dumps(out, dom))
    else:
        print("f     = %s" % _pretty_pair(res.f))
        print("nabla = %s" % dom.format(res.nabla))
        print("g     = %s" % pretty_poly(res.g))
        if args.count_mults:
            print("mults = %d" % res.mults)
        print("verified: %s" % verified)
    return 0 if verified else 1


def cmd_plcp(args):
    if args.exhaustive is not None:
        if not isinstance(args.ring, GF2):
            raise DomainError("--exhaustive checks GF(2)^N only; use --ring gf2")
        ok = plcp_mod.check_stable_theorem(args.exhaustive)
        counts = plcp_mod.count_plcp(2, args.exhaustive)
        if args.json:
            print(_dumps({"n": args.exhaustive, "equivalent": ok,
                          "plcp_count": counts}, args.ring))
        else:
            print("n = %d: profile/stability equivalent: %s (count %d)"
                  % (args.exhaustive, ok, counts))
        return 0 if ok else 1
    report = plcp_mod.is_plcp(args.seq)
    if args.json:
        print(_dumps({
            "is_plcp": report.is_plcp,
            "profile": report.profile,
            "odd_discrepancies": report.odd_discrepancies,
            "exponents": report.exponent_trace,
        }, args.ring))
    else:
        print("PLCP: %s" % report.is_plcp)
        print("profile = %s" % list(report.profile))
    return 0


def cmd_annihilator(args):
    if args.extend:
        res = ann.extend_by_jump(args.seq, args.epsilon)
        pair, extra = res.mu_ext, {"s_next": res.s_next}
    else:
        pair, extra = ann.min_nonvanishing(args.seq, args.epsilon), {}
    # both constructions assert that this degree is LC-bullet
    degree = pair.f.degree()
    oracle_ok = True
    if args.oracle:
        _, polys, _ = brute_min_annihilator(args.seq, require_nonzero_constant=True)
        oracle_ok = pair.f in polys
    if args.json:
        out = {"mu_bullet": pair, "degree": degree, "verified": oracle_ok}
        out.update(extra)
        print(_dumps(out, args.ring))
    else:
        print("mu_bullet = %s" % _pretty_pair(pair))
        print("degree    = %d" % degree)
        for k, v in extra.items():
            print("%s = %s" % (k, args.ring.format(v)))
        if args.oracle:
            print("oracle agreement: %s" % oracle_ok)
    return 0 if oracle_ok else 1


def cmd_reverse_lc(args):
    if args.classify:
        res = rev.iy_classify(args.seq, args.epsilon)
        if args.json:
            print(_dumps({"lc": res.lc, "rev_lc": res.rev_lc,
                          "verified": res.verdict}, args.ring))
        else:
            print("LC = %d, reversed LC = %d, dichotomy holds: %s"
                  % (res.lc, res.rev_lc, res.verdict))
        return 0 if res.verdict else 1
    lc = rev.reverse_lc(args.seq, args.epsilon)
    if args.json:
        print(_dumps({"rev_lc": lc}, args.ring))
    else:
        print("reversed LC = %d" % lc)
    return 0


def cmd_bench(args):
    rng = random.Random(args.seed)
    sizes = []
    for tok in args.sizes.split(","):
        try:
            n = parse_int(tok)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError("--sizes: %r is not a length >= 1" % tok)
        sizes.append(n)
    rows = []
    for n in sizes:
        bits = rng.getrandbits(n)
        t0 = time.perf_counter()
        mr_gf2_bits(bits, n)
        dt = time.perf_counter() - t0
        row = {"n": n, "seconds": dt}
        if args.count_mults:
            small = min(n, 2048)  # generic engine is for counting, keep it modest
            s = sequence_from_bits(GF2(), bits, small)
            st = run(s, count_mults=True)
            row["mults"] = st.mults
            row["mults_n"] = small
        rows.append(row)
    alpha = _fit_exponent(rows)
    if args.json:
        print(_dumps({"rows": rows, "alpha": alpha}))
    else:
        for row in rows:
            line = "n = %7d  %8.4f s" % (row["n"], row["seconds"])
            if "mults" in row:
                line += "  (%d mults at n=%d)" % (row["mults"], row["mults_n"])
            print(line)
        print("fitted exponent alpha = %s" % ("n/a" if alpha is None else "%.3f" % alpha))
    return 0


def _fit_exponent(rows):
    """Least-squares slope of log(time) against log(n); None for < 2 distinct n."""
    import statistics  # it imports decimal, which `import seqmin.cli` must not

    try:
        return statistics.linear_regression(
            [math.log(r["n"]) for r in rows],
            [math.log(max(r["seconds"], 1e-9)) for r in rows]).slope
    except statistics.StatisticsError:
        return None


def _glue_term_lists(argv):
    """Pass term lists as `--seq=-1,2`: argparse reads a lone -1,2 as an option."""
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        if (out and out[-1] in ("--seq", "--epsilon", "--u", "--u2", "--sizes")
                and tok[:2] != "--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_term_lists(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # exact answers over Z may print integers past Python's default digit limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        # read each input once, in this order, where the subcommand has it
        if hasattr(args, "ring"):
            args.ring = domain_from_string(args.ring)
        if getattr(args, "seq", None) is not None:
            args.seq = parse_sequence(args.ring, args.seq)
        if getattr(args, "epsilon", None) is not None:
            args.epsilon = args.ring.parse(args.epsilon)
        return args.run(args)
    except (DomainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
