"""A seeded corpus of CLI requests and the digests of their answers.

`requests()` builds the same list of `seqmin.cli.main` argument lists on
every run: every subcommand and flag over the rings gf2, gfp:7, int and
gfp_poly:3 (half of the requests that take --epsilon pass one), at least
100 answered `annihilator --extend` requests per ring, and the error
cases.  `answer(argv)` runs one request in-process and reduces it to its
exit status (or the exception that left `main`), a short hash of stdout
and the last line of stderr.  `bench` times itself, so its seconds and
fitted exponent are dropped from its JSON before hashing.

DIGESTS holds one line per request: its index, a hash of its argv, and
its answer.  A change that must not move any output passes

    PYTHONPATH=src python3 tests/corpus.py --check

which names every request whose answer moved and exits 1 if any did; a
change that moves outputs by design rewrites the file with --write and
lists the moved requests in its log.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import seqmin.cli

DIGESTS = Path(__file__).with_name("corpus_digests.txt")

RINGS = ("gf2", "gfp:7", "int", "gfp_poly:3")
FIELDS = ("gf2", "gfp:7")
# max sequence length per ring: the integers and GF(3)[y] grow doubly
# exponentially, so they stay short enough for the corpus to replay in seconds
MAX_N = {"gf2": 24, "gfp:7": 20, "int": 14, "gfp_poly:3": 10}
EXTEND_PER_RING = 240

ERRORS = [
    ["mr"],
    ["mr", "--seq", ""],
    ["mr", "--seq", "1,x,0"],
    ["mr", "--ring", "gfp:4", "--seq", "1,2"],
    ["mr", "--ring", "gfp:abc", "--seq", "1,2"],
    ["mr", "--ring", "gfp:2147483659", "--seq", "1,2"],
    ["mr", "--ring", "gfp_poly:9", "--seq", "1,2"],
    ["mr", "--ring", "zz", "--seq", "1"],
    ["mr", "--ring", "int", "--seq", "1,2", "--monic"],
    ["mr", "--ring", "gfp_poly:3", "--seq", "(1),(2)", "--monic", "--json"],
    ["mr", "--ring", "gfp_poly:3", "--seq", "(1,(2)"],
    ["mr", "--seq", "1,0", "--epsilon", "q"],
    ["mr", "--seq", "1,0", "--bogus"],
    ["minpoly", "--ring", "int", "--seq", "3,1", "--monic"],
    ["minpoly", "--ring", "gfp:7", "--seq", "1.5,2"],
    ["nosuch", "--seq", "1"],
    [],
    ["bezout", "--u", "1,1"],
    ["bezout", "--u", "1,1,0", "--u2", "1"],
    ["bezout", "--u", "1", "--u2", "1"],
    ["bezout", "--u", "1,1", "--u2", "1,1,1"],
    ["bezout", "--ring", "int", "--u", "3,2", "--u2", "1"],
    ["bezout", "--ring", "int", "--u", "0,1", "--u2", "1", "--oracle"],
    ["bezout", "--ring", "gfp_poly:3", "--u", "(1),(1)", "--u2", "(2)", "--oracle"],
    ["plcp"],
    ["plcp", "--exhaustive", "4", "--ring", "gfp:7"],
    ["plcp", "--exhaustive", "x"],
    ["annihilator", "--seq", "0,0,0"],
    ["annihilator", "--ring", "int", "--seq", "0,0"],
    ["annihilator", "--ring", "gfp:7", "--seq", "1,2,3", "--oracle"],
    ["annihilator", "--ring", "int", "--seq", "1,2", "--oracle"],
    ["annihilator", "--seq", "1,0,1,0,1,0,1,0,1,0,1,0,1", "--oracle"],
    ["reverse-lc", "--seq", "0,0"],
    ["reverse-lc", "--ring", "int", "--seq", "0,0,0", "--classify"],
    ["bench", "--sizes", "0"],
    ["bench", "--sizes", "x"],
    ["bench", "--sizes", "-3"],
    ["bench", "--seed", "x"],
]


def _term(rng, ring, zeros=0.2):
    """One random term in CLI syntax; a zero with probability about `zeros`."""
    if rng.random() < zeros:
        return "0" if ring != "gfp_poly:3" else rng.choice(("(0)", "()"))
    if ring == "gf2":
        return "1"
    if ring == "gfp:7":
        return str(rng.randrange(1, 7))
    if ring == "int":
        return str(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
    return "(%s)" % ",".join(str(rng.randrange(3)) for _ in range(rng.randint(1, 3)))


def _seq(rng, ring, lo=1, hi=None, zeros=0.2):
    n = rng.randint(lo, hi or MAX_N[ring])
    return ",".join(_term(rng, ring, zeros) for _ in range(n))


def _eps(rng, ring, argv):
    """argv with --epsilon on about half of the requests."""
    if rng.random() < 0.5:
        argv += ["--epsilon", _term(rng, ring, zeros=0.1)]
    return argv


def _flags(rng, *names):
    return [name for name in names if rng.random() < 0.5]


def _ring_requests(ring, rng):
    field = ring in FIELDS
    out = []
    for _ in range(100):
        out.append(_eps(rng, ring, ["minpoly", "--ring", ring, "--seq", _seq(rng, ring)]
                        + _flags(rng, "--json", *(("--monic",) if field else ()))))
    for _ in range(160):
        out.append(_eps(rng, ring, ["mr", "--ring", ring, "--seq", _seq(rng, ring)]
                        + _flags(rng, "--json", "--trace", *(("--monic",) if field else ()))))
    for _ in range(70):
        d = rng.randint(1, MAX_N[ring] // 2)
        one = "(1)" if ring == "gfp_poly:3" else "1"
        u = ",".join([_term(rng, ring) for _ in range(d)] + [one])
        u2 = ",".join(_term(rng, ring) for _ in range(rng.randint(1, d + 1)))
        out.append(["bezout", "--ring", ring, "--u", u, "--u2", u2]
                   + _flags(rng, "--json", "--count-mults", *(("--oracle",) if field else ())))
    for _ in range(50):
        out.append(["plcp", "--ring", ring, "--seq", _seq(rng, ring)] + _flags(rng, "--json"))
    for _ in range(70):
        oracle = ("--oracle",) if ring == "gf2" else ()
        hi = 12 if oracle else None
        out.append(_eps(rng, ring, ["annihilator", "--ring", ring, "--seq",
                                    _seq(rng, ring, 1, hi, zeros=0.35)]
                        + _flags(rng, "--json", *oracle)))
    for _ in range(EXTEND_PER_RING):
        # a run of trailing zeros makes mu's constant term vanish often
        n = rng.randint(2, MAX_N[ring])
        head = _seq(rng, ring, 1, max(1, n // 2))
        zeros = ["0"] * rng.randint(0, n - 1)
        out.append(_eps(rng, ring, ["annihilator", "--ring", ring, "--extend", "--seq",
                                    ",".join([head] + zeros)] + _flags(rng, "--json")))
    for _ in range(60):
        out.append(_eps(rng, ring, ["reverse-lc", "--ring", ring, "--seq", _seq(rng, ring)]
                        + _flags(rng, "--json", "--classify")))
    return out


def requests():
    """Every request of the corpus, in a fixed order."""
    out = []
    for k, ring in enumerate(RINGS):
        out += _ring_requests(ring, random.Random(1000 + k))
    for n in range(1, 9):
        out.append(["plcp", "--exhaustive", str(n)])
        out.append(["plcp", "--exhaustive", str(n), "--ring", "gfp:2", "--json"])
    for sizes in ("16", "8,32", "64,128,256"):
        out.append(["bench", "--sizes", sizes, "--json", "--count-mults"])
        out.append(["bench", "--sizes", sizes, "--seed", "3", "--json"])
    out += [list(argv) for argv in ERRORS]
    return out


def _short(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def argv_hash(argv) -> str:
    return _short("\0".join(argv))


def answer(argv, main=None):
    """(status, stdout hash, last line of stderr) of one in-process request.

    status is main's exit status, or the name of the exception that left it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = str((main or seqmin.cli.main)(list(argv)))
        except Exception as exc:  # a traceback is an answer too
            status = type(exc).__name__
            print("%s: %s" % (status, exc), file=sys.stderr)
    text = out.getvalue()
    if argv[:1] == ["bench"] and status == "0":
        data = json.loads(text)
        text = json.dumps([{k: v for k, v in row.items() if k != "seconds"}
                           for row in data["rows"]])
    lines = err.getvalue().strip().splitlines()
    last = lines[-1].strip().replace("\t", " ") if lines else ""
    return status, _short(text), last


def digest_line(i, argv, main=None) -> str:
    return "\t".join((str(i), argv_hash(argv), *answer(argv, main)))


def read_digests():
    """{index: digest line} as written by --write."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {int(line.split("\t", 1)[0]): line for line in lines if line and line[0] != "#"}


def moved(indices=None, main=None):
    """[(index, argv, want, got)] for each request whose digest line moved."""
    reqs, want = requests(), read_digests()
    out = []
    for i in range(len(reqs)) if indices is None else indices:
        got = digest_line(i, reqs[i], main)
        if want.get(i) != got:
            out.append((i, reqs[i], want.get(i), got))
    if indices is None:
        out += [(i, None, want[i], None) for i in sorted(want) if i >= len(reqs)]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="replay and name moved answers")
    mode.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = ap.parse_args(argv)
    if args.write:
        reqs = requests()
        header = "# index, argv hash, exit status, stdout hash, last line of stderr\n"
        DIGESTS.write_text(header + "".join(digest_line(i, r) + "\n" for i, r in enumerate(reqs)),
                           encoding="utf-8")
        print("wrote %d digests to %s" % (len(reqs), DIGESTS.name))
        return 0
    bad = moved()
    for i, req, want, got in bad:
        print("moved %d: %s\n  want %s\n  got  %s" % (i, req, want, got))
    print("%d of %d requests moved" % (len(bad), len(requests())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
