"""The answer corpus (`tests/corpus.py`): a replayed slice, its coverage and
that a one-character change to one answer is named."""

import sys
from collections import Counter

import corpus


def test_slice_replays_unchanged():
    """Every tenth request of the corpus gives its recorded answer."""
    indices = range(0, len(corpus.requests()), 10)
    assert len(indices) > 300
    assert corpus.moved(indices) == []


def test_corpus_covers_every_subcommand_ring_and_extend():
    reqs, digests = corpus.requests(), corpus.read_digests()
    assert len(reqs) >= 3000 and sorted(digests) == list(range(len(reqs)))
    for i, argv in enumerate(reqs):
        assert digests[i].split("\t")[1] == corpus.argv_hash(argv)
    assert {argv[0] for argv in reqs if argv} >= {
        "minpoly", "mr", "bezout", "plcp", "annihilator", "reverse-lc", "bench"}
    answered = Counter(argv[argv.index("--ring") + 1] for i, argv in enumerate(reqs)
                       if "--extend" in argv and digests[i].split("\t")[2] == "0")
    assert all(answered[ring] >= 100 for ring in corpus.RINGS), answered
    takes_eps = [argv for argv in reqs if argv[:1] in (["minpoly"], ["mr"], ["annihilator"],
                                                        ["reverse-lc"])]
    with_eps = sum("--epsilon" in argv for argv in takes_eps)
    assert 0.4 < with_eps / len(takes_eps) < 0.6


def test_check_names_a_moved_answer():
    """One extra character in one request's stdout moves that request alone."""
    reqs = corpus.requests()
    target = next(i for i, argv in enumerate(reqs) if argv[:1] == ["mr"])
    other = target + 1

    def main(argv):
        status = corpus.seqmin.cli.main(argv)
        if argv == reqs[target]:
            sys.stdout.write(" ")
        return status

    names = [i for i, *_ in corpus.moved([target, other], main)]
    assert names == [target]
