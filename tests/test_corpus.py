"""Same output: a fixed slice of the committed corpus (corpus.py) prints
the bytes and exit codes its digests record.  The full corpus runs as a
script: PYTHONPATH=src python tests/corpus.py."""

import time

import corpus

SLICE = slice(0, None, 8)


def test_the_digests_cover_the_corpus_in_order():
    assert list(corpus.load()) == [cid for cid, _, _ in corpus.commands()]


def test_a_slice_of_the_corpus_replays_to_its_digests():
    want = corpus.load()
    start = time.monotonic()
    changed = [cid for cid, text, argv in corpus.commands()[SLICE]
               if corpus.digest(text, argv) != want[cid]]
    elapsed = time.monotonic() - start
    assert changed == []
    assert elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s"
