"""Replay the output-identity corpus and compare it byte for byte."""

import corpus


def test_corpus_output_is_byte_identical():
    committed = corpus.OUTPUT.read_text()
    now = corpus.render()
    if now != committed:
        old, new = committed.split("=== "), now.split("=== ")
        first = next((o for o, n in zip(old, new) if o != n), None)
        label = (first or "").partition("\n")[0] or "(call count differs)"
        raise AssertionError(f"corpus output changed, first at: {label}; "
                             "run `python3 tests/corpus.py` for the diff")
