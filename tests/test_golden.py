"""Byte-level regression pins: the sha256 of every output of a fixed CLI
session and of the chordal bipartite corpus, recorded before the bitset
rewrite of the cut code and the in-repo free-tree generator.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mimlab import harness
from mimlab.cli import main
from mimlab.graph import bipartite_to_text, free_trees

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_cli_session_digests(tmp_path, capsys, monkeypatch):
    # One session in one directory, in order: later commands read the
    # files earlier ones wrote.
    monkeypatch.chdir(tmp_path)
    for entry in GOLDEN["commands"]:
        argv = entry["command"].split()
        code = main(argv)
        out, _ = capsys.readouterr()
        if "--out" in argv:
            data = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
        else:
            data = out.encode()
        assert (code, _sha(data)) == (entry["exit"], entry["sha256"]), entry["command"]


def test_corpus_digest():
    corpus = harness.chordal_bipartite_corpus()
    text = "".join(name + "\n" + bipartite_to_text(b) for name, b in corpus)
    assert len(corpus) == GOLDEN["corpus_size"]
    assert _sha(text.encode()) == GOLDEN["corpus_sha256"]


@pytest.mark.parametrize("n, count", sorted((int(k), v) for k, v in GOLDEN["tree_counts"].items()))
def test_free_tree_counts(n, count):
    trees = list(free_trees(n))
    assert len(trees) == count
    assert all(t.n == n and t.m == n - 1 for t in trees)


def test_free_trees_small_orders():
    assert list(free_trees(0)) == []
    assert [t.edges for t in free_trees(1)] == [frozenset()]
    # Orders 9 and 10 (OEIS A000055) are beyond the corpus pins.
    assert [sum(1 for _ in free_trees(n)) for n in (9, 10)] == [47, 106]
