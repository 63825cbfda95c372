"""Byte-level regression pins: the sha256 of every output of a fixed CLI
session and of the chordal bipartite corpus, recorded before the bitset
rewrite of the cut code and the in-repo free-tree generator, and of the
treewidth orders, recognizer certificates and chord diagrams of a seeded
graph set, recorded before the neighbour-mask helpers moved into `graph`.
The treewidth orders were re-recorded, with every other column equal,
when the treewidth search began to stop at level n' - k - 1 of its kernel.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from mimlab import harness
from mimlab.cli import main
from mimlab.construct import build_subdivided_family, embed_chord_diagram
from mimlab.graph import Graph, bipartite_to_text, free_trees, random_bipartite
from mimlab.recognize import is_chordal, is_chordal_bipartite, is_strongly_chordal
from mimlab.solver import treewidth_exact

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())
MASK_PATHS_SHA256 = "9f5a8b54cf0c6c65f9576af1d2a90db37aedab3f68bd24e69ea94ecb4ec2436d"


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
    # Orders 9-12 (OEIS A000055) are beyond the corpus pins.
    counts = [sum(1 for _ in free_trees(n)) for n in (9, 10, 11, 12)]
    assert counts == [47, 106, 235, 551]


def _mask_path_graphs():
    """About 300 seeded graphs (n 4-14, p 0.15-0.9; every third one
    bipartite), then the circle-cubic family at k = 6-14 with its chord
    diagrams."""
    for i in range(300):
        n = 4 + i % 11
        p = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)[i // 11 % 6]
        if i % 3 == 2:
            yield random_bipartite(n // 2, n - n // 2, p, i).graph, None
        else:
            rng = random.Random(i)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            yield Graph(n, edges), None
    for k in range(6, 15, 2):
        b = build_subdivided_family(k, 0)
        yield b.graph, embed_chord_diagram(b).to_text()


def test_mask_paths_digest():
    # The treewidth (value, order) pairs, three recognizers' certificates
    # and the chord diagrams, byte for byte.
    h = hashlib.sha256()
    for g, diagram in _mask_path_graphs():
        tw = treewidth_exact(g)
        rows = [tw.value, list(tw.elimination_order), diagram]
        for rec in (is_chordal, is_strongly_chordal, is_chordal_bipartite):
            r = rec(g)
            rows.append([r.verdict, r.certificate])
        h.update((json.dumps(rows, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == MASK_PATHS_SHA256
