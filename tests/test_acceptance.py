"""Acceptance suite: one test per criterion, each printing a PASS line."""

import math
import random
from fractions import Fraction

from conftest import all_graphs, brute_max_induced_matching
from mimlab import construct, harness, recognize
from mimlab.cli import main as cli_main
from mimlab.graph import (
    Graph,
    complement,
    cycle,
    grid,
    random_bipartite,
    two_color,
)
from mimlab.recognize import has_odd_chord, verify_cycle
from mimlab.solver import (
    max_induced_matching_cut,
    mimw_exact,
    mimw_lower_eq1,
    mimw_upper,
)


def _report(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_lemma31_suite():
    report = harness.verify_lemma31(trials=200, n_max=9, seed=20260826)
    assert report.violations == []
    min_ratio = min(r.ratio for r in report.rows)
    assert min_ratio >= Fraction(1, 2)
    _report("criterion 1: completion ratio suite (verify lemma31)", f"200 trials, min ratio {min_ratio}")


def test_criterion_2_completion_corpus():
    corpus = harness.chordal_bipartite_corpus(max_tree_n=8)
    assert len(corpus) >= 30
    for name, b in corpus:
        rec = construct.complete_one_side(b, "Y")
        assert recognize.is_split(rec.result).verdict, name
        assert recognize.is_strongly_chordal(rec.result).verdict, name
    _report("criterion 2: one-side completion corpus", f"{len(corpus)} chordal bipartite inputs")


def test_criterion_3_hypothesis_necessity():
    sun = construct.complete_one_side(two_color(cycle(6)), "Y").result
    assert recognize.is_chordal(sun).verdict
    r = recognize.is_strongly_chordal(sun)
    assert not r.verdict
    cyc = r.certificate["cycle"]
    assert len(cyc) == 6
    assert verify_cycle(sun, cyc)
    assert not has_odd_chord(sun, cyc)
    _report("criterion 3: 3-sun counterexample")


def test_criterion_4_double_completion():
    rng = random.Random(4242)
    for i in range(100):
        total = rng.randint(2, 12)
        nx_size = rng.randint(1, total - 1)
        b = random_bipartite(nx_size, total - nx_size, rng.choice((0.2, 0.5, 0.8)),
                             seed=rng.randrange(2**32))
        rec = construct.complete_both_sides(b)
        two_color(complement(rec.result))  # complement bipartite, must not raise
        assert recognize.is_co_comparability(rec.result).verdict, i
    _report("criterion 4: double completions co-comparability", "100 graphs")


def test_criterion_5_eq1_suite():
    report = harness.verify_eq1()
    assert report.violations == []
    by_name = {r.parameter: r for r in report.rows}
    sub = by_name["subdivided-K4"]
    assert sub.degeneracy == 2 and sub.eq1_bound == Fraction(1, 3)
    for r in report.rows:
        assert Fraction(r.mimw_value) >= r.eq1_bound
    _report("criterion 5: degeneracy lower bound suite (verify eq1)", f"{len(report.rows)} graphs, exact rationals")


def test_criterion_6_circle_pipeline():
    for n in (4, 6, 8, 10):
        b = construct.build_subdivided_family(n, seed=n)
        d = construct.embed_chord_diagram(b)
        assert construct.verify_chord_diagram(d, b) is None
    _report("criterion 6: circle pipeline", "n in {4,6,8,10}")


def test_criterion_7_solver_self_consistency():
    from mimlab.graph import complete, path

    for n in range(2, 8):
        assert mimw_exact(complete(n)).value == 1
    for n in range(2, 9):
        assert mimw_exact(path(n)).value == 1
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        assert (mimw_exact(g).value == 0) == (g.m == 0)
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        assert mimw_upper(g).value >= mimw_exact(g).value
    checked = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            for bits in range(1 << n):
                a = {v for v in range(n) if (bits >> v) & 1}
                got = len(max_induced_matching_cut(g, a).edges)
                assert got == brute_max_induced_matching(g, a)
                checked += 1
    _report("criterion 7: solver self-consistency", f"{checked} cuts vs brute force")


def test_criterion_8_grid_example(tmp_path):
    for r, c in ((2, 2), (2, 3), (3, 3)):
        b = two_color(grid(r, c))
        rec = construct.complete_one_side(b, "Y")
        base = mimw_exact(b.graph).value
        completed = mimw_exact(rec.result).value
        assert completed >= math.ceil(base / 2)
        ratio = construct.completion_ratio(rec)
        assert ratio >= Fraction(1, 2)
    a, b2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--family", "split-grid", "--sizes", "2,3,4,5,6", "--seed", "11"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b2)]) == 0
    assert a.read_bytes() == b2.read_bytes()
    _report("criterion 8: grid example + reproducible sweep to k=6")


def test_criterion_9_determinism(tmp_path):
    pairs = [
        (["gen", "cubic", "12", "--seed", "5"], "cubic.txt"),
        (["gen", "random-bipartite", "4", "5", "0.5", "--seed", "8"], "bip.txt"),
        (["verify", "lemma31", "--trials", "10", "--n-max", "7", "--seed", "2"],
         "lemma31.csv"),
        (["verify", "eq1"], "eq1.csv"),
        (["construct", "circle", "8", "--seed", "4"], "circle.txt"),
    ]
    for args, name in pairs:
        f1 = tmp_path / ("a_" + name)
        f2 = tmp_path / ("b_" + name)
        assert cli_main(args + ["--out", str(f1)]) == 0
        assert cli_main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes(), args
    _report("criterion 9: byte-identical reruns", f"{len(pairs)} commands")
