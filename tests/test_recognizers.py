import random

import pytest

from conftest import (
    all_graphs,
    brute_is_chordal_bipartite,
    brute_is_comparability,
    brute_is_strongly_chordal,
    enumerate_cycles,
)
from mimlab import recognize
from mimlab.construct import complete_both_sides, complete_one_side
from mimlab.errors import CertificateViolation
from mimlab.graph import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    grid,
    path,
    random_bipartite,
    two_color,
)
from mimlab.recognize import (
    cycle_chords,
    has_odd_chord,
    is_chordal,
    is_chordal_bipartite,
    is_co_comparability,
    is_comparability,
    is_split,
    is_strongly_chordal,
    verify_clique,
    verify_cycle,
    verify_elimination_order,
    verify_independent,
    verify_simple_elimination_order,
    verify_transitive_orientation,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def assert_certified(g, res):
    """Re-check a recognizer's certificate with the independent verifiers."""
    c = res.certificate
    kind = c["kind"]
    if kind == "strongly_chordal":
        assert verify_simple_elimination_order(g, c["order"])
    elif kind == "chordless_cycle":
        cyc = c["cycle"]
        assert len(cyc) >= 4 and verify_cycle(g, cyc) and not cycle_chords(g, cyc)
    elif kind == "even_cycle_no_odd_chord":
        cyc = c["cycle"]
        assert len(cyc) >= 6 and len(cyc) % 2 == 0 and verify_cycle(g, cyc)
        assert not has_odd_chord(g, cyc) and c["chords"] == cycle_chords(g, cyc)
    elif kind == "chordal_bipartite":
        x = set(c["x_class"])
        assert verify_independent(g, x) and verify_independent(g, set(range(g.n)) - x)
    elif kind == "odd_cycle":
        assert len(c["cycle"]) % 2 == 1 and verify_cycle(g, c["cycle"])
    elif kind == "chordless_long_cycle":
        cyc = c["cycle"]
        assert len(cyc) >= 6 and verify_cycle(g, cyc) and not cycle_chords(g, cyc)
    elif kind == "transitive_orientation":
        assert verify_transitive_orientation(g, c["orientation"])
    else:
        assert kind == "no_transitive_orientation"


def assert_matches_oracles(g, comparability=True):
    sc = is_strongly_chordal(g)
    cb = is_chordal_bipartite(g)
    assert sc.verdict == brute_is_strongly_chordal(g)
    assert cb.verdict == brute_is_chordal_bipartite(g)
    results = [sc, cb]
    if comparability:
        co = is_comparability(g)
        assert co.verdict == brute_is_comparability(g)
        results.append(co)
    for res in results:
        assert_certified(g, res)


class TestOracles:
    def test_all_small_graphs(self):
        for n in range(6):
            for g in all_graphs(n):
                assert_matches_oracles(g)

    def test_random_graphs(self):
        rng = random.Random(4)
        for seed in range(150):
            g = random_graph(rng.randint(6, 9), rng.choice((0.2, 0.4, 0.6, 0.8)), seed)
            # The orientation oracle tries all 2^m orientations.
            assert_matches_oracles(g, comparability=g.m <= 12)

    def test_split_completions(self):
        rng = random.Random(5)
        for seed in range(60):
            b = random_bipartite(rng.randint(3, 6), rng.randint(3, 6), rng.uniform(0.3, 0.7), seed)
            split = complete_one_side(b, "Y").result
            r = is_strongly_chordal(split)
            assert r.verdict == brute_is_strongly_chordal(split)
            assert r.verdict == is_chordal_bipartite(b.graph).verdict
            assert_certified(split, r)
            assert_matches_oracles(b.graph, comparability=False)


class TestScale:
    def test_completions_at_paper_scale(self):
        split = complete_one_side(two_color(grid(10, 10)), "Y").result
        r = is_strongly_chordal(split)
        assert not r.verdict and r.certificate["kind"] == "even_cycle_no_odd_chord"
        assert_certified(split, r)
        split = complete_one_side(complete_bipartite(20, 20), "Y").result
        r = is_strongly_chordal(split)
        assert r.verdict
        assert_certified(split, r)
        both = complete_both_sides(two_color(grid(8, 8))).result
        r = is_co_comparability(both)
        assert r.verdict
        assert verify_transitive_orientation(complement(both), r.certificate["orientation"])


class TestCycleEnumeration:
    def test_c6_has_one_cycle(self):
        assert list(enumerate_cycles(cycle(6))) == [(0, 1, 2, 3, 4, 5)]

    def test_k4_count(self):
        # K4: four triangles plus three 4-cycles
        cycles = list(enumerate_cycles(complete(4)))
        assert len(cycles) == 7
        assert len(set(cycles)) == 7

    def test_min_len_filter(self):
        assert list(enumerate_cycles(complete(4), min_len=4)) != []
        assert all(len(c) >= 4 for c in enumerate_cycles(complete(4), min_len=4))


class TestSplit:
    def test_complete_is_split(self):
        r = is_split(complete(4))
        assert r.verdict
        assert r.certificate["independent"] == []

    def test_c4_not_split(self):
        assert not is_split(cycle(4)).verdict

    def test_2k2_not_split(self):
        assert not is_split(Graph(4, [(0, 1), (2, 3)])).verdict

    def test_three_sun_is_split(self, three_sun):
        r = is_split(three_sun)
        assert r.verdict
        assert verify_clique(three_sun, r.certificate["clique"])
        assert verify_independent(three_sun, r.certificate["independent"])

    def test_certificates_reverify(self):
        for seed in range(30):
            g = random_graph(7, 0.5, seed)
            r = is_split(g)
            if r.verdict:
                assert verify_clique(g, r.certificate["clique"])
                assert verify_independent(g, r.certificate["independent"])


class TestCertificateSelfChecks:
    # The self-checks raise instead of asserting, so `python -O` keeps them.
    def test_split_partition_rejected(self, monkeypatch):
        monkeypatch.setattr(recognize, "verify_clique", lambda g, vs: False)
        with pytest.raises(CertificateViolation):
            is_split(complete(4))

    def test_chordless_cycle_rejected(self, monkeypatch):
        monkeypatch.setattr(recognize, "verify_cycle", lambda g, cyc: False)
        with pytest.raises(CertificateViolation):
            is_chordal(cycle(4))


class TestChordal:
    def test_c4_not_chordal(self):
        r = is_chordal(cycle(4))
        assert not r.verdict
        cyc = r.certificate["cycle"]
        assert verify_cycle(cycle(4), cyc)
        assert len(cyc) >= 4 and not cycle_chords(cycle(4), cyc)

    def test_trees_chordal(self):
        for n in (2, 5, 8):
            r = is_chordal(path(n))
            assert r.verdict
            assert verify_elimination_order(path(n), r.certificate["order"])

    def test_three_sun_chordal(self, three_sun):
        assert is_chordal(three_sun).verdict

    def test_negative_certificates_are_chordless(self):
        for seed in range(30):
            g = random_graph(8, 0.4, seed)
            r = is_chordal(g)
            if r.verdict:
                assert verify_elimination_order(g, r.certificate["order"])
            else:
                cyc = r.certificate["cycle"]
                assert verify_cycle(g, cyc)
                assert not cycle_chords(g, cyc)


class TestStronglyChordal:
    def test_three_sun_negative(self, three_sun):
        r = is_strongly_chordal(three_sun)
        assert not r.verdict
        cyc = r.certificate["cycle"]
        assert len(cyc) == 6 and len(cyc) % 2 == 0
        assert verify_cycle(three_sun, cyc)
        assert not has_odd_chord(three_sun, cyc)

    def test_trees_positive(self):
        assert is_strongly_chordal(path(8)).verdict

    def test_complete_positive(self):
        assert is_strongly_chordal(complete(6)).verdict

    def test_deterministic(self, three_sun):
        assert (
            is_strongly_chordal(three_sun).certificate
            == is_strongly_chordal(three_sun).certificate
        )


class TestChordalBipartite:
    def test_c6_negative(self):
        r = is_chordal_bipartite(cycle(6))
        assert not r.verdict
        assert r.certificate["cycle"] == [0, 1, 2, 3, 4, 5]

    def test_c4_positive(self):
        assert is_chordal_bipartite(cycle(4)).verdict

    def test_grid33_negative(self):
        r = is_chordal_bipartite(grid(3, 3))
        assert not r.verdict
        cyc = r.certificate["cycle"]
        assert verify_cycle(grid(3, 3), cyc)
        assert not cycle_chords(grid(3, 3), cyc)

    def test_c5_fails_bipartiteness(self):
        r = is_chordal_bipartite(cycle(5))
        assert not r.verdict
        assert r.certificate["kind"] == "odd_cycle"

    def test_trees_positive(self):
        assert is_chordal_bipartite(path(7)).verdict


class TestComparability:
    def test_bipartite_graphs_positive(self):
        for g in (grid(3, 3), cycle(6), complete_bipartite(3, 3).graph):
            r = is_comparability(g)
            assert r.verdict
            assert verify_transitive_orientation(g, r.certificate["orientation"])

    def test_c5_negative(self):
        assert not is_comparability(cycle(5)).verdict
        assert not brute_is_comparability(cycle(5))

    def test_k4_positive(self):
        assert is_comparability(complete(4)).verdict

    def test_matches_exhaustive_oracle(self):
        for seed in range(25):
            g = random_graph(5, 0.5, seed)
            assert is_comparability(g).verdict == brute_is_comparability(g)


class TestCoComparability:
    def test_complete_positive(self):
        assert is_co_comparability(complete(5)).verdict

    def test_c5_negative(self):
        # C5 is self-complementary
        assert not is_co_comparability(cycle(5)).verdict

    def test_certificate_transferred(self):
        r = is_co_comparability(complete(5))
        assert r.certificate["kind"] == "complement_transitive_orientation"
        assert verify_transitive_orientation(
            complement(complete(5)), r.certificate["orientation"]
        )


class TestClassHierarchy:
    def test_split_implies_chordal_and_strong_implies_chordal(self):
        for n in (4, 5):
            for g in all_graphs(n):
                sp = is_split(g)
                sc = is_strongly_chordal(g)
                ch = is_chordal(g)
                if sp.verdict:
                    assert ch.verdict
                if sc.verdict:
                    assert ch.verdict

    def test_chordal_bipartite_implies_bipartite(self):
        from mimlab.errors import OddCycleFound

        for g in all_graphs(4):
            if is_chordal_bipartite(g).verdict:
                two_color(g)  # must not raise
            else:
                pass

    def test_recognizers_deterministic(self):
        g = random_graph(7, 0.5, 42)
        for rec in (is_split, is_chordal, is_strongly_chordal, is_comparability):
            assert rec(g) == rec(g)
