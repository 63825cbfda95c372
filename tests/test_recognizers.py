import random

import pytest

from conftest import all_graphs, brute_is_comparability
from mimlab import recognize
from mimlab.errors import CertificateViolation, LimitExceeded
from mimlab.graph import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    grid,
    path,
    two_color,
)
from mimlab.recognize import (
    cycle_chords,
    enumerate_cycles,
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
    verify_transitive_orientation,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


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

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            is_strongly_chordal(Graph(17))

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
