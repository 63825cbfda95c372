import random

import pytest

from conftest import (
    all_graphs,
    brute_is_chordal,
    brute_is_chordal_bipartite,
    brute_is_comparability,
    brute_is_simple,
    brute_is_strongly_chordal,
    enumerate_cycles,
    linear_sun_shrink,
    pair_set_is_co_comparability,
    pair_set_is_comparability,
    pair_set_transitive,
    seeded_graphs,
    sweep_eliminate,
)
from mimlab import recognize
from mimlab.construct import complete_both_sides, complete_one_side
from mimlab.errors import CertificateViolation
from mimlab.graph import (
    Graph,
    _bits,
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
    elif kind == "perfect_elimination_order":
        assert verify_elimination_order(g, c["order"])
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
        # The sun's cycle as the one-vertex-at-a-time shrink found it.
        sun = [77, 78, 79, 89, 99, 98, 97, 87]
        assert r.certificate["cycle"] == sun
        assert is_chordal_bipartite(grid(10, 10)).certificate["cycle"] == sun
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

    def test_sun_cycle_rejected(self, monkeypatch, three_sun):
        monkeypatch.setattr(recognize, "verify_cycle", lambda g, cyc: False)
        with pytest.raises(CertificateViolation, match="no even cycle without odd chord"):
            is_strongly_chordal(three_sun)
        with pytest.raises(CertificateViolation, match="no chordless long cycle"):
            is_chordal_bipartite(cycle(6))

    def test_orientation_rejected(self, monkeypatch):
        monkeypatch.setattr(recognize, "verify_transitive_orientation", lambda g, o: False)
        with pytest.raises(CertificateViolation, match="not transitive"):
            is_comparability(path(3))

    def test_stuck_set_without_chordless_cycle(self):
        # A triangle has no nonadjacent neighbours to close a cycle through.
        with pytest.raises(CertificateViolation, match="no chordless cycle"):
            recognize._chordless_cycle(complete(3), 0b111)


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


    def test_elimination_order_must_list_every_vertex_once(self):
        assert verify_elimination_order(path(3), [0, 1, 2])
        for order in ([], [0, 1], [0, 1, 2, 3], [0, 0, 1], [0, 1, 5]):
            assert not verify_elimination_order(path(3), order)


def assert_chordal_oracle(g):
    r = is_chordal(g)
    assert r.verdict == brute_is_chordal(g)
    assert_certified(g, r)
    if not r.verdict:
        # Strong chordality reuses the chordless cycle of the stuck set.
        assert is_strongly_chordal(g).certificate == r.certificate


class TestChordalOracle:
    def test_all_small_graphs(self):
        for n in range(7):
            for g in all_graphs(n):
                assert_chordal_oracle(g)

    def test_random_graphs(self):
        rng = random.Random(11)
        for seed in range(300):
            assert_chordal_oracle(random_graph(rng.randint(2, 9), rng.random(), seed))


def zigzag_path(n):
    """A path labelled 0, n-1, 1, n-2, ...: each full sweep deletes only the
    end vertices that come after their neighbour in ascending order."""
    labels = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    return Graph(n, [tuple(sorted(p)) for p in zip(labels, labels[1:])])


class TestElimination:
    @pytest.mark.parametrize("removable", [recognize._simple, recognize._simplicial])
    def test_matches_sweep_order(self, removable):
        # The worklist deletes in the order of full ascending sweeps, from
        # the whole vertex set or any subset, and gets stuck on the same set.
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(1, 16)
            if seed % 2:
                g = random_graph(n, rng.choice((0.2, 0.4, 0.6, 0.8)), seed)
            else:  # a random tree plus a few edges: long elimination chains
                edges = {(rng.randrange(u), u) for u in range(1, n)}
                for _ in range(rng.randint(0, 3)):
                    u, v = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                    if u != v:
                        edges.add((u, v))
                g = Graph(n, sorted(edges))
            start = rng.getrandbits(n) if seed % 3 == 0 else (1 << n) - 1
            want = sweep_eliminate(g.nbr_masks, start, removable)
            assert recognize._eliminate(g.nbr_masks, start, removable) == want, g.edges

    @pytest.mark.parametrize("removable", [recognize._simple, recognize._simplicial])
    def test_zigzag_path_tests_each_vertex_a_few_times(self, removable):
        # Full sweeps test this path 80,600 times; the worklist re-tests a
        # vertex only when a deletion within distance 2 may change it.
        g = zigzag_path(800)
        calls = 0

        def counted(nbr, rest, v):
            nonlocal calls
            calls += 1
            return removable(nbr, rest, v)

        order, stuck = recognize._eliminate(g.nbr_masks, (1 << g.n) - 1, counted)
        assert (order, stuck) == sweep_eliminate(g.nbr_masks, (1 << g.n) - 1, removable)
        assert calls <= 3 * g.n


class TestSimple:
    # The one-loop chain test against all pairs of neighbourhoods.
    def check(self, g, rest):
        mask = sum(1 << v for v in rest)
        for v in rest:
            assert recognize._simple(g.nbr_masks, mask, v) == brute_is_simple(g, rest, v)

    def test_all_small_graphs_and_vertex_sets(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                for mask in range(1, 1 << n):
                    self.check(g, set(_bits(mask)))

    def test_random_graphs(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), seed)
            self.check(g, {v for v in range(n) if rng.random() < 0.7})


def sun_plus_apex():
    """A 3-sun on 1..6 whose triangle 1, 2, 3 also meets vertex 0: no vertex
    of the seven is simple, and dropping 0 leaves the sun."""
    ears = [(1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6)]
    return Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] + ears)


def simple_stuck(g):
    return recognize._eliminate(g.nbr_masks, (1 << g.n) - 1, recognize._simple)[1]


class TestSunShrink:
    # `_sun_cycle` skips the eliminations below six vertices; the shrink
    # that runs every one of them must give the same cycle.
    def check(self, g):
        nbr = g.nbr_masks
        stuck = simple_stuck(g)
        assert stuck and not recognize._eliminate(nbr, stuck, recognize._simplicial)[1]
        cyc = recognize._sun_cycle(nbr, stuck)
        assert cyc == linear_sun_shrink(nbr, stuck), g.edges
        return stuck.bit_count()

    def test_small_stuck_sets(self, three_sun):
        assert self.check(three_sun) == 6
        assert self.check(sun_plus_apex()) == 7
        assert recognize._sun_cycle(sun_plus_apex().nbr_masks, 0b1111111) == [1, 4, 2, 5, 3, 6]

    def test_grid_completions(self):
        for k in range(3, 9):
            self.check(complete_one_side(two_color(grid(k, k)), "Y").result)

    def test_random_split_completions(self):
        checked = 0
        seed = 0
        while checked < 200:
            rng = random.Random(seed)
            sides = rng.randint(3, 20), rng.randint(3, 20)
            b = random_bipartite(*sides, rng.uniform(0.15, 0.6), seed)
            g = complete_one_side(b, "Y").result
            if 6 <= simple_stuck(g).bit_count() <= 40:
                self.check(g)
                checked += 1
            seed += 1


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


class TestPairSetOracles:
    """The mask G-decomposition and checker against the pair-set ones."""

    def test_recognizers_match(self):
        positive = negative = 0
        for g in seeded_graphs():
            for h in (g, complement(g)):
                r = is_comparability(h)
                assert (r.verdict, r.certificate) == pair_set_is_comparability(h), h.edges
                r = is_co_comparability(h)
                assert (r.verdict, r.certificate) == pair_set_is_co_comparability(h), h.edges
                positive += r.verdict
                negative += not r.verdict
        assert positive > 1000 and negative > 500

    def test_checker_matches(self):
        rng = random.Random(48)
        verdicts = []

        def compare(g, orientation):
            rng.shuffle(orientation)
            if rng.random() < 0.5:
                orientation = [list(e) for e in orientation]
            got = verify_transitive_orientation(g, orientation)
            assert got == pair_set_transitive(g, orientation), (g.edges, orientation)
            verdicts.append(got)

        while len(verdicts) < 20000:
            n = rng.randint(1, 11)
            g = random_graph(n, rng.random(), rng.randrange(1 << 30))
            compare(g, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges])
            # Transitive: the closure of random arcs forward along a random
            # linear order; its graph is their comparability graph.
            order = rng.sample(range(n), n)
            p = rng.random()
            later = {}  # vertex -> what it reaches
            for i in reversed(range(n)):
                later[order[i]] = set()
                for w in order[i + 1 :]:
                    if rng.random() < p:
                        later[order[i]] |= {w} | later[w]
            arcs = [(a, b) for a in range(n) for b in later[a]]
            g = Graph(n, arcs)
            compare(g, list(arcs))
            if arcs:
                i = rng.randrange(len(arcs))
                a, b = arcs[i]
                compare(g, arcs + [(b, a)])  # one arc added in reverse
                compare(g, arcs[:i] + arcs[i + 1 :])  # one arc dropped
                compare(g, arcs[:i] + [(b, a)] + arcs[i + 1 :])  # one arc flipped
            missing = [
                (u, v) for u in range(n) for v in range(n) if u != v and not g.has_edge(u, v)
            ]
            if missing:
                compare(g, arcs + [rng.choice(missing)])  # a non-edge added
        assert 2000 < sum(verdicts) < len(verdicts) - 2000

    def test_complete_graph_walks_each_arc_once(self, monkeypatch):
        # Once the first classes of K_n are removed the later ones grow, and
        # a walk that lists again every arc its class already holds yields
        # about n^3 / 3 vertices (68,440 at n = 60).
        yielded = 0

        def counting(mask):
            nonlocal yielded
            for v in _bits(mask):
                yielded += 1
                yield v

        monkeypatch.setattr(recognize, "_bits", counting)
        g = complete(60)
        assert is_comparability(g).verdict
        assert yielded <= 2 * g.m


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
