import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mimlab.construct import (
    ChordDiagram,
    CompletionRecord,
    build_subdivided_family,
    complete_both_sides,
    complete_one_side,
    completion_ratio,
    embed_chord_diagram,
    split_submatching_survives,
    verify_chord_diagram,
    width_ratio,
)
from mimlab.errors import (
    DegreeViolation,
    GraphFormatError,
    InvalidParameter,
    MissingEdge,
    OddCycleFound,
    SpuriousXYCrossing,
    XXCrossing,
)
from mimlab.graph import (
    BipartiteGraph,
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    grid,
    path,
    random_bipartite,
    subdivide_all_edges,
    two_color,
)
from mimlab.recognize import is_co_comparability, is_split, is_strongly_chordal
from mimlab.solver import mimw_exact


class TestCompleteOneSide:
    def test_star_becomes_k4(self):
        star = BipartiteGraph(Graph(4, [(0, 1), (0, 2), (0, 3)]), {0}, {1, 2, 3})
        rec = complete_one_side(star, "Y")
        assert rec.result == complete(4)

    def test_c6_becomes_three_sun(self, three_sun):
        rec = complete_one_side(two_color(cycle(6)), "Y")
        # same graph up to the labeling 0..5 -> triangle on odd vertices
        assert rec.result.m == three_sun.m == 9
        assert is_split(rec.result).verdict
        assert not is_strongly_chordal(rec.result).verdict

    def test_p4_completion_strongly_chordal_split(self):
        rec = complete_one_side(two_color(path(4)), "Y")
        assert is_split(rec.result).verdict
        assert is_strongly_chordal(rec.result).verdict

    def test_added_edges_stay_in_class(self):
        for seed in range(10):
            b = random_bipartite(3, 4, 0.4, seed)
            for side in ("X", "Y"):
                rec = complete_one_side(b, side)
                cls = b.x_class if side == "X" else b.y_class
                assert all(u in cls and v in cls for u, v in rec.added_edges)

    def test_always_split(self):
        for seed in range(15):
            b = random_bipartite(4, 4, 0.5, seed)
            assert is_split(complete_one_side(b, "Y").result).verdict

    def test_rejects_unknown_side(self):
        with pytest.raises(InvalidParameter) as exc:
            complete_one_side(complete_bipartite(2, 2), "Z")
        assert str(exc.value) == "side must be 'X' or 'Y'"


class TestCompleteBothSides:
    def test_k22_becomes_k4(self):
        rec = complete_both_sides(complete_bipartite(2, 2))
        assert rec.result == complete(4)

    def test_complement_is_bipartite(self):
        for seed in range(10):
            b = random_bipartite(3, 4, 0.5, seed)
            rec = complete_both_sides(b)
            two_color(complement(rec.result))  # must not raise

    def test_edgeless_2_2(self):
        b = BipartiteGraph(Graph(4), {0, 1}, {2, 3})
        rec = complete_both_sides(b)
        assert rec.result == Graph(4, [(0, 1), (2, 3)])
        two_color(complement(rec.result))

    def test_always_co_comparability(self):
        for seed in range(8):
            b = random_bipartite(3, 3, 0.5, seed)
            assert is_co_comparability(complete_both_sides(b).result).verdict


class TestCompletionRecord:
    def test_rejects_cross_class_addition(self):
        b = BipartiteGraph(Graph(3, [(0, 2)]), {0, 1}, {2})
        with pytest.raises(InvalidParameter):
            CompletionRecord(b, Graph(3, [(0, 2), (1, 2)]), frozenset({(1, 2)}))

    def test_rejects_inconsistent_result(self):
        b = BipartiteGraph(Graph(3, [(0, 2)]), {0, 1}, {2})
        with pytest.raises(InvalidParameter):
            CompletionRecord(b, Graph(3, [(0, 1)]), frozenset({(0, 1)}))

    def test_rejects_added_edges_of_the_original(self):
        b = BipartiteGraph(Graph(3, [(0, 2)]), {0, 1}, {2})
        with pytest.raises(InvalidParameter) as exc:
            CompletionRecord(b, Graph(3, [(0, 2)]), frozenset({(0, 2)}))
        assert str(exc.value) == "added edges overlap the original graph"


class TestSubdividedFamily:
    def test_k4_instance(self):
        b = build_subdivided_family(4, seed=0)
        assert b.graph.n == 10
        assert sorted(b.graph.degree(v) for v in b.x_class) == [3] * 4
        assert sorted(b.graph.degree(v) for v in b.y_class) == [2] * 6

    def test_vertex_count_formula(self):
        for n, seed in ((4, 0), (6, 1), (8, 2)):
            b = build_subdivided_family(n, seed)
            assert b.graph.n == n + 3 * n // 2

    def test_degeneracy_2(self):
        from mimlab.graph import degeneracy

        assert degeneracy(build_subdivided_family(6, 3).graph).d == 2

    def test_parity_error_propagates(self):
        with pytest.raises(InvalidParameter):
            build_subdivided_family(5, 0)


class TestChordDiagram:
    def test_triangle_subdivision_crossings_are_c6(self):
        b = subdivide_all_edges(cycle(3))
        d = embed_chord_diagram(b)
        xy = {
            (a, c)
            for a, c in d.crossings()
            if (a in b.x_class) != (c in b.x_class)
        }
        assert xy == set(b.graph.edges)

    def test_k4_subdivision_x_chords_dont_cross(self):
        b = subdivide_all_edges(complete(4))
        d = embed_chord_diagram(b)
        assert not any(
            a in b.x_class and c in b.x_class for a, c in d.crossings()
        )

    def test_degree_violation(self):
        b = complete_bipartite(3, 3)  # Y vertices have degree 3
        with pytest.raises(DegreeViolation):
            embed_chord_diagram(b)

    def test_embed_verifies(self):
        for n, seed in ((4, 0), (6, 1), (8, 5)):
            b = build_subdivided_family(n, seed)
            assert verify_chord_diagram(embed_chord_diagram(b), b) is None

    def test_verify_rejects_xx_crossing(self):
        # path 0-2-1 subdivided-style: X = {0,1}, Y = {2}
        b = BipartiteGraph(Graph(3, [(0, 2), (1, 2)]), {0, 1}, {2})
        bad = ChordDiagram((0, 1, 2, 0, 1, 2))
        with pytest.raises(XXCrossing):
            verify_chord_diagram(bad, b)

    def test_verify_rejects_missing_edge(self):
        b = BipartiteGraph(Graph(3, [(0, 2), (1, 2)]), {0, 1}, {2})
        bad = ChordDiagram((0, 0, 1, 1, 2, 2))  # no crossings at all
        with pytest.raises(MissingEdge):
            verify_chord_diagram(bad, b)

    def test_verify_rejects_spurious_xy_crossing(self):
        b = BipartiteGraph(Graph(3, [(0, 2)]), {0, 1}, {2})
        bad = ChordDiagram((0, 2, 0, 2, 1, 1))
        bad2 = ChordDiagram((0, 2, 0, 1, 2, 1))  # also crosses 1-2: not an edge
        assert verify_chord_diagram(bad, b) is None
        with pytest.raises(SpuriousXYCrossing):
            verify_chord_diagram(bad2, b)

    def test_verify_rejects_bad_word(self):
        b = BipartiteGraph(Graph(3, [(0, 2), (1, 2)]), {0, 1}, {2})
        with pytest.raises(InvalidParameter):
            verify_chord_diagram(ChordDiagram((0, 0, 1, 1)), b)

    @pytest.mark.parametrize(
        "diagram, label",
        [
            (ChordDiagram((0, 0, 0)), 0),
            (ChordDiagram((0, 1, 0)), 1),
            (ChordDiagram.from_text("0 1 0"), 1),
        ],
        ids=["0 0 0", "0 1 0", "from_text 0 1 0"],
    )
    def test_crossings_rejects_label_without_two_ends(self, diagram, label):
        with pytest.raises(InvalidParameter) as exc:
            diagram.crossings()
        assert str(exc.value) == f"chord label {label} does not have two ends"

    def test_canonical_text_is_min_rotation(self):
        d = ChordDiagram((2, 0, 1, 2, 0, 1))
        assert d.to_text() == "0 1 2 0 1 2"
        assert ChordDiagram.from_text(d.to_text()).crossings() == d.crossings()

    @pytest.mark.parametrize("text, token", [("0 x 0 x", "x"), ("0 1 0 1.5", "1.5")])
    def test_from_text_rejects_bad_label(self, text, token):
        with pytest.raises(GraphFormatError) as exc:
            ChordDiagram.from_text(text)
        assert repr(token) in str(exc.value)

    def test_text_deterministic(self):
        b = build_subdivided_family(6, 9)
        assert embed_chord_diagram(b).to_text() == embed_chord_diagram(b).to_text()


class TestCompletionRatio:
    def test_p4_ratio_at_least_half(self):
        rec = complete_one_side(two_color(path(4)), "Y")
        assert completion_ratio(rec) >= Fraction(1, 2)

    def test_edgeless_convention(self):
        b = BipartiteGraph(Graph(2), {0}, {1})
        rec = CompletionRecord(b, Graph(2), frozenset())
        assert completion_ratio(rec) == 1

    def test_width_ratio_conventions(self):
        assert width_ratio(0, 0) == 1
        assert width_ratio(3, 0) == 3
        assert width_ratio(2, 4) == Fraction(1, 2)

    def test_harness_solves_each_graph_once(self, monkeypatch):
        from mimlab import construct, harness, solver

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solver.mimw_exact(*args, **kwargs)

        for mod in (harness, construct):
            monkeypatch.setattr(mod, "mimw_exact", counted)
        harness.verify_lemma31(trials=10)
        assert len(calls) == 20  # G and G' of each trial
        for family in ("split-grid", "cocomp-grid"):
            calls.clear()
            harness.sweep(family, [2, 3])
            assert len(calls) == 4  # base and completed graph of each size

    def test_negative_trials_rejected(self):
        from mimlab import harness

        with pytest.raises(InvalidParameter):
            harness.verify_lemma31(trials=-1)
        assert harness.verify_lemma31(trials=0).rows == []

    def test_unknown_sweep_family_rejected(self):
        from mimlab import harness

        with pytest.raises(InvalidParameter):
            harness.sweep("nope", [2])

    def test_random_trials_at_least_half(self):
        rng = random.Random(12)
        for _ in range(20):
            b = random_bipartite(rng.randint(1, 4), rng.randint(1, 4), 0.5,
                                 rng.randrange(2**31))
            rec = complete_one_side(b, "Y")
            assert completion_ratio(rec) >= Fraction(1, 2)

    def test_submatching_argument(self):
        rng = random.Random(5)
        for _ in range(20):
            b = random_bipartite(rng.randint(1, 4), rng.randint(1, 4), 0.5,
                                 rng.randrange(2**31))
            rec = complete_one_side(b, "Y")
            rep = mimw_exact(b.graph)
            assert split_submatching_survives(rec, rep)

    def test_half_lower_bound_ceiling(self):
        rng = random.Random(99)
        for _ in range(15):
            b = random_bipartite(rng.randint(1, 4), rng.randint(1, 4), 0.5,
                                 rng.randrange(2**31))
            rec = complete_both_sides(b)
            got = mimw_exact(rec.result).value
            want = mimw_exact(b.graph).value
            assert got >= -(-want // 2)


class TestHarnessCompletions:
    # The intra-class pairs that `_random_intra_superset` adds, and the
    # next draw of its rng, recorded before the pair list moved into
    # `construct`: one draw per pair, X pairs then Y pairs, sorted.
    SUPERSETS = {
        ("K34", 0): ([(1, 2), (3, 4), (3, 6), (4, 6), (5, 6)], 0.5833820394550312),
        ("K34", 1): ([(0, 1), (3, 4), (3, 5), (3, 6), (5, 6)], 0.02834747652200631),
        ("K34", 2): ([(1, 2), (3, 4), (4, 6)], 0.6068017336408379),
        ("grid23", 0): ([(1, 3), (2, 4), (3, 5)], 0.7837985890347726),
        ("grid23", 1): ([(0, 2), (1, 3), (1, 5), (3, 5)], 0.651592972722763),
        ("grid23", 2): ([(1, 3), (2, 4)], 0.6697304014402209),
    }

    def test_random_superset_draws(self):
        from mimlab import harness

        bases = {"K34": complete_bipartite(3, 4), "grid23": two_color(grid(2, 3))}
        for (name, seed), (added, after) in self.SUPERSETS.items():
            rng = random.Random(seed)
            rec = harness._random_intra_superset(bases[name], rng)
            assert sorted(rec.added_edges) == added, (name, seed)
            assert rng.random() == after, (name, seed)

    def test_co_bipartite_violation_messages(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness, "complement", lambda g: cycle(5))
        report = harness.verify_constructions([("P3", two_color(path(3)))])
        assert report.violations == ["P3: complement of double completion not bipartite"]
        report = harness.sweep("cocomp-grid", [2])
        assert report.violations == ["k=2: complement of completion not bipartite"]


def _rejected(g):
    """A recognizer stand-in whose verdict is always False."""
    return SimpleNamespace(verdict=False)


def _widths(*values):
    """A `mimw_exact` stand-in that returns the given widths in turn."""
    reports = itertools.cycle(SimpleNamespace(value=v, mode="exact") for v in values)
    return lambda g, limit: next(reports)


class TestHarnessViolations:
    # Each suite's violation reports, reached by replacing one name that
    # the harness reads, with each message pinned.

    def test_lemma31_width_below_half(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness, "mimw_exact", _widths(4, 1))
        monkeypatch.setattr(harness.construct, "split_submatching_survives", lambda rec, rep: True)
        report = harness.verify_lemma31(trials=2)
        assert report.violations == [
            "trial 0: mimw(G')=1 < ceil(4/2)",
            "trial 1: mimw(G')=1 < ceil(4/2)",
        ]
        assert len(report.rows) == 2

    def test_lemma31_submatching(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness.construct, "split_submatching_survives", lambda rec, rep: False)
        report = harness.verify_lemma31(trials=1)
        assert report.violations == ["trial 0: sub-matching check failed"]

    def test_constructions_completion_not_split(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness.recognize, "is_split", _rejected)
        report = harness.verify_constructions([("P3", two_color(path(3)))])
        assert report.violations == ["P3: completion split=False strongly_chordal=True"]

    def test_constructions_not_co_comparability(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness.recognize, "is_co_comparability", _rejected)
        report = harness.verify_constructions([("P3", two_color(path(3)))])
        assert report.violations == ["P3: double completion not co-comparability"]

    def test_constructions_negative_control(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness.recognize, "is_chordal", _rejected)
        report = harness.verify_constructions([("P3", two_color(path(3)))])
        assert report.violations == ["3-sun negative control failed"]

    def test_eq1_width_below_bound(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness, "mimw_exact", _widths(0))
        report = harness.verify_eq1([("K4", complete(4))])
        assert report.violations == ["K4: mimw=0 < 1/4"]

    def test_sweep_completion_not_split(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness.recognize, "is_split", _rejected)
        report = harness.sweep("split-grid", [2])
        assert report.violations == ["k=2: completion is not split"]

    def test_sweep_ratio_below_half(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness, "mimw_exact", _widths(3, 1))
        report = harness.sweep("cocomp-grid", [2])
        assert report.violations == ["k=2: completion ratio 1/3 < 1/2"]

    def test_sweep_chord_diagram(self, monkeypatch):
        from mimlab import harness

        def crossing(d, b):
            raise XXCrossing("X-chords 0 and 1 cross")

        monkeypatch.setattr(harness.construct, "verify_chord_diagram", crossing)
        report = harness.sweep("circle-cubic", [4])
        assert report.violations == ["n=4: chord diagram violation: X-chords 0 and 1 cross"]

    def test_sweep_exact_width_below_bound(self, monkeypatch):
        from mimlab import harness

        monkeypatch.setattr(harness, "mimw_exact", _widths(0))
        report = harness.sweep("split-grid", [2])
        assert report.violations == [
            "2:base: exact mimw 0 below bound 2/9",
            "2:completed: exact mimw 0 below bound 2/9",
        ]
