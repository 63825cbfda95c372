import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_max_induced_matching,
    brute_mimw,
    brute_treewidth,
    cut_edge_list,
    simulate_elimination,
    table_mimw,
    table_treewidth,
)
from mimlab import solver
from mimlab.errors import LimitExceeded
from mimlab.construct import (
    build_subdivided_family,
    complete_both_sides,
    complete_one_side,
)
from mimlab.decomp import caterpillar_from_order
from mimlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    degeneracy,
    grid,
    mask_to_set,
    path,
    subdivide_all_edges,
    two_color,
)
from mimlab.solver import (
    max_induced_matching_cut,
    mimw_exact,
    mimw_lower_eq1,
    mimw_upper,
    treewidth_exact,
    verify_induced_matching,
)
from test_graph import small_graphs


def conflict(e, f, cut_set):
    """Whether cut edges e and f cannot both be in an induced matching:
    they share an end, or a cut edge joins them."""
    return bool(set(e) & set(f)) or any(
        (min(p, q), max(p, q)) in cut_set for p in e for q in f
    )


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


@pytest.fixture
def made_solvers(monkeypatch):
    """The cut solvers created during the test, in order."""
    made = []

    class Recording(solver._CutSolver):
        def __init__(self, g):
            super().__init__(g)
            made.append(self)

    monkeypatch.setattr(solver, "_CutSolver", Recording)
    return made


@pytest.fixture
def kernels(monkeypatch):
    """The kernel size after each pass of the treewidth reductions during
    the test, in order; `kernels.clear()` starts a new record."""
    sizes = []
    reduce = solver._tw_reduce

    def recording(nbr, rest, low, order):
        rest, low = reduce(nbr, rest, low, order)
        sizes.append(rest.bit_count())
        return rest, low

    monkeypatch.setattr(solver, "_tw_reduce", recording)
    return sizes


def check_table_oracle(g, kernels):
    """The gate against the full 2^n table. Where no vertex reduces, the
    report is the table's; elsewhere the value is, and the order is a
    permutation of width equal to it. Returns which case held."""
    kernels.clear()
    rep = treewidth_exact(g)
    want = table_treewidth(g)
    if all(size == g.n for size in kernels):
        assert rep == want, g.edges
        return "unreduced"
    assert rep.value == want.value, g.edges
    assert sorted(rep.elimination_order) == list(range(g.n)), g.edges
    assert simulate_elimination(g, rep.elimination_order) == rep.value, g.edges
    return "reduced"


class TestMaxInducedMatchingCut:
    def test_complete_bipartite_cut_is_1(self):
        b = complete_bipartite(3, 3)
        m = max_induced_matching_cut(b.graph, b.x_class)
        assert len(m.edges) == 1

    def test_p4_prefix_cut(self):
        m = max_induced_matching_cut(path(4), {0, 1})
        assert len(m.edges) == 1

    def test_c6_half_cut(self):
        m = max_induced_matching_cut(cycle(6), {0, 1, 2})
        assert len(m.edges) == 2
        assert brute_max_induced_matching(cycle(6), {0, 1, 2}) == 2

    def test_empty_cut(self):
        assert max_induced_matching_cut(path(4), set()).edges == ()

    def test_witness_passes_independent_checker(self):
        for seed in range(20):
            g = random_graph(7, 0.4, seed)
            a = {v for v in range(7) if random.Random(seed + 100).random() < 0.5}
            m = max_induced_matching_cut(g, a)
            assert verify_induced_matching(g, m)

    def test_agrees_with_brute_force_on_randoms(self):
        for seed in range(30):
            g = random_graph(6, 0.5, seed)
            for a_bits in range(1 << 6):
                a = {v for v in range(6) if (a_bits >> v) & 1}
                got = len(max_induced_matching_cut(g, a).edges)
                assert got == brute_max_induced_matching(g, a)

    def test_symmetry_under_complement_side(self):
        for seed in range(10):
            g = random_graph(7, 0.5, seed)
            a = {0, 2, 4}
            comp = set(range(7)) - a
            assert len(max_induced_matching_cut(g, a).edges) == len(
                max_induced_matching_cut(g, comp).edges
            )


class TestCutWalk:
    def test_one_vertex_stability(self):
        # Moving one vertex across a cut changes its value by at most one.
        for seed in range(16):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7)), seed)
            value = [
                brute_max_induced_matching(g, mask_to_set(a)) for a in range(1 << g.n)
            ]
            for a in range(1 << g.n):
                for v in range(g.n):
                    assert abs(value[a ^ 1 << v] - value[a]) <= 1, (g.edges, a, v)

    def test_walk_matches_brute_force(self, made_solvers):
        graphs = []
        for seed in range(24):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            # Sparser at n = 9, where the oracle's time grows as 2^m.
            p = rng.choice((0.25, 0.4, 0.55)) if n < 9 else 0.3
            graphs.append(random_graph(n, p, seed))
        graphs += [
            Graph(1),
            Graph(2),
            Graph(2, [(0, 1)]),
            Graph(7),  # edgeless
            complete(7),
            Graph(8, [(1, 2), (2, 4), (4, 5), (5, 1), (2, 6)]),  # 0, 3, 7 isolated
        ]
        for g in graphs:
            cut_of = solver._CutSolver(g).cut_values()
            assert len(cut_of) == 1 << max(g.n - 1, 0)
            for key, got in enumerate(cut_of):
                want = brute_max_induced_matching(g, mask_to_set(key))
                assert got == want, (g.n, g.edges, key)
        # Keys were settled without a search, and searches ran too.
        assert all(cs.settled for cs in made_solvers if cs.n > 2 and cs.g.m)
        assert sum(cs.nodes for cs in made_solvers)


class TestArcTables:
    def test_cut_arcs_and_conflicts_match_brute_force(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6, 0.8)), seed)
            cs = solver._CutSolver(g)
            edges = g.arc_tables[0]
            for mask in range(1 << g.n):
                arcs = g.cut_arcs(mask)
                ids = [i for i in range(2 * g.m) if arcs >> i & 1]
                ce = [edges[i >> 1] for i in ids]
                assert ce == cut_edge_list(g, mask_to_set(mask))
                cut_set = set(ce)
                for i in ids:
                    row = cs.enter[i] | cs.leave[i]  # itself included
                    for j in ids:
                        e, f = edges[i >> 1], edges[j >> 1]
                        want = conflict(e, f, cut_set)
                        assert bool(row >> j & 1) == want, (seed, mask, e, f)


class TestCliqueCover:
    def test_pruning_is_sound(self):
        # Wherever greedy cliques cover the candidates within `room`, no
        # induced matching among them has more than `room` edges.
        pruned = 0
        for seed in range(30):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7)), seed)
            cs = solver._CutSolver(g)
            edges = g.arc_tables[0]
            for mask in range(1 << g.n):
                arcs = g.cut_arcs(mask)
                ids = [i for i in range(2 * g.m) if arcs >> i & 1]
                cut_set = {edges[i >> 1] for i in ids}
                for _ in range(3):
                    cand = [i for i in ids if rng.random() < 0.7]
                    bits = sum(1 << i for i in cand)
                    # The largest r with r pairwise free candidates; freedom
                    # is hereditary, so the first size without one ends it.
                    best = 0
                    while any(
                        not any(
                            conflict(edges[i >> 1], edges[j >> 1], cut_set)
                            for i, j in itertools.combinations(combo, 2)
                        )
                        for combo in itertools.combinations(cand, best + 1)
                    ):
                        best += 1
                    for room in range(len(cand) + 1):
                        if solver._covered(bits, cs.enter, cs.leave, room):
                            pruned += 1
                            assert best <= room, (g.edges, mask, cand, room)
                    assert solver._covered(bits, cs.enter, cs.leave, len(cand))
        assert pruned


class TestThresholdQueries:
    def test_at_least_matches_brute_force(self):
        rng = random.Random(0)
        graphs = [
            random_graph(rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7)), seed)
            for seed in range(12)
        ]
        # The greedy start falls short of the maximum on some cuts of these,
        # so some threshold searches there must prove more than it found.
        graphs += [
            random_graph(8, p, seed) for p, seed in ((0.3, 7), (0.5, 73), (0.5, 89))
        ]
        for g in graphs:
            n = g.n
            brute = {
                a: brute_max_induced_matching(g, mask_to_set(a)) for a in range(1 << n)
            }
            queries = [(a, t) for a in brute for t in range(n // 2 + 2)]
            for _ in range(3):  # a solver per order: each meets its bounds anew
                cs = solver._CutSolver(g)
                rng.shuffle(queries)
                for a, t in queries:
                    assert cs.at_least(a, t) == (brute[a] >= t), (g.edges, a, t)
                for a, want in brute.items():
                    assert cs.at_least(a, want) and not cs.at_least(a, want + 1)

    def test_record_brackets_every_cut(self, made_solvers):
        # What the solver stores, not only what it answers: each key's
        # (lo, hi) brackets the key's value, after the heuristic's queries
        # and after threshold queries in random order, and the subset DP
        # stores only exact values.
        open_keys = 0
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7)), seed)
            made_solvers.clear()
            mimw_upper(g)
            mimw_exact(g)
            upper, exact = made_solvers
            shuffled = solver._CutSolver(g)
            for _ in range(3 * g.n):
                shuffled.at_least(rng.randrange(1 << g.n), rng.randint(1, g.n // 2))
            for cs in (upper, shuffled):
                for key, (lo, hi) in cs.bounds.items():
                    assert lo <= brute_max_induced_matching(g, mask_to_set(key)) <= hi
                    open_keys += lo < hi
            assert exact.bounds
            for key, (lo, hi) in exact.bounds.items():
                assert lo == hi == brute_max_induced_matching(g, mask_to_set(key))
        assert open_keys  # some keys stay inexact


class TestUpperWork:
    # Branch-and-bound nodes of mimw_upper; exact counts, so a change
    # that makes the search do more work fails here.
    @pytest.mark.parametrize(
        "make, nodes",
        [
            (lambda: build_subdivided_family(10, 0).graph, 47),
            (lambda: build_subdivided_family(14, 0).graph, 267),
            (lambda: complete_one_side(two_color(grid(5, 5)), "Y").result, 23),
        ],
        ids=["circle-cubic-10", "circle-cubic-14", "split-grid-5"],
    )
    def test_node_count(self, made_solvers, make, nodes):
        mimw_upper(make())
        (cs,) = made_solvers
        assert cs.nodes == nodes

    # sha256 prefixes of report JSON, recorded also with the clique-cover
    # pruning off: pruning the cut search must not change a report byte.
    REPORTS = {
        (10, 0): "22848dbe795f9676",
        (10, 1): "748e247fc610a679",
        (10, 2): "d2da74e45c961c40",
        (12, 0): "5b6dacc288003bc1",
        (12, 1): "48dca305d0e9ecb8",
        (12, 2): "7f8fdd845d4a486c",
        (14, 0): "05bc4524614ca9e0",
        (14, 1): "dc6862df820f563d",
        (14, 2): "84b7221f99897cb6",
    }

    def test_circle_cubic_report_bytes(self):
        for (k, seed), want in self.REPORTS.items():
            g = build_subdivided_family(k, seed).graph
            text = mimw_upper(g).to_json()
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, (k, seed)

    def test_circle_cubic_width_sum(self):
        # The best of five caterpillars, hill-climbed, sums to 73 here.
        widths = [mimw_upper(build_subdivided_family(k, s).graph).value
                  for k, s in self.REPORTS]
        assert sum(widths) == 50


def frontier_mimw_graphs():
    b = two_color(grid(3, 4))
    return {
        "grid-3x4": b.graph,
        "split-grid-3x4": complete_one_side(b, "Y").result,
        "cocomp-grid-3x4": complete_both_sides(b).result,
        "subdivided-K4": subdivide_all_edges(complete(4)).graph,
        "circle-cubic-4": build_subdivided_family(4, 0).graph,
    }


class TestExactWork:
    # Branch-and-bound nodes, split pairs examined and keys that the cut
    # walk settled without a search, in mimw_exact. The nodes and settled
    # keys pin the walk, which the early stop of the split scan leaves as
    # it is; the split pairs pin the early stop itself.
    @pytest.mark.parametrize(
        "name, nodes, splits, settled",
        [
            ("grid-3x4", 1188, 23852, 1159),
            ("split-grid-3x4", 932, 8151, 606),
            ("cocomp-grid-3x4", 5184, 20751, 222),
            ("circle-cubic-4", 288, 8715, 198),
        ],
        ids=["grid-3x4", "split-grid-3x4", "cocomp-grid-3x4", "circle-cubic-4"],
    )
    def test_work_counts(self, made_solvers, name, nodes, splits, settled):
        g = frontier_mimw_graphs()[name]
        mimw_exact(g, limit=g.n)
        (cs,) = made_solvers
        assert (cs.nodes, cs.splits, cs.settled) == (nodes, splits, settled)

    # sha256 prefixes of report JSON: the cut search's pruning must leave
    # the witness matchings, which `table_mimw` shares, byte for byte.
    REPORTS = {
        "grid-3x4": "c373da1e28ab265a",
        "split-grid-3x4": "b52a990105fdd32f",
        "cocomp-grid-3x4": "6f28d42ac2aa17d9",
        "subdivided-K4": "c31dd78acdccf147",
        "circle-cubic-4": "c31dd78acdccf147",
    }

    def test_report_bytes(self):
        for name, g in frontier_mimw_graphs().items():
            text = mimw_exact(g, limit=g.n).to_json()
            want = self.REPORTS[name]
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want, name


def frontier_tw_graphs():
    g44 = two_color(grid(4, 4))
    return {
        "grid-4x4": g44.graph,
        "split-grid-4x4": complete_one_side(g44, "Y").result,
        "circle-cubic-6": build_subdivided_family(6, 0).graph,
        "grid-3x5": two_color(grid(3, 5)).graph,
    }


class TestTreewidthWork:
    # Kernel sizes after each pass of the reductions in treewidth_exact: a
    # pass runs first, then again after each k that the kernel fails.
    @pytest.mark.parametrize(
        "name, sizes, tw",
        [
            ("grid-4x4", [12, 8, 8], 4),
            ("split-grid-4x4", [0], 7),
            ("circle-cubic-6", [6, 0], 3),
            ("grid-3x5", [11, 0], 3),
        ],
    )
    def test_kernel_sizes(self, kernels, name, sizes, tw):
        g = frontier_tw_graphs()[name]
        assert treewidth_exact(g, limit=g.n).value == tw
        assert kernels == sizes

    def test_circle_cubic_14_reduces_to_its_cubic_kernel(self):
        # n = 35 is over the table budget, so only the reductions run.
        g = build_subdivided_family(14, 0).graph
        order = []
        full = (1 << g.n) - 1
        rest, low = solver._tw_reduce(list(g.nbr_masks), full, degeneracy(g).d, order)
        assert (g.n, rest.bit_count(), len(order), low) == (35, 14, 21, 2)


class TestMimwExact:
    def test_complete_graphs(self):
        for n in range(2, 6):
            assert mimw_exact(complete(n)).value == 1

    def test_paths(self):
        for n in range(2, 7):
            assert mimw_exact(path(n)).value == 1

    def test_c6(self):
        assert mimw_exact(cycle(6)).value == 2

    def test_zero_iff_edgeless(self):
        assert mimw_exact(Graph(5)).value == 0
        for seed in range(10):
            g = random_graph(6, 0.3, seed)
            assert (mimw_exact(g).value == 0) == (g.m == 0)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            mimw_exact(Graph(10))
        assert mimw_exact(Graph(10), limit=10).value == 0

    def test_table_budget(self, monkeypatch):
        # Refused before any table is allocated, whatever the limit.
        with pytest.raises(LimitExceeded, match="MiB"):
            mimw_exact(Graph(40), limit=40)
        with pytest.raises(LimitExceeded, match="MiB"):
            mimw_exact(Graph(28), limit=28)
        # f and the cut values count as two byte tables: n = 9 fills a
        # 1 KiB budget.
        monkeypatch.setattr(solver, "TABLE_BUDGET", 1 << 10)
        assert mimw_exact(Graph(9), limit=9).value == 0
        with pytest.raises(LimitExceeded):
            mimw_exact(Graph(10), limit=10)

    def test_cut_values_live_in_the_table(self, made_solvers):
        # The DP keeps its 2^(n-1) cut values in a counted byte table; the
        # record gets only the keys of the tree's 2n - 1 sets.
        g = frontier_mimw_graphs()["grid-3x4"]
        mimw_exact(g, limit=g.n)
        (cs,) = made_solvers
        assert len(cs.bounds) <= 2 * g.n - 1

    def test_matches_table_oracle_on_randoms(self):
        # Same report bytes as the DP that scans every split of every set.
        for seed in range(180):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 10), (1 + seed % 9) / 10, seed)
            assert mimw_exact(g, limit=10).to_json() == table_mimw(g).to_json(), seed

    @pytest.mark.parametrize("name", sorted(frontier_mimw_graphs()))
    def test_matches_table_oracle_on_frontier(self, name):
        g = frontier_mimw_graphs()[name]
        assert mimw_exact(g, limit=g.n).to_json() == table_mimw(g).to_json()

    def test_small_convention(self):
        assert mimw_exact(Graph(1)).value == 0
        assert mimw_exact(Graph(0)).value == 0

    def test_witness_decomposition_attains_value(self):
        from mimlab.decomp import subtree_leaf_sets, validate

        for seed in range(10):
            g = random_graph(6, 0.5, seed)
            rep = mimw_exact(g)
            validate(rep.decomposition, g)
            width = max(
                brute_max_induced_matching(g, a)
                for a in subtree_leaf_sets(rep.decomposition)
            )
            assert width == rep.value

    def test_critical_cut_witness(self):
        rep = mimw_exact(cycle(6))
        assert len(rep.witness_matching.edges) == rep.value
        assert verify_induced_matching(cycle(6), rep.witness_matching)

    def test_matches_enumeration_oracle(self):
        # DP over subsets vs. explicit enumeration of all decompositions
        for seed in range(8):
            g = random_graph(5, 0.5, seed)
            assert mimw_exact(g).value == brute_mimw(g)
        assert mimw_exact(cycle(6)).value == brute_mimw(cycle(6))

    def test_report_json_field_order(self):
        rep = mimw_exact(path(3))
        assert rep.to_json().startswith('{"value": 1, "mode": "exact", ')


class TestMimwUpper:
    def test_complete_is_1(self):
        assert mimw_upper(complete(6)).value == 1

    def test_p8_identity_is_1(self):
        rep = mimw_upper(path(8))
        assert rep.value == 1
        assert rep.decomposition == caterpillar_from_order(range(8))

    def test_never_below_exact(self):
        for seed in range(50):
            g = random_graph(random.Random(seed).randint(2, 7), 0.5, seed)
            assert mimw_upper(g).value >= mimw_exact(g).value

    def test_long_path_without_recursion(self):
        assert mimw_upper(path(1200)).value == 1

    def test_relabelled_path_is_1(self):
        # The merge does not depend on a good vertex order: hill-climbed
        # caterpillars give width 26 on this labelling.
        perm = random.Random(1).sample(range(100), 100)
        g = Graph(100, [(perm[i], perm[i + 1]) for i in range(99)])
        assert mimw_upper(g).value == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid(3, 4),
            lambda: grid(4, 4),
            lambda: build_subdivided_family(6, 0).graph,
        ],
        ids=["grid-3x4", "grid-4x4", "circle-cubic-6"],
    )
    def test_exact_on_small_families(self, make):
        g = make()
        assert mimw_upper(g).value == mimw_exact(g, limit=g.n).value

    def test_witness_decomposition_attains_value(self):
        from mimlab.decomp import subtree_leaf_sets, validate

        for seed in range(30):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 10), rng.choice((0.3, 0.5, 0.7)), seed)
            rep = mimw_upper(g)
            validate(rep.decomposition, g)
            width = max(
                brute_max_induced_matching(g, a)
                for a in subtree_leaf_sets(rep.decomposition)
            )
            assert width == rep.value, g.edges

    def test_deterministic_rerun(self):
        g = random_graph(9, 0.4, 3)
        a = mimw_upper(g)
        b = mimw_upper(g)
        assert a.to_json() == b.to_json()


class TestTreewidth:
    def test_complete(self):
        assert treewidth_exact(complete(4)).value == 3

    def test_trees(self):
        for n in (2, 5, 8):
            assert treewidth_exact(path(n)).value == 1

    def test_grid33(self):
        assert treewidth_exact(grid(3, 3)).value == 3

    def test_matches_permutation_oracle(self):
        graphs = [random_graph(6, 0.5, seed) for seed in range(10)]
        for seed in range(28):
            rng = random.Random(seed)
            graphs.append(random_graph(rng.randint(1, 7), (1 + seed % 7) / 8, seed))
        for g in graphs:
            assert treewidth_exact(g).value == brute_treewidth(g), g.edges

    def test_order_witnesses_value(self):
        for seed in range(10):
            g = random_graph(7, 0.4, seed)
            rep = treewidth_exact(g)
            assert simulate_elimination(g, rep.elimination_order) == rep.value

    # The limits bound the kernel, so these use K_{a,b} with a, b >= 3:
    # no vertex of it reduces.
    def test_limit(self):
        with pytest.raises(LimitExceeded):
            treewidth_exact(complete_bipartite(9, 9).graph)

    def test_limit_bounds_the_kernel(self):
        # n = 35, but its kernel has 14 vertices.
        g = build_subdivided_family(14, 0).graph
        rep = treewidth_exact(g)
        assert (g.n, rep.value) == (35, 4)
        assert simulate_elimination(g, rep.elimination_order) == 4
        assert mimw_lower_eq1(g).treewidth == 4

    def test_table_budget(self, monkeypatch):
        # Refused before any table is allocated, whatever the limit.
        with pytest.raises(LimitExceeded, match="MiB"):
            treewidth_exact(complete_bipartite(20, 20).graph, limit=40)
        with pytest.raises(LimitExceeded, match="MiB"):
            treewidth_exact(complete_bipartite(14, 14).graph, limit=28)
        # Two byte tables for treewidth_exact: n = 9 fills a 1 KiB budget.
        monkeypatch.setattr(solver, "TABLE_BUDGET", 1 << 10)
        assert treewidth_exact(complete_bipartite(4, 5).graph, limit=9).value == 4
        with pytest.raises(LimitExceeded):
            treewidth_exact(complete_bipartite(5, 5).graph, limit=10)

    def test_matches_table_oracle_on_randoms(self, kernels):
        # One graph in 16 has 11 or 12 vertices, where the table is slow.
        seen = set()
        for seed in range(320):
            rng = random.Random(seed)
            n = rng.randint(1, 10) if seed % 16 else rng.randint(11, 12)
            g = random_graph(n, (1 + seed % 9) / 10, seed)
            seen.add(check_table_oracle(g, kernels))
        assert seen == {"reduced", "unreduced"}

    @pytest.mark.parametrize("make, smallest", [(Graph, 0), (complete, 1), (path, 1), (cycle, 3)])
    def test_matches_table_oracle_on_families(self, kernels, make, smallest):
        for n in range(smallest, 11):
            check_table_oracle(make(n), kernels)

    def test_matches_table_oracle_on_grid34(self, kernels):
        assert check_table_oracle(grid(3, 4), kernels) == "reduced"

    def test_matches_table_oracle_on_reducible(self, kernels):
        # Pendant and degree-2 vertices hung on a random core, and
        # subdivisions: the shapes the reductions eliminate.
        for seed in range(120):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 7), rng.choice((0.3, 0.6, 0.9)), seed)
            edges = list(g.edges)
            n = g.n
            for _ in range(rng.randint(1, 3)):
                picks = rng.sample(range(n), rng.randint(1, min(2, n)))
                edges += [(v, n) for v in picks]
                n += 1
            check_table_oracle(Graph(n, edges), kernels)
        for seed in range(40):
            rng = random.Random(seed)
            core = random_graph(rng.randint(3, 5), 0.5, seed)
            if core.n + core.m <= 11:
                check_table_oracle(subdivide_all_edges(core).graph, kernels)

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabelling(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        rep = treewidth_exact(h)
        assert rep.value == treewidth_exact(g).value
        assert simulate_elimination(h, rep.elimination_order) == rep.value

    def test_sixteen_vertices_at_default_limit(self):
        b = two_color(grid(4, 4))
        for g, tw in ((b.graph, 4), (complete_one_side(b, "Y").result, 7)):
            assert g.n == 16
            rep = treewidth_exact(g)
            assert rep.value == tw
            assert simulate_elimination(g, rep.elimination_order) == tw


class TestEq1Bound:
    def test_subdivided_k4(self):
        g = subdivide_all_edges(complete(4)).graph
        bound = mimw_lower_eq1(g)
        assert bound.treewidth == 3 and bound.degeneracy == 2
        assert bound.ratio == Fraction(1, 3)
        assert bound.integer_bound == 1

    def test_edgeless(self):
        assert mimw_lower_eq1(Graph(4)).ratio == 0

    def test_degeneracy_computed_once(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return degeneracy(g)

        monkeypatch.setattr(solver, "degeneracy", counting)
        mimw_lower_eq1(subdivide_all_edges(complete(4)).graph)
        assert len(calls) == 1

    def test_k5(self):
        bound = mimw_lower_eq1(complete(5))
        assert bound.ratio == Fraction(4, 15)
        assert mimw_exact(complete(5)).value >= bound.ratio

    def test_sandwich_on_randoms(self):
        for seed in range(20):
            g = random_graph(7, 0.5, seed)
            lower = mimw_lower_eq1(g).ratio
            exact = mimw_exact(g).value
            upper = mimw_upper(g).value
            assert lower <= exact <= upper
