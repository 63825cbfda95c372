import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, reference_degeneracy
from mimlab.check import verify_cycle
from mimlab.errors import GraphFormatError, InvalidParameter, LimitExceeded, OddCycleFound
from mimlab.graph import (
    BipartiteGraph,
    Graph,
    MAX_VERTICES,
    _bits,
    _clique,
    bipartite_to_text,
    complement,
    complete,
    complete_bipartite,
    cycle,
    degeneracy,
    free_trees,
    graph_to_text,
    grid,
    mask_to_set,
    parse_graph_text,
    path,
    random_bipartite,
    random_cubic,
    set_to_mask,
    subdivide_all_edges,
    two_color,
)
from mimlab.recognize import verify_clique
from mimlab.solver import _CutSolver


def small_graphs():
    return st.integers(1, 7).flatmap(
        lambda n: st.builds(
            Graph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=15,
            ),
        )
    )


class TestGraph:
    def test_edge_normalization(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameter):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameter):
            Graph(2, [(0, 2)])

    def test_rejects_non_integer_input(self):
        for n, edges in ((2.0, ()), (3, [(0, 1.0), (1, 2)]), (3, [(0, "1")]), ("3", ())):
            with pytest.raises(InvalidParameter):
                Graph(n, edges)
        # A bool is an integer: True is vertex 1.
        g = Graph(3, [(0, True)])
        assert g.edges == frozenset({(0, 1)}) and graph_to_text(g) == "graph 3 1\n0 1\n"

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 2)], "edge (0, 1, 2) is not a pair of vertices"),
            ([(1,)], "edge (1,) is not a pair of vertices"),
            ([0], "edge 0 is not a pair of vertices"),
            ([None], "edge None is not a pair of vertices"),
            ([(0, 1.0)], "edge (0,1.0) has a non-integer end"),
            ([(0, 3)], "edge (0,3) outside [0,3)"),
            ([(1, 1)], "self-loop at vertex 1"),
        ],
    )
    def test_malformed_edge_messages(self, edges, message):
        # An edge that is not two items is a parameter error too, not a
        # bare error from unpacking it.
        with pytest.raises(InvalidParameter) as exc:
            Graph(3, edges)
        assert str(exc.value) == message

    def test_degree_and_adjacency(self):
        g = path(4)
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert g.adj[1] == frozenset({0, 2})

    def test_no_vertex_is_its_own_neighbour(self):
        for g in (complete(5), Graph(3), path(4)):
            assert not any(g.has_edge(v, v) for v in range(g.n))

    def test_equal_graphs_hash_equal(self):
        # The edges as given, in any order and orientation, make one key.
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert {a: "path"}[b] == "path"
        assert len({a, b, Graph(3, [(0, 1)]), Graph(4, [(0, 1), (1, 2)])}) == 3
        x = complete_bipartite(2, 3)
        y = BipartiteGraph(Graph(5, reversed(sorted(x.graph.edges))), [1, 0], range(2, 5))
        assert x == y and hash(x) == hash(y)
        assert {x: "K23"}[y] == "K23"
        assert len({x, y, BipartiteGraph(x.graph, range(2, 5), range(2))}) == 2

    def test_repr(self):
        assert repr(path(4)) == "Graph(n=4, m=3)"
        assert repr(complete_bipartite(2, 3)) == "BipartiteGraph(n=5, |X|=2, |Y|=3)"


class TestBitsetView:
    def test_nbr_masks(self):
        g = grid(2, 3)
        assert [mask_to_set(m) for m in g.nbr_masks] == list(g.adj)

    def test_nbr_masks_match_adj_on_raw_edge_lists(self):
        # The masks are built from the edges as given, the set adjacency
        # from the normalised edge set: reversed and repeated pairs must
        # not make them differ.
        repeated = 0
        for seed in range(2000):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges = [rng.choice(pairs) for _ in range(rng.randint(0, 2 * n))]
            g = Graph(n, edges)
            repeated += g.m < len(edges)
            assert [mask_to_set(m) for m in g.nbr_masks] == list(g.adj), (seed, edges)
        assert repeated > 1000

    def test_clique_matches_verify_clique(self):
        graphs = [complete(n) for n in range(1, 9)] + [Graph(n) for n in range(1, 9)]
        for seed in range(30):
            rng = random.Random(seed)
            n = 2 + seed % 7
            p = rng.choice((0.3, 0.5, 0.7, 0.9))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs.append(Graph(n, [e for e in pairs if rng.random() < p]))
        for g in graphs:
            for mask in range(1 << g.n):
                assert _clique(g.nbr_masks, mask) == verify_clique(g, _bits(mask)), (g, mask)

    @given(small_graphs(), st.integers(0, 127))
    def test_cut_edges_are_sorted_crossing_edges(self, g, mask):
        mask &= (1 << g.n) - 1
        a = mask_to_set(mask)
        assert set_to_mask(a) == mask
        cs = _CutSolver(g)
        edges = cs.edges
        assert [edges[arc >> 1] for arc in _bits(cs.cut_arcs(mask))] == [
            e for e in sorted(g.edges) if (e[0] in a) != (e[1] in a)
        ]


class TestComplement:
    def test_complete_goes_edgeless(self):
        assert complement(complete(4)).m == 0

    def test_edgeless_goes_complete(self):
        assert complement(Graph(3)) == complete(3)

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestSubdivide:
    def test_single_edge_makes_path(self):
        b = subdivide_all_edges(Graph(2, [(0, 1)]))
        assert b.graph == Graph(3, [(0, 2), (1, 2)])
        assert b.x_class == frozenset({0, 1})
        assert b.y_class == frozenset({2})

    def test_triangle_makes_c6(self):
        b = subdivide_all_edges(cycle(3))
        assert b.graph.n == 6 and b.graph.m == 6
        assert all(b.graph.degree(v) == 2 for v in range(6))

    def test_k4_degrees(self):
        b = subdivide_all_edges(complete(4))
        assert b.graph.n == 10
        assert sorted(b.graph.degree(v) for v in b.x_class) == [3, 3, 3, 3]
        assert sorted(b.graph.degree(v) for v in b.y_class) == [2] * 6

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_structure_properties(self, g):
        b = subdivide_all_edges(g)
        assert len(b.y_class) == g.m
        assert all(b.graph.degree(y) == 2 for y in b.y_class)
        assert all(b.graph.degree(x) == g.degree(x) for x in b.x_class)


class TestDegeneracy:
    def test_k5(self):
        assert degeneracy(complete(5)).d == 4

    def test_trees(self):
        for n in (2, 5, 8):
            assert degeneracy(path(n)).d == 1

    def test_subdivided_k4_is_2_degenerate(self):
        assert degeneracy(subdivide_all_edges(complete(4)).graph).d == 2

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_order_witnesses_value(self, g):
        res = degeneracy(g)
        remaining = set(range(g.n))
        for v in res.order:
            assert len(g.adj[v] & remaining) <= res.d
            remaining.remove(v)

    def test_matches_reference_on_small_graphs(self):
        for n in range(7):
            for g in all_graphs(n):
                assert degeneracy(g) == reference_degeneracy(g)

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 60)
            p = rng.random()
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            assert degeneracy(g) == reference_degeneracy(g)
        for rows, cols in ((1, 7), (3, 5), (8, 8)):
            assert degeneracy(grid(rows, cols)) == reference_degeneracy(grid(rows, cols))

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_subdivision_at_most_2_degenerate(self, g):
        assert degeneracy(subdivide_all_edges(g).graph).d <= 2


class TestTwoColor:
    def test_c6_classes(self):
        b = two_color(cycle(6))
        assert b.x_class == frozenset({0, 2, 4})
        assert b.y_class == frozenset({1, 3, 5})

    def test_c5_raises_with_certificate(self):
        with pytest.raises(OddCycleFound) as exc:
            two_color(cycle(5))
        cyc = exc.value.cycle
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        g = cycle(5)
        assert all(
            g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
        )

    def test_edgeless_all_x(self):
        b = two_color(Graph(4))
        assert b.x_class == frozenset(range(4))
        assert b.y_class == frozenset()

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_succeeds_iff_no_odd_cycle(self, g):
        try:
            b = two_color(g)
        except OddCycleFound as exc:
            cyc = exc.cycle
            assert len(cyc) % 2 == 1
            assert all(
                g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                for i in range(len(cyc))
            )
        else:
            for u, v in g.edges:
                assert (u in b.x_class) != (v in b.x_class)

    def test_pinned_outputs_on_random_graphs(self):
        # One sha256 over the classes or the odd cycle of 2,000 seeded
        # graphs; each cycle is also a simple cycle of odd length.
        rng = random.Random(39)
        digest = hashlib.sha256()
        odd = 0
        for _ in range(2000):
            n = rng.randint(1, 14)
            p = rng.choice((0.1, 0.2, 0.3, 0.5))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            try:
                b = two_color(g)
            except OddCycleFound as exc:
                cyc = exc.cycle
                assert len(cyc) % 2 == 1 and verify_cycle(g, cyc), (g, cyc)
                digest.update(f"odd {cyc}\n".encode())
                odd += 1
            else:
                digest.update(f"{sorted(b.x_class)} {sorted(b.y_class)}\n".encode())
        assert 0 < odd < 2000
        assert digest.hexdigest() == "e183a0ef66d6b2df950ffc099914715dd147099aa4ef02e516a63585119d19f1"


class TestGenerators:
    def test_grid_counts(self):
        g = grid(3, 3)
        assert g.n == 9 and g.m == 12

    def test_grid_formula(self):
        for r, c in ((2, 2), (2, 5), (4, 3)):
            assert grid(r, c).m == 2 * r * c - r - c

    def test_random_cubic_4_is_k4(self):
        for seed in range(5):
            assert random_cubic(4, seed) == complete(4)

    def test_random_cubic_rejects_odd(self):
        with pytest.raises(InvalidParameter):
            random_cubic(5, 0)
        with pytest.raises(InvalidParameter):
            random_cubic(2, 0)

    def test_random_cubic_is_cubic_and_deterministic(self):
        for seed in range(8):
            g = random_cubic(10, seed)
            assert all(g.degree(v) == 3 for v in range(10))
            assert g == random_cubic(10, seed)

    def test_random_bipartite_p_range(self):
        with pytest.raises(InvalidParameter):
            random_bipartite(2, 2, 1.5, 0)

    def test_random_bipartite_deterministic(self):
        assert random_bipartite(4, 5, 0.5, 9) == random_bipartite(4, 5, 0.5, 9)

    def test_complete_bipartite(self):
        b = complete_bipartite(2, 3)
        assert b.graph.m == 6
        assert b.x_class == frozenset({0, 1})

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: grid(0, 3), "grid dimensions must be positive"),
            (lambda: cycle(2), "cycle needs n >= 3"),
            (lambda: path(0), "path needs n >= 1"),
            (lambda: complete_bipartite(-1, 2), "class sizes must be non-negative"),
            (lambda: random_bipartite(-1, 2, 0.5, 0), "class sizes must be non-negative"),
            (lambda: next(free_trees(-1)), "vertex count must be non-negative"),
            (lambda: Graph(-1), "vertex count must be non-negative"),
            (lambda: BipartiteGraph(path(3), [0, 1], [1, 2]), "color classes overlap"),
            (lambda: BipartiteGraph(path(3), [0], [1]), "color classes do not cover all vertices"),
        ],
        ids=[
            "grid", "cycle", "path", "complete_bipartite", "random_bipartite",
            "free_trees", "Graph", "classes_overlap", "classes_do_not_cover",
        ],
    )
    def test_rejects_bad_parameters(self, make, message):
        with pytest.raises(InvalidParameter) as exc:
            make()
        assert str(exc.value) == message


# Malformed graph files and the message that each one is refused with.
MALFORMED = [
    ("", "empty graph file"),
    ("graph x 1\n0 1\n", "bad header line: 'graph x 1'"),
    ("graph two 1\n0 1\n", "bad header line: 'graph two 1'"),
    ("graph 2 -1\n", "bad header line: 'graph 2 -1'"),
    ("graph 2 2\n0 1\n", "expected 2 edge lines, found 1"),
    ("graph 2 1\n0 1\nextra junk\n", "unexpected trailing lines: ['extra junk']"),
    ("graph 2 1\n0 1 2\n", "bad edge line: '0 1 2'"),
    ("graph 2 1\n0 x\n", "bad edge line: '0 x'"),
    ("graph 2 1\n0 5\n", "edge (0,5) outside [0,2)"),
    ("graph 2 1\n1 1\n", "self-loop at vertex 1"),
    ("graph 2 2\n0 1\n1 0\n", "duplicate edges in file"),
    ("graph 2 1\n0 1\nbip 0 x\n", "bad bip line: 'bip 0 x'"),
    ("graph 2 1\n0 1\nbip 0 0 1\n", "edge (0,1) inside one color class"),
    ("graph 3 1\n0 1\nbip 0 1\n", "edge (0,1) inside one color class"),
]


class TestTextFormat:
    def test_canonical_output(self):
        g = Graph(3, [(2, 1), (0, 2)])
        assert graph_to_text(g) == "graph 3 2\n0 2\n1 2\n"

    def test_bipartite_line(self):
        b = two_color(path(3))
        assert bipartite_to_text(b) == "graph 3 2\n0 1\n1 2\nbip 0 2\n"

    def test_roundtrip(self):
        g = grid(3, 4)
        assert parse_graph_text(graph_to_text(g)) == g

    def test_bipartite_roundtrip(self):
        b = complete_bipartite(2, 3)
        parsed = parse_graph_text(bipartite_to_text(b))
        assert isinstance(parsed, BipartiteGraph)
        assert parsed.x_class == b.x_class

    def test_bipartite_labels_read_as_graph_does(self):
        # operator.index, as in Graph(): a float class label is refused,
        # and True is vertex 1, so the bip line written parses back.
        for x in ([0.0], ["0"], [None]):
            with pytest.raises(InvalidParameter):
                BipartiteGraph(path(2), x, [1])
        b = BipartiteGraph(path(2), [True], [0])
        assert bipartite_to_text(b) == "graph 2 1\n0 1\nbip 1\n"
        assert parse_graph_text(bipartite_to_text(b)) == b

    def test_reader_skips_comment_lines(self):
        assert parse_graph_text("# c\ngraph 2 1\n0 1\n") == Graph(2, [(0, 1)])
        b = parse_graph_text("  # top\ngraph 3 1\n# mid\n1 2\nbip 0 1\n# end\n")
        assert b.graph == Graph(3, [(1, 2)]) and b.x_class == {0, 1}

    def test_reader_accepts_unsorted(self):
        g = parse_graph_text("graph 3 2\n2 1\n2 0\n")
        assert g == Graph(3, [(0, 2), (1, 2)])

    def test_header_over_vertex_cap(self):
        # Refused before anything of size n is built.
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceeded, match="vertex cap 65536"):
                parse_graph_text("graph 3000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert parse_graph_text(f"graph {MAX_VERTICES} 0\n").n == MAX_VERTICES == 1 << 16
        with pytest.raises(LimitExceeded):
            parse_graph_text(f"graph {MAX_VERTICES + 1} 0\n")

    @pytest.mark.parametrize("text, message", MALFORMED, ids=[text for text, _ in MALFORMED])
    def test_rejects_malformed(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_text(text)
        assert str(exc.value) == message
