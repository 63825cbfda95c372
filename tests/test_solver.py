import dataclasses
import hashlib
import inspect
import itertools
import json
import random
import sys
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_graphs,
    brute_max_induced_matching,
    brute_mimw,
    brute_treewidth,
    caterpillar_from_order,
    cut_edge_list,
    postorder_critical,
    reference_search,
    rescan_merge,
    search_at_least,
    simulate_elimination,
    table_mimw,
    table_treewidth,
)
from mimlab import check, decomp, solver
from mimlab.errors import InvalidParameter, LimitExceeded
from mimlab.construct import (
    build_subdivided_family,
    complete_both_sides,
    complete_one_side,
)
from mimlab.decomp import subtree_leaf_sets, validate
from mimlab.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    degeneracy,
    grid,
    mask_to_set,
    parse_graph_text,
    path,
    random_cubic,
    set_to_mask,
    subdivide_all_edges,
    two_color,
)
from mimlab.solver import (
    InducedMatching,
    TreewidthReport,
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


PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
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


def relabelled_path(n, seed):
    perm = random.Random(seed).sample(range(n), n)
    return Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])


@pytest.fixture
def past_high_end_asks(monkeypatch):
    """The (union, t) that the scans of `solver._merge_search` hand to
    `solver._past_high_end`, in order, each union read off the calling
    scan's frame as `merge_scans` reads it."""
    asked = []
    past_high_end = solver._past_high_end

    def recording(cs, arcs, t):
        f = sys._getframe(1).f_locals  # the scan, at its part q
        asked.append((scan_union(f), t))
        return past_high_end(cs, arcs, t)

    monkeypatch.setattr(solver, "_past_high_end", recording)
    return asked


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


def scan_union(f):
    """The union of the parts p and q in the locals `f` of a scan of
    `solver._merge_search`, as a vertex mask, read off the parts' tree
    nodes."""
    pair = f["nodes"][f["p"]], f["nodes"][f["q"]]
    return deque(decomp._fold(pair, lambda v: 1 << v, int.__or__), maxlen=1)[0]


def merge_scans(cs):
    """The scans of `solver._merge_search(cs)` in order, each as the
    (union, t) it took up, in order, and the part it returned or None,
    read off by a trace of the scan's frames."""
    scans = []

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_name != "scan" or code.co_filename != solver.__file__:
            return None
        taken = {}  # q -> (union, t)

        def lines(frame, event, arg):
            f = frame.f_locals  # the loop runs q over start..stop-1
            if event == "return":
                scans.append((list(taken.values()), arg))
            elif event == "line" and f.get("q", f["stop"]) < f["stop"] and f["q"] not in taken:
                taken[f["q"]] = (scan_union(f), f["t"])
            return lines

        return lines

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        solver._merge_search(cs)
    finally:
        sys.settrace(old)
    return scans


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


@pytest.fixture
def dp_states(monkeypatch):
    """The sets each call of the treewidth DP adds to its levels during the
    test, one count per k tried, in order."""
    counts = []
    family = solver._tw_family

    def recording(nbr, rest, k):
        levels = family(nbr, rest, k)
        counts.append(sum(map(len, levels[1:])))  # the sets added to the levels
        return levels

    monkeypatch.setattr(solver, "_tw_family", recording)
    return counts


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


@pytest.fixture
def threshold_passes(monkeypatch):
    """(lo, hi, the t found or None) for each threshold pass of mimw_exact
    during the test, in order."""
    passes = []
    run = solver._threshold_tree

    def recording(cs, lo, hi):
        found = run(cs, lo, hi)
        passes.append((lo, hi, found and found[0]))
        return found

    monkeypatch.setattr(solver, "_threshold_tree", recording)
    return passes


def check_bounds_first(g, threshold_passes):
    """mimw_exact against the oracles: the table's value always; where it
    equals the merge's width, the merge's report as exact; elsewhere a
    tree below it, which validates and whose cuts, by brute force, attain
    the value. Returns the path: "threshold" where the threshold pass
    ran, else "bounds" where the bounds met and "top-down" otherwise."""
    threshold_passes.clear()
    rep = mimw_exact(g, limit=g.n)
    assert rep.value == table_mimw(g).value, g.edges
    merged = dataclasses.replace(mimw_upper(g), mode="exact")
    if rep.value == merged.value:
        assert rep.to_json() == merged.to_json(), g.edges
    if rep.value < merged.value or threshold_passes:
        validate(rep.decomposition, g)
        assert verify_induced_matching(g, rep.witness_matching), g.edges
        assert len(rep.witness_matching.edges) == rep.value, g.edges
        cuts = subtree_leaf_sets(rep.decomposition)
        assert max(brute_max_induced_matching(g, a) for a in cuts) == rep.value
    if threshold_passes:
        return "threshold"
    return "bounds" if rep.value == merged.value else "top-down"


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

    def test_side_outside_the_vertex_range(self):
        # A side with a vertex outside 0..n-1 is no side of a cut of G.
        g = path(4)
        for side in ({9}, {-1}, {0, 4}, {1.5}, {"a"}):
            assert not verify_induced_matching(g, InducedMatching(frozenset(side), ((0, 1),)))
            with pytest.raises(InvalidParameter):
                max_induced_matching_cut(g, side)
        # A float equal to a vertex is no vertex label, as in Graph().
        with pytest.raises(InvalidParameter):
            max_induced_matching_cut(g, {1.0})

    def test_checker_reads_side_labels_as_graph_does(self):
        # operator.index: a float equal to a vertex is no vertex, and True
        # is vertex 1, for the checker as for max_induced_matching_cut.
        g = path(4)
        assert not verify_induced_matching(g, InducedMatching(frozenset({1.0}), ((0, 1),)))
        assert verify_induced_matching(g, InducedMatching(frozenset({True}), ((0, 1),)))
        assert max_induced_matching_cut(g, {True}) == max_induced_matching_cut(g, {1})

    def test_checker_reads_edges_as_graph_does(self):
        # Each matching edge is exactly two vertices, read by
        # operator.index; anything else is no matching.
        g = path(4)
        side = frozenset({1})
        for edge in ((0.0, 1), (0, 0, 1), ("a", 1), (1,), None):
            assert not verify_induced_matching(g, InducedMatching(side, (edge,))), edge
        for edge in ((0, 1), [1, 0], (True, 0)):
            assert verify_induced_matching(g, InducedMatching(side, (edge,))), edge

    def test_verifier_reads_no_arc_tables(self, monkeypatch):
        # Every checker reads only g.n, g.edges and g.adj, so a broken
        # neighbour mask or arc table in the searches cannot change its
        # answer on a valid or an invalid certificate.
        g = cycle(6)
        m = max_induced_matching_cut(g, {0, 1, 2})
        chord = Graph(6, g.edges | {(0, 3)})
        cases = [  # (checker, graph, valid certificate, invalid one)
            (check.verify_induced_matching, g, m, InducedMatching(m.a_side, ((0, 1),))),
            (check.verify_clique, g, [0, 1], [0, 2]),
            (check.verify_independent, g, [0, 2], [0, 1]),
            (check.verify_elimination_order, path(4), [0, 1, 2, 3], [1, 0, 2, 3]),
            (check.verify_simple_elimination_order, path(4), [0, 1, 2, 3], [1, 0, 2, 3]),
            (check.verify_cycle, g, range(6), [0, 1, 2]),
            (check.cycle_chords, chord, [0, 1, 2, 3], range(6)),
            (check.has_odd_chord, chord, [0, 1, 2, 3], range(6)),
            (check.verify_transitive_orientation, path(3), [(0, 1), (2, 1)], [(0, 1), (1, 2)]),
        ]
        checkers = {k for k, v in vars(check).items() if k[0] != "_" and inspect.isfunction(v)}
        assert {f.__name__ for f, *_ in cases} == checkers
        before = [(f(h, good), f(h, bad)) for f, h, good, bad in cases]
        assert len(m.edges) == 2
        assert before == [(True, False)] * 6 + [([], [(0, 3)]), (False, True), (True, False)]

        def broken(*args):
            raise AssertionError("a checker read a table the searches share")

        monkeypatch.setattr(Graph, "nbr_masks", property(broken))
        assert [(f(h, good), f(h, bad)) for f, h, good, bad in cases] == before

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


def floor_graphs():
    """The graphs of the balanced-side tests, on 2 to 10 vertices."""
    graphs = [Graph(n) for n in (2, 3, 7)]
    # Floors of 2 on every balanced cut.
    graphs += [cycle(n) for n in range(6, 11)] + [grid(3, 3)]
    graphs += [subdivide_all_edges(complete(4)).graph]
    graphs += [random_cubic(n, seed) for n in (8, 10) for seed in range(3)]
    for seed in range(190):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        # Sparser at n >= 8, where the oracle's time grows as 2^m.
        p = rng.choice((0.2, 0.35, 0.5, 0.7)) if n < 8 else 0.2
        graphs.append(random_graph(n, p, seed))
    for seed in range(12):  # two random graphs side by side
        a, b = random_graph(4, 0.6, seed), random_graph(5, 0.5, seed + 12)
        graphs.append(Graph(9, [*a.edges, *((u + 4, v + 4) for u, v in b.edges)]))
    return graphs


def cut_values(g):
    """The cut value of every vertex set of g, by brute force, on demand."""
    full = (1 << g.n) - 1
    cut = {}

    def value(a):
        if a not in cut:
            cut[a] = cut[full ^ a] = brute_max_induced_matching(g, mask_to_set(a))
        return cut[a]

    return value


def child_masks(node):
    """The vertex masks (left, right) of the children of every internal
    node of the tree `node`."""
    pairs = []

    def mask(node):
        if node.__class__ is not tuple:
            return 1 << node
        pair = mask(node[0]), mask(node[1])
        pairs.append(pair)
        return pair[0] | pair[1]

    mask(node)
    return pairs


class TestBalancedFloor:
    def test_matches_brute_force(self):
        # With X = V and hi = floor(2n/3), the floor: None iff every
        # balanced side has an induced matching of t edges. A side and its
        # complement have the same value, so the sides that hold vertex 0
        # suffice. Then, on random X and for hi = floor(2|X|/3) and
        # |X| - 1: a returned Y is a side of X, with neither Y nor X - Y
        # above hi vertices, whose cut and that of X - Y, taken in G, both
        # stay below t, and None comes back iff no such side of X does.
        met = 0
        found = set()
        for index, g in enumerate(floor_graphs()):
            n = g.n
            full = (1 << n) - 1
            cs = solver._CutSolver(g)
            value = cut_values(g)
            hi = 2 * n // 3
            least = min(value(a) for a in range(1, 1 << n, 2) if n - hi <= a.bit_count() <= hi)
            for t in (1, 2, 3):
                got = solver._balanced_side(cs, full, t, hi)
                assert (got is None) == (least >= t), (g.edges, t)
                met += got is None and t > 1
            rng = random.Random(index)
            xs = [full] + [rng.randrange(3, 1 << n) for _ in range(2 if n > 2 else 0)]
            for x in (x for x in xs if x & (x - 1)):
                k = x.bit_count()
                subs = [y for y in range(1, x) if y & x == y]
                for t in (1, 2, 3):
                    ok = [y for y in subs if value(y) < t and value(x ^ y) < t]
                    for hi in (2 * k // 3, k - 1):
                        y = solver._balanced_side(cs, x, t, hi)
                        fits = [y for y in ok if k - hi <= y.bit_count() <= hi]
                        assert (y is None) == (not fits), (g.edges, x, t, hi)
                        assert y is None or y in fits, (g.edges, x, t, hi)
                        found.add((x != full, hi == k - 1, y is None))
        assert met  # some graphs have a floor above the trivial one
        assert found == set(itertools.product((False, True), repeat=3))

    def test_top_down_prefers_balanced_sides(self):
        # Every split that `_top_down` makes of a node X of more than 2t
        # vertices, other than V, is into two sides of cut value at most t:
        # a balanced one, neither part above floor(2|X|/3) vertices,
        # whenever X has such a side, and a proper one otherwise.
        kinds = set()
        for g in floor_graphs():
            cs = solver._CutSolver(g)
            w, _ = solver._merge_search(cs)
            value = cut_values(g)
            for t in range(1, w + 1):
                root = solver._balanced_side(cs, cs.full, t + 1, 2 * g.n // 3)
                down = root and solver._top_down(cs, t, root)
                if not down:
                    continue
                for y, z in child_masks(down.root):
                    x = y | z
                    k = x.bit_count()
                    if x == cs.full or k <= 2 * t:
                        continue
                    assert value(y) <= t and value(z) <= t, (g.edges, t, x)
                    want = any(
                        s & x == s
                        and k - 2 * k // 3 <= s.bit_count() <= 2 * k // 3
                        and value(s) <= t
                        and value(x ^ s) <= t
                        for s in range(1, x)
                    )
                    balanced = max(y.bit_count(), z.bit_count()) <= 2 * k // 3
                    assert balanced == want, (g.edges, t, x)
                    kinds.add(want)
        assert kinds == {False, True}


class TestArcTables:
    def test_cut_arcs_and_conflicts_match_brute_force(self):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6, 0.8)), seed)
            cs = solver._CutSolver(g)
            edges = cs.edges
            # Every arc's row, against every arc: a->b and c->d conflict
            # iff b ~ c or d ~ a, so a->b's own bit is set and b->a's not.
            ends = [(u, v)[::step] for u, v in edges for step in (1, -1)]
            assert len(cs.conf) == len(ends) == 2 * g.m
            for i, (a, b) in enumerate(ends):
                for j, (c, d) in enumerate(ends):
                    want = c in g.adj[b] or a in g.adj[d]
                    assert bool(cs.conf[i] >> j & 1) == want, (seed, i, j)
            for mask in range(1 << g.n):
                arcs = cs.cut_arcs(mask)
                ids = [i for i in range(2 * g.m) if arcs >> i & 1]
                ce = [edges[i >> 1] for i in ids]
                assert ce == cut_edge_list(g, mask_to_set(mask))
                cut_set = set(ce)
                for i in ids:
                    row = cs.conf[i]  # itself included
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
            edges = cs.edges
            for mask in range(1 << g.n):
                arcs = cs.cut_arcs(mask)
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
                        if solver._covered(bits, cs.conf, room):
                            pruned += 1
                            assert best <= room, (g.edges, mask, cand, room)
                    assert solver._covered(bits, cs.conf, len(cand))
        assert pruned


class TestDominatedBranches:
    def test_search_matches_reference(self):
        # The search skips a branch that the pivot's branch dominates, and
        # with t > 0 the cover at its root: the same list as the search
        # without either, for t = 0 up to the cut's value + 1, in at most
        # its nodes. At value + 1 it runs only where the cover by value
        # cliques fails, as in `_has_matching`, and both fall short.
        graphs = [
            random_graph(random.Random(seed).randint(4, 10), p, seed)
            for seed in range(60)
            for p in (0.3, 0.55)
        ]
        pruned = 0
        for g in graphs:
            cs = solver._CutSolver(g)
            for mask in range(1, 1 << g.n - 1):  # each cut once, by complement
                arcs = cs.cut_arcs(mask)
                want, _ = reference_search(cs, arcs)
                value = len(want)
                for t in range(value + 2):
                    if t > value and solver._covered(arcs, cs.conf, value):
                        continue
                    want, nodes = reference_search(cs, arcs, t)
                    before = cs.nodes
                    got = cs._search(arcs, t)
                    assert cs.nodes - before <= nodes, (g.edges, mask, t)
                    pruned += cs.nodes - before < nodes
                    assert got == want, (g.edges, mask, t)
                    assert (len(got) >= t) == (t <= value)
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
            for _ in range(3):  # three orders, a fresh solver each
                cs = solver._CutSolver(g)
                rng.shuffle(queries)
                for a, t in queries:
                    assert cs.at_least(a, t, cs.cut_arcs(a)) == (brute[a] >= t), (g.edges, a, t)
                for a, want in brute.items():
                    arcs = cs.cut_arcs(a)
                    assert cs.at_least(a, want, arcs) and not cs.at_least(a, want + 1, arcs)

    def test_up_to_two_edges_exact(self):
        # For t <= 2 the ladder decides without a search: any arc is one
        # edge, and two are an arc and an arc outside its conflict row.
        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        graphs += [random_graph(5 + seed % 3, p, seed) for seed in range(20) for p in (0.3, 0.5)]
        for g in graphs:
            cs = solver._CutSolver(g)
            for mask in range(1 << g.n):
                arcs = cs.cut_arcs(mask)
                value = brute_max_induced_matching(g, mask_to_set(mask))
                for t in range(3):
                    want = value >= t
                    assert solver._has_matching(cs, arcs, t) == want, (g.edges, mask, t)
                    assert solver._past_high_end(cs, arcs, t) == want, (g.edges, mask, t)
            assert cs.nodes == 0

    def test_work_does_not_depend_on_history(self):
        # One solver answers a list of queries, each asked twice and in
        # both orders, as a fresh solver per query does, in the sum of the
        # fresh solvers' branch-and-bound nodes: it keeps nothing per cut.
        searched = 0
        for seed in range(60):
            rng = random.Random(seed)
            g = random_graph(rng.randint(4, 12), 0.5, seed)
            queries = [
                (mask, t)
                for mask in rng.sample(range(1, 1 << g.n), 8)
                for t in range(1, g.n // 2 + 2)
            ]
            queries += queries[::-1]
            shared = solver._CutSolver(g)
            nodes = 0
            for mask, t in queries:
                fresh = solver._CutSolver(g)
                arcs = fresh.cut_arcs(mask)
                assert shared.at_least(mask, t, arcs) == fresh.at_least(mask, t, arcs), (
                    g.edges, mask, t
                )
                nodes += fresh.nodes
            assert shared.nodes == nodes, g.edges
            searched += nodes > 0
        assert searched > 20

    def test_first_fit_from_the_low_end(self):
        # The path 1-0-3-4-2, cut at A = {1, 2, 3}: every edge crosses.
        # The highest arc, 3->4, conflicts with every other arc, so first
        # fit from the top stops at one edge; from the bottom it takes
        # 1->0 and then 2->4, an induced matching of two, with no search.
        g = Graph(5, [(0, 1), (0, 3), (3, 4), (2, 4)])
        cs = solver._CutSolver(g)
        arcs = cs.cut_arcs(0b01110)
        top = arcs.bit_length() - 1
        assert not arcs & ~cs.conf[top]
        cs._search = None  # a search would fail here
        assert cs.at_least(0b01110, 2, arcs)
        assert cs.nodes == 0

    def test_search_when_first_fit_falls_short(self):
        # The path 6-0-5-4-1 and the edge 2-3, cut at A = {0, 2, 4}: every
        # edge crosses. First fit stops at two edges from both ends, and
        # two greedy cliques do not cover the arcs; the search finds
        # {06, 14, 23}, which is induced, by its greedy start, before any
        # branch-and-bound node. (At t <= 2 no search runs.)
        g = Graph(7, [(0, 5), (0, 6), (1, 4), (2, 3), (4, 5)])
        cs = solver._CutSolver(g)
        arcs = cs.cut_arcs(0b10101)
        for pick in (int.bit_length, lambda rest: (rest & -rest).bit_length()):
            rest, size = arcs, 0
            while rest:
                size += 1
                rest &= ~cs.conf[pick(rest) - 1]
            assert size == 2
        assert not solver._covered(arcs, cs.conf, 2)
        assert cs.at_least(0b10101, 3, arcs)
        assert cs.nodes == 0


class TestUpperWork:
    # Branch-and-bound nodes of mimw_upper; exact counts, so a change
    # that makes the search do more work fails here.
    @pytest.mark.parametrize(
        "make, nodes",
        [
            (lambda: build_subdivided_family(10, 0).graph, 9),
            (lambda: build_subdivided_family(14, 0).graph, 18),
            (lambda: complete_one_side(two_color(grid(5, 5)), "Y").result, 0),
        ],
        ids=["circle-cubic-10", "circle-cubic-14", "split-grid-5"],
    )
    def test_node_count(self, made_solvers, make, nodes):
        mimw_upper(make())
        (cs,) = made_solvers
        assert cs.nodes == nodes

    @pytest.mark.parametrize(
        "make, calls, by_masks",
        [
            (lambda: relabelled_path(120, 1), 5554, 1942),
            # No vertex of a subdivided cubic graph is dominated, so the
            # merge starts at w = 2 there.
            (lambda: build_subdivided_family(14, 0).graph, 689, 0),
        ],
        ids=["relabelled-path-120", "circle-cubic-14"],
    )
    def test_one_query_per_pair_and_width(self, make, calls, by_masks, past_high_end_asks):
        # The merge decides each (union, w) that its scan takes up once:
        # by first fit or the size bound inline, by `_past_high_end`, or,
        # for two vertices at w = 1, from the neighbour masks. The trace of
        # the scan's frames reads off every pair it takes up, so a union
        # decided twice shows whichever way it was.
        cs = solver._CutSolver(make())
        asked = past_high_end_asks
        scans = merge_scans(cs)
        pairs = [pair for taken, _ in scans for pair in taken]
        assert len(set(pairs)) == len(pairs) == cs.queries == calls
        assert len(set(asked)) == len(asked) and set(asked) < set(pairs)
        # The size bound is applied inline: the door sees only the rest.
        assert all(t <= min(m.bit_count(), cs.n - m.bit_count()) for m, t in asked)
        by_rule = [(mask, t) for mask, t in pairs if mask.bit_count() == 2 and t == 2]
        assert not set(by_rule) & set(asked)
        assert len(by_rule) == by_masks
        assert len(asked) + len(by_rule) < calls  # the rest were inline yeses

    # sha256 prefixes of report JSON, recorded also with the clique-cover
    # pruning off: pruning the cut search must not change a report byte.
    REPORTS = {
        (10, 0): "99b4ebf79767bb0f",
        (10, 1): "1c59699bb55c9752",
        (10, 2): "291565418604e2d8",
        (12, 0): "5b6dacc288003bc1",
        (12, 1): "48dca305d0e9ecb8",
        (12, 2): "7f8fdd845d4a486c",
        (14, 0): "9a3936778893542c",
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


def relabelled_k4():
    """The subdivided K4 relabelled so that the merge gives 3 on it."""
    k4 = subdivide_all_edges(complete(4)).graph
    perm = random.Random(0).sample(range(k4.n), k4.n)
    return Graph(k4.n, [(perm[u], perm[v]) for u, v in k4.edges])


class TestExactWork:
    # Branch-and-bound nodes and balanced-search placements of the whole
    # `mimw_exact`, exact counts: the floor alone on the grid, the floor
    # and the top-down tree on the relabelled subdivided K4.
    @pytest.mark.parametrize(
        "name, nodes, side_nodes",
        [("grid-3x4", 0, 126), ("relabelled-subdivided-K4", 0, 173)],
        ids=["grid-3x4", "relabelled-subdivided-K4"],
    )
    def test_bounds_work_counts(self, made_solvers, name, nodes, side_nodes):
        graphs = {**frontier_mimw_graphs(), "relabelled-subdivided-K4": relabelled_k4()}
        mimw_exact(graphs[name], limit=12)
        (cs,) = made_solvers
        assert (cs.nodes, cs.side_nodes) == (nodes, side_nodes)

    # The unions of good sets that the threshold step hands to
    # `_has_matching`, over all its t: each union once per t, and only
    # until the good sets reach V.
    @pytest.mark.parametrize(
        "n, seed, cut_tests", [(12, 2, 167), (10, 4, 525)], ids=["cubic-12-2", "cubic-10-4"]
    )
    def test_threshold_cut_tests(self, made_solvers, n, seed, cut_tests):
        mimw_exact(random_cubic(n, seed), limit=n)
        (cs,) = made_solvers
        assert cs.cut_tests == cut_tests


def solver_trees(g):
    """The roots that `_merge_search`, `_top_down` and `_threshold_tree`
    return on g, each from a fresh cut solver: the merge's w, a top-down
    tree at w from a balanced root side, and the threshold pass over
    1..w (skipped above 10 vertices). None where one gives no tree."""
    cs = solver._CutSolver(g)
    w, merged = solver._merge_search(cs)
    roots = {"merge": merged.root, "top-down": None, "threshold": None}
    if g.n < 3 or not w:
        return roots
    cs = solver._CutSolver(g)
    side = solver._balanced_side(cs, cs.full, w + 1, 2 * g.n // 3)
    down = solver._top_down(cs, w, side)
    roots["top-down"] = down and down.root
    if g.n <= 10:
        _, tree = solver._threshold_tree(solver._CutSolver(g), 1, w + 1)
        roots["threshold"] = tree.root
    return roots


class TestCanonicalTrees:
    # The solver wraps its trees without the canonical fold, so each one
    # must come out of the search canonical: the child with the lower
    # least leaf first at every node.
    def check(self, graphs):
        found = dict.fromkeys(("merge", "top-down", "threshold"), 0)
        for g in graphs:
            for how, root in solver_trees(g).items():
                if root is not None:
                    assert root == decomp._canon(root), (how, g.edges)
                    found[how] += 1
        return found

    def test_randoms(self):
        graphs = []
        for seed in range(120):
            rng = random.Random(seed)
            graphs.append(random_graph(rng.randint(2, 12), (1 + seed % 9) / 10, seed))
        assert all(self.check(graphs).values())

    def test_frontier(self):
        graphs = [*frontier_mimw_graphs().values(), relabelled_k4()]
        assert all(self.check(graphs).values())

    def test_circle_cubic(self):
        graphs = [build_subdivided_family(k, s).graph for k in (10, 12, 14) for s in range(3)]
        found = self.check(graphs)
        assert found["merge"] == 9 and found["top-down"]


def critical_cases():
    """(graph, search) pairs for the critical-cut oracle: seeded randoms
    under both searches (the exact one to n = 10), the frontier graphs
    under both, and circle-cubic k = 10..14 under the merge."""
    cases = []
    for seed in range(80):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 12), (1 + seed % 9) / 10, seed)
        cases.append((g, solver._merge_search))
        if g.n <= 10:
            cases.append((g, solver._bounded_search))
    for g in [*frontier_mimw_graphs().values(), relabelled_k4()]:
        cases += ((g, solver._merge_search), (g, solver._bounded_search))
    for k in (10, 12, 14):
        for s in range(3):
            cases.append((build_subdivided_family(k, s).graph, solver._merge_search))
    return cases


class TestCriticalCut:
    def test_matches_lexmin_oracle(self):
        # The mask walk picks the oracle's cut and puts the same questions
        # to the cut solver, so the node count matches too.
        checked = 0
        for g, search in critical_cases():
            walk, fold = solver._CutSolver(g), solver._CutSolver(g)
            value, tree = search(walk)
            assert search(fold) == (value, tree)
            if not value:
                continue
            assert solver._critical(walk, tree, value) == postorder_critical(fold, tree, value)
            assert walk.nodes == fold.nodes, g.edges
            checked += 1
        assert checked > 150

    def test_earlier_nodes_below_width(self):
        # Brute force: the critical side is the first subtree leaf set in
        # postorder whose cut has an induced matching of `value` edges.
        checked = 0
        for g, search in critical_cases():
            if g.n > 10:
                continue
            cs = solver._CutSolver(g)
            value, tree = search(cs)
            cut, matching = solver._critical(cs, tree, value)
            sides = subtree_leaf_sets(tree)
            first = sides.index(cut.a_side)
            assert all(brute_max_induced_matching(g, a, value) < value for a in sides[:first])
            assert len(matching.edges) == value
            assert check.verify_induced_matching(g, matching)
            checked += 1
        assert checked > 100

    def test_lexmin_side_on_any_tree(self):
        # At width 1 on a connected graph every cut but the root's has the
        # value, so the walk returns the least sorted side of all proper
        # subtrees, here over trees that no search built.
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 12)
            order = rng.sample(range(n), n)
            g = path(n)
            parts = [*order]
            while len(parts) > 1:
                i, j = sorted(rng.sample(range(len(parts)), 2))
                parts[i] = (parts[i], parts.pop(j))
            tree = decomp.BranchDecomposition(parts[0])
            cut, matching = solver._critical(solver._CutSolver(g), tree, 1)
            sides = [a for a in subtree_leaf_sets(tree) if len(a) < n]
            assert sorted(cut.a_side) == min(sorted(a) for a in sides), tree
            assert cut.a_side == matching.a_side

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

    # The sets the DP adds to its levels, summed over the k tried.
    @pytest.mark.parametrize(
        "make, limit, states",
        [
            (lambda: grid(4, 4), 16, 52),
            (lambda: grid(5, 5), 25, 1388),
            (lambda: build_subdivided_family(14, 0).graph, 16, 220),
            (lambda: random_cubic(20, 1), 20, 204),
        ],
        ids=["grid-4x4", "grid-5x5", "circle-cubic-14", "cubic-20-1"],
    )
    def test_dp_states(self, dp_states, make, limit, states):
        treewidth_exact(make(), limit=limit)
        assert sum(dp_states) == states

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
        # The threshold pass's good sets and cut keys count as two byte
        # tables: n = 9 fills a 1 KiB budget.
        monkeypatch.setattr(solver, "TABLE_BUDGET", 1 << 10)
        assert mimw_exact(Graph(9), limit=9).value == 0
        with pytest.raises(LimitExceeded):
            mimw_exact(Graph(10), limit=10)

    def test_bounds_first_on_randoms(self, threshold_passes):
        # Each of the three paths answers some of these graphs.
        paths = set()
        for seed in range(180):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 10), (1 + seed % 9) / 10, seed)
            paths.add(check_bounds_first(g, threshold_passes))
        assert paths == {"bounds", "top-down", "threshold"}

    @pytest.mark.parametrize(
        "name, path",
        [
            ("grid-3x4", "bounds"),
            ("split-grid-3x4", "bounds"),
            ("cocomp-grid-3x4", "bounds"),
            ("subdivided-K4", "bounds"),
            ("circle-cubic-4", "bounds"),
            # The merge gives 3 on this labelling, the balanced floor 2.
            ("relabelled-subdivided-K4", "top-down"),
        ],
    )
    def test_bounds_first_on_frontier(self, threshold_passes, name, path):
        graphs = frontier_mimw_graphs()
        graphs["relabelled-subdivided-K4"] = relabelled_k4()
        assert check_bounds_first(graphs[name], threshold_passes) == path

    # (n, seed) of random_cubic -> (floor L, merge w, t found), where the
    # top-down tree at L gets stuck: at 2 below the merge's 3, the pass
    # finds 2; with merge 4 and floor 2, it refutes 2 and finds 3; with
    # merge 2 = exact, it refutes 1 and the report is the merge's.
    THRESHOLD_PASSES = {(10, 4): (2, 3, 2), (12, 6): (2, 4, 3), (12, 2): (1, 2, None)}

    @pytest.mark.parametrize(
        "n, seed", THRESHOLD_PASSES, ids=["cubic-10-4", "cubic-12-6", "cubic-12-2"]
    )
    def test_threshold_pass(self, threshold_passes, n, seed):
        g = random_cubic(n, seed)
        assert check_bounds_first(g, threshold_passes) == "threshold"
        ((lo, hi, found),) = threshold_passes
        assert (lo, hi, found) == self.THRESHOLD_PASSES[n, seed]

    # Gap cases above the reach of `table_mimw` -> (floor L, merge w, t
    # found), pinned from a scan of all 2^n vertex sets, so the pins do not
    # depend on the closure. On the circle-cubic graph the pass refutes 3
    # and the merge's 4 is exact.
    PAST_THE_TABLE = {
        "cubic-16-1": (lambda: random_cubic(16, 1), (2, 4, 3)),
        "cubic-18-0": (lambda: random_cubic(18, 0), (2, 5, 3)),
        "circle-cubic-8-1": (lambda: build_subdivided_family(8, 1).graph, (3, 4, None)),
    }

    @pytest.mark.parametrize("name", PAST_THE_TABLE)
    def test_threshold_pass_past_the_table(self, threshold_passes, name):
        make, want = self.PAST_THE_TABLE[name]
        g = make()
        rep = mimw_exact(g, limit=g.n)
        ((lo, hi, found),) = threshold_passes
        assert (lo, hi, found) == want
        assert rep.value == (hi if found is None else found)
        validate(rep.decomposition, g)
        assert verify_induced_matching(g, rep.witness_matching)
        assert len(rep.witness_matching.edges) == rep.value
        if found is not None:
            # Every cut of the tree found is at most t, by the threshold
            # search alone, without the ladder of `_has_matching`.
            cs = solver._CutSolver(g)
            for a in subtree_leaf_sets(rep.decomposition):
                mask = set_to_mask(a)
                assert not search_at_least(cs, mask, found + 1, cs.cut_arcs(mask)), a

    def test_limit_applies_where_the_bounds_meet(self, made_solvers):
        # A path has width 1, so the bounds meet at once, but n = 12 is
        # still refused before any work.
        with pytest.raises(LimitExceeded):
            mimw_exact(path(12), limit=9)
        assert not made_solvers
        assert mimw_exact(path(12), limit=12).value == 1

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
        # mimw_exact vs. explicit enumeration of all decompositions
        for seed in range(8):
            g = random_graph(5, 0.5, seed)
            assert mimw_exact(g).value == brute_mimw(g)
        assert mimw_exact(cycle(6)).value == brute_mimw(cycle(6))
        # The threshold pass runs on this one and refutes width 1.
        g = random_graph(6, 0.6, 10)
        assert mimw_exact(g).value == brute_mimw(g) == 2

    def test_report_json_field_order(self):
        rep = mimw_exact(path(3))
        assert rep.to_json().startswith('{"value": 1, "mode": "exact", ')

    def test_reports_without_an_edge(self):
        # n <= 1 has no branch decomposition: every witness field is null.
        for n in (0, 1):
            for solve, mode in ((mimw_exact, "exact"), (mimw_upper, "upper")):
                assert json.loads(solve(Graph(n)).to_json()) == {
                    "value": 0,
                    "mode": mode,
                    "decomposition": None,
                    "critical_cut_a_side": None,
                    "matching_edges": None,
                }
        # An edgeless graph's first leaf, {0}, is its critical cut.
        for solve in (mimw_exact, mimw_upper):
            rep = json.loads(solve(Graph(3)).to_json())
            assert rep["value"] == 0
            assert rep["critical_cut_a_side"] == [0]
            assert rep["matching_edges"] == []


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

    def test_merge_keeps_part_sizes(self):
        # One vertex mask per part would take about n^2 / 16 bytes: 5.18 MiB
        # at n = 8192.
        g = parse_graph_text("graph 8192 0\n")
        tracemalloc.start()
        try:
            rep = mimw_upper(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert (rep.value, rep.critical_cut.a_side) == (0, {0})

    def test_relabelled_path_is_1(self):
        # The merge does not depend on a good vertex order: hill-climbed
        # caterpillars give width 26 on this labelling.
        assert mimw_upper(relabelled_path(100, 1)).value == 1

    def test_matches_rescan_oracle(self, monkeypatch):
        # The same reports as the full rescan over a cut solver without
        # first fit, in at most its branch-and-bound nodes.
        made = []

        class Recording(solver._CutSolver):
            def __init__(self, g):
                super().__init__(g)
                made.append(self)

        class SearchOnly(Recording):
            at_least = search_at_least

        rng = random.Random(16)
        graphs = [
            random_graph(rng.randint(2, 22), rng.uniform(0.08, 0.8), seed)
            for seed in range(280)
        ]
        graphs += [Graph(n) for n in (2, 3, 8)]
        for seed in range(8):  # two random graphs side by side
            a, b = random_graph(6, 0.5, seed), random_graph(7, 0.4, seed + 8)
            graphs.append(Graph(13, [*a.edges, *((u + 6, v + 6) for u, v in b.edges)]))
        graphs += [relabelled_path(n, n) for n in (5, 12, 25, 40, 60)]
        ours = theirs = 0
        for g in graphs:
            made.clear()
            monkeypatch.setattr(solver, "_CutSolver", SearchOnly)
            want = solver._width_report(g, "upper", rescan_merge).to_json()
            monkeypatch.setattr(solver, "_CutSolver", Recording)
            assert mimw_upper(g).to_json() == want, g.edges
            old, new = made
            assert new.nodes <= old.nodes, g.edges
            ours += new.nodes
            theirs += old.nodes
        assert ours < theirs  # first fit skips searches that the greedy missed

    def test_two_vertex_unions_match_brute_force(self, past_high_end_asks):
        # At w = 1 the merge decides a union of two vertices from the
        # neighbour masks, and its first question is {0, 1}, in the scan of
        # row 0, which returns part 1 iff the union fits. Relabelled so
        # that {u, v} comes first, each pair fits iff its cut has no
        # induced matching of two edges. Where no vertex is dominated (C5),
        # the merge starts at w = 2, so its first question is {0, 1} at
        # t = 3, and then no pair fits at w = 1.
        graphs = [Graph(5, [(0, 1)]), Graph(6, [(0, 1), (2, 3)]), path(3), path(4), cycle(5)]
        for seed in range(60):
            rng = random.Random(seed)
            graphs.append(random_graph(rng.randint(2, 9), rng.choice((0.2, 0.4, 0.6)), seed))
        seen = set()
        skipped = 0
        for g in graphs:
            if not g.m or g.n < 3:  # the merge starts at w = 0, or asks nothing
                continue
            for u, v in itertools.combinations(range(g.n), 2):
                label = {x: i for i, x in enumerate([u, v, *sorted(set(range(g.n)) - {u, v})])}
                cs = solver._CutSolver(Graph(g.n, [(label[a], label[b]) for a, b in g.edges]))
                asked = past_high_end_asks
                asked.clear()
                scans = merge_scans(cs)
                assert (0b11, 2) not in asked
                taken, q = next(scan for scan in scans if scan[0])
                value = brute_max_induced_matching(g, {u, v})
                if taken[0] == (0b11, 3):
                    assert value == 2, (g.edges, u, v)
                    skipped += 1
                    continue
                assert taken[0] == (0b11, 2)
                assert (q == 1) == (value <= 1), (g.edges, u, v)
                seen.add(value)
        assert seen == {0, 1, 2} and skipped

    def test_w1_skip_iff_no_two_vertices_fit(self):
        # The merge skips w = 1 iff no vertex is dominated, which is iff no
        # union of two vertices has a cut value of at most 1; it then takes
        # up no pair at t = 2.
        graphs = []
        for seed in range(300):
            rng = random.Random(seed)
            graphs.append(random_graph(rng.randint(3, 9), rng.choice((0.3, 0.4, 0.5)), seed))
        # Most cubic graphs of six or eight vertices have no dominated
        # vertex. A pendant vertex, at each label in turn, is dominated.
        for seed in range(10):
            graphs.append(random_cubic(6, seed))
            g = random_cubic(8, seed)
            graphs.append(g)
            for p in range(9):
                label = [v + (v >= p) for v in range(8)]
                edges = [(label[u], label[v]) for u, v in g.edges]
                graphs.append(Graph(9, [*edges, (p, (p + 1) % 9)]))
        fired = kept = 0
        for g in graphs:
            if not g.m:
                continue
            scans = merge_scans(solver._CutSolver(g))
            skipped = all(t > 2 for taken, _ in scans for _, t in taken)
            fits = any(
                brute_max_induced_matching(g, pair) <= 1
                for pair in itertools.combinations(range(g.n), 2)
            )
            assert skipped == (not fits), g.edges
            fired += skipped
            kept += not skipped
        assert fired and kept

    @pytest.mark.parametrize(
        "make",
        [
            lambda: cycle(5),
            lambda: PETERSEN,
            lambda: subdivide_all_edges(PETERSEN).graph,
            lambda: build_subdivided_family(8, 1).graph,
            lambda: build_subdivided_family(10, 0).graph,
        ],
        ids=["C5", "petersen", "subdivided-petersen", "circle-cubic-8", "circle-cubic-10"],
    )
    def test_w1_skip_matches_rescan(self, make):
        # Graphs with no dominated vertex: the merge that starts at w = 2
        # gives the full rescan's width and tree, which starts at w = 1.
        g = make()
        cs = solver._CutSolver(g)
        assert all(t > 2 for taken, _ in merge_scans(cs) for _, t in taken)
        assert solver._merge_search(cs) == rescan_merge(solver._CutSolver(g))

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

    def test_keeps_only_the_reached_sets(self):
        # Grid 5x6 leaves kernels of 26 and then 18 vertices, on which the
        # DP reaches 20,032 sets in all: no table over the 2^26 subsets.
        g = grid(5, 6)
        tracemalloc.start()
        try:
            rep = treewidth_exact(g, limit=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert rep.value == 5
        assert simulate_elimination(g, rep.elimination_order) == 5

    def test_keeps_one_vertex_per_reached_set(self):
        # Circle-cubic k = 20 (n = 50) leaves a kernel of 20 vertices. Its
        # levels keep one vertex per reached set and no width: an exact
        # f(S) per set and a separate map of choices peaked at 5.86 MiB.
        g = build_subdivided_family(20, 0).graph
        tracemalloc.start()
        try:
            rep = treewidth_exact(g, limit=27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 << 19
        assert rep.value == 5
        assert simulate_elimination(g, rep.elimination_order) == 5

    def test_order_follows_the_smallest_last_vertex(self, kernels):
        # No vertex reduces and tw = 5, so S* = {0, 2, 3, 5} (c = 4). At
        # {3, 5} both last vertices keep the width within 5, and only 5
        # attains f({3, 5}): a table of exact f(S) would start with 3.
        g = Graph(
            10,
            [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 7), (1, 8), (1, 9)]
            + [(2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (3, 4), (3, 5), (3, 9)]
            + [(4, 5), (4, 6), (4, 7), (4, 8), (5, 9), (6, 7), (6, 8), (8, 9)],
        )
        assert check_table_oracle(g, kernels) == "unreduced"
        assert treewidth_exact(g) == TreewidthReport(5, (5, 3, 2, 0, 1, 4, 6, 7, 8, 9))

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
        # At seed 196 (n = 9, tw = 6) the DP reaches a set of c = 2
        # vertices before the least one, which the order must start from.
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

    def test_kernel_of_k_plus_1_vertices_builds_no_level(self, kernels, dp_states):
        # A disjoint K6 raises low to 5; then the octahedron K_{2,2,2} or
        # K_{3,3}, where no vertex reduces, is left as the kernel. Its six
        # vertices need no level (c = 0) and close the order ascending.
        octahedron = [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        k6 = [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
        for core in (octahedron, k33):
            for seed in range(2):
                perm = random.Random(seed).sample(range(12), 12)
                g = Graph(12, [(perm[u], perm[v]) for u, v in core + k6])
                dp_states.clear()
                assert check_table_oracle(g, kernels) == "reduced"
                assert (kernels, dp_states) == ([6], [0])
                assert treewidth_exact(g).elimination_order[6:] == tuple(sorted(perm[:6]))

    def test_kernel_of_k_plus_2_vertices_builds_one_level(self, kernels, dp_states):
        # K_{1,2,2,2}, the octahedron with a vertex u joined to all six,
        # does not reduce and has tw = 5 = n - 2 (c = 1): level 1 holds
        # the six vertices of degree 5, and S* is the least of them.
        edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if v != u + 3 or u == 0]
        for seed in range(4):
            perm = random.Random(seed).sample(range(7), 7)
            g = Graph(7, [(perm[u], perm[v]) for u, v in edges])
            dp_states.clear()
            assert check_table_oracle(g, kernels) == "unreduced"
            assert dp_states == [6]
            first = min(set(range(7)) - {perm[0]})
            rest = tuple(v for v in range(7) if v != first)
            assert treewidth_exact(g).elimination_order == (first, *rest)

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
