"""Shared brute-force oracles, deliberately independent of the library's
solver code paths."""

import itertools

import pytest


def cut_edge_list(g, a):
    a = set(a)
    return [e for e in sorted(g.edges) if (e[0] in a) != (e[1] in a)]


def brute_max_induced_matching(g, a):
    """Exhaustive search over all subsets of cut edges."""
    ce = cut_edge_list(g, a)
    cut_set = set(ce)
    best = 0
    for r in range(len(ce), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(ce, r):
            verts = [v for e in combo for v in e]
            if len(set(verts)) != len(verts):
                continue
            ok = True
            for e, f in itertools.combinations(combo, 2):
                for p in e:
                    for q in f:
                        if (min(p, q), max(p, q)) in cut_set:
                            ok = False
            if ok:
                best = r
                break
    return best


def brute_mimw(g):
    """Min over explicitly enumerated decompositions of the max brute-force
    cut matching size."""
    from mimlab.decomp import enumerate_decompositions, subtree_leaf_sets

    if g.n <= 1:
        return 0
    best = None
    for t in enumerate_decompositions(g.n):
        width = max(
            brute_max_induced_matching(g, a) for a in subtree_leaf_sets(t)
        )
        if best is None or width < best:
            best = width
    return best


def brute_treewidth(g):
    """Min over all elimination orders of the max fill-in degree."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        width = simulate_elimination(g, perm)
        if best is None or width < best:
            best = width
    return best if best is not None else 0


def table_treewidth(g):
    """Treewidth and witness order from the full table over all 2^n vertex
    sets: f(S) = min over v in S of max(f(S - v), q(S - v, v)), where
    q(T, v) counts the vertices outside T + v that v reaches through T.
    The smallest v wins ties."""
    from mimlab.solver import TreewidthReport

    n = g.n
    adj = [sum(1 << w for w in g.adj[v]) for v in range(n)]

    def around(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
        return out

    def q(t, v):
        reach = frontier = 1 << v
        while frontier:
            frontier = around(frontier) & t & ~reach
            reach |= frontier
        return (around(reach) & ~t & ~(1 << v)).bit_count()

    full = (1 << n) - 1
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        best = None
        for v in range(n):
            if s >> v & 1:
                val = max(f[s ^ 1 << v], q(s ^ 1 << v, v))
                if best is None or val < best:
                    best, choice[s] = val, v
        f[s] = best
    order = []
    s = full
    while s:
        order.append(choice[s])
        s ^= 1 << choice[s]
    return TreewidthReport(f[full], tuple(reversed(order)))


def simulate_elimination(g, order):
    """Max number of later neighbors while eliminating with fill-in."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    width = 0
    for v in order:
        nbrs = adj[v]
        width = max(width, len(nbrs))
        for u in nbrs:
            adj[u].discard(v)
            adj[u] |= nbrs - {u}
        del adj[v]
    return width


def brute_is_comparability(g):
    """Try all 2^m edge orientations."""
    edges = sorted(g.edges)
    for bits in range(1 << len(edges)):
        directed = set()
        for i, (u, v) in enumerate(edges):
            directed.add((u, v) if (bits >> i) & 1 else (v, u))
        ok = True
        for a, b in directed:
            for c in g.adj[b]:
                if c != a and (b, c) in directed and (a, c) not in directed:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def all_graphs(n):
    """Every labeled graph on n vertices."""
    from mimlab.graph import Graph

    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


@pytest.fixture
def three_sun():
    from mimlab.graph import Graph

    # Triangle 0,1,2 plus independent 3,4,5 each adjacent to two corners.
    return Graph(
        6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]
    )
