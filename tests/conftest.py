"""Shared brute-force oracles, deliberately independent of the library's
solver code paths."""

import collections
import itertools
import random

import pytest


def cut_edge_list(g, a):
    a = set(a)
    return [e for e in sorted(g.edges) if (e[0] in a) != (e[1] in a)]


def brute_max_induced_matching(g, a, cap=None):
    """Exhaustive search over all subsets of cut edges, of at most `cap`
    edges if given."""
    ce = cut_edge_list(g, a)
    cut_set = set(ce)
    best = 0
    for r in range(len(ce) if cap is None else min(cap, len(ce)), 0, -1):
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


DEFAULT_ENUM_LIMIT = 9


def _insertions(node, leaf):
    # Attach `leaf` as sibling of every node (including the whole tree).
    yield (node, leaf)
    if isinstance(node, tuple):
        left, right = node
        for sub in _insertions(left, leaf):
            yield (sub, right)
        for sub in _insertions(right, leaf):
            yield (left, sub)


def enumerate_decompositions(n, limit=DEFAULT_ENUM_LIMIT):
    """Yield every rooted binary tree with leaves 0..n-1 exactly once.

    Generated by leaf insertion: leaf k can be attached at any of the
    2k-3 nodes of a tree on k-1 leaves, which realizes the (2n-3)!! count.
    """
    from mimlab.decomp import BranchDecomposition
    from mimlab.errors import InvalidParameter, LimitExceeded

    if n < 2:
        raise InvalidParameter("enumeration needs n >= 2")
    if n > limit:
        raise LimitExceeded(f"n={n} exceeds enumeration limit {limit}")

    def rec(k):
        if k == 2:
            yield (0, 1)
            return
        for t in rec(k - 1):
            yield from _insertions(t, k - 1)

    for root in rec(n):
        yield BranchDecomposition(root)


def caterpillar_from_order(order):
    """Left-deep decomposition whose spine leaf order equals `order`."""
    from mimlab.decomp import BranchDecomposition
    from mimlab.errors import InvalidParameter

    order = list(order)
    if len(order) < 2 or sorted(order) != list(range(len(order))):
        raise InvalidParameter(f"{order} is not a permutation of 0..n-1 with n >= 2")
    node = (order[0], order[1])
    for v in order[2:]:
        node = (node, v)
    return BranchDecomposition(node)


NodeCut = collections.namedtuple("NodeCut", "a_side cut_edges")


def cuts(t, g):
    """One NodeCut per tree node: its side and the edges leaving it
    (postorder; the root's is (V, ()))."""
    from mimlab.decomp import subtree_leaf_sets, validate

    validate(t, g)
    return [NodeCut(a, tuple(cut_edge_list(g, a))) for a in subtree_leaf_sets(t)]


def brute_mimw(g):
    """Min over explicitly enumerated decompositions of the max brute-force
    cut matching size."""
    from mimlab.decomp import subtree_leaf_sets

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


def table_mimw(g):
    """Exact mim-width report from the full subset DP: every split of
    every vertex set is scanned, and each set keeps its first minimum
    split."""
    from mimlab.decomp import BranchDecomposition
    from mimlab.solver import _width_report

    def _exact_search(cs):
        """f(S) = max(cutvalue(S), min over the splits T of S that hold
        its lowest vertex of max(f(T), f(S-T))), the least width of a
        subtree with leaf set S: f(V) and a decomposition attaining it."""
        full = cs.full
        cuts = {}  # min(S, V-S) -> the cut's maximum induced matching size

        def cut_value(s):
            key = min(s, full ^ s)
            if key not in cuts:
                cuts[key] = len(cs.matching(s, cs.cut_arcs(s)).edges)
            return cuts[key]

        # Every proper submask of s is smaller than s, so ascending order
        # solves both halves of each split before s itself.
        f = [0] * (full + 1)
        choice = [0] * (full + 1)
        for s in range(1, full + 1):
            low = s & -s
            rest = s ^ low
            if not rest:
                f[s] = cut_value(s)
                continue
            best = None
            best_t = None
            sub = rest
            while True:
                sub = (sub - 1) & rest
                t = low | sub
                inner = max(f[t], f[s ^ t])
                if best is None or inner < best:
                    best = inner
                    best_t = t
                if sub == 0:
                    break
            f[s] = max(cut_value(s), best)
            choice[s] = best_t

        # Tree nodes top-down, then built bottom-up, without recursion.
        sets = [full]
        for s in sets:
            if choice[s]:
                sets += (choice[s], s ^ choice[s])
        node = {}
        for s in reversed(sets):
            t = choice[s]
            node[s] = (node[t], node[s ^ t]) if t else s.bit_length() - 1
        return f[full], BranchDecomposition(node[full])

    return _width_report(g, "exact", _exact_search)


def rescan_merge(cs):
    """The merge upper bound of `mimlab.solver` as a full rescan: after
    every merge the pair scan restarts at (0, 1), and the cut solver
    answers again the pairs that failed before."""
    from mimlab.decomp import BranchDecomposition

    full = cs.full
    parts = [(1 << v, v) for v in range(cs.n)]  # (vertex mask, tree node)
    w = 1 if cs.g.m else 0
    while len(parts) > 1:
        for i, j in itertools.combinations(range(len(parts)), 2):
            union = parts[i][0] | parts[j][0]
            if union == full or not cs.at_least(union, w + 1, cs.cut_arcs(union)):
                parts[i] = (union, (parts[i][1], parts[j][1]))
                del parts[j]
                break
        else:
            w += 1
    return w, BranchDecomposition(parts[0][1])


def postorder_critical(cs, decomposition, width):
    """`solver._critical` by a fold of frozensets: the first subtree leaf
    set, in postorder, whose cut has an induced matching of `width`
    edges, with `at_least` asked of each set in turn."""
    from mimlab.decomp import Cut, subtree_leaf_sets
    from mimlab.graph import set_to_mask

    for a in subtree_leaf_sets(decomposition):
        mask = set_to_mask(a)
        if cs.at_least(mask, width, cs.cut_arcs(mask)):
            return Cut(a), cs.matching(mask, cs.cut_arcs(mask), width)


def search_at_least(self, mask, t, arcs):
    """`_CutSolver.at_least` without first fit: every query past the size
    bound runs the threshold search on the cut's arcs `arcs`."""
    k = mask.bit_count()
    # A matching uses distinct vertices on each side: at most min(k, n-k).
    if t > min(k, self.n - k):
        return False
    return len(self._search(arcs, t)) >= t


def reference_search(cs, arcs, t=0):
    """`_CutSolver._search` without its two shortcuts: it branches on every
    member of the pivot's closed conflict neighbourhood, dominated or not,
    and tests the clique cover at the root too. Returns (arc list, nodes)."""
    from mimlab.graph import _bits
    from mimlab.solver import _covered, _min_conflict

    m = arcs.bit_count()
    if m <= 1:
        return ([arcs.bit_length() - 1] if m else []), 0
    conf = cs.conf
    goal = t or m + 1
    cand = arcs
    best_set = []
    while cand and len(best_set) < goal:
        v = _min_conflict(cand, conf)
        best_set.append(v)
        cand &= ~conf[v]
    best_size = len(best_set)
    if best_size >= goal:
        return best_set, 0
    floor = max(best_size, t - 1)
    nodes = 0

    def rec(cand, cur, cur_size):
        nonlocal best_size, best_set, floor, nodes
        nodes += 1
        if cand == 0:
            if cur_size > best_size:
                best_size = cur_size
                best_set = list(cur)
                floor = m if cur_size >= goal else max(floor, cur_size)
            return
        if cur_size + cand.bit_count() <= floor or _covered(cand, conf, floor - cur_size):
            return
        pivot = _min_conflict(cand, conf)
        for u in [pivot, *_bits(conf[pivot] & cand ^ 1 << pivot)]:
            cur.append(u)
            rec(cand & ~conf[u], cur, cur_size + 1)
            cur.pop()

    rec(arcs, [], 0)
    return best_set, nodes


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
    The order is the chain back from S*, the least set of
    max(0, n - tw - 1) vertices with f(S*) <= tw, whose last vertex at
    each S is the smallest v with f(S - v) <= tw and q(S - v, v) <= tw,
    then the other vertices ascending."""
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

    def steps(s):  # v in s -> the width of eliminating s - v, then v
        return {v: max(f[s ^ 1 << v], q(s ^ 1 << v, v)) for v in range(n) if s >> v & 1}

    for s in range(1, full + 1):
        f[s] = min(steps(s).values())
    tw = f[full]
    top = min(s for s in range(full + 1) if s.bit_count() == max(0, n - tw - 1) and f[s] <= tw)
    order = []
    s = top
    while s:
        v = min(v for v, width in steps(s).items() if width <= tw)
        order.append(v)
        s ^= 1 << v
    order.reverse()
    order += (v for v in range(n) if not top >> v & 1)
    return TreewidthReport(tw, tuple(order))


def restart_tw_reduce(nbr, rest, low, order):
    """`solver._tw_reduce` by restarting its scan at the lowest remaining
    vertex after every elimination, so each step takes the lowest vertex
    that qualifies by testing every vertex below it again."""
    from mimlab.graph import _bits, _clique

    scan = rest
    while scan:
        bit = scan & -scan
        scan ^= bit
        v = bit.bit_length() - 1
        around = nbr[v]
        deg = around.bit_count()
        if not _clique(nbr, around):
            if deg > low:
                continue
            # Almost simplicial: some w of N(v) with N(v) - w a clique.
            if not any(_clique(nbr, around ^ 1 << w) for w in _bits(around)):
                continue
        elif deg > low:
            low = deg
        for u in _bits(around):
            nbr[u] = (nbr[u] | around) & ~(1 << u | bit)
        rest ^= bit
        order.append(v)
        scan = rest
    return rest, low


def reference_degeneracy(g):
    """Degeneracy by scanning the remaining vertices for the least degree,
    then the lowest index, at every step."""
    from mimlab.graph import DegeneracyResult

    remaining = set(range(g.n))
    deg = {v: len(g.adj[v]) for v in remaining}
    order = []
    d = 0
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        order.append(v)
        remaining.remove(v)
        for w in g.adj[v]:
            if w in remaining:
                deg[w] -= 1
    return DegeneracyResult(d, tuple(order))


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


def pair_scan_complement(g):
    """`graph.complement` by testing every vertex pair against the edge set."""
    from mimlab.graph import Graph

    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    ]
    return Graph(g.n, edges)


def pair_set_is_comparability(g):
    """`recognize.is_comparability` on sets of vertex pairs, as
    (verdict, certificate): each implication class is a pair set closed
    by a stack of forced arcs, every arc taken from the stack lists all
    the arcs it forces, and the orientation is the sorted union of the
    classes."""
    from mimlab.graph import _bits

    nbr = list(g.nbr_masks)
    orientation = []
    for u, v in sorted(g.edges):
        if not nbr[u] >> v & 1:
            continue
        cls = {(u, v)}
        todo = [(u, v)]
        while todo:
            a, b = todo.pop()
            # ab forces ac when bc is no remaining edge, and cb when ca is none.
            forced = [(a, c) for c in _bits(nbr[a] & ~nbr[b] & ~(1 << b))]
            forced += [(c, b) for c in _bits(nbr[b] & ~nbr[a] & ~(1 << a))]
            for x, y in forced:
                if (y, x) in cls:
                    return False, {"kind": "no_transitive_orientation"}
                if (x, y) not in cls:
                    cls.add((x, y))
                    todo.append((x, y))
        for a, b in cls:
            nbr[a] &= ~(1 << b)
            nbr[b] &= ~(1 << a)
        orientation += cls
    orientation.sort()
    return True, {"kind": "transitive_orientation", "orientation": [list(e) for e in orientation]}


def pair_set_is_co_comparability(g):
    """`recognize.is_co_comparability` from the two pair-set oracles."""
    verdict, cert = pair_set_is_comparability(pair_scan_complement(g))
    return verdict, dict(cert, kind="complement_" + cert["kind"])


def pair_set_transitive(g, orientation):
    """`check.verify_transitive_orientation` on a set of directed pairs:
    one direction per edge of g, and every directed 2-path a->b->c closed
    by a->c, looked up through a successor dict of sets."""
    from mimlab.check import _pairs

    directed = _pairs(g, orientation)
    if directed is None:
        return False
    directed = set(directed)
    if len(directed) != g.m or {(a, b) if a < b else (b, a) for a, b in directed} != g.edges:
        return False
    succ = {}
    for a, b in directed:
        succ.setdefault(a, set()).add(b)
    return all((a, c) in directed for a, b in directed for c in succ.get(b, ()))


def enumerate_cycles(g, min_len=3):
    """All simple cycles, each exactly once, as canonical vertex tuples:
    smallest vertex first and second entry smaller than last."""
    adj = [sorted(g.adj[v]) for v in range(g.n)]
    for s in range(g.n):
        path = [s]
        on_path = {s}

        def dfs(v):
            for w in adj[v]:
                if w == s and len(path) >= max(3, min_len) and path[1] < path[-1]:
                    yield tuple(path)
                elif w > s and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    yield from dfs(w)
                    on_path.remove(w)
                    path.pop()

        yield from dfs(s)


def brute_is_chordal(g):
    """Every cycle of length >= 4 has a chord, by enumerating every cycle."""
    from mimlab.recognize import cycle_chords

    return all(cycle_chords(g, c) for c in enumerate_cycles(g, min_len=4))


def brute_is_strongly_chordal(g):
    """Chordal, and every even cycle of length >= 6 has an odd chord, by
    enumerating every cycle."""
    from mimlab.recognize import has_odd_chord

    return brute_is_chordal(g) and all(
        has_odd_chord(g, c) for c in enumerate_cycles(g, min_len=6) if len(c) % 2 == 0
    )


def brute_is_chordal_bipartite(g):
    """Bipartite, and every cycle of length >= 6 has a chord, by enumerating
    every cycle."""
    from mimlab.errors import OddCycleFound
    from mimlab.graph import two_color
    from mimlab.recognize import cycle_chords

    try:
        two_color(g)
    except OddCycleFound:
        return False
    return all(cycle_chords(g, c) for c in enumerate_cycles(g, min_len=6))


def sweep_eliminate(nbr, rest, removable):
    """The deletion order of `recognize._eliminate` by full sweeps: sweep
    `rest` in ascending order, deleting each removable vertex, until a
    sweep deletes none. Returns the order and the stuck remainder."""
    from mimlab.graph import _bits

    order = []
    swept = True
    while swept:
        swept = False
        for v in _bits(rest):
            if removable(nbr, rest, v):
                rest ^= 1 << v
                order.append(v)
                swept = True
    return order, rest


def brute_is_simple(g, rest, v):
    """v is simple in the subgraph induced by the vertex set `rest`: every
    two closed neighbourhoods, within `rest`, of the vertices of N[v] in
    `rest` are nested, by comparing all pairs of sets."""
    hoods = [(g.adj[u] | {u}) & rest for u in (g.adj[v] | {v}) & rest]
    return all(a <= b or b <= a for a, b in itertools.combinations(hoods, 2))


def linear_sun_shrink(nbr, stuck):
    """`recognize._sun_cycle` with an elimination for every vertex: each
    vertex of the stuck set, in ascending order, is dropped where the rest
    still gets stuck, down to any size. Returns the sun's cycle."""
    from mimlab.graph import _bits
    from mimlab.recognize import _eliminate, _simple

    for v in _bits(stuck):
        if stuck >> v & 1:
            rest = _eliminate(nbr, stuck ^ 1 << v, _simple)[1]
            if rest:
                stuck = rest
    deg2 = sum(1 << v for v in _bits(stuck) if (nbr[v] & stuck).bit_count() == 2)
    cyc = []
    seen, prev, cur = 0, 0, stuck & -stuck
    while cur and not cur & seen:
        seen |= cur
        v = cur.bit_length() - 1
        cyc.append(v)
        links = nbr[v] & (stuck if deg2 & cur else deg2) & ~prev
        prev, cur = cur, links & -links
    return cyc


def seeded_graphs(count=3000, max_n=11, seed=47):
    """`count` random graphs, each with n drawn from 0..max_n and an edge
    density drawn from [0, 1)."""
    from mimlab.graph import Graph

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        p = rng.random()
        yield Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p])


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
