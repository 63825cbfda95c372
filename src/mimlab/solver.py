"""Exact induced matchings across cuts, mim-width, treewidth, and the
degeneracy-based lower bound.

The exact mim-width solver takes three steps. (1) The merge below gives
an upper bound w and a tree of that width, exact when a lower bound meets
w: w <= 1, since a graph with an edge has a leaf cut of value 1, or every
balanced cut has an induced matching of w edges (`_balanced_side`, whose
one bound caps both parts of a side). (2) On a gap, a top-down tree
(`_top_down`) at the largest such floor L < w has width L, exact, where
it completes. (3) Only where it gets stuck does the solver decide,
for t = L, L + 1, ..., w - 1, whether a decomposition of
width at most t exists (`_threshold_tree`). A vertex set S is good at t
when its cut has no induced matching of t + 1 edges and S is one vertex
or the union of two disjoint good sets. So S is good iff some rooted
binary tree with leaf set S has every subtree's cut at most t, and V is
good iff mimw <= t (the tests check the widths against a full subset DP
and explicit enumeration). The good sets grow from the singletons, by
trying the union of every pair of good sets found so far (after the
positive-instance-driven search of Tamaki, ESA 2017), so the step
visits only the good sets and the disjoint unions of two. The first t
that reaches V is exact, since L is a lower bound and every t below was
refuted; if none does, the merge's w is exact. It keeps one byte per
vertex set (union tested at t), within TABLE_BUDGET.

Each search builds its tree canonical (the child with the lower least
leaf first at every node), so the report wraps it without the fold of
`BranchDecomposition`. The report's critical cut is the first node, in
postorder, whose cut reaches the width; the decomposition's own fold
walks the tree's vertex masks to find it.

One per-graph cut solver serves both mim-width solvers. It keeps no
state per cut, so an answer and the work behind it do not depend on the
questions asked before. Its one query is the threshold "mim >= t?". A
side of k vertices answers no when t > min(k, n - k), since a matching
uses distinct vertices on each side; else one ladder of cut tests
(`_has_matching`) decides, each rung run once. First fit from the high
end (take the highest free arc, t times) answers yes. For t <= 2 the
answer is then exact: one edge is any arc, and two are an arc a and an
arc outside a's conflict row. Else first fit from the low end answers
yes, and a clique-cover bound answers no: it is the colouring bound of
Tomita and Seki applied to the complement, since the members of a clique
of the conflict graph pairwise conflict, so a cover by t - 1 cliques,
grown greedily, leaves room for t - 1 edges at most. Only where neither
answers does branch and bound over the conflict graph of the cut's edges
run. That search stops at the first matching of t edges and prunes, by
the same cover, every branch that cannot reach t; at its root it does
not test again the cover that just failed. It branches on the pivot and
those of its conflicting arcs u whose rows do not hold the pivot's whole
row within the candidates: a matching with such a u stays one with the
pivot in u's place, and the pivot's branch runs first (the domination
rule of Fomin, Grandoni and Kratsch, J. ACM 2009).

The upper bound is one bottom-up merge (`_merge_search`): from one part
per vertex, it joins the first pair of parts whose union has a cut value
of at most the current width w, and raises w by one only when no pair
fits. It asks only "mim >= w + 1?", and each union once per w: a pair
that failed fails again until w rises, so after a merge it asks only the
pairs with the new part and the rows of the scan not yet asked. The
parts live in parallel lists, and each row of the scan is one loop. Each
part carries the arcs leaving and entering it, so a union's cut arcs take
two mask operations, and the loop tries first fit from the high end on
them inline; only where it stops short of w + 1 edges does it apply the
size bound and then the rest of the ladder (`_past_high_end`). At w = 1
a union of two one-vertex parts {u, v} skips both: its cut has an induced
matching of two edges iff N(u) is not within N[v] and N(v) is not within
N[u], read off the neighbour masks. Where no vertex u has N(u) within
some N[v] (no vertex is dominated, as in every subdivided cubic graph),
every union at w = 1 fails, so the merge starts at w = 2. It is
deterministic: it takes no seed.

Each solver builds its own arc index: the sorted edges, each read as two
arcs, and per vertex the arcs leaving and entering it. A cut edge is an
arc from the side in the mask to the other side (`_CutSolver.cut_arcs`,
in sorted-edge order), and two arcs a->b and c->d conflict iff b ~ c or
d ~ a, whatever the cut. So the solver builds from the index, once per
graph, one conflict row per arc: the arcs entering a neighbour of a or
leaving a neighbour of b. Every test reads one row per arc it takes.
The 2m rows of 2m bits take m^2 / 2 bytes for m edges, more than the
O(n m) bits of per-vertex tables whose OR would give each row, but little
wherever the merge finishes: 882 bytes for the 42 edges of circle-cubic
k = 14 (n = 35), and 3 MB for the 2,430 edges of a G(100, 1/2), on which
the merge runs for minutes, since each of its questions works on masks of
2m bits too. The checker of the witness matchings,
`check.verify_induced_matching` (imported here), builds its cut from
`Graph.edges` and reads none of these tables.

Exact treewidth eliminates simplicial and almost-simplicial vertices
first, by the safe rules of Bodlaender, Koster and van den Eijkhof, and
runs its threshold search on the kernel that is left, keeping only the
vertex sets it reaches, each with the smallest last vertex that reaches
it, and no treewidth value per set; the limit and TABLE_BUDGET bound the
kernel, not the raw graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .check import _vertices, verify_induced_matching
from .decomp import BranchDecomposition, Cut, _fold
from .errors import InvalidParameter, LimitExceeded
from .graph import Graph, _bfs, _bits, _clique, degeneracy, mask_to_set, set_to_mask

DEFAULT_EXACT_LIMIT = 9
DEFAULT_TW_LIMIT = 16
# Two bytes per vertex set over all 2^n sets must fit: it bounds n for the
# closure's byte table and for the sets the treewidth DP may reach.
TABLE_BUDGET = 256 << 20


@dataclass(frozen=True)
class InducedMatching:
    """A set of cut edges that is an induced matching of G[A, A-bar]."""

    a_side: frozenset
    edges: tuple


@dataclass(frozen=True)
class WidthReport:
    value: int
    mode: str  # "exact" or "upper"
    decomposition: BranchDecomposition
    critical_cut: Cut
    witness_matching: InducedMatching

    def to_json(self):
        return json.dumps(
            {
                "value": self.value,
                "mode": self.mode,
                "decomposition": (
                    self.decomposition.to_text() if self.decomposition else None
                ),
                "critical_cut_a_side": (
                    sorted(self.critical_cut.a_side) if self.critical_cut else None
                ),
                "matching_edges": (
                    [list(e) for e in self.witness_matching.edges]
                    if self.witness_matching
                    else None
                ),
            }
        )


@dataclass(frozen=True)
class TreewidthReport:
    value: int
    elimination_order: tuple


@dataclass(frozen=True)
class Eq1Bound:
    """Lower bound tw / (3 (d+1)) on mim-width, as an exact rational."""

    ratio: Fraction
    integer_bound: int
    treewidth: int
    degeneracy: int


def _min_conflict(cand, conf):
    """Lowest index among the candidates with the fewest conflicts inside
    `cand` (a bitmask of arc indices)."""
    best = best_deg = None
    rest = cand
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        deg = (conf[i] & cand).bit_count()  # i itself included
        if deg == 1:
            return i
        if best is None or deg < best_deg:
            best, best_deg = i, deg
        rest ^= low
    return best


def _covered(cand, conf, room):
    """Whether greedy cliques of the conflict graph cover the candidates
    `cand` (a bitmask of arc indices) with at most `room` cliques. Each
    clique starts at the lowest candidate left and adds, lowest first, the
    candidates that conflict with every member so far. An induced matching
    holds at most one arc of a clique, so such a cover bounds it by `room`."""
    while cand:
        room -= 1
        if room < 0:
            return False
        low = cand & -cand
        pool = conf[low.bit_length() - 1] & cand  # the lowest itself included
        clique = 0
        while pool:
            b = pool & -pool
            clique |= b
            pool &= conf[b.bit_length() - 1]
            pool ^= b
        cand ^= clique
    return True


def _has_matching(cs, arcs, t):
    """Whether the arcs `arcs` (a bitmask of arc indices) of the cut solver
    `cs` hold an induced matching of t edges. The one ladder of cut tests:
    its first rung, first fit from the high end (take the highest free arc,
    t times), answers yes, and `_past_high_end` runs the rest."""
    conf = cs.conf
    rest = arcs
    left = t
    while rest:
        left -= 1
        if left <= 0:
            return True
        rest &= ~conf[rest.bit_length() - 1]
    return _past_high_end(cs, arcs, t)


def _past_high_end(cs, arcs, t):
    """`_has_matching` on arcs where first fit from the high end took
    fewer than t: the rungs after it. For t <= 2 the answer is exact at
    once: a matching of two edges is an arc a and an arc outside a's
    conflict row (which holds a). Else first fit from the low end answers
    yes, a cover by t - 1 greedy cliques (`_covered`) answers no, and only
    where neither does the threshold search runs."""
    conf = cs.conf
    if t <= 2:
        if t < 2:
            return t <= 0 or arcs != 0
        rest = arcs
        while rest:
            a = rest.bit_length() - 1
            if arcs & ~conf[a]:
                return True
            rest ^= 1 << a
        return False
    rest = arcs
    left = t
    while rest:
        left -= 1
        if not left:
            return True
        rest &= ~conf[(rest & -rest).bit_length() - 1]
    return not _covered(arcs, conf, t - 1) and len(cs._search(arcs, t)) >= t


class _CutSolver:
    """Per-graph solver for threshold queries on cut mim-values. `edges`,
    `tail` and `head` are its arc index, and `conf` holds one conflict row
    per arc: the arcs that cannot share an induced matching with it,
    whatever the cut. It keeps nothing per cut; its other fields are work
    counters. `nodes` counts the branch-and-bound
    nodes of every search it ran: a dominated branch is never entered, so
    it adds none, and a search prunes a node whose candidates have a
    greedy clique cover (`_covered`) too small to beat its floor.
    `side_nodes` counts the placements that `_balanced_side` visited.
    `queries` counts the (union, w) that the scans of `_merge_search`
    decided, inline, by the neighbour masks or by the cut solver; a w = 1
    that the merge skips adds none. `cut_tests` counts the unions of good
    sets that `_threshold_tree` handed to `_has_matching`."""

    def __init__(self, g: Graph):
        self.g = g
        n = self.n = g.n
        self.full = (1 << n) - 1
        self.nodes = 0
        self.side_nodes = 0
        self.queries = 0
        self.cut_tests = 0
        # Arc 2j + r is sorted edge j = (u, v) leaving u (r = 0) or v
        # (r = 1); tail[v] and head[v] are the bitmasks of the arcs leaving
        # and entering vertex v.
        self.edges = tuple(sorted(g.edges))
        tail = [0] * n
        head = [0] * n
        for j, (u, v) in enumerate(self.edges):
            tail[u] |= 1 << 2 * j
            head[v] |= 1 << 2 * j
            tail[v] |= 2 << 2 * j
            head[u] |= 2 << 2 * j
        self.tail, self.head = tuple(tail), tuple(head)
        # Crossing arcs a->b and c->d conflict iff b ~ c or d ~ a; a shared
        # end is one such adjacency. So arc a->b conflicts, whatever the
        # cut, with the arcs entering a neighbour of a or leaving a
        # neighbour of b (itself included).
        heads_near = [0] * n  # vertex -> the arcs entering its neighbours
        tails_near = [0] * n  # vertex -> the arcs leaving its neighbours
        for u, v in self.edges:
            heads_near[u] |= head[v]
            heads_near[v] |= head[u]
            tails_near[u] |= tail[v]
            tails_near[v] |= tail[u]
        conf = []  # arc -> its conflict row
        for u, v in self.edges:  # arcs u->v and v->u
            conf += (heads_near[u] | tails_near[v], heads_near[v] | tails_near[u])
        self.conf = conf

    def cut_arcs(self, mask):
        """Bitmask of the arcs from the vertex set `mask` to the rest, by
        one walk over `mask`: the arcs leaving it and not entering it."""
        leave = enter = 0
        for v in _bits(mask):
            leave |= self.tail[v]
            enter |= self.head[v]
        return leave & ~enter

    def at_least(self, mask, t, arcs):
        """Whether the cut at `mask`, whose arcs are `arcs` (`cut_arcs`),
        has an induced matching of t edges. Past the size bound,
        `_has_matching` decides."""
        # A matching uses distinct vertices on each side: at most min(k, n-k).
        k = mask.bit_count()
        if t > k or t > self.n - k:
            return False
        return _has_matching(self, arcs, t)

    def matching(self, mask, arcs, t=0) -> InducedMatching:
        """An induced matching among the edges leaving `mask`, whose arcs
        are `arcs` (`cut_arcs`), its edges in sorted order, from `_search`
        with threshold t: a maximum one with t = 0, and with t > 0 the
        first one of t edges, which is a maximum one where t is the cut's
        value."""
        edges = self.edges
        arcs = sorted(self._search(arcs, t))
        return InducedMatching(mask_to_set(mask), tuple(edges[i >> 1] for i in arcs))

    def _search(self, arcs, t=0):
        """An induced matching among the cut arcs `arcs` (a bitmask of arc
        indices), as a list of arc indices, by branch-and-bound maximum
        independent set on their conflict graph. With t = 0 it is a
        maximum one. With t > 0 the search stops at the first one of t
        edges and prunes every branch that cannot reach t, so a smaller
        result proves only that the maximum is < t. With t > 0 the caller
        has seen t - 1 greedy cliques fail to cover `arcs` (`_has_matching`
        did, and a cut of value t must), so the root does not test that
        cover. A node branches on its min-conflict pivot and on each
        conflicting u whose row does not hold all of the pivot's: where it
        does, a matching with u stays one with the pivot in u's place, and
        the pivot's branch, which runs first, reaches every size that the
        floor admits. So the first t-matching, and a maximum one, are those
        that the search without the rule finds."""
        m = arcs.bit_count()
        if m <= 1:
            return [arcs.bit_length() - 1] if m else []
        conf = self.conf

        goal = t or m + 1  # the search stops once it holds this many edges
        # Greedy initial solution: repeatedly take a min-conflict edge.
        cand = arcs
        greedy = []
        while cand and len(greedy) < goal:
            v = _min_conflict(cand, conf)
            greedy.append(v)
            cand &= ~conf[v]
        best_size = len(greedy)
        best_set = greedy
        if best_size >= goal:
            return best_set
        floor = max(best_size, t - 1)  # prune what cannot exceed this
        nodes = 0

        def rec(cand, cur, cur_size):
            nonlocal best_size, best_set, floor, nodes
            nodes += 1
            if cand == 0:
                if cur_size > best_size:
                    best_size = cur_size
                    best_set = list(cur)
                    # At the goal, floor m prunes every remaining branch.
                    floor = m if cur_size >= goal else max(floor, cur_size)
                return
            if cur_size + cand.bit_count() <= floor:
                return
            # With t > 0 the root's cover is the one the caller saw fail.
            if (cur or not t) and _covered(cand, conf, floor - cur_size):
                return
            # Min-degree pivot: some optimal solution contains a member of
            # its closed conflict neighborhood, so branch only over those,
            # but not over a u whose row holds that whole neighborhood.
            pivot = _min_conflict(cand, conf)
            near = conf[pivot] & cand
            options = [pivot]
            branch = near ^ (1 << pivot)
            while branch:
                low = branch & -branch
                u = low.bit_length() - 1
                if near & ~conf[u]:
                    options.append(u)
                branch ^= low
            for u in options:
                cur.append(u)
                rec(cand & ~conf[u], cur, cur_size + 1)
                cur.pop()

        rec(arcs, [], 0)
        self.nodes += nodes
        return best_set


def max_induced_matching_cut(g: Graph, a) -> InducedMatching:
    """Maximum induced matching of the bipartite cut graph G[A, A-bar].
    Raises InvalidParameter if A has a vertex that is not an int in 0..n-1."""
    side = _vertices(g, a)
    if side is None:
        raise InvalidParameter(f"side {a!r} has a vertex that is not an int in [0,{g.n})")
    cs, mask = _CutSolver(g), set_to_mask(side)
    return cs.matching(mask, cs.cut_arcs(mask))


def _critical(cs, decomposition, width):
    """Locate a cut of mim-value `width`, the decomposition's width: the
    first node, in postorder, whose cut has an induced matching of `width`
    edges. The decomposition's fold carries each node's vertex mask and the
    arcs leaving and entering its vertices, so `at_least` gets the cut's
    arcs at once. Some node reaches the width, since every search returns
    a tree whose width is its value: the merge attains its w, and the trees
    of the top-down step and of the closure have width t, which is exact.
    At width 0 the first leaf, {0}, answers with an empty matching."""
    tail, head = cs.tail, cs.head
    nodes = _fold(
        decomposition.root,
        lambda v: (1 << v, tail[v], head[v]),
        lambda a, b: (a[0] | b[0], a[1] | b[1], a[2] | b[2]),
    )
    for mask, out, into in nodes:
        arcs = out & ~into
        if cs.at_least(mask, width, arcs):
            matching = cs.matching(mask, arcs, width)  # the tree bounds the cut by width
            return Cut(matching.a_side), matching


def _check_limit(n, limit, what):
    """Refuse n above the limit, and, whatever the limit, any n whose 2^n
    vertex sets at two bytes each exceed TABLE_BUDGET (n >= 28 at
    256 MiB). `mimw_exact`'s threshold step keeps a byte per vertex set
    (the unions it tested). The treewidth search keeps only the sets it
    reaches, each with one vertex, but may reach up to 2^n of them, and
    its time grows with them, so it is held to the same bound."""
    if n > limit:
        raise LimitExceeded(f"n={n} exceeds {what} limit {limit}")
    if 2 << n > TABLE_BUDGET:
        raise LimitExceeded(
            f"n={n}: 2^{n} vertex sets at 2 bytes each exceed "
            f"{TABLE_BUDGET >> 20} MiB"
        )


def _width_report(g, mode, search) -> WidthReport:
    """Report `search(cs)` -> (width, decomposition) with its
    critical cut, under the n <= 1 convention of `mimw_exact`."""
    if g.n <= 1:
        return WidthReport(0, mode, None, None, None)
    cs = _CutSolver(g)
    value, t = search(cs)
    cut, matching = _critical(cs, t, value)
    return WidthReport(value, mode, t, cut, matching)


def _tree(full, split):
    """The decomposition that splits each node set s of two or more
    vertices, from V down, into split(s) and s - split(s), built bottom-up
    without recursion; None as soon as a split(s) is None. The half that
    holds the lowest vertex of s comes first, so the tree is canonical as
    built."""
    sets = [full]
    halves = {}
    for s in sets:
        if s & (s - 1):
            y = halves[s] = split(s)
            if y is None:
                return None
            sets += (y, s ^ y)
    node = {}
    for s in reversed(sets):
        y = halves.get(s)
        if not y:
            node[s] = s.bit_length() - 1
        elif y & s & -s:
            node[s] = (node[y], node[s ^ y])
        else:
            node[s] = (node[s ^ y], node[y])
    return BranchDecomposition._canonical(node[full])


def _balanced_side(cs, x, t, hi):
    """The first side Y of the vertex set X, with neither Y nor X - Y
    above hi vertices, such that neither the cut of Y nor that of X - Y
    (each taken in G) has an induced matching of t edges, or None if there
    is none.

    With X = V and hi = floor(2n/3), None proves mimw >= t: every branch
    decomposition has an edge with a balanced cut, of ceil(n/3) to
    floor(2n/3) vertices on each side (from the root, step into the larger
    subtree while it has more than 2n/3 leaves; the last one has more than
    n/3), and then the two cuts are one.

    A depth-first search places the vertices of X in BFS order on side Y
    or side X - Y, the first one on Y and neither side above hi, with
    V - X on the far side of both. It carries the arcs leaving and
    entering each side's placed vertices. Arcs leaving one side and
    entering the other or V - X cross every cut that completes the
    placement, and arc conflicts do not depend on the cut. So once those
    decided arcs hold an induced matching of t edges, the branch closes.
    The test (`opens`) asks `_has_matching`. The first complete placement
    left open is the answer. `side_nodes` counts the placements visited."""
    tail, head = cs.tail, cs.head
    conf = cs.conf
    far = 0  # the arcs entering V - X
    for v in _bits(cs.full ^ x):
        far |= head[v]
    both = x != cs.full  # with X = V, the two cuts are one

    def opens(old, new):
        """Whether the decided arcs `new` have no induced matching of t
        edges, given that their subset `old` has none: one would hold an
        arc of new - old and t - 1 arcs that conflict with none of it."""
        fresh = new & ~old
        while fresh:
            a = fresh.bit_length() - 1
            fresh ^= 1 << a
            if _has_matching(cs, new & ~conf[a], t - 1):
                return False
        return True

    order = _bfs(cs.g.nbr_masks, x, _bits(x))[0]
    size = len(order)
    # (vertices placed, Y so far, its size, arcs leaving and entering Y,
    # arcs leaving and entering X - Y); V - X enters both
    stack = [(0, 0, 0, 0, far, 0, far)]
    nodes = 0
    while stack:
        i, y, k, out_y, in_y, out_z, in_z = stack.pop()
        nodes += 1
        if i == size:
            cs.side_nodes += nodes
            return y
        v = order[i]
        cut_y = out_y & in_z
        cut_z = out_z & in_y
        # v on X - Y, which the first vertex never joins, or else on Y
        if k and i - k < hi and opens(cut_y, out_y & (in_z | head[v])) and (
            not both or opens(cut_z, (out_z | tail[v]) & in_y)
        ):
            stack.append((i + 1, y, k, out_y, in_y, out_z | tail[v], in_z | head[v]))
        if k < hi and opens(cut_y, (out_y | tail[v]) & in_z) and (
            not both or opens(cut_z, out_z & (in_y | head[v]))
        ):
            stack.append(
                (i + 1, y | 1 << v, k + 1, out_y | tail[v], in_y | head[v], out_z, in_z)
            )
    cs.side_nodes += nodes
    return None


def _top_down(cs, t, root):
    """A decomposition of width at most t whose root splits V into `root`
    and V - root, both of cut value at most t, or None. It splits every
    other node X greedily, without backtracking, by `_balanced_side` for
    t + 1: the first balanced side of X (neither part above floor(2|X|/3)
    vertices), and only where there is none, the first proper side (a
    second walk with the bound |X| - 1). A node of at most 2t vertices
    halves without a search, since a side of at most t vertices has a cut
    value of at most t. A node with no split gives None."""

    def split(s):
        if s == cs.full:
            return root
        k = s.bit_count()
        if k <= 2 * t:
            for _ in range(k - k // 2):
                s &= s - 1  # drop the lowest vertex
            return s
        side = _balanced_side(cs, s, t + 1, 2 * k // 3)
        return side or _balanced_side(cs, s, t + 1, k - 1)

    return _tree(cs.full, split)


def _threshold_tree(cs, lo, hi):
    """(t, tree) for the least t in lo..hi-1 at which V is good (module
    docstring), with a tree of width at most t; None if there is no such t.

    At each t the good sets grow from the singletons (good, as lo >= 1),
    in parallel lists of vertex masks and of the arcs leaving and entering
    each set. A walk over the list, which grows behind it, pairs each set
    with every set before it, so every pair of good sets meets once. A
    disjoint union is tested once per t (`seen`, one byte per vertex set):
    a side of min(k, n - k) <= t vertices is at most t, by the size bound
    of `at_least`, and otherwise `_has_matching` asks for t + 1 edges on
    the union's arcs; `cs.cut_tests` counts those asks. A union kept
    records one of its halves, and V is good as soon as a kept union's
    complement is good too; the tree of V is built from the halves."""
    n, full = cs.n, cs.full
    tail, head = cs.tail, cs.head
    for t in range(lo, hi):
        masks = [1 << v for v in range(n)]
        outs, ins = list(tail), list(head)
        seen = bytearray(full + 1)
        half = dict.fromkeys(masks, 0)  # good set -> one of its halves
        for i, s in enumerate(masks):
            out, into = outs[i], ins[i]
            for j in range(i):
                u = masks[j]
                if s & u or seen[s | u]:
                    continue
                union = s | u
                seen[union] = 1
                k = union.bit_count()
                if k > t and n - k > t:
                    cs.cut_tests += 1
                    if _has_matching(cs, (out | outs[j]) & ~(into | ins[j]), t + 1):
                        continue
                half[union] = u
                if full ^ union in half:
                    half[full] = union
                if full in half:
                    return t, _tree(full, half.get)
                masks.append(union)
                outs.append(out | outs[j])
                ins.append(into | ins[j])
    return None


def _bounded_search(cs):
    """(width, tree) in the three steps of `mimw_exact`. A graph with an
    edge has mimw >= 1, as a leaf cut at an end of that edge has value 1,
    and the merge starts at w = 1 exactly then."""
    w, tree = _merge_search(cs)
    root = None
    t = w
    # t falls to the floor L; root is a balanced side of cut value <= L.
    while t > 1:
        side = _balanced_side(cs, cs.full, t, 2 * cs.n // 3)
        if side is None:
            break
        root, t = side, t - 1
    if root is None:
        return w, tree
    down = _top_down(cs, t, root)
    if down:
        return t, down
    return _threshold_tree(cs, t, w) or (w, tree)


def mimw_exact(g: Graph, limit=DEFAULT_EXACT_LIMIT) -> WidthReport:
    """Exact mim-width with a witness decomposition and critical cut.

    Three steps. The merge of `_merge_search` gives an upper bound w and
    its tree, the answer when w <= 1 or when every balanced cut has an
    induced matching of w edges. Else L < w is the largest t, at least 1,
    that every balanced cut reaches, and a tree of width L that
    `_top_down` finds is the answer. Only where it finds none does
    `_threshold_tree` decide t = L, ..., w - 1 in turn, by growing the
    good sets from the singletons: the tree of the first t whose good
    sets reach V is the answer, and with none the merge's tree is.

    Convention: graphs with n <= 1 have no branch decomposition and get
    width 0 with an empty witness (from `mimw_upper` too).
    """
    # The threshold step's byte per vertex set, within the budget of two
    # bytes per set. The limit applies whether or not it runs.
    _check_limit(g.n, limit, "exact mim-width")
    return _width_report(g, "exact", _bounded_search)


def _merge_search(cs):
    """A bottom-up threshold merge: (w, a decomposition of width w). It
    starts from one part per vertex, in vertex order, and w = 1 if the
    graph has an edge, else 0; a singleton's cut value is min(1, deg).
    It merges the first pair of parts i < j whose union is V or has a cut
    value of at most w, in slot i, and raises w by one when no pair fits.
    w rises only when every union is above the old w, so the next merge
    has a value of exactly w: the width is attained.

    A pair that failed at w fails again until w rises, so the scan asks
    each (union, w) once. The scan stops only at a pair that fits, and
    the part of that row then becomes the union, so every row, a part
    against the parts after it, has either failed throughout at w
    (`done`) or is not yet asked. Every part before the slot i of the
    last merge has failed against every part but the new one. So the
    first pair that fits is a pair (a, i), else is in row i or in the
    first later row not done. Two parts left have the union V and merge
    without a question.

    The parts live in parallel lists (sizes, tree nodes, and the OR of
    `tail` and of `head` over their vertices), so a union's cut
    arcs take two big-int operations, and each row is one loop. It runs
    first fit from the high end inline on the union's arcs, one conflict
    row per arc taken; only where that stops short of w + 1 edges does it
    apply the size bound of `at_least` and then `_past_high_end`, the rest
    of the ladder. At w = 1 a union of two one-vertex parts {u, v} is
    decided from the neighbour masks instead: its cut has an induced
    matching of two edges iff N(u) is not within N[v] and N(v) is not
    within N[u] (an edge ux with x not adjacent to v and an edge vy with y
    not adjacent to u). So where no vertex u has N(u) within some N[v],
    every union at w = 1 fails, and the merge starts at w = 2 with the
    state it would reach there. `cs.queries` counts the (union, w) that
    its scans decide, every way included."""
    n, past_high_end, conf = cs.n, _past_high_end, cs.conf
    nbr = cs.g.nbr_masks
    tail, head = cs.tail, cs.head
    sizes = [1] * n
    nodes = list(range(n))  # a one-vertex part's node is its vertex
    outs, ins = list(tail), list(head)  # the arcs leaving and entering a part
    done = [False] * n
    w = 1 if cs.g.m else 0
    if w:
        # N(u) is within N[v] iff v is in N[x] for every x in N(u).
        for u in range(n):
            common = cs.full
            for x in _bits(nbr[u]):
                common &= nbr[x] | 1 << x
            if common & ~(1 << u):
                break
        else:
            w = 2
    new = 0  # the slot of the last merge; 0 after w rises

    def scan(p, start, stop):
        """The first part q in start..stop-1 whose union with part p fits
        at w, or None."""
        kp, out, into = sizes[p], outs[p], ins[p]
        t = w + 1
        # At w = 1 a one-vertex p meets the other one-vertex parts by masks.
        single = t == 2 and kp == 1
        if single:
            nu = nbr[nodes[p]]
            closed = nu | 1 << nodes[p]
        q = start
        while q < stop:
            if single and sizes[q] == 1:
                nv = nbr[nodes[q]]
                if not (nu & ~(nv | 1 << nodes[q]) and nv & ~closed):
                    break
            else:
                arcs = rest = (out | outs[q]) & ~(into | ins[q])
                left = t  # first fit from the high end: t arcs taken are a yes
                while rest:
                    left -= 1
                    if not left:
                        break
                    rest &= ~conf[rest.bit_length() - 1]
                else:
                    k = kp + sizes[q]  # the size bound of `at_least`
                    if t > k or t > n - k or not past_high_end(cs, arcs, t):
                        break
            q += 1
        if q < stop:
            cs.queries += q - start + 1
            return q
        cs.queries += stop - start
        return None

    while len(sizes) > 2:
        i = scan(new, 0, new)  # the pairs (a, new) of the last merge
        if i is not None:
            j = new
        else:
            for i in range(new, len(sizes)):
                if not done[i]:
                    done[i] = True
                    j = scan(i, i + 1, len(sizes))
                    if j is not None:
                        break
            else:
                w += 1
                done = [False] * len(sizes)
                new = 0
                continue
        sizes[i] += sizes[j]
        nodes[i] = (nodes[i], nodes[j])
        outs[i] |= outs[j]
        ins[i] |= ins[j]
        del sizes[j], nodes[j], outs[j], ins[j], done[j]
        done[i] = False
        new = i
    root = (nodes[0], nodes[1]) if len(nodes) == 2 else nodes[0]  # union V
    # Slots stay in lowest-vertex order and a merge keeps the lower slot
    # first, so the tree is canonical as built.
    return w, BranchDecomposition._canonical(root)


def mimw_upper(g: Graph) -> WidthReport:
    """Heuristic upper bound with a witness decomposition and critical
    cut, from the deterministic threshold merge of `_merge_search`."""
    return _width_report(g, "upper", _merge_search)


def _tw_family(nbr, rest, k):
    """The levels of the threshold search at k on the kernel `rest` of n'
    vertices, whose neighbour masks `nbr` lie inside it, for f and q as in
    `treewidth_exact`. Level i maps each set S of i kernel vertices with
    f(S) <= k to the smallest v in S such that S - v is in level i - 1 and
    q(S - v, v) <= k; level 0 maps the empty set to None. The levels stop
    at size c = max(0, n' - k - 1), or after the first empty level, which
    proves tw > k."""
    cmask = [0] * len(nbr)  # vertex of T -> its component of G[T]
    cnbr = [0] * len(nbr)  # vertex of T -> the neighbours of that component
    levels = [{0: None}]
    for _ in range(rest.bit_count() - k - 1):
        nxt = {}
        for t in levels[-1]:
            # The components of G[T], each with the neighbours of its vertices.
            left = t
            while left:
                comp = frontier = left & -left
                around = 0
                while frontier:
                    grow = 0
                    while frontier:
                        low = frontier & -frontier
                        grow |= nbr[low.bit_length() - 1]
                        frontier ^= low
                    around |= grow
                    frontier = grow & left & ~comp
                    comp |= frontier
                left ^= comp
                c = comp
                while c:
                    low = c & -c
                    u = low.bit_length() - 1
                    cmask[u] = comp
                    cnbr[u] = around
                    c ^= low
            out = rest ^ t
            rem = out
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                # q(T, v): v's neighbours and those of the components it
                # touches, outside T + v.
                reach = nbr[v]
                hit = reach & t
                while hit:
                    u = (hit & -hit).bit_length() - 1
                    reach |= cnbr[u]
                    hit &= ~cmask[u]
                if (reach & (out ^ low)).bit_count() > k:
                    continue
                s = t | low
                if nxt.get(s, v) >= v:  # the smallest v that reaches S
                    nxt[s] = v
        levels.append(nxt)
        if not nxt:
            break
    return levels


def _tw_reduce(nbr, rest, low, order):
    """Apply the safe rules of Bodlaender, Koster and van den Eijkhof
    (2005) to the graph on the vertices of `rest`, whose neighbour masks
    `nbr` are updated in place, given low <= tw. Repeatedly eliminate the
    lowest-index vertex v that is simplicial (N(v) is a clique), which
    raises low to deg v, or almost simplicial (N(v) - w is a clique for
    some w) with deg v <= low. Eliminating v makes N(v) a clique and
    appends v to `order`. Each step keeps tw = max(low, tw(rest)).
    Returns (rest, low).

    Whether a vertex qualifies depends only on low and on the vertices
    within distance 2 of it, so after eliminating v only N(v) and the
    neighbours of N(v), read before the fill-in, are tested again, and
    every remaining vertex when low rises. The vertices not in `todo`
    do not qualify, so its lowest one that does is the lowest in `rest`."""
    todo = rest
    while todo:
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        around = nbr[v]
        deg = around.bit_count()
        if not _clique(nbr, around):
            if deg > low:  # neither rule can apply
                continue
            # N(v) - w is a clique iff every non-edge inside N(v) has the
            # end w: w is the first member u that misses another, or the
            # lowest member that u misses.
            u = next(u for u in _bits(around) if around & ~(nbr[u] | 1 << u))
            x = around & ~(nbr[u] | 1 << u)
            if not (_clique(nbr, around ^ 1 << u) or _clique(nbr, around ^ x & -x)):
                continue
        elif deg > low:
            low = deg
            todo = rest  # a higher low admits more almost-simplicial vertices
        near = around
        for u in _bits(around):
            near |= nbr[u]
            nbr[u] = (nbr[u] | around) & ~(1 << u | bit)
        rest ^= bit
        order.append(v)
        todo = (todo | near) & rest
    return rest, low


def treewidth_exact(g: Graph, limit=DEFAULT_TW_LIMIT) -> TreewidthReport:
    """Exact treewidth with a witness elimination order: safe reductions
    down to a kernel, then a threshold search over the kernel's vertex
    subsets (Bodlaender, Fomin, Koster, Kratsch and Thilikos 2012; Tamaki
    2017).

    low starts at the degeneracy, which is at most tw. `_tw_reduce`
    eliminates simplicial and almost-simplicial vertices; they form a
    prefix of the witness order, and tw = max(low, tw(kernel)).

    On the kernel of n' vertices, q(T, v) counts the vertices outside
    T + v that v reaches through G[T], and
    f(S) = min over v in S of max(f(S - v), q(S - v, v)) is the width of
    the best elimination order that starts with S; tw(kernel) = f(V). For
    k = low, low + 1, ..., the sets with f(S) <= k are grown forward from
    the empty set one size at a time, up to size c = max(0, n' - k - 1).
    q(T, v) comes from the components of G[T], found once per T with their
    neighbourhoods. A k whose family dies out below c proves tw > k, so
    low becomes k + 1 and the reductions run again on the kernel. The
    first k whose family reaches size c is tw, since
    tw <= max(f(S), |V - S| - 1) for every S: after S, a vertex has only
    the rest as later neighbours. A kernel that empties leaves tw = low.

    Deciding f(S) <= k needs only membership: f(S) <= k iff some v in S
    has f(S - v) <= k and q(S - v, v) <= k. So each reached S keeps only
    the smallest such v, on the kernel's own vertex masks, and no value
    of f. The kernel's order is the chain of these last vertices back from
    S*, the least reached set of size c, then the rest of the kernel
    ascending; each step of the chain is within k, so the order has width
    at most k. The limit and TABLE_BUDGET bound each kernel's n', checked
    before its search.
    """
    return _treewidth(g, degeneracy(g).d, limit)


def _treewidth(g, d, limit):
    """`treewidth_exact` for a graph of degeneracy d."""
    nbr = list(g.nbr_masks)
    order = []
    rest, low = _tw_reduce(nbr, (1 << g.n) - 1, d, order)
    while rest:
        _check_limit(rest.bit_count(), limit, "treewidth")
        levels = _tw_family(nbr, rest, low)
        if levels[-1]:
            top = s = min(levels[-1])
            tail = []
            for level in reversed(levels[1:]):
                tail.append(level[s])
                s ^= 1 << level[s]
            order += reversed(tail)
            order += _bits(rest & ~top)
            break
        rest, low = _tw_reduce(nbr, rest, low + 1, order)
    return TreewidthReport(low, tuple(order))


def mimw_lower_eq1(g: Graph, tw_limit=DEFAULT_TW_LIMIT) -> Eq1Bound:
    """Lower bound mimw(G) >= tw(G) / (3 (d+1)) for d-degenerate G."""
    d = degeneracy(g).d
    tw = _treewidth(g, d, tw_limit).value
    ratio = Fraction(tw, 3 * (d + 1))
    return Eq1Bound(ratio, math.ceil(ratio), tw, d)
