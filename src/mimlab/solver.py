"""Exact induced matchings across cuts, mim-width, treewidth, and the
degeneracy-based lower bound.

The exact mim-width solver minimizes over all branch decompositions via a
dynamic program over vertex subsets: the best achievable width for a
subtree with leaf set S is

    f(S) = max(cutvalue(S), min over bipartitions S = T + (S-T) of
               max(f(T), f(S-T)))

which ranges over exactly the subtrees realizable by rooted binary trees,
so f(V) equals the minimum over all (2n-3)!! decompositions (the tests
cross-check this against explicit enumeration). A set's scan over its
splits stops at the first split with max(f(T), f(S-T)) <= cutvalue(S),
since that settles f(S) = cutvalue(S); f stays exact for every set. Only
the tree's n - 1 internal nodes then need a split, and they get it top
down, from a full scan for the first minimizing split. f and the cut
values (one per pair S, V-S) are byte tables, within TABLE_BUDGET.

One per-graph cut solver serves both mim-width solvers. It keeps one
record per vertex-set key min(S, V-S): the lower and upper bounds that its
searches proved, and the value is exact when they meet. Its one query is
the threshold "mim >= t?", answered from the record when the record
settles it, else by branch and bound over the conflict graph of the cut's
edges. That search stops at the first matching of t edges and prunes every
branch that cannot reach t. An unknown record starts at (0, min(k, n-k))
for a side of k vertices, since a matching uses distinct vertices on each
side. Every search also prunes by a clique-cover bound, the colouring
bound of Tomita and Seki applied to the complement: the members of a
clique of the conflict graph pairwise conflict, so the candidate edges add
at most one edge per clique of a cover, which is grown greedily.

The subset DP needs every cut value, and gets them from one depth-first
walk over the keys (`_CutSolver.cut_values`). It rests on one-vertex
stability: moving one vertex across a cut changes its value by at most
one, because an induced matching of the old cut minus its at most one
edge at that vertex still crosses the new cut, and arc conflicts do not
depend on the cut. So each key starts from its parent's maximum matching,
its value is bracketed within one of the keys one move away that the walk
has met, and only threshold searches run: a matching that beats the
parent's must use an edge at the moved vertex. The DP records the tree's
cuts as exact.

The upper bound is one bottom-up merge (`_merge_search`): from one part
per vertex, it joins the first pair of parts whose union has a cut value
of at most the current width w, and raises w by one only when no pair
fits. It asks only "mim >= w + 1?", which a pair that failed once has in
its record until w rises, and it is deterministic: it takes no seed.

A cut edge is an arc from the side in the mask to the other side
(`Graph.cut_arcs`, in sorted-edge order), and two arcs a->b and c->d
conflict iff b ~ c or d ~ a, whatever the cut. So the solver builds, once
per graph, the arcs entering and leaving the neighbors of each vertex; an
arc's conflicts are the OR of two of them, and the tables take O(n m)
bits.

Exact treewidth eliminates simplicial and almost-simplicial vertices
first, by the safe rules of Bodlaender, Koster and van den Eijkhof, and
runs its threshold search over the subsets of the kernel that is left;
the limit and the table budget bound the kernel, not the raw graph.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .decomp import BranchDecomposition, Cut, subtree_leaf_sets
from .errors import LimitExceeded
from .graph import Graph, degeneracy, mask_to_set, set_to_mask

DEFAULT_EXACT_LIMIT = 9
DEFAULT_TW_LIMIT = 16
# Bytes that the up-front tables over all 2^n vertex sets may take.
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


def verify_induced_matching(g: Graph, matching: InducedMatching) -> bool:
    """Independent validity check: edges cross the cut, are pairwise
    vertex-disjoint, and no cut edge joins two distinct matching edges."""
    cut_set = set(g.cut_edges(set_to_mask(matching.a_side)))
    seen = set()
    for e in matching.edges:
        u, v = min(e), max(e)
        if (u, v) not in cut_set:
            return False
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    for i, e in enumerate(matching.edges):
        for f in matching.edges[i + 1 :]:
            for p in e:
                for q in f:
                    if p != q and ((min(p, q), max(p, q)) in cut_set):
                        return False
    return True


def _min_conflict(cand, enter, leave):
    """Lowest index among the candidates with the fewest conflicts inside
    `cand` (a bitmask of arc indices)."""
    best = best_deg = None
    rest = cand
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        deg = ((enter[i] | leave[i]) & cand).bit_count()  # i itself included
        if deg == 1:
            return i
        if best is None or deg < best_deg:
            best, best_deg = i, deg
        rest ^= low
    return best


def _covered(cand, enter, leave, room):
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
        i = low.bit_length() - 1
        pool = (enter[i] | leave[i]) & cand  # i itself included
        clique = 0
        while pool:
            b = pool & -pool
            clique |= b
            j = b.bit_length() - 1
            pool &= enter[j] | leave[j]
            pool ^= b
        cand ^= clique
    return True


class _CutSolver:
    """Per-graph solver for threshold queries on cut mim-values. `bounds`
    is its one record: bitmask key min(S, V-S) -> the (lo, hi) that its
    searches proved, exact iff lo == hi. `nodes` counts the
    branch-and-bound nodes of every search it ran; a search prunes a node
    whose candidates have a greedy clique cover (`_covered`) too small to
    beat its floor."""

    def __init__(self, g: Graph):
        self.g = g
        n = self.n = g.n
        self.full = (1 << n) - 1
        self.bounds = {}  # key -> (proven lower bound, proven upper bound)
        self.nodes = 0
        self.splits = 0  # split pairs examined by the subset DP
        self.settled = 0  # keys that `cut_values` settled without a search
        self.edges, tail, head = g.arc_tables
        # Crossing arcs a->b and c->d conflict iff b ~ c or d ~ a; a shared
        # end is one such adjacency. So arc i conflicts, whatever the cut,
        # with enter[i] | leave[i] (itself included). Those are masks
        # shared per vertex: O(n m) bits in all, not an O(m)-bit row per arc.
        nbr = g.nbr_masks
        heads_near = [0] * n  # vertex -> the arcs entering its neighbors
        tails_near = [0] * n  # vertex -> the arcs leaving its neighbors
        for x in range(n):
            rest = nbr[x]
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                heads_near[x] |= head[w]
                tails_near[x] |= tail[w]
                rest ^= low
        enter = []  # arc a->b -> the arcs entering a neighbor of a
        leave = []  # arc a->b -> the arcs leaving a neighbor of b
        for u, v in self.edges:
            enter += (heads_near[u], heads_near[v])
            leave += (tails_near[v], tails_near[u])
        self.enter, self.leave = enter, leave

    def at_least(self, mask, t):
        """Whether the cut at `mask` has an induced matching of t edges."""
        key = min(mask, self.full ^ mask)
        k = mask.bit_count()
        # A matching uses distinct vertices on each side: at most min(k, n-k).
        lo, hi = self.bounds.get(key) or (0, min(k, self.n - k))
        if lo >= t:
            return True
        if hi < t:
            return False
        size = len(self._search(self.g.cut_arcs(mask), t))
        if size >= t:
            self.bounds[key] = (size, hi)
            return True
        self.bounds[key] = (max(lo, size), t - 1)
        return False

    def matching(self, mask) -> InducedMatching:
        return InducedMatching(mask_to_set(mask), self._max_induced_matching(mask))

    def _max_induced_matching(self, mask):
        """A maximum induced matching among the edges leaving `mask`, in
        sorted order."""
        edges = self.edges
        arcs = self._search(self.g.cut_arcs(mask))
        return tuple(edges[i >> 1] for i in sorted(arcs))

    def _search(self, arcs, t=0):
        """An induced matching among the cut arcs `arcs` (a bitmask of arc
        indices), as a list of arc indices, by branch-and-bound maximum
        independent set on their conflict graph. With t = 0 it is a
        maximum one. With t > 0 the search stops at the first one of t
        edges and prunes every branch that cannot reach t, so a smaller
        result proves only that the maximum is < t."""
        m = arcs.bit_count()
        if m <= 1:
            return [arcs.bit_length() - 1] if m else []
        enter, leave = self.enter, self.leave

        goal = t or m + 1  # the search stops once it holds this many edges
        # Greedy initial solution: repeatedly take a min-conflict edge.
        cand = arcs
        greedy = []
        while cand and len(greedy) < goal:
            v = _min_conflict(cand, enter, leave)
            greedy.append(v)
            cand &= ~(enter[v] | leave[v])
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
            if _covered(cand, enter, leave, floor - cur_size):
                return
            # Min-degree pivot: some optimal solution contains a member of
            # its closed conflict neighborhood, so branch only over those.
            pivot = _min_conflict(cand, enter, leave)
            options = [pivot]
            branch = (enter[pivot] | leave[pivot]) & cand ^ (1 << pivot)
            while branch:
                low = branch & -branch
                options.append(low.bit_length() - 1)
                branch ^= low
            for u in options:
                cur.append(u)
                rec(cand & ~(enter[u] | leave[u]), cur, cur_size + 1)
                cur.pop()

        rec(arcs, [], 0)
        self.nodes += nodes
        return best_set

    def cut_values(self):
        """The cut value of every key, a subset of V - {n-1}, in a bytearray
        indexed by the key, from one depth-first walk that goes from each
        key s to s + v for every v < n - 1 above the highest vertex of s.

        Moving one vertex across a cut changes its value by at most one:
        drop from an induced matching of the old cut its at most one arc
        at that vertex, and the rest still cross the new cut, while arc
        conflicts do not depend on the cut. So each key carries its cut
        arcs, the arcs entering it, a maximum matching as arc indices and
        its size p. The child s + v gets its cut arcs in O(1) mask
        operations. Its value is at most hi, one more than the least value
        of the keys s + v - u, u in s + v: each is one move away, and the
        walk has met each (it takes children from the highest v down, and
        where the sorted vertex lists of s + v - u and s + v first differ,
        the former has the higher vertex). The parent s is one of them.

        The child's seed is the parent's matching minus the arc into v,
        grown by free arcs (ones that conflict with none of it) up to hi.
        A seed that reaches hi settles the key without a search
        (`settled` counts these). Else a seed that lost its arc into v
        asks a threshold search for p arcs, and then, below hi, a matching
        of p + 1 arcs, if any, has an arc leaving v (without one it would
        cross the parent's cut): one threshold search for p arcs per arc
        leaving v, among the cut arcs that arc does not conflict with,
        finds it. The walk holds, per open key, its masks and its
        matching: O(n^2) small ints in all."""
        _, tail, head = self.g.arc_tables
        enter, leave = self.enter, self.leave
        top = self.n - 1
        cut_of = bytearray(1 << top)
        settled = 0
        root = (0, 0, [], 0)  # cut arcs, arcs entering s, matching, its size
        stack = [(1 << v, v, root) for v in range(top)]
        while stack:
            # Key s = parent + v, where the parent had value p.
            s, v, (arcs, into, match, p) = stack.pop()
            into |= head[v]
            arcs = arcs & ~head[v] | tail[v] & ~into
            # Each s - u, u in s, is one move away and was met before s.
            hi = p
            rest = s ^ 1 << v
            while rest:
                low = rest & -rest
                x = cut_of[s ^ low]
                if x < hi:
                    hi = x
                rest ^= low
            hi += 1
            seed = [a for a in match if not head[v] >> a & 1]
            block = 0
            for a in seed:
                block |= enter[a] | leave[a]
            free = arcs & ~block
            while free and len(seed) < hi:
                a = free.bit_length() - 1
                seed.append(a)
                free &= ~(enter[a] | leave[a])
            if len(seed) >= hi:
                settled += 1
            else:
                if len(seed) < p:
                    found = self._search(arcs, p)
                    if len(found) == p:
                        seed = found
                if len(seed) == p < hi:
                    # A matching of p + 1 arcs has one leaving v: without
                    # it, it would cross the parent's cut.
                    out = tail[v] & arcs
                    while out:
                        low = out & -out
                        a = low.bit_length() - 1
                        found = self._search(arcs & ~(enter[a] | leave[a]), p)
                        if len(found) == p:
                            seed = found + [a]
                            break
                        out ^= low
            q = cut_of[s] = len(seed)
            if v + 1 < top:
                state = (arcs, into, seed, q)
                stack += [(s | 1 << w, w, state) for w in range(v + 1, top)]
        self.settled += settled
        return cut_of


def max_induced_matching_cut(g: Graph, a) -> InducedMatching:
    """Maximum induced matching of the bipartite cut graph G[A, A-bar]."""
    return _CutSolver(g).matching(set_to_mask(a))


def _critical(cs, decomposition, width):
    """Locate a cut of mim-value `width`, the decomposition's width: the
    lexicographically smallest sorted a_side among them."""
    best = None
    for a in subtree_leaf_sets(decomposition):
        mask = set_to_mask(a)
        key = tuple(sorted(a))
        if (best is None or key < best[0]) and cs.at_least(mask, width):
            best = (key, a, mask)
    _, a, mask = best
    cut = Cut(a, tuple(cs.g.cut_edges(mask)))
    return cut, cs.matching(mask)


def _check_limit(n, limit, what):
    """Refuse n above the limit, and any n whose two up-front byte tables
    over all 2^n vertex sets exceed TABLE_BUDGET, whatever the limit."""
    if n > limit:
        raise LimitExceeded(f"n={n} exceeds {what} limit {limit}")
    if 2 << n > TABLE_BUDGET:
        raise LimitExceeded(
            f"n={n}: 2 table(s) over 2^{n} vertex sets exceed "
            f"{TABLE_BUDGET >> 20} MiB"
        )


def _width_report(g, mode, search) -> WidthReport:
    """Report `search(cs)` -> (width, decomposition) with its
    critical cut, under the n <= 1 convention of `mimw_exact`."""
    if g.n <= 1:
        return WidthReport(0, mode, None, None, None)
    cs = _CutSolver(g)
    value, t = search(cs)
    if value == 0:
        cut = Cut(frozenset(range(g.n)), ())
        return WidthReport(0, mode, t, cut, InducedMatching(cut.a_side, ()))
    cut, matching = _critical(cs, t, value)
    return WidthReport(value, mode, t, cut, matching)


def _first_split(f, s):
    """The first split t of `s` in the scan order, over the t that hold
    the lowest bit of s, that minimizes max(f(t), f(s - t))."""
    low = s & -s
    rest = s ^ low
    best = best_t = None
    sub = rest
    while True:
        sub = (sub - 1) & rest
        t = low | sub
        inner = max(f[t], f[s ^ t])
        if best is None or inner < best:
            best = inner
            best_t = t
        if sub == 0:
            return best_t


def _exact_search(cs):
    """The subset DP above: f(V) and a decomposition attaining it. The cut
    values come first, from the walk of `_CutSolver.cut_values`: one
    vertex moved across a cut changes its value by at most one, so each
    key is seeded by its parent's matching and bracketed within one."""
    full = cs.full
    half = (full + 1) >> 1
    # Every proper submask of s is smaller than s, so ascending order
    # solves both halves of each split before s itself. A split with
    # max(f(T), f(S-T)) <= cutvalue(S) settles f(S) = cutvalue(S), so the
    # scan stops there; f stays exact for every set either way.
    f = bytearray(full + 1)
    # The cut value of each key min(S, V-S) < 2^(n-1).
    cut_of = cs.cut_values()
    splits = 0
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        cut = cut_of[s if s < half else full ^ s]
        if not rest:
            f[s] = cut
            continue
        best = cs.n  # above any f
        sub = rest
        while sub and best > cut:
            sub = (sub - 1) & rest
            t = low | sub
            splits += 1
            inner = f[t]
            other = f[s ^ t]
            if other > inner:
                inner = other
            if inner < best:
                best = inner
        f[s] = best if best > cut else cut
    cs.splits += splits

    # Only the tree's internal nodes need their split: top-down by the
    # first minimum, then built bottom-up, without recursion.
    split = {}
    sets = [full]
    for s in sets:
        if s & (s - 1):
            t = split[s] = _first_split(f, s)
            sets += (t, s ^ t)
    node = {}
    for s in reversed(sets):
        t = split.get(s)
        node[s] = (node[t], node[s ^ t]) if t else s.bit_length() - 1
        key = min(s, full ^ s)
        cs.bounds[key] = (cut_of[key],) * 2  # for the critical-cut queries
    return f[full], BranchDecomposition(node[full])


def mimw_exact(g: Graph, limit=DEFAULT_EXACT_LIMIT) -> WidthReport:
    """Exact mim-width with a witness decomposition and critical cut.

    Convention: graphs with n <= 1 have no branch decomposition and get
    width 0 with an empty witness (from `mimw_upper` too).
    """
    # f over the 2^n sets and the cut values over 2^(n-1) keys: within
    # two tables.
    _check_limit(g.n, limit, "exact mim-width")
    return _width_report(g, "exact", _exact_search)


def _merge_search(cs):
    """A bottom-up threshold merge: (w, a decomposition of width w). It
    starts from one part per vertex, in vertex order, and w = 1 if the
    graph has an edge, else 0; a singleton's cut value is min(1, deg).
    It merges the first pair of parts i < j whose union is V or has a cut
    value of at most w, in slot i, and raises w by one when no pair fits.
    w rises only when every union is above the old w, so the next merge
    has a value of exactly w: the width is attained. A failed pair leaves
    a lower bound in the cut record, which answers it on the next scan."""
    full = cs.full
    parts = [(1 << v, v) for v in range(cs.n)]  # (vertex mask, tree node)
    w = 1 if cs.g.m else 0
    while len(parts) > 1:
        for i, j in itertools.combinations(range(len(parts)), 2):
            union = parts[i][0] | parts[j][0]
            if union == full or not cs.at_least(union, w + 1):
                parts[i] = (union, (parts[i][1], parts[j][1]))
                del parts[j]
                break
        else:
            w += 1
    return w, BranchDecomposition(parts[0][1])


def mimw_upper(g: Graph) -> WidthReport:
    """Heuristic upper bound with a witness decomposition and critical
    cut, from the deterministic threshold merge of `_merge_search`."""
    return _width_report(g, "upper", _merge_search)


def _tw_family(nbr, n, k, choice):
    """True iff f(V) <= k, for f and q as in `treewidth_exact`: grows the
    sets S with f(S) <= k one size at a time from the empty set. Each
    reached S gets its exact f(S) and, in `choice`, the smallest v
    attaining it."""
    full = (1 << n) - 1
    f1 = bytearray(full + 1)  # f(S) + 1 for the reached sets, else 0
    f1[0] = 1
    cmask = [0] * n  # vertex of T -> its component of G[T]
    cnbr = [0] * n  # vertex of T -> the neighbours of that component
    level = array("Q", (0,))
    for _ in range(n):
        nxt = array("Q")
        for t in level:
            ft1 = f1[t]
            # The components of G[T], each with the neighbours of its vertices.
            rest = t
            while rest:
                comp = frontier = rest & -rest
                around = 0
                while frontier:
                    grow = 0
                    while frontier:
                        low = frontier & -frontier
                        grow |= nbr[low.bit_length() - 1]
                        frontier ^= low
                    around |= grow
                    frontier = grow & rest & ~comp
                    comp |= frontier
                rest ^= comp
                c = comp
                while c:
                    low = c & -c
                    u = low.bit_length() - 1
                    cmask[u] = comp
                    cnbr[u] = around
                    c ^= low
            out = full ^ t
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
                q = (reach & (out ^ low)).bit_count()
                if q > k:
                    continue
                val1 = ft1 if ft1 > q else q + 1
                s = t | low
                old = f1[s]
                if not old:
                    nxt.append(s)
                elif val1 > old or val1 == old and v > choice[s]:
                    continue
                f1[s] = val1
                choice[s] = v
        if not nxt:
            return False
        level = nxt
    return True


def _tw_reduce(nbr, rest, low, order):
    """Apply the safe rules of Bodlaender, Koster and van den Eijkhof
    (2005) to the graph on the vertices of `rest`, whose neighbour masks
    `nbr` are updated in place, given low <= tw. Repeatedly eliminate the
    lowest-index vertex v that is simplicial (N(v) is a clique), which
    raises low to deg v, or almost simplicial (N(v) - w is a clique for
    some w) with deg v <= low. Eliminating v makes N(v) a clique and
    appends v to `order`. Each step keeps tw = max(low, tw(rest)).
    Returns (rest, low)."""
    scan = rest
    while scan:
        bit = scan & -scan
        scan ^= bit
        v = bit.bit_length() - 1
        around = nbr[v]
        deg = around.bit_count()
        miss = {}  # u in N(v) -> the other members of N(v) it misses
        others = around
        while others:
            b = others & -others
            others ^= b
            m = around & ~nbr[b.bit_length() - 1] ^ b
            if m:
                miss[b] = m
                if deg > low:  # neither rule can apply
                    break
        if miss:
            if deg > low:
                continue
            # N(v) - w is a clique iff every non-edge inside N(v) has the
            # end w: w is the first vertex that misses one, or one it misses.
            first = next(iter(miss))
            if not any(
                all(m == w for u, m in miss.items() if u != w)
                for w in (first, miss[first] & -miss[first])
            ):
                continue
        elif deg > low:
            low = deg
        others = around
        while others:
            b = others & -others
            others ^= b
            u = b.bit_length() - 1
            nbr[u] = (nbr[u] | around) & ~(b | bit)
        rest ^= bit
        order.append(v)
        scan = rest  # an earlier vertex may qualify now
    return rest, low


def treewidth_exact(g: Graph, limit=DEFAULT_TW_LIMIT) -> TreewidthReport:
    """Exact treewidth with a witness elimination order: safe reductions
    down to a kernel, then a threshold search over the kernel's vertex
    subsets (Bodlaender, Fomin, Koster, Kratsch and Thilikos 2012; Tamaki
    2017).

    low starts at the degeneracy, which is at most tw. `_tw_reduce`
    eliminates simplicial and almost-simplicial vertices; they form a
    prefix of the witness order, and tw = max(low, tw(kernel)).

    On the kernel, relabelled 0..n'-1 in index order, q(T, v) counts the
    vertices outside T + v that v reaches through G[T], and
    f(S) = min over v in S of max(f(S - v), q(S - v, v)) is the width of
    the best elimination order that starts with S; tw(kernel) = f(V). For
    k = low, low + 1, ..., the sets with f(S) <= k are grown forward from
    the empty set one size at a time. q(T, v) comes from the components of
    G[T], found once per T with their neighbourhoods. A k whose family
    does not reach V proves tw > k, so low becomes k + 1 and the
    reductions run again on the kernel. The first k whose family reaches V
    is tw; a kernel that empties leaves tw = low.

    Each reached S keeps its exact f(S) and, among the v attaining it, the
    smallest, as the full 2^n table would: a v with f(S - v) > k cannot
    attain f(S) <= k. So when no vertex reduces, the witness order is the
    table's order. f and the choice of v are bytearrays over the 2^n' sets;
    a level is an array of set masks. The limit and the table budget
    bound each kernel's n', checked before its tables are allocated.
    """
    return _treewidth(g, degeneracy(g).d, limit)


def _treewidth(g, d, limit):
    """`treewidth_exact` for a graph of degeneracy d."""
    n = g.n
    nbr = list(g.nbr_masks)
    order = []
    rest, low = _tw_reduce(nbr, (1 << n) - 1, d, order)
    while rest:
        verts = [v for v in range(n) if rest >> v & 1]
        size = len(verts)
        _check_limit(size, limit, "treewidth")
        kernel = [
            sum(1 << i for i in range(size) if nbr[v] >> verts[i] & 1) for v in verts
        ]
        choice = bytearray(1 << size)
        if _tw_family(kernel, size, low, choice):
            tail = []
            s = (1 << size) - 1
            while s:
                i = choice[s]
                tail.append(verts[i])
                s ^= 1 << i
            order += reversed(tail)
            break
        rest, low = _tw_reduce(nbr, rest, low + 1, order)
    return TreewidthReport(low, tuple(order))


def mimw_lower_eq1(g: Graph, tw_limit=DEFAULT_TW_LIMIT) -> Eq1Bound:
    """Lower bound mimw(G) >= tw(G) / (3 (d+1)) for d-degenerate G."""
    d = degeneracy(g).d
    tw = _treewidth(g, d, tw_limit).value
    ratio = Fraction(tw, 3 * (d + 1))
    return Eq1Bound(ratio, math.ceil(ratio), tw, d)
