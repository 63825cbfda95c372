"""Exact induced matchings across cuts, mim-width, treewidth, and the
degeneracy-based lower bound.

The exact mim-width solver minimizes over all branch decompositions via a
dynamic program over vertex subsets: the best achievable width for a
subtree with leaf set S is

    f(S) = max(cutvalue(S), min over bipartitions S = T + (S-T) of
               max(f(T), f(S-T)))

which ranges over exactly the subtrees realizable by rooted binary trees,
so f(V) equals the minimum over all (2n-3)!! decompositions (the tests
cross-check this against explicit enumeration). Cut values are memoized by
vertex-set key and shared between the exact and heuristic solvers.
"""

from __future__ import annotations

import json
import math
import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .decomp import BranchDecomposition, Cut, caterpillar_from_order, subtree_leaf_sets
from .errors import LimitExceeded
from .graph import Graph, degeneracy, mask_to_set, set_to_mask

DEFAULT_EXACT_LIMIT = 9
DEFAULT_TW_LIMIT = 16


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


def _min_conflict(cand, conflict):
    """Lowest index among the candidates with the fewest conflicts inside
    `cand` (a bitmask of edge indices)."""
    best = best_deg = None
    rest = cand
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        deg = (conflict[i] & cand).bit_count()
        if not deg:
            return i
        if best is None or deg < best_deg:
            best, best_deg = i, deg
        rest ^= low
    return best


class _CutSolver:
    """Per-graph memoized exact solver for cut mim-values (bitmask keyed)."""

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.memo = {}

    def value(self, mask):
        key = min(mask, self.full ^ mask)
        got = self.memo.get(key)
        if got is None:
            got = len(self._max_induced_matching(mask))
            self.memo[key] = got
        return got

    def matching(self, mask) -> InducedMatching:
        return InducedMatching(mask_to_set(mask), self._max_induced_matching(mask))

    def _max_induced_matching(self, mask):
        """Maximum induced matching among the edges leaving `mask`, in
        sorted order; exact via branch-and-bound maximum independent set on
        the conflict graph."""
        ce = self.g.cut_edges(mask)
        m = len(ce)
        if m <= 1:
            return tuple(ce)
        # Cut edges conflict iff they share an end or an end of one is a
        # neighbor across the cut of an end of the other. Each end's
        # neighbors across the cut include the edge's other end.
        nbr = self.g.nbr_masks
        across = (mask, self.full ^ mask)  # by membership in mask: the other side
        touch = [0] * self.n  # vertex -> bitmask of the cut edges at it
        for i, (u, v) in enumerate(ce):
            touch[u] |= 1 << i
            touch[v] |= 1 << i
        conflict = []
        for i, (u, v) in enumerate(ce):
            near = nbr[u] & across[mask >> u & 1] | nbr[v] & across[mask >> v & 1]
            hit = 0
            while near:
                low = near & -near
                hit |= touch[low.bit_length() - 1]
                near ^= low
            conflict.append(hit & ~(1 << i))

        # Greedy initial solution: repeatedly take a min-conflict edge.
        cand = (1 << m) - 1
        greedy = []
        while cand:
            v = _min_conflict(cand, conflict)
            greedy.append(v)
            cand &= ~(conflict[v] | (1 << v))
        best_size = len(greedy)
        best_set = greedy

        def rec(cand, cur, cur_size):
            nonlocal best_size, best_set
            if cand == 0:
                if cur_size > best_size:
                    best_size = cur_size
                    best_set = list(cur)
                return
            if cur_size + cand.bit_count() <= best_size:
                return
            # Min-degree pivot: some optimal solution contains a member of
            # its closed conflict neighborhood, so branch only over those.
            pivot = _min_conflict(cand, conflict)
            branch = conflict[pivot] & cand
            options = [pivot] + [i for i in range(m) if (branch >> i) & 1]
            for u in options:
                cur.append(u)
                rec(cand & ~(conflict[u] | (1 << u)), cur, cur_size + 1)
                cur.pop()

        rec((1 << m) - 1, [], 0)
        return tuple(ce[i] for i in sorted(best_set))


def max_induced_matching_cut(g: Graph, a) -> InducedMatching:
    """Maximum induced matching of the bipartite cut graph G[A, A-bar]."""
    return _CutSolver(g).matching(set_to_mask(a))


def _critical(cs, decomposition):
    """Locate the cut of maximum mim-value in a decomposition; ties broken
    by the lexicographically smallest sorted a_side."""
    best = None
    for a in subtree_leaf_sets(decomposition):
        mask = set_to_mask(a)
        key = (-cs.value(mask), tuple(sorted(a)))
        if best is None or key < best[0]:
            best = (key, a, mask)
    _, a, mask = best
    cut = Cut(a, tuple(cs.g.cut_edges(mask)))
    return cut, cs.matching(mask)


def _check_limit(n, limit, what):
    """Refuse n above the limit, and any n whose table over all 2^n vertex
    sets could not even be indexed, whatever the limit."""
    if n > limit:
        raise LimitExceeded(f"n={n} exceeds {what} limit {limit}")
    if 1 << n > sys.maxsize:
        raise LimitExceeded(f"n={n}: a table over 2^{n} vertex sets cannot be indexed")


def mimw_exact(g: Graph, limit=DEFAULT_EXACT_LIMIT) -> WidthReport:
    """Exact mim-width with a witness decomposition and critical cut.

    Convention: graphs with n <= 1 have no branch decomposition and get
    width 0 with an empty witness.
    """
    n = g.n
    _check_limit(n, limit, "exact mim-width")
    if n <= 1:
        return WidthReport(0, "exact", None, None, None)
    cs = _CutSolver(g)
    full = cs.full
    # Every proper submask of s is smaller than s, so ascending order
    # solves both halves of each split before s itself.
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        if not rest:
            f[s] = cs.value(s)
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
        f[s] = max(cs.value(s), best)
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
    t = BranchDecomposition(node[full])
    value = f[full]
    if value == 0:
        cut = Cut(frozenset(range(n)), ())
        return WidthReport(0, "exact", t, cut, InducedMatching(cut.a_side, ()))
    cut, matching = _critical(cs, t)
    return WidthReport(value, "exact", t, cut, matching)


def _order_width(cs, order):
    worst = 0
    mask = 0
    for i, v in enumerate(order):
        worst = max(worst, cs.value(1 << v))
        mask |= 1 << v
        if i >= 1:
            worst = max(worst, cs.value(mask))
    return worst


def mimw_upper(
    g: Graph, restarts=8, local_search=True, seed=0, cut_solver=None
) -> WidthReport:
    """Heuristic upper bound: best caterpillar among the identity order and
    seeded random orders, then adjacent-transposition hill climbing."""
    n = g.n
    if n <= 1:
        return WidthReport(0, "upper", None, None, None)
    cs = cut_solver if cut_solver is not None else _CutSolver(g)
    rng = random.Random(seed)
    orders = [list(range(n))]
    for _ in range(restarts):
        orders.append(rng.sample(range(n), n))
    best_order = min(orders, key=lambda o: _order_width(cs, o))
    best_w = _order_width(cs, best_order)
    if local_search:
        improved = True
        while improved and best_w > 0:
            improved = False
            for i in range(n - 1):
                cand = list(best_order)
                cand[i], cand[i + 1] = cand[i + 1], cand[i]
                w = _order_width(cs, cand)
                if w < best_w:
                    best_order, best_w = cand, w
                    improved = True
                    break
    t = caterpillar_from_order(best_order)
    if best_w == 0:
        cut = Cut(frozenset(range(n)), ())
        return WidthReport(0, "upper", t, cut, InducedMatching(cut.a_side, ()))
    cut, matching = _critical(cs, t)
    return WidthReport(best_w, "upper", t, cut, matching)


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


def treewidth_exact(g: Graph, limit=DEFAULT_TW_LIMIT) -> TreewidthReport:
    """Exact treewidth with a witness elimination order, by a threshold
    search over vertex subsets (Bodlaender, Fomin, Koster, Kratsch and
    Thilikos 2012; Tamaki 2017).

    q(T, v) counts the vertices outside T + v that v reaches through G[T],
    and f(S) = min over v in S of max(f(S - v), q(S - v, v)) is the width
    of the best elimination order that starts with S; tw = f(V). For
    k = degeneracy, degeneracy + 1, ... (tw >= degeneracy), the sets with
    f(S) <= k are grown forward from the empty set one size at a time, and
    the first k whose family reaches V is tw. q(T, v) comes from the
    components of G[T], found once per T with their neighbourhoods.

    Each reached S keeps its exact f(S) and, among the v attaining it, the
    smallest, as the full 2^n table would: a v with f(S - v) > k cannot
    attain f(S) <= k. So the witness order is the table's order. f and the
    choice of v are bytearrays over the 2^n sets; a level is an array of
    set masks.
    """
    n = g.n
    _check_limit(n, limit, "treewidth")
    if n == 0:
        return TreewidthReport(0, ())
    nbr = g.nbr_masks
    choice = bytearray(1 << n)
    k = degeneracy(g).d
    while not _tw_family(nbr, n, k, choice):
        k += 1
    order = []
    s = (1 << n) - 1
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return TreewidthReport(k, tuple(order))


def mimw_lower_eq1(g: Graph, tw_limit=DEFAULT_TW_LIMIT) -> Eq1Bound:
    """Lower bound mimw(G) >= tw(G) / (3 (d+1)) for d-degenerate G."""
    tw = treewidth_exact(g, tw_limit).value
    d = degeneracy(g).d
    ratio = Fraction(tw, 3 * (d + 1))
    return Eq1Bound(ratio, math.ceil(ratio), tw, d)
