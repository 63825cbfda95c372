"""The independent certificate checkers.

Every answer that the paper's argument rests on carries a witness, and a
checker here re-checks it. A checker reads only `g.n`, `g.edges` (also
through `g.m` and `g.has_edge`) and the set adjacency `g.adj`: never the
neighbour masks that the searches share, so a fault there cannot make a
witness pass. It imports nothing of the
library but `errors` (tests/test_check.py holds it to both rules).

Each checker reads every vertex of its certificate once, at entry, as
`Graph()` reads its labels (`operator.index`, within 0..n-1), so a float
or a string is not a vertex. The verdict checkers return False on a
certificate they cannot read. `cycle_chords` and `has_odd_chord`, which
measure a cycle that `verify_cycle` accepts, raise InvalidParameter.
"""

from __future__ import annotations

from itertools import combinations
from operator import index

from .errors import InvalidParameter


def _vertices(g, vs):
    """`vs` as a list in its own order, or None unless each of them is an
    int vertex of g (operator.index takes ints and bools, as 0 or 1)."""
    try:
        out = list(map(index, vs))
    except TypeError:
        return None
    return out if not out or 0 <= min(out) <= max(out) < g.n else None


def _pairs(g, es):
    """`es` as a list of vertex pairs, each read by `_vertices`; None unless
    each is exactly two vertices."""
    try:
        ends = _vertices(g, [x for u, v in es for x in (u, v)])
    except (TypeError, ValueError):
        return None
    return None if ends is None else list(zip(ends[::2], ends[1::2]))


def verify_induced_matching(g, matching) -> bool:
    """The matching edges (of an InducedMatching) share no end, and they
    are exactly the edges of `g` across the cut of its side that join two
    of their ends: they cross the cut, are pairwise vertex-disjoint, and
    no cut edge joins two of them."""
    side, edges = _vertices(g, matching.a_side), _pairs(g, matching.edges)
    if side is None or edges is None:
        return False
    side, ends = set(side), {v for e in edges for v in e}
    among = {(u, v) for u, v in g.edges if u in ends and v in ends and (u in side) != (v in side)}
    return len(ends) == 2 * len(edges) and among == {(u, v) if u < v else (v, u) for u, v in edges}


def verify_clique(g, vs):
    vs = _vertices(g, vs)
    return vs is not None and g.edges.issuperset(combinations(sorted(vs), 2))


def verify_independent(g, vs):
    vs = _vertices(g, vs)
    return vs is not None and g.edges.isdisjoint(combinations(sorted(vs), 2))


def _eliminates(g, order, keep):
    """True iff `order` lists every vertex once and keep(adj, later, v)
    holds at each v, where `later` is the set of v and the vertices after
    it."""
    order = _vertices(g, order)
    if order is None or sorted(order) != list(range(g.n)):
        return False
    adj, later = g.adj, set(range(g.n))
    for v in order:
        if not keep(adj, later, v):
            return False
        later.remove(v)
    return True


def _later_clique(adj, later, v):
    return all(y in adj[x] for x, y in combinations(adj[v] & later, 2))


def _later_simple(adj, later, v):
    """The closed neighbourhoods within `later` of v's closed neighbourhood
    there form a chain under inclusion."""
    hoods = sorted(((adj[u] | {u}) & later for u in (adj[v] | {v}) & later), key=len)
    return all(a <= b for a, b in zip(hoods, hoods[1:]))


def verify_elimination_order(g, order):
    """True iff `order` lists every vertex once and eliminating along it
    always leaves later neighbours forming a clique (a perfect
    elimination order)."""
    return _eliminates(g, order, _later_clique)


def verify_simple_elimination_order(g, order):
    """True iff `order` lists every vertex once and each vertex is simple
    among itself and the later ones (Farber's strong chordality
    certificate)."""
    return _eliminates(g, order, _later_simple)


def verify_cycle(g, cyc):
    cyc = _vertices(g, cyc)
    return (
        cyc is not None
        and len(cyc) >= 3
        and len(set(cyc)) == len(cyc)
        and all(g.has_edge(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1]))
    )


def cycle_chords(g, cyc):
    """Chords of a cycle, as index pairs (i, j) into the cycle, i < j, in
    ascending order."""
    read = _vertices(g, cyc)
    if read is None:
        raise InvalidParameter(f"cycle {cyc!r} has a vertex that is not an int in [0,{g.n})")
    k = len(read)
    return [
        (i, j)
        for (i, u), (j, v) in combinations(enumerate(read), 2)
        if 1 < j - i < k - 1 and g.has_edge(u, v)
    ]


def has_odd_chord(g, cyc):
    return any((j - i) % 2 == 1 for i, j in cycle_chords(g, cyc))


def verify_transitive_orientation(g, orientation):
    """Check a set of directed edges: one direction per edge of g, and
    every directed 2-path a->b->c is closed by a->c."""
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
