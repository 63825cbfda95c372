"""Certified recognizers for the graph classes used by the constructions.

Each recognizer returns a RecognitionResult whose certificate either
re-verifies independently (positive) or exhibits a concrete violation
(negative). All run in polynomial time. One worklist deletes vertices on
neighbour bitmasks: chordality deletes simplicial vertices (Fulkerson and
Gross 1965), and a stuck remainder yields a chordless cycle; strong
chordality deletes simple vertices (Farber 1983), and a stuck chordal
remainder shrinks to a sun, re-eliminated only while above six vertices.
Chordal bipartiteness runs that test on the one-side completion.
Comparability uses Golumbic's G-decomposition (1977). Each recognizer
re-checks its certificate with the independent checkers of `check`, and
raises CertificateViolation where one fails; the names of those checkers
are imported here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .check import (
    cycle_chords,
    has_odd_chord,
    verify_clique,
    verify_cycle,
    verify_elimination_order,
    verify_independent,
    verify_simple_elimination_order,
    verify_transitive_orientation,
)
from .errors import CertificateViolation, OddCycleFound
from .graph import Graph, _bits, _clique, complement, set_to_mask, two_color


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    certificate: dict


def is_split(g: Graph) -> RecognitionResult:
    """Split recognition via the degree-sequence criterion, with the
    clique/independent partition re-verified explicitly."""
    byd = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in byd]
    k = 0
    for i in range(g.n):
        if degs[i] >= i:
            k = i + 1
    lhs = sum(degs[:k])
    rhs = k * (k - 1) + sum(degs[k:])
    if lhs != rhs:
        return RecognitionResult(
            False, {"kind": "degree_sequence_gap", "k": k, "lhs": lhs, "rhs": rhs}
        )
    clique = byd[:k]
    indep = byd[k:]
    if not (verify_clique(g, clique) and verify_independent(g, indep)):
        raise CertificateViolation(f"split partition {clique} / {indep} fails its check")
    return RecognitionResult(
        True,
        {"kind": "split_partition", "clique": sorted(clique), "independent": sorted(indep)},
    )


def _simple(nbr, rest, v):
    """The closed neighbourhoods of v's closed neighbourhood in `rest` form
    a chain: sorted by size, each lies within the next."""
    hoods = []
    near = (nbr[v] | 1 << v) & rest
    while near:
        low = near & -near
        near ^= low
        hoods.append((nbr[low.bit_length() - 1] | low) & rest)
    hoods.sort(key=int.bit_count)
    inner = 0
    for hood in hoods:
        if inner & ~hood:
            return False
        inner = hood
    return True


def _simplicial(nbr, rest, v):
    """v's neighbourhood in `rest` is a clique."""
    return _clique(nbr, nbr[v] & rest)


def _eliminate(nbr, rest, removable):
    """Delete removable vertices from the vertex set `rest` in the order of
    sweeps over it in ascending order, repeated until a sweep deletes none.
    Simple and simplicial vertices stay so in every induced subgraph, so
    the order of deletion does not matter. Returns the deletion order and
    the stuck remainder, which is 0 iff the set induces a strongly chordal
    graph (`_simple`, Farber 1983) or a chordal one (`_simplicial`,
    Fulkerson and Gross 1965).

    Whether v is removable depends only on the vertices within distance 2
    of v, so a sweep tests only the vertices whose such region lost a
    vertex since their last test, all of them at first. A deletion at v
    puts the region's vertices above v into the current sweep and those
    below v into the next. The deletion order is that of full sweeps, but
    a vertex is re-tested only after a deletion near it."""
    order = []
    todo = rest
    while todo:
        later = 0  # the next sweep
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            if removable(nbr, rest, v):
                rest ^= low
                order.append(v)
                near = region = nbr[v] & rest
                while near and region != rest:
                    b = near & -near
                    near ^= b
                    region |= nbr[b.bit_length() - 1] & rest
                todo |= region & -low
                later |= region & (low - 1)
        todo = later
    return order, rest


def _chordless_cycle(g, stuck):
    """The negative certificate of chordality. Every chordless cycle lies in
    the `stuck` remainder of simplicial elimination. For the first v there
    with nonadjacent neighbours u < w, a shortest u-w path avoiding the
    rest of N[v] (breadth first, neighbours ascending) closes into a
    chordless cycle through v."""
    nbr = g.nbr_masks
    for v in _bits(stuck):
        for u in _bits(nbr[v] & stuck):
            for w in _bits(nbr[v] & stuck & ~nbr[u] & -(2 << u)):
                free = ~(nbr[v] | 1 << v) | 1 << w  # unseen, and off N[v] but w
                prev, queue = {u: None}, [u]
                while queue and w not in prev:
                    nq = []
                    for x in queue:
                        for y in _bits(nbr[x] & free):
                            prev[y] = x
                            free ^= 1 << y
                            nq.append(y)
                    queue = nq
                if w in prev:
                    cyc = [w]
                    while prev[cyc[-1]] is not None:
                        cyc.append(prev[cyc[-1]])
                    cyc = [v] + cyc[::-1]
                    if not verify_cycle(g, cyc) or cycle_chords(g, cyc):
                        raise CertificateViolation(f"cycle {cyc} is not chordless")
                    return RecognitionResult(False, {"kind": "chordless_cycle", "cycle": cyc})
    raise CertificateViolation("no chordless cycle certifies non-chordality")


def is_chordal(g: Graph) -> RecognitionResult:
    """Chordality by deleting simplicial vertices: the deletion order is a
    perfect elimination order, and a stuck remainder holds a chordless
    cycle."""
    order, stuck = _eliminate(g.nbr_masks, (1 << g.n) - 1, _simplicial)
    if stuck:
        return _chordless_cycle(g, stuck)
    if not verify_elimination_order(g, order):
        raise CertificateViolation(f"perfect elimination order {order} fails its check")
    return RecognitionResult(True, {"kind": "perfect_elimination_order", "order": order})


def _sun_cycle(nbr, stuck):
    """Shrink a stuck remainder S, chordal in both callers (a graph past
    the chordality check, a split completion), to a minimal vertex set that
    still gets stuck: for each v of S in ascending order, S becomes the
    stuck remainder of S - v where that is not empty. A chordal minimal
    one is a sun. A chordal set below six vertices holds no sun, so it
    gets stuck nowhere: once S has six vertices or fewer, no S - v needs
    an elimination. Returns the sun's cycle u1 w1 u2 w2 ..., where the w
    are its degree-2 vertices, from its smallest vertex towards the
    smaller neighbour."""
    for v in _bits(stuck):
        if stuck.bit_count() <= 6:
            break
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


def is_strongly_chordal(g: Graph, limit=None) -> RecognitionResult:
    """Chordal and repeatedly reducible by simple vertices. The positive
    certificate is the simple elimination order; the negative one is a
    sun's 2k-cycle, an even cycle of length >= 6 with no odd chord.
    `limit` is ignored. Simple vertices are simplicial, so a stuck graph
    goes on to simplicial elimination from the stuck set, which stops
    where a run on the whole graph would; a chordless cycle there
    certifies a non-chordal graph."""
    order, stuck = _eliminate(g.nbr_masks, (1 << g.n) - 1, _simple)
    if stuck:
        unchordal = _eliminate(g.nbr_masks, stuck, _simplicial)[1]
        if unchordal:
            return _chordless_cycle(g, unchordal)
        cyc = _sun_cycle(g.nbr_masks, stuck)
        if len(cyc) < 6 or len(cyc) % 2 or not verify_cycle(g, cyc) or has_odd_chord(g, cyc):
            raise CertificateViolation(f"no even cycle without odd chord in the sun: {cyc}")
        return RecognitionResult(
            False,
            {"kind": "even_cycle_no_odd_chord", "cycle": cyc, "chords": cycle_chords(g, cyc)},
        )
    if not verify_simple_elimination_order(g, order):
        raise CertificateViolation(f"simple elimination order {order} fails its check")
    return RecognitionResult(True, {"kind": "strongly_chordal", "order": order})


def is_chordal_bipartite(g: Graph, limit=None) -> RecognitionResult:
    """Bipartite, and completing one class to a clique gives a strongly
    chordal graph; the completion's sun cycle is a chordless cycle of
    length >= 6 in g. `limit` is ignored."""
    try:
        coloring = two_color(g)
    except OddCycleFound as exc:
        return RecognitionResult(False, {"kind": "odd_cycle", "cycle": list(exc.cycle)})
    y = set_to_mask(coloring.y_class)  # complete Y: N(v) + Y - v for v in Y
    nbr = [m | y ^ 1 << v if y >> v & 1 else m for v, m in enumerate(g.nbr_masks)]
    stuck = _eliminate(nbr, (1 << g.n) - 1, _simple)[1]
    if stuck:
        cyc = _sun_cycle(nbr, stuck)
        if len(cyc) < 6 or not verify_cycle(g, cyc) or cycle_chords(g, cyc):
            raise CertificateViolation(f"no chordless long cycle in the sun: {cyc}")
        return RecognitionResult(False, {"kind": "chordless_long_cycle", "cycle": cyc})
    return RecognitionResult(
        True,
        {"kind": "chordal_bipartite", "x_class": sorted(coloring.x_class)},
    )


def is_comparability(g: Graph) -> RecognitionResult:
    """Transitive orientability by Golumbic's G-decomposition (1977): the
    implication class of the smallest remaining edge, taken among the
    remaining edges, either holds both directions of an edge (no transitive
    orientation) or is oriented as it stands and removed. The union of the
    classes is re-verified over all 2-paths."""
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
                    return RecognitionResult(False, {"kind": "no_transitive_orientation"})
                if (x, y) not in cls:
                    cls.add((x, y))
                    todo.append((x, y))
        for a, b in cls:
            nbr[a] &= ~(1 << b)
            nbr[b] &= ~(1 << a)
        orientation += cls
    orientation.sort()
    if not verify_transitive_orientation(g, orientation):
        raise CertificateViolation("the G-decomposition's orientation is not transitive")
    return RecognitionResult(
        True, {"kind": "transitive_orientation", "orientation": [list(e) for e in orientation]}
    )


def is_co_comparability(g: Graph) -> RecognitionResult:
    """Complement is a comparability graph; certificate transferred."""
    inner = is_comparability(complement(g))
    cert = dict(inner.certificate)
    cert["kind"] = "complement_" + cert["kind"]
    return RecognitionResult(inner.verdict, cert)
