"""Certified recognizers for the graph classes used by the constructions.

Each recognizer returns a RecognitionResult whose certificate either
re-verifies independently (positive) or exhibits a concrete violation
(negative). All run in polynomial time: strong chordality by deleting
simple vertices (Farber 1983), chordal bipartiteness by the same test on
the one-side completion, comparability by Golumbic's G-decomposition
(1977).
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import complete_one_side
from .errors import CertificateViolation, OddCycleFound
from .graph import Graph, complement, two_color


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    certificate: dict


# ---------------------------------------------------------------------------
# independent certificate verifiers (shared with the tests)


def verify_clique(g, vs):
    vs = list(vs)
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def verify_independent(g, vs):
    vs = list(vs)
    return not any(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def verify_elimination_order(g, order):
    """True iff eliminating along `order` always leaves later neighbors
    forming a clique (perfect elimination order)."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not verify_clique(g, later):
            return False
    return True


def verify_cycle(g, cyc):
    k = len(cyc)
    if k < 3 or len(set(cyc)) != k:
        return False
    return all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k))


def cycle_chords(g, cyc):
    """Chords of a cycle, as index pairs (i, j) into the cycle."""
    k = len(cyc)
    out = []
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if g.has_edge(cyc[i], cyc[j]):
                out.append((i, j))
    return out


def has_odd_chord(g, cyc):
    k = len(cyc)
    return any((j - i) % 2 == 1 for i, j in cycle_chords(g, cyc))


def verify_transitive_orientation(g, orientation):
    """Check a set of directed edges: one direction per edge of g, and
    every directed 2-path a->b->c is closed by a->c."""
    directed = set(tuple(e) for e in orientation)
    if len(directed) != g.m:
        return False
    for a, b in directed:
        if not g.has_edge(a, b) or (b, a) in directed:
            return False
    succ = {}
    for a, b in directed:
        succ.setdefault(a, set()).add(b)
    for a, b in directed:
        for c in succ.get(b, ()):
            if (a, c) not in directed:
                return False
    return True


# ---------------------------------------------------------------------------
# recognizers


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


def _mcs_order(g):
    """Maximum cardinality search; returns the visit order."""
    weight = [0] * g.n
    seen = [False] * g.n
    order = []
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if not seen[u]),
            key=lambda u: (weight[u], -u),
        )
        seen[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not seen[w]:
                weight[w] += 1
    return order


def _find_chordless_cycle(g):
    """A chordless cycle of length >= 4 in a non-chordal graph: for some
    vertex v with nonadjacent neighbors u, w, a shortest u-w path avoiding
    N[v] closes into an induced cycle through v."""
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if g.has_edge(u, w):
                    continue
                forbidden = (g.adj[v] | {v}) - {u, w}
                # BFS from u to w inside the allowed induced subgraph.
                prev = {u: None}
                queue = [u]
                while queue and w not in prev:
                    nq = []
                    for x in queue:
                        for y in sorted(g.adj[x]):
                            if y not in prev and y not in forbidden:
                                prev[y] = x
                                nq.append(y)
                    queue = nq
                if w in prev:
                    pth = [w]
                    while pth[-1] is not None:
                        pth.append(prev[pth[-1]])
                    pth.pop()
                    pth.reverse()  # u .. w
                    return [v] + pth
    return None


def is_chordal(g: Graph) -> RecognitionResult:
    """Chordality via maximum cardinality search plus perfect-elimination
    verification; negative certificate is a chordless cycle."""
    order = list(reversed(_mcs_order(g)))
    if verify_elimination_order(g, order):
        return RecognitionResult(
            True, {"kind": "perfect_elimination_order", "order": order}
        )
    cyc = _find_chordless_cycle(g)
    if cyc is None or not verify_cycle(g, cyc) or cycle_chords(g, cyc):
        raise CertificateViolation(f"no chordless cycle certifies non-chordality: {cyc}")
    return RecognitionResult(False, {"kind": "chordless_cycle", "cycle": cyc})


def _bits(mask):
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _simple_elimination(nbr, rest):
    """Delete simple vertices from the vertex set `rest`, sweeping it in
    ascending order until a sweep deletes none. A vertex is simple if the
    closed neighbourhoods of its closed neighbourhood form a chain; it stays
    simple in every induced subgraph, so the order of deletion does not
    matter. Returns the deletion order and the stuck remainder, which is 0
    iff the set induces a strongly chordal graph (Farber 1983)."""
    order = []
    swept = True
    while swept:
        swept = False
        for v in _bits(rest):
            hoods = sorted(
                ((nbr[u] | 1 << u) & rest for u in _bits((nbr[v] | 1 << v) & rest)),
                key=int.bit_count,
            )
            if all(not a & ~b for a, b in zip(hoods, hoods[1:])):
                rest ^= 1 << v
                order.append(v)
                swept = True
    return order, rest


def _sun_cycle(nbr, stuck):
    """Shrink a stuck remainder to a minimal vertex set that still gets
    stuck, dropping vertices in ascending order; a chordal minimal one is a
    sun. Returns the sun's cycle u1 w1 u2 w2 ..., where the w are its
    degree-2 vertices, from its smallest vertex towards the smaller
    neighbour."""
    for v in _bits(stuck):
        if stuck >> v & 1:
            rest = _simple_elimination(nbr, stuck ^ 1 << v)[1]
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


def verify_simple_elimination_order(g, order):
    """True iff `order` lists every vertex once and each vertex is simple
    among itself and the later ones (Farber's strong chordality
    certificate)."""
    if sorted(order) != list(range(g.n)):
        return False
    later = set(range(g.n))
    for v in order:
        hoods = sorted(
            ((g.adj[u] | {u}) & later for u in (g.adj[v] | {v}) & later), key=len
        )
        if any(not a <= b for a, b in zip(hoods, hoods[1:])):
            return False
        later.remove(v)
    return True


def is_strongly_chordal(g: Graph, limit=None) -> RecognitionResult:
    """Chordal and repeatedly reducible by simple vertices. The positive
    certificate is the simple elimination order; the negative one is a
    sun's 2k-cycle, an even cycle of length >= 6 with no odd chord.
    `limit` is ignored."""
    chordal = is_chordal(g)
    if not chordal.verdict:
        return chordal
    order, stuck = _simple_elimination(g.nbr_masks, (1 << g.n) - 1)
    if stuck:
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
    nbr = complete_one_side(coloring, "Y").result.nbr_masks
    stuck = _simple_elimination(nbr, (1 << g.n) - 1)[1]
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
    for u, v in g.sorted_edges():
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
