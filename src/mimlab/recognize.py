"""Certified recognizers for the graph classes used by the constructions.

Each recognizer returns a RecognitionResult whose certificate either
re-verifies independently (positive) or exhibits a concrete violation
(negative). Strong chordality and chordal bipartiteness are decided by
definition-level exhaustive cycle enumeration, which keeps the checkers
auditable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateViolation, LimitExceeded, OddCycleFound
from .graph import Graph, complement, two_color

DEFAULT_CYCLE_LIMIT = 16
DEFAULT_ORIENT_LIMIT = 16


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
# cycle enumeration


def enumerate_cycles(g: Graph, min_len=3):
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


def is_strongly_chordal(g: Graph, limit=DEFAULT_CYCLE_LIMIT) -> RecognitionResult:
    """Chordal, and every even cycle of length >= 6 has an odd chord
    (checked by exhaustive cycle enumeration)."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds cycle enumeration limit {limit}")
    chordal = is_chordal(g)
    if not chordal.verdict:
        return chordal
    violating = None
    checked = 0
    for cyc in enumerate_cycles(g, min_len=6):
        if len(cyc) % 2 != 0:
            continue
        checked += 1
        if not has_odd_chord(g, cyc):
            key = (len(cyc), cyc)
            if violating is None or key < violating:
                violating = key
    if violating is not None:
        cyc = list(violating[1])
        return RecognitionResult(
            False,
            {
                "kind": "even_cycle_no_odd_chord",
                "cycle": cyc,
                "chords": cycle_chords(g, cyc),
            },
        )
    return RecognitionResult(
        True,
        {
            "kind": "strongly_chordal",
            "order": chordal.certificate["order"],
            "even_cycles_checked": checked,
        },
    )


def is_chordal_bipartite(g: Graph, limit=DEFAULT_CYCLE_LIMIT) -> RecognitionResult:
    """Bipartite, and every cycle of length >= 6 has a chord."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds cycle enumeration limit {limit}")
    try:
        coloring = two_color(g)
    except OddCycleFound as exc:
        return RecognitionResult(False, {"kind": "odd_cycle", "cycle": list(exc.cycle)})
    violating = None
    for cyc in enumerate_cycles(g, min_len=6):
        if not cycle_chords(g, cyc):
            key = (len(cyc), cyc)
            if violating is None or key < violating:
                violating = key
    if violating is not None:
        return RecognitionResult(
            False, {"kind": "chordless_long_cycle", "cycle": list(violating[1])}
        )
    return RecognitionResult(
        True,
        {"kind": "chordal_bipartite", "x_class": sorted(coloring.x_class)},
    )


def _propagate(g, orient, queue):
    """Force orientations implied by transitivity. `orient` maps each
    oriented edge (normalized) to its (tail, head). Returns False on
    contradiction."""

    def force(a, b):
        key = (a, b) if a < b else (b, a)
        cur = orient.get(key)
        if cur is None:
            orient[key] = (a, b)
            queue.append((a, b))
            return True
        return cur == (a, b)

    while queue:
        a, b = queue.pop()
        for c in g.adj[b]:
            if c == a:
                continue
            key = (b, c) if b < c else (c, b)
            cur = orient.get(key)
            if cur == (b, c):
                # a -> b -> c needs a -> c.
                if not g.has_edge(a, c) or not force(a, c):
                    return False
            elif cur is None and not g.has_edge(a, c):
                # b -> c would need the nonexistent edge a-c.
                if not force(c, b):
                    return False
        for c in g.adj[a]:
            if c == b:
                continue
            key = (a, c) if a < c else (c, a)
            cur = orient.get(key)
            if cur == (c, a):
                # c -> a -> b needs c -> b.
                if not g.has_edge(c, b) or not force(c, b):
                    return False
            elif cur is None and not g.has_edge(c, b):
                # c -> a would need the nonexistent edge c-b.
                if not force(a, c):
                    return False
    return True


def is_comparability(g: Graph, limit=DEFAULT_ORIENT_LIMIT) -> RecognitionResult:
    """Transitive orientability via backtracking with implication-class
    propagation; positive certificate re-verified over all 2-paths."""
    if g.n > limit:
        raise LimitExceeded(f"n={g.n} exceeds orientation search limit {limit}")
    edges = g.sorted_edges()

    def search(orient):
        pending = [e for e in edges if e not in orient]
        if not pending:
            ori = sorted(orient.values())
            return ori if verify_transitive_orientation(g, ori) else None
        u, v = pending[0]
        for a, b in ((u, v), (v, u)):
            trial = dict(orient)
            trial[(u, v)] = (a, b)
            if _propagate(g, trial, [(a, b)]):
                got = search(trial)
                if got is not None:
                    return got
        return None

    got = search({})
    if got is None:
        return RecognitionResult(False, {"kind": "no_transitive_orientation"})
    return RecognitionResult(
        True, {"kind": "transitive_orientation", "orientation": [list(e) for e in got]}
    )


def is_co_comparability(g: Graph, limit=DEFAULT_ORIENT_LIMIT) -> RecognitionResult:
    """Complement is a comparability graph; certificate transferred."""
    inner = is_comparability(complement(g), limit)
    cert = dict(inner.certificate)
    cert["kind"] = "complement_" + cert["kind"]
    return RecognitionResult(inner.verdict, cert)
