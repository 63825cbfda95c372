"""Simple undirected graphs on vertices 0..n-1, generators, and file I/O.

All values are immutable after construction and generators are pure
functions of their arguments (including the seed), so everything here can
be shared freely across threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import index

from .errors import GraphFormatError, InvalidParameter, LimitExceeded, OddCycleFound


class Graph:
    """Undirected simple graph. Vertices are the dense range 0..n-1."""

    __slots__ = ("n", "edges", "nbr_masks", "_adj")

    def __init__(self, n, edges=()):
        # operator.index takes ints and bools (as 0 or 1), not floats or strings.
        try:
            n = index(n)
        except TypeError:
            raise InvalidParameter(f"vertex count {n!r} is not an integer") from None
        if n < 0:
            raise InvalidParameter("vertex count must be non-negative")
        es = set()
        masks = [0] * n
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidParameter(f"edge {e!r} is not a pair of vertices") from None
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise InvalidParameter(f"edge ({u!r},{v!r}) has a non-integer end") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameter(f"edge ({u},{v}) outside [0,{n})")
            if u == v:
                raise InvalidParameter(f"self-loop at vertex {u}")
            es.add((u, v) if u < v else (v, u))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.edges = frozenset(es)
        # Neighbour bitmasks, indexed by vertex: bit w of entry v is set iff
        # vw is an edge. The library's algorithms read these.
        self.nbr_masks = tuple(masks)
        self._adj = None

    @property
    def m(self):
        return len(self.edges)

    @property
    def adj(self):
        """Tuple of neighbor frozensets, indexed by vertex, for the
        set-based certificate checkers; algorithms read `nbr_masks`."""
        if self._adj is None:
            nbrs = [set() for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = tuple(frozenset(s) for s in nbrs)
        return self._adj

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.edges

    def degree(self, v):
        return self.nbr_masks[v].bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class BipartiteGraph:
    """A graph together with a certified two-coloring (classes X and Y)."""

    __slots__ = ("graph", "x_class", "y_class")

    def __init__(self, graph, x_class, y_class):
        try:  # the class labels, read as Graph() reads its labels
            x = frozenset(map(index, x_class))
            y = frozenset(map(index, y_class))
        except TypeError:
            raise InvalidParameter("color classes hold a non-integer vertex") from None
        if x & y:
            raise InvalidParameter("color classes overlap")
        if x | y != frozenset(range(graph.n)):
            raise InvalidParameter("color classes do not cover all vertices")
        for u, v in graph.edges:
            if (u in x) == (v in x):
                raise InvalidParameter(f"edge ({u},{v}) inside one color class")
        self.graph = graph
        self.x_class = x
        self.y_class = y

    @property
    def n(self):
        return self.graph.n

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and self.graph == other.graph
            and self.x_class == other.x_class
        )

    def __hash__(self):
        return hash((self.graph, self.x_class))

    def __repr__(self):
        return f"BipartiteGraph(n={self.n}, |X|={len(self.x_class)}, |Y|={len(self.y_class)})"


def _bits(mask):
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique(nbr, s):
    """Whether the vertex set `s` is a clique under the neighbour masks
    `nbr`: no member misses another."""
    rest = s
    while rest:
        low = rest & -rest
        if s & ~(nbr[low.bit_length() - 1] | low):
            return False
        rest ^= low
    return True


def _bfs(nbr, allowed, roots):
    """Breadth-first search under the neighbour masks `nbr`, entering only
    the vertices of the mask `allowed`: from each root in turn that no
    earlier root reached (a root need not lie in `allowed`), first in
    first out, neighbours ascending. Returns the vertices in the order
    found and a dict of each one's parent, None at a root."""
    order = []
    parent = {}
    seen = ~allowed
    i = 0
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        order.append(root)
        seen |= 1 << root
        while i < len(order):
            u = order[i]
            new = nbr[u] & ~seen
            seen |= new
            for w in _bits(new):
                parent[w] = u
                order.append(w)
            i += 1
    return order, parent


def set_to_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_to_set(mask) -> frozenset:
    return frozenset(_bits(mask))


@dataclass(frozen=True)
class DegeneracyResult:
    d: int
    order: tuple


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    edges = [
        (u, v) for u, nbr in enumerate(g.nbr_masks) for v in _bits(full & ~nbr & -(2 << u))
    ]
    return Graph(g.n, edges)


def subdivide_all_edges(g: Graph) -> BipartiteGraph:
    """Replace every edge by a path of length 2.

    Original vertices keep their indices and become class X; the i-th edge
    in sorted order becomes the new degree-2 vertex g.n + i in class Y.
    """
    n = g.n
    es = sorted(g.edges)
    new_edges = []
    for i, (u, v) in enumerate(es):
        w = n + i
        new_edges.append((u, w))
        new_edges.append((v, w))
    sub = Graph(n + len(es), new_edges)
    return BipartiteGraph(sub, range(n), range(n, n + len(es)))


def two_color(g: Graph) -> BipartiteGraph:
    """Two-color g by BFS depth parity, or raise OddCycleFound with an odd
    cycle certificate.

    Depth is distance from the component's root in the search of `_bfs`,
    so the two ends of an edge differ in depth by at most one. An edge
    joins two vertices of one parity class only if their depths are
    equal, and then their tree paths to the lowest common ancestor, of
    equal length, close an odd cycle with it. The conflict is that of the
    first vertex u, in search order, with such an edge, at its lowest such
    neighbour: every vertex of u's depth is found before u's neighbours
    are read. The X class is the even depths: the side containing the
    lowest-indexed vertex of each connected component; isolated vertices
    default to X.
    """
    nbr = g.nbr_masks
    full = (1 << g.n) - 1
    order, parent = _bfs(nbr, full, range(g.n))
    x = 0  # the even depths: a root, or a child of an odd vertex
    for u in order:
        p = parent[u]
        if p is None or not x >> p & 1:
            x |= 1 << u
    for u in order:
        clash = nbr[u] & (x if x >> u & 1 else ~x)
        if clash:
            raise OddCycleFound(_odd_cycle(u, (clash & -clash).bit_length() - 1, parent))
    return BipartiteGraph(g, _bits(x), _bits(full ^ x))


def _odd_cycle(u, w, parent):
    # The two ends of the conflict edge have equal depth, so climbing both
    # one step at a time meets at their lowest common ancestor in the BFS
    # forest; the two paths plus the edge form the cycle.
    pu, pw = [u], [w]
    while pu[-1] != pw[-1]:
        pu.append(parent[pu[-1]])
        pw.append(parent[pw[-1]])
    return pu + pw[-2::-1]


def degeneracy(g: Graph) -> DegeneracyResult:
    """Degeneracy via repeated minimum-degree removal (lowest index first).
    bucket[k] is the bitmask of the remaining vertices of degree k; the
    least nonempty bucket drops by at most one per removal, so the scan
    for it costs O(n) in all."""
    nbr = g.nbr_masks
    deg = [m.bit_count() for m in nbr]
    bucket = [0] * (g.n + 1)
    for v, k in enumerate(deg):
        bucket[k] |= 1 << v
    rest = (1 << g.n) - 1
    order = []
    d = k = 0
    while rest:
        while not bucket[k]:
            k += 1
        low = bucket[k] & -bucket[k]
        v = low.bit_length() - 1
        bucket[k] ^= low
        rest ^= low
        d = max(d, k)
        order.append(v)
        for w in _bits(nbr[v] & rest):
            bucket[deg[w]] ^= 1 << w
            deg[w] -= 1
            bucket[deg[w]] |= 1 << w
        k = max(k - 1, 0)
    return DegeneracyResult(d, tuple(order))


# ---------------------------------------------------------------------------
# generators


def grid(rows, cols) -> Graph:
    if rows < 1 or cols < 1:
        raise InvalidParameter("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def cycle(n) -> Graph:
    if n < 3:
        raise InvalidParameter("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n) -> Graph:
    if n < 1:
        raise InvalidParameter("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a, b) -> BipartiteGraph:
    if a < 0 or b < 0:
        raise InvalidParameter("class sizes must be non-negative")
    g = Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    return BipartiteGraph(g, range(a), range(a, a + b))


def random_bipartite(nx, ny, p, seed) -> BipartiteGraph:
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter("edge probability must be in [0,1]")
    if nx < 0 or ny < 0:
        raise InvalidParameter("class sizes must be non-negative")
    rng = random.Random(seed)
    edges = [
        (u, nx + v)
        for u in range(nx)
        for v in range(ny)
        if rng.random() < p
    ]
    g = Graph(nx + ny, edges)
    return BipartiteGraph(g, range(nx), range(nx, nx + ny))


def random_cubic(n, seed) -> Graph:
    """Seeded 3-regular simple graph via the configuration model.

    Stub pairings with loops or parallel edges are fully resampled until a
    simple graph appears.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidParameter("random_cubic needs even n >= 4")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n, edges)


def free_trees(n):
    """Yield one tree per isomorphism class of trees on n vertices.

    A tree is a level sequence (the depth of each vertex in preorder)
    rooted at a center, under the test of Wright, Richmond, Odlyzko and
    McKay ("Constant time generation of free trees", SIAM J. Comput. 1986):
    the root's first subtree L and the rest R (the tree with L removed)
    must satisfy (height, size, sequence) of L <= that of R. Every rooted
    level sequence from the centered path down to the star is tested, in
    Beyer-Hedetniemi order, and the ones that pass are yielded; without
    the paper's jump past failing runs, the time per tree is not constant.
    Vertex i of the yielded Graph is position i of its level sequence; its
    parent is the closest earlier vertex one level up.
    """
    if n < 0:
        raise InvalidParameter("vertex count must be non-negative")
    if n <= 1:
        if n == 1:
            yield Graph(1)
        return
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        split = seq.index(1, 2) if 1 in seq[2:] else n
        left = [d - 1 for d in seq[1:split]]
        rest = [0] + seq[split:]
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            parent_at = [0] * n
            edges = []
            for i in range(1, n):
                edges.append((parent_at[seq[i] - 1], i))
                parent_at[seq[i]] = i
            yield Graph(n, edges)
        p = n - 1
        while seq[p] == 1:
            p -= 1
        if p == 0:
            return
        seq = _next_rooted_tree(seq, p)


def _next_rooted_tree(seq, p):
    # Beyer-Hedetniemi successor: with q the last position before p one
    # level above it, repeat the block seq[q:p] from p to the end.
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = seq[:p]
    for i in range(p, len(seq)):
        out.append(out[i - p + q])
    return out


# ---------------------------------------------------------------------------
# text format: `graph <n> <m>`, then m sorted `<u> <v>` lines (u < v),
# optionally a final `bip <x_class indices>` line.


def graph_to_text(g: Graph) -> str:
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def bipartite_to_text(b: BipartiteGraph) -> str:
    bip = " ".join(str(v) for v in sorted(b.x_class))
    return graph_to_text(b.graph) + ("bip " + bip).rstrip() + "\n"


# The most vertices a graph file's header may declare, checked before
# anything of size n is built: a header at the cap costs about 1 MB.
MAX_VERTICES = 1 << 16


def parse_graph_text(text):
    """Parse the edge-list format; returns Graph, or BipartiteGraph if a
    `bip` line is present. Accepts unsorted edge lines. Raises
    LimitExceeded if the header declares more than MAX_VERTICES vertices."""
    stripped = (ln.strip() for ln in text.splitlines())
    lines = [ln for ln in stripped if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    try:
        tag, n, m = lines[0].split()
        n, m = int(n), int(m)
    except ValueError:
        tag = None
    if tag != "graph" or n < 0 or m < 0:
        raise GraphFormatError(f"bad header line: {lines[0]!r}")
    if n > MAX_VERTICES:
        raise LimitExceeded(f"n={n} exceeds the graph file vertex cap {MAX_VERTICES}")
    if len(lines) < 1 + m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1 : 1 + m]:
        try:
            u, v = ln.split()
            edges.append((int(u), int(v)))
        except ValueError:
            raise GraphFormatError(f"bad edge line: {ln!r}") from None
    rest = lines[1 + m :]
    try:
        g = Graph(n, edges)
        if g.m != m:
            raise GraphFormatError("duplicate edges in file")
        if not rest:
            return g
        if len(rest) != 1 or rest[0].split()[0] != "bip":
            raise GraphFormatError(f"unexpected trailing lines: {rest!r}")
        try:
            x = [int(t) for t in rest[0].split()[1:]]
        except ValueError:
            raise GraphFormatError(f"bad bip line: {rest[0]!r}") from None
        return BipartiteGraph(g, x, set(range(n)) - set(x))
    except InvalidParameter as exc:
        raise GraphFormatError(str(exc)) from None


def load_graph(filename):
    with open(filename, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{filename}: not UTF-8 text at byte {exc.start}") from None
    return parse_graph_text(text)
