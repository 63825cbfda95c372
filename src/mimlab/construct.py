"""The four graph transformations with machine-checkable outputs:
one-side completion (split graphs), two-side completion (co-comparability),
the subdivided cubic family, and its chord-diagram embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .check import verify_induced_matching
from .errors import (
    DegreeViolation,
    GraphFormatError,
    InvalidParameter,
    MissingEdge,
    SpuriousXYCrossing,
    XXCrossing,
)
from .graph import BipartiteGraph, Graph, _bits, random_cubic, subdivide_all_edges
from .solver import DEFAULT_EXACT_LIMIT, InducedMatching, mimw_exact


@dataclass(frozen=True)
class CompletionRecord:
    """A bipartite graph, the graph obtained by adding intra-class edges,
    and the added edge set."""

    original: BipartiteGraph
    result: Graph
    added_edges: frozenset

    def __post_init__(self):
        g = self.original.graph
        if self.added_edges & g.edges:
            raise InvalidParameter("added edges overlap the original graph")
        if self.result.edges != g.edges | self.added_edges:
            raise InvalidParameter("result is not original plus added edges")
        for u, v in self.added_edges:
            in_x = u in self.original.x_class
            if in_x != (v in self.original.x_class):
                raise InvalidParameter(f"added edge ({u},{v}) crosses the classes")


def _intra_pairs(b: BipartiteGraph, sides="XY"):
    """The pairs inside each chosen class, X before Y, in sorted order.
    None is an edge, since `BipartiteGraph` refuses an edge inside a class."""
    pairs = []
    for side in sides:
        vs = sorted(b.x_class if side == "X" else b.y_class)
        pairs += ((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])
    return pairs


def _completion(b: BipartiteGraph, added) -> CompletionRecord:
    """The record of b with the intra-class pairs `added` as edges."""
    added = frozenset(added)
    return CompletionRecord(b, Graph(b.n, b.graph.edges | added), added)


def complete_one_side(b: BipartiteGraph, side="Y") -> CompletionRecord:
    """Add an edge between every pair of vertices in the chosen class;
    the result is a split graph (completed class = clique)."""
    if side not in ("X", "Y"):
        raise InvalidParameter("side must be 'X' or 'Y'")
    return _completion(b, _intra_pairs(b, side))


def complete_both_sides(b: BipartiteGraph) -> CompletionRecord:
    """Add all intra-class edges on both sides; the complement of the
    result is bipartite with the same classes."""
    return _completion(b, _intra_pairs(b))


def build_subdivided_family(n, seed) -> BipartiteGraph:
    """Seeded random cubic graph with every edge subdivided: all X-degrees
    are 3, all Y-degrees are 2, and the result is 2-degenerate."""
    return subdivide_all_edges(random_cubic(n, seed))


@dataclass(frozen=True)
class ChordDiagram:
    """Double-occurrence circular word over chord labels; two chords are
    adjacent in the derived intersection graph iff they interleave."""

    word: tuple

    def crossings(self):
        """All interleaving label pairs, as sorted 2-tuples. Raises
        InvalidParameter if a label does not occur exactly twice."""
        pos = {}
        for i, lab in enumerate(self.word):
            pos.setdefault(lab, []).append(i)
        chords = []
        for lab in sorted(pos):
            if len(pos[lab]) != 2:
                raise InvalidParameter(f"chord label {lab!r} does not have two ends")
            chords.append((lab, *pos[lab]))
        out = set()
        for i, (a, p1, p2) in enumerate(chords):
            for b, q1, q2 in chords[i + 1 :]:
                if (p1 < q1 < p2 < q2) or (q1 < p1 < q2 < p2):
                    out.add((a, b))
        return out

    def to_text(self):
        """Canonical one-line form: the lexicographically smallest rotation,
        which starts at a least label, so only those rotations are compared."""
        w = self.word
        low = min(w, default=None)
        best = min((tuple(w[i:] + w[:i]) for i in range(len(w)) if w[i] == low), default=())
        return " ".join(str(x) for x in best)

    @classmethod
    def from_text(cls, text):
        word = []
        for tok in text.split():
            try:
                word.append(int(tok))
            except ValueError:
                raise GraphFormatError(f"bad chord label {tok!r}") from None
        return cls(tuple(word))


def embed_chord_diagram(b: BipartiteGraph) -> ChordDiagram:
    """Chord diagram of the circle-graph construction.

    X-chords get disjoint private arcs in X-index order and never cross
    each other; each degree-2 Y-vertex puts one endpoint inside the private
    arc of each of its two neighbors (ordered by Y index within an arc), so
    it crosses exactly the X-chords of its neighbors.
    """
    g = b.graph
    for y in sorted(b.y_class):
        if g.degree(y) != 2:
            raise DegreeViolation(f"Y vertex {y} has degree {g.degree(y)}, need 2")
    word = []
    for x in sorted(b.x_class):
        word.append(x)
        word.extend(_bits(g.nbr_masks[x]))
        word.append(x)
    return ChordDiagram(tuple(word))


def verify_chord_diagram(d: ChordDiagram, b: BipartiteGraph):
    """Certify that the diagram's intersection graph differs from b only by
    Y-internal edges: no X-X crossing, and X-Y crossings exactly the edges.
    Returns None on success, raises a DiagramViolation otherwise."""
    crossings = sorted(d.crossings())
    if set(d.word) != set(range(b.n)):
        raise InvalidParameter("word is not a double occurrence of all vertices")
    xs = b.x_class
    xy_seen = set()
    for a, c in crossings:
        a_in_x, c_in_x = a in xs, c in xs
        if a_in_x and c_in_x:
            raise XXCrossing(f"X-chords {a} and {c} cross")
        if a_in_x != c_in_x:
            if not b.graph.has_edge(a, c):
                raise SpuriousXYCrossing(f"chords {a} and {c} cross without an edge")
            xy_seen.add((a, c))
    missing = sorted(b.graph.edges - xy_seen)
    if missing:
        raise MissingEdge(f"edges without a crossing: {missing}")
    return None


def width_ratio(num, den) -> Fraction:
    """num / den as an exact rational, for widths. Both zero gives 1 by
    convention; a zero den with a nonzero num yields the (vacuously large)
    num itself."""
    if den == 0:
        return Fraction(1) if num == 0 else Fraction(num)
    return Fraction(num, den)


def completion_ratio(rec: CompletionRecord, limit=DEFAULT_EXACT_LIMIT) -> Fraction:
    """mimw(result) / mimw(original) by `width_ratio`, with exact widths."""
    return width_ratio(
        mimw_exact(rec.result, limit).value, mimw_exact(rec.original.graph, limit).value
    )


def split_submatching_survives(rec: CompletionRecord, report) -> bool:
    """Exercise the sub-matching argument behind the edge-addition bound:
    split the witness matching of the original's critical cut by which side
    its X-endpoints lie on; the larger half must stay induced in the
    completed graph's cut graph. Being the larger, it covers at least half
    the matching by its choice."""
    if report.value == 0:
        return True
    a = report.critical_cut.a_side
    xs = rec.original.x_class
    in_a, out_a = [], []
    for u, v in report.witness_matching.edges:
        x_end = u if u in xs else v
        (in_a if x_end in a else out_a).append((u, v))
    half = in_a if len(in_a) >= len(out_a) else out_a
    return verify_induced_matching(rec.result, InducedMatching(a, tuple(half)))
