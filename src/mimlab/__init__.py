"""mimlab: branch decompositions, mim-width solvers, graph-class
recognizers, and extremal constructions on small graphs."""

from .construct import (
    ChordDiagram,
    CompletionRecord,
    build_subdivided_family,
    complete_both_sides,
    complete_one_side,
    completion_ratio,
    embed_chord_diagram,
    verify_chord_diagram,
)
from .decomp import BranchDecomposition, Cut, validate
from .graph import (
    BipartiteGraph,
    DegeneracyResult,
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    degeneracy,
    free_trees,
    graph_to_text,
    grid,
    load_graph,
    parse_graph_text,
    path,
    random_bipartite,
    random_cubic,
    subdivide_all_edges,
    two_color,
)
from .recognize import (
    RecognitionResult,
    is_chordal,
    is_chordal_bipartite,
    is_co_comparability,
    is_comparability,
    is_split,
    is_strongly_chordal,
)
from .solver import (
    Eq1Bound,
    InducedMatching,
    TreewidthReport,
    WidthReport,
    max_induced_matching_cut,
    mimw_exact,
    mimw_lower_eq1,
    mimw_upper,
    treewidth_exact,
    verify_induced_matching,
)

__version__ = "0.1.0"
