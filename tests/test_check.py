"""The independent checkers: what `mimlab.check` may read, and how it
reads a certificate it cannot parse."""

import ast
import sys
from pathlib import Path

import pytest

from mimlab import check
from mimlab.errors import InvalidParameter
from mimlab.graph import Graph, cycle, path

# The tables and helpers that the searches share, which a checker must not
# read: a fault in one of them would then pass a wrong witness.
SHARED = {"nbr_masks", "tail", "head", "conf", "cut_arcs", "degree"}


def test_checkers_read_nothing_the_searches_share():
    tree = ast.parse(Path(check.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "errors"), ast.dump(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names
            ]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, name
        elif isinstance(node, ast.Attribute):
            assert node.attr not in SHARED, f"line {node.lineno} reads .{node.attr}"


@pytest.mark.parametrize(
    "checker, g, cert",
    [
        (check.verify_cycle, cycle(5), [0, 1, "a"]),
        (check.verify_elimination_order, cycle(5), [0, "x", 2, 3, 4]),
        (check.verify_simple_elimination_order, cycle(5), [0, "x", 2, 3, 4]),
        (check.verify_clique, cycle(5), [0, "a"]),
        (check.verify_transitive_orientation, Graph(2, [(0, 1)]), [(0,)]),
    ],
)
def test_malformed_certificate_is_false(checker, g, cert):
    assert checker(g, cert) is False


def test_cycle_chords_refuses_a_vertex_outside_the_graph():
    with pytest.raises(InvalidParameter):
        check.cycle_chords(cycle(5), [0, 9])


@pytest.mark.parametrize(
    "orientation",
    [
        [(0, 1)],  # misses the edge 12
        [(0, 1), (1, 0)],  # both directions of 01, and misses 12
        [(0, 1), (1, 0), (2, 1)],  # both directions of 01
        [(0, 1), (0, 2)],  # 02 is no edge, and 12 is missed
    ],
)
def test_orientation_must_hold_each_edge_once(orientation):
    # Readable orientations of P3 that are not one direction per edge.
    assert check.verify_transitive_orientation(path(3), orientation) is False
