"""Branch decompositions: rooted binary trees whose leaves are the vertices.

A tree node is either an int (leaf label) or a pair of child nodes.
Decompositions are canonical: at every internal node the child with the
smaller minimum leaf label comes first, so equality is syntactic. The
public constructors (`BranchDecomposition(root)`, `from_text`) refuse
any other node and canonicalize on construction. The solver builds its
trees canonical and wraps them by `BranchDecomposition._canonical`,
which skips the fold.

One lazy postorder fold (`_fold`) serves the constructor, `to_text`,
`validate`, `subtree_leaf_sets` and the solver's critical cut, which
stops at the first node whose cut reaches the width. The constructor and
`to_text` keep only the root's value (a deque of one), since the values
of all subtrees together take quadratic space on a path-like tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GraphFormatError, LabelMismatch, NotBinary


_CLOSE = object()  # on `_fold`'s stack, closes the innermost open node


def _fold(root, leaf, combine):
    """Yield the value of every node in postorder (root last), without
    recursion: leaf(label) at a leaf, combine(left, right) at an internal
    node. Raises NotBinary at a node with other than two children."""
    done = []  # values of the finished children of open nodes
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            if len(node) != 2:
                raise NotBinary(f"internal node with {len(node)} children")
            stack += (_CLOSE, node[1], node[0])
            continue
        if node is _CLOSE:
            right = done.pop()
            val = combine(done.pop(), right)
        else:
            val = leaf(node)
        done.append(val)
        yield val


def _canon_node(a, b):
    # a, b: (canonical subtree, minimum leaf) pairs.
    if b[1] < a[1]:
        a, b = b, a
    return (a[0], b[0]), a[1]


def _canon_leaf(v):
    if v.__class__ is not int:  # not a bool, which to_text writes as True
        raise LabelMismatch(f"leaf {v!r} is not an int vertex")
    return v, v


def _canon(root):
    return deque(_fold(root, _canon_leaf, _canon_node), maxlen=1)[0][0]


class BranchDecomposition:
    __slots__ = ("root",)

    def __init__(self, root):
        self.root = _canon(root)

    @classmethod
    def _canonical(cls, root):
        """The decomposition of `root`, which must already be canonical:
        no fold, and no check."""
        t = cls.__new__(cls)
        t.root = root
        return t

    def to_text(self):
        return deque(_fold(self.root, str, lambda a, b: f"({a} {b})"), maxlen=1)[0]

    @classmethod
    def from_text(cls, text):
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        open_nodes = [[]]  # children read so far; the bottom entry holds the root
        for tok in tokens:
            if len(open_nodes) == 1 and open_nodes[0]:
                raise GraphFormatError("trailing tokens in decomposition text")
            if tok == "(":
                open_nodes.append([])
            elif tok == ")":
                if len(open_nodes) == 1:
                    raise GraphFormatError("unexpected ')'")
                children = open_nodes.pop()
                open_nodes[-1].append(tuple(children))
            else:
                try:
                    open_nodes[-1].append(int(tok))
                except ValueError:
                    raise GraphFormatError(f"bad leaf label {tok!r}") from None
        if len(open_nodes) > 1:
            raise GraphFormatError("unbalanced parentheses")
        if not open_nodes[0]:
            raise GraphFormatError("unexpected end of decomposition text")
        return cls(open_nodes[0][0])

    # Canonical roots have one text each; comparing nested tuples would
    # recurse once per level.
    def __eq__(self, other):
        return isinstance(other, BranchDecomposition) and self.to_text() == other.to_text()

    def __hash__(self):
        return hash(self.to_text())

    def __repr__(self):
        return f"BranchDecomposition({self.to_text()})"


@dataclass(frozen=True)
class Cut:
    """The side of one tree node: the vertices under it."""

    a_side: frozenset


def validate(t: BranchDecomposition, g):
    """Check tree shape and leaf bijection; raise on the first violation."""
    folded = _fold(t.root, _canon_leaf, lambda a, b: None)  # internal nodes: None
    labels = sorted(v for v, _ in filter(None, folded))
    if labels != list(range(g.n)):
        raise LabelMismatch(f"leaves {labels} are not a bijection onto 0..{g.n - 1}")


def subtree_leaf_sets(t: BranchDecomposition):
    """Leaf set of every node, in postorder (root last)."""
    return list(_fold(t.root, lambda v: frozenset((v,)), frozenset.union))
