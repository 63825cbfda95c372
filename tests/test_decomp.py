import tracemalloc

import pytest

from conftest import caterpillar_from_order, cuts, enumerate_decompositions
from mimlab.decomp import BranchDecomposition, subtree_leaf_sets, validate
from mimlab.errors import (
    GraphFormatError,
    InvalidParameter,
    LabelMismatch,
    LimitExceeded,
    NotBinary,
)
from mimlab.graph import Graph, complete, path
from mimlab.solver import WidthReport


def test_validate_ok():
    t = caterpillar_from_order(range(4))
    assert validate(t, path(4)) is None


def test_validate_label_mismatch():
    t = caterpillar_from_order(range(4))
    with pytest.raises(LabelMismatch):
        validate(t, path(5))


def test_validate_rejects_non_int_leaves():
    # A float leaf would break cuts(), and a bool one to_text()'s round trip.
    # The public constructor refuses them, so these trees skip the fold.
    for leaf in (1.0, True, "1"):
        with pytest.raises(LabelMismatch):
            validate(BranchDecomposition._canonical((0, leaf)), path(2))


def test_constructor_rejects_non_int_leaves():
    # The rule of validate, before the fold sorts a str next to an int.
    for root in [(0, "1"), ("1", 0), (0, 1.0), (0, True), ((0, 1), (2, None)), (0, [1])]:
        with pytest.raises(LabelMismatch):
            BranchDecomposition(root)


def test_validate_not_binary():
    # The public constructor refuses this tree, so it skips the fold.
    t = BranchDecomposition._canonical((0, 1, 2))
    with pytest.raises(NotBinary):
        validate(t, path(3))


@pytest.mark.parametrize("root", [(0, 1, 2), (0,), (), ((0, 1),), ((0, 1), (2, 3, 4))])
def test_constructor_rejects_non_binary(root):
    with pytest.raises(NotBinary):
        BranchDecomposition(root)


@pytest.mark.parametrize("text", ["(0 1 2)", "()", "((0 1))", "((0 1) (2))"])
def test_from_text_rejects_non_binary(text):
    with pytest.raises(NotBinary):
        BranchDecomposition.from_text(text)


def test_cuts_p3_caterpillar():
    g = path(3)
    t = caterpillar_from_order([0, 1, 2])
    a_sides = {c.a_side for c in cuts(t, g)}
    assert a_sides == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    }


def test_cuts_n2():
    g = Graph(2, [(0, 1)])
    t = BranchDecomposition((0, 1))
    assert {c.a_side for c in cuts(t, g)} == {
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }


def test_root_cut_is_trivial():
    g = path(4)
    t = caterpillar_from_order(range(4))
    root_cut = cuts(t, g)[-1]
    assert root_cut.a_side == frozenset(range(4))
    assert root_cut.cut_edges == ()


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_cut_count_is_2n_minus_1(n):
    g = Graph(n)
    t = caterpillar_from_order(range(n))
    assert len(cuts(t, g)) == 2 * n - 1


def test_parent_a_side_is_union_of_children():
    t = BranchDecomposition(((0, 1), (2, (3, 4))))
    sets = subtree_leaf_sets(t)
    assert sets[-1] == frozenset(range(5))
    # postorder: children appear before their parent and union up
    assert frozenset({3, 4}) in sets and frozenset({2, 3, 4}) in sets


def test_caterpillar_p4_cut_edges():
    g = path(4)
    t = caterpillar_from_order(range(4))
    for c in cuts(t, g):
        if c.a_side not in ({frozenset(range(4))},) and len(c.a_side) < 4:
            assert len(c.cut_edges) <= 2


def test_caterpillar_rejects_non_permutation():
    with pytest.raises(InvalidParameter):
        caterpillar_from_order([0, 1, 1])
    with pytest.raises(InvalidParameter):
        caterpillar_from_order([1])


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 15), (5, 105), (6, 945)])
def test_enumeration_counts(n, count):
    ts = list(enumerate_decompositions(n))
    assert len(ts) == count
    # pairwise distinct after canonicalization
    assert len({t.to_text() for t in ts}) == count


def test_enumeration_limit():
    with pytest.raises(LimitExceeded):
        next(enumerate_decompositions(10))
    # but an explicit limit override works
    assert sum(1 for _ in enumerate_decompositions(4, limit=10)) == 15


def test_enumerated_trees_are_valid():
    g = complete(5)
    for t in enumerate_decompositions(5):
        validate(t, g)


def test_deep_caterpillar_without_recursion():
    n = 1200
    text = caterpillar_from_order(range(n)).to_text()
    back = BranchDecomposition.from_text(text)
    assert back.to_text() == text  # tuple == on a 1200-deep root would recurse
    validate(back, path(n))
    sets = subtree_leaf_sets(back)
    assert len(sets) == 2 * n - 1
    assert sets[0] == {0} and sets[-1] == frozenset(range(n))


def test_to_text_keeps_only_the_root_text():
    # The texts of all the subtrees of a 4,000-leaf caterpillar take about
    # 50 MiB together; the root's takes 23 KB.
    t = caterpillar_from_order(range(4000))
    tracemalloc.start()
    try:
        text = t.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert text.startswith("(" * 3999 + "0 1) 2) 3)") and text.endswith(" 3999)")


def test_repr():
    assert repr(BranchDecomposition(((2, 3), (0, 1)))) == "BranchDecomposition(((0 1) (2 3)))"


def test_deep_decompositions_compare_without_recursion():
    n = 1200
    a = caterpillar_from_order(range(n))
    b = caterpillar_from_order(range(n))
    assert a == b and hash(a) == hash(b)
    assert a != caterpillar_from_order([*range(n - 2), n - 1, n - 2])
    ra = WidthReport(1, "upper", a, None, None)
    rb = WidthReport(1, "upper", b, None, None)
    assert ra == rb and hash(ra) == hash(rb)


class TestSerialization:
    def test_canonical_child_order(self):
        a = BranchDecomposition(((2, 3), (0, 1)))
        b = BranchDecomposition(((1, 0), (3, 2)))
        assert a == b
        assert a.to_text() == "((0 1) (2 3))"

    def test_roundtrip(self):
        for t in enumerate_decompositions(5):
            assert BranchDecomposition.from_text(t.to_text()) == t

    @pytest.mark.parametrize(
        "text, message",
        [
            ("((0 1)", "unbalanced parentheses"),
            ("0 1)", "trailing tokens in decomposition text"),
            ("((0 x) 2)", "bad leaf label 'x'"),
            ("(0 1) 2", "trailing tokens in decomposition text"),
            (")", "unexpected ')'"),
            ("", "unexpected end of decomposition text"),
        ],
        ids=["((0 1)", "0 1)", "((0 x) 2)", "(0 1) 2", ")", ""],
    )
    def test_rejects_malformed(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            BranchDecomposition.from_text(text)
        assert str(exc.value) == message
