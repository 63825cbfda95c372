"""Experiment orchestration: the verification suites and family sweeps.

Every suite is deterministic given its config (seeds included) and reports
violations explicitly; the CLI turns a nonempty violation list into exit
code 2. CSV/JSON output is byte-identical across reruns: rationals are
rendered as `p/q`, missing values as empty fields, and wall-clock runtime
is deliberately kept out of the emitted files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import construct, recognize
from .errors import (
    DiagramViolation,
    InvalidParameter,
    LimitExceeded,
    OddCycleFound,
)
from .graph import (
    BipartiteGraph,
    Graph,
    complement,
    cycle,
    degeneracy,
    free_trees,
    grid,
    complete,
    complete_bipartite,
    path,
    random_bipartite,
    subdivide_all_edges,
    two_color,
)
from .solver import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_TW_LIMIT,
    mimw_exact,
    mimw_lower_eq1,
    mimw_upper,
)

CSV_COLUMNS = (
    "family",
    "parameter",
    "n",
    "mimw_mode",
    "mimw_value",
    "tw",
    "degeneracy",
    "eq1_bound",
    "ratio",
    "runtime_ms",
)


@dataclass
class Row:
    family: str
    parameter: str
    n: int
    mimw_mode: str = None
    mimw_value: int = None
    tw: int = None
    degeneracy: int = None
    eq1_bound: Fraction = None
    ratio: Fraction = None


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


@dataclass
class ExperimentReport:
    rows: list
    config: dict
    violations: list = field(default_factory=list)

    def to_csv(self):
        # runtime_ms stays a blank column: reruns must be byte-identical.
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            vals = ["" if c == "runtime_ms" else _fmt(getattr(r, c)) for c in CSV_COLUMNS]
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "config": self.config,
                "rows": [
                    {c: _fmt(getattr(r, c)) for c in CSV_COLUMNS if c != "runtime_ms"}
                    for r in self.rows
                ],
                "violations": self.violations,
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# corpora


def chordal_bipartite_corpus(max_tree_n=8):
    """Named chordal bipartite inputs: all trees up to max_tree_n, C4, and
    complete bipartite graphs with classes up to 4."""
    out = []
    for n in range(2, max_tree_n + 1):
        for i, t in enumerate(free_trees(n)):
            out.append((f"tree-{n}-{i}", two_color(t)))
    out.append(("C4", two_color(cycle(4))))
    for a in range(1, 5):
        for b in range(a, 5):
            out.append((f"K{a}{b}", complete_bipartite(a, b)))
    return out


def eq1_corpus():
    """Small fixed graphs for the degeneracy/treewidth bound suite."""
    out = []
    for n in range(2, 9):
        out.append((f"P{n}", path(n)))
    for n in range(3, 9):
        out.append((f"C{n}", cycle(n)))
    for n in range(2, 7):
        out.append((f"K{n}", complete(n)))
    for r, c in ((2, 2), (2, 3), (3, 3)):
        out.append((f"grid{r}{c}", grid(r, c)))
    for a, b in ((2, 2), (2, 3), (3, 3)):
        out.append((f"K{a},{b}", complete_bipartite(a, b).graph))
    out.append(("subdivided-K4", subdivide_all_edges(complete(4)).graph))
    return out


# ---------------------------------------------------------------------------
# suites


def _random_intra_superset(b: BipartiteGraph, rng) -> construct.CompletionRecord:
    """Each intra-class non-edge is added independently with probability 1/2."""
    added = []
    for cls in (sorted(b.x_class), sorted(b.y_class)):
        for i, u in enumerate(cls):
            for v in cls[i + 1 :]:
                if rng.random() < 0.5:
                    added.append((u, v))
    result = Graph(b.n, b.graph.edges | frozenset(added))
    return construct.CompletionRecord(b, result, frozenset(added))


def verify_lemma31(trials=200, n_max=9, seed=0, exact_limit=DEFAULT_EXACT_LIMIT):
    """Sample bipartite graphs plus random intra-class supersets and check
    mimw(G') >= ceil(mimw(G)/2) with exact widths on both sides."""
    if n_max > exact_limit:
        raise LimitExceeded(f"n_max={n_max} exceeds exact limit {exact_limit}")
    if n_max < 2:
        raise InvalidParameter(f"n_max={n_max}: a bipartite graph needs n >= 2")
    if trials < 0:
        raise InvalidParameter(f"trials={trials}: a trial count cannot be negative")
    rng = random.Random(seed)
    ps = (0.2, 0.5, 0.8)
    rows = []
    violations = []
    for t in range(trials):
        total = rng.randint(2, n_max)
        nx_size = rng.randint(1, total - 1)
        p = ps[t % len(ps)]
        b = random_bipartite(nx_size, total - nx_size, p, seed=rng.randrange(2**32))
        rec = _random_intra_superset(b, rng)
        rep_g = mimw_exact(b.graph, exact_limit)
        rep_gp = mimw_exact(rec.result, exact_limit)
        if rep_gp.value < math.ceil(rep_g.value / 2):
            violations.append(
                f"trial {t}: mimw(G')={rep_gp.value} < ceil({rep_g.value}/2)"
            )
        if not construct.split_submatching_survives(rec, rep_g):
            violations.append(f"trial {t}: sub-matching check failed")
        rows.append(
            Row(
                family="lemma31",
                parameter=str(t),
                n=total,
                mimw_mode="exact",
                mimw_value=rep_gp.value,
                ratio=construct.width_ratio(rep_gp.value, rep_g.value),
            )
        )
    config = {"suite": "lemma31", "trials": trials, "n_max": n_max, "seed": seed,
              "exact_limit": exact_limit}
    return ExperimentReport(rows, config, violations)


def verify_constructions(corpus=None):
    """Run the recognizer battery over construction outputs: one-side
    completions must be strongly chordal split graphs, double completions
    co-comparability graphs, and the 3-sun negative control must fail."""
    if corpus is None:
        corpus = chordal_bipartite_corpus()
    rows = []
    violations = []
    for name, b in corpus:
        rec = construct.complete_one_side(b, "Y")
        split = recognize.is_split(rec.result)
        strong = recognize.is_strongly_chordal(rec.result)
        if not (split.verdict and strong.verdict):
            violations.append(
                f"{name}: completion split={split.verdict} "
                f"strongly_chordal={strong.verdict}"
            )
        both = construct.complete_both_sides(b)
        try:
            two_color(complement(both.result))
            comp_bip = True
        except OddCycleFound:
            comp_bip = False
        if not comp_bip:
            violations.append(f"{name}: complement of double completion not bipartite")
        if not recognize.is_co_comparability(both.result).verdict:
            violations.append(f"{name}: double completion not co-comparability")
        rows.append(Row(family="constructions", parameter=name, n=b.n))
    # Negative control: completing one side of C6 gives the 3-sun, which is
    # chordal but not strongly chordal.
    sun = construct.complete_one_side(two_color(cycle(6)), "Y").result
    ch = recognize.is_chordal(sun)
    strong = recognize.is_strongly_chordal(sun)
    ok = (
        ch.verdict
        and not strong.verdict
        and strong.certificate["kind"] == "even_cycle_no_odd_chord"
        and len(strong.certificate["cycle"]) == 6
    )
    if not ok:
        violations.append("3-sun negative control failed")
    rows.append(Row(family="constructions", parameter="3-sun-negative", n=6))
    config = {"suite": "constructions", "corpus_size": len(corpus)}
    return ExperimentReport(rows, config, violations)


# The eq1 corpus goes up to n = 10, so that suite's exact limit is 10.
EQ1_EXACT_LIMIT = 10


def verify_eq1(corpus=None, exact_limit=EQ1_EXACT_LIMIT, tw_limit=DEFAULT_TW_LIMIT):
    """Check mimw(G) >= tw(G) / (3 (d+1)) in exact rational arithmetic."""
    if corpus is None:
        corpus = eq1_corpus()
    rows = []
    violations = []
    for name, g in corpus:
        rep = mimw_exact(g, exact_limit)
        bound = mimw_lower_eq1(g, tw_limit)
        if Fraction(rep.value) < bound.ratio:
            violations.append(f"{name}: mimw={rep.value} < {bound.ratio}")
        rows.append(
            Row(
                family="eq1",
                parameter=name,
                n=g.n,
                mimw_mode="exact",
                mimw_value=rep.value,
                tw=bound.treewidth,
                degeneracy=bound.degeneracy,
                eq1_bound=bound.ratio,
            )
        )
    config = {"suite": "eq1", "exact_limit": exact_limit, "tw_limit": tw_limit}
    return ExperimentReport(rows, config, violations)


SWEEP_FAMILIES = ("split-grid", "cocomp-grid", "circle-cubic")


def _width_rows(family, parameter, g, exact_limit, tw_limit):
    if g.n <= exact_limit:
        rep = mimw_exact(g, exact_limit)
    else:
        rep = mimw_upper(g)
    if g.n <= tw_limit:
        bound = mimw_lower_eq1(g, tw_limit)
        tw_val, deg, eq1 = bound.treewidth, bound.degeneracy, bound.ratio
    else:
        tw_val, deg, eq1 = None, degeneracy(g).d, None
    return rep, Row(
        family=family,
        parameter=parameter,
        n=g.n,
        mimw_mode=rep.mode,
        mimw_value=rep.value,
        tw=tw_val,
        degeneracy=deg,
        eq1_bound=eq1,
    )


def sweep(family, sizes, seed=0, exact_limit=DEFAULT_EXACT_LIMIT,
          tw_limit=DEFAULT_TW_LIMIT):
    """Per-size construct + recognize + width computation for one family,
    exact below the limit and heuristic (plus the rational lower bound,
    where treewidth is computable) above it. `split-grid` completions are
    split but not strongly chordal for k >= 3, since grid k x k has a
    chordless 8-cycle; the sweep checks only `is_split`."""
    if family not in SWEEP_FAMILIES:
        raise InvalidParameter(f"unknown sweep family {family!r}")
    rows = []
    violations = []
    for k in sizes:
        if family in ("split-grid", "cocomp-grid"):
            b = two_color(grid(k, k))
            if family == "split-grid":
                rec = construct.complete_one_side(b, "Y")
                if not recognize.is_split(rec.result).verdict:
                    violations.append(f"k={k}: completion is not split")
            else:
                rec = construct.complete_both_sides(b)
                try:
                    two_color(complement(rec.result))
                except OddCycleFound:
                    violations.append(
                        f"k={k}: complement of completion not bipartite"
                    )
            rep_base, row_base = _width_rows(
                family, f"{k}:base", b.graph, exact_limit, tw_limit
            )
            rep_comp, row_comp = _width_rows(
                family, f"{k}:completed", rec.result, exact_limit, tw_limit
            )
            if b.n <= exact_limit:
                row_comp.ratio = construct.width_ratio(rep_comp.value, rep_base.value)
                if 2 * row_comp.ratio < 1:
                    violations.append(f"k={k}: completion ratio {row_comp.ratio} < 1/2")
            rows.extend([row_base, row_comp])
        else:  # circle-cubic
            b = construct.build_subdivided_family(k, seed)
            diagram = construct.embed_chord_diagram(b)
            try:
                construct.verify_chord_diagram(diagram, b)
            except DiagramViolation as exc:
                violations.append(f"n={k}: chord diagram violation: {exc}")
            _, row = _width_rows(
                family, f"{k}:subdivided", b.graph, exact_limit, tw_limit
            )
            rows.append(row)
    for r in rows:
        if r.mimw_mode == "exact" and r.eq1_bound is not None:
            if Fraction(r.mimw_value) < r.eq1_bound:
                violations.append(
                    f"{r.parameter}: exact mimw {r.mimw_value} below bound {r.eq1_bound}"
                )
    config = {"suite": "sweep", "family": family, "sizes": list(sizes),
              "seed": seed, "exact_limit": exact_limit, "tw_limit": tw_limit}
    return ExperimentReport(rows, config, violations)
