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
from dataclasses import dataclass, field, fields
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


# runtime_ms stays a blank column: reruns must be byte-identical.
CSV_COLUMNS = (*(f.name for f in fields(Row)), "runtime_ms")


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

    # A row's instance dict holds its fields in CSV_COLUMNS order; the
    # trailing comma leaves runtime_ms blank.
    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(map(_fmt, vars(r).values())) + "," for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "config": self.config,
                "rows": [{c: _fmt(v) for c, v in vars(r).items()} for r in self.rows],
                "violations": self.violations,
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# corpora

MAX_TREE_N = 8  # the largest trees in the chordal bipartite corpus


def chordal_bipartite_corpus():
    """Named chordal bipartite inputs: all trees up to MAX_TREE_N vertices,
    C4, and complete bipartite graphs with classes up to 4."""
    out = []
    for n in range(2, MAX_TREE_N + 1):
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
    return construct._completion(b, [p for p in construct._intra_pairs(b) if rng.random() < 0.5])


def _co_bipartite(g):
    """Whether the complement of g is bipartite."""
    try:
        two_color(complement(g))
    except OddCycleFound:
        return False
    return True


def _width_row(family, parameter, g, rep, bound):
    """The row of g's width report and eq1 bound, or degeneracy alone."""
    if bound is None:
        tw, deg, eq1 = None, degeneracy(g).d, None
    else:
        tw, deg, eq1 = bound.treewidth, bound.degeneracy, bound.ratio
    return Row(
        family=family,
        parameter=parameter,
        n=g.n,
        mimw_mode=rep.mode,
        mimw_value=rep.value,
        tw=tw,
        degeneracy=deg,
        eq1_bound=eq1,
    )


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
        if not _co_bipartite(both.result):
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
        rows.append(_width_row("eq1", name, g, rep, bound))
    config = {"suite": "eq1", "exact_limit": exact_limit, "tw_limit": tw_limit}
    return ExperimentReport(rows, config, violations)


SWEEP_FAMILIES = ("split-grid", "cocomp-grid", "circle-cubic")


def _sweep_row(family, parameter, g, exact_limit, tw_limit):
    rep = mimw_exact(g, exact_limit) if g.n <= exact_limit else mimw_upper(g)
    bound = mimw_lower_eq1(g, tw_limit) if g.n <= tw_limit else None
    return _width_row(family, parameter, g, rep, bound)


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
                if not _co_bipartite(rec.result):
                    violations.append(f"k={k}: complement of completion not bipartite")
            row_base = _sweep_row(family, f"{k}:base", b.graph, exact_limit, tw_limit)
            row_comp = _sweep_row(family, f"{k}:completed", rec.result, exact_limit, tw_limit)
            if b.n <= exact_limit:
                row_comp.ratio = construct.width_ratio(row_comp.mimw_value, row_base.mimw_value)
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
            rows.append(_sweep_row(family, f"{k}:subdivided", b.graph, exact_limit, tw_limit))
    for r in rows:
        if r.mimw_mode == "exact" and r.eq1_bound is not None:
            if Fraction(r.mimw_value) < r.eq1_bound:
                violations.append(
                    f"{r.parameter}: exact mimw {r.mimw_value} below bound {r.eq1_bound}"
                )
    config = {"suite": "sweep", "family": family, "sizes": list(sizes),
              "seed": seed, "exact_limit": exact_limit, "tw_limit": tw_limit}
    return ExperimentReport(rows, config, violations)
