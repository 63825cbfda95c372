"""Command-line front end.

Exit codes: 0 success, 2 invariant violation, 3 limit exceeded,
4 I/O / parse / parameter / usage error. The exponential solvers' limits
can be preset via the env var MIMLAB_LIMITS (e.g. "exact=10,tw=14");
explicit flags win. The recognizers are polynomial and take no limit.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import construct, harness, recognize, solver
from .errors import (
    CertificateViolation,
    DiagramViolation,
    InvalidParameter,
    LimitExceeded,
    MimlabError,
)
from .graph import (
    BipartiteGraph,
    bipartite_to_text,
    complete,
    complete_bipartite,
    cycle,
    graph_to_text,
    grid,
    load_graph,
    path,
    random_bipartite,
    random_cubic,
    two_color,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_LIMIT = 3
EXIT_IO = 4


@dataclass
class Limits:
    exact: int = solver.DEFAULT_EXACT_LIMIT
    tw: int = solver.DEFAULT_TW_LIMIT


def _limits_from_env(lim):
    raw = os.environ.get("MIMLAB_LIMITS", "")
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        if key not in ("exact", "tw"):
            raise InvalidParameter(f"unknown limit {key!r} in MIMLAB_LIMITS")
        try:
            setattr(lim, key, int(val))
        except ValueError:
            raise InvalidParameter(f"bad limit value in MIMLAB_LIMITS: {part!r}") from None
    return lim


def _resolve_limits(args, **defaults):
    """Limits from `defaults`, then MIMLAB_LIMITS, then the flags; each must
    be positive."""
    lim = _limits_from_env(Limits(**defaults))
    if getattr(args, "exact_limit", None) is not None:
        lim.exact = args.exact_limit
    if getattr(args, "tw_limit", None) is not None:
        lim.tw = args.tw_limit
    for key, val in vars(lim).items():
        if val <= 0:
            raise InvalidParameter(f"{key} limit must be positive, got {val}")
    return lim


def _emit(text, out):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report, args):
    """Write a harness report; its violations go to stderr and exit 2."""
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    for v in report.violations:
        print(f"violation: {v}", file=sys.stderr)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _number(text, kind=int):
    try:
        return kind(text)
    except ValueError:
        raise InvalidParameter(f"expected {kind.__name__}, got {text!r}") from None


def _load_graph(filename):
    obj = load_graph(filename)
    return obj.graph if isinstance(obj, BipartiteGraph) else obj


def _load_bipartite(filename):
    obj = load_graph(filename)
    return obj if isinstance(obj, BipartiteGraph) else two_color(obj)


# ---------------------------------------------------------------------------
# subcommands


# family -> (generator, parameter types, whether it takes --seed last)
GENERATORS = {
    "grid": (grid, (int, int), False),
    "cycle": (cycle, (int,), False),
    "path": (path, (int,), False),
    "complete": (complete, (int,), False),
    "complete-bipartite": (complete_bipartite, (int, int), False),
    "random-bipartite": (random_bipartite, (int, int, float), True),
    "cubic": (random_cubic, (int,), True),
}


def cmd_gen(args):
    fam = args.family
    if fam not in GENERATORS:
        raise InvalidParameter(f"unknown family {fam!r}")
    gen, kinds, seeded = GENERATORS[fam]
    if len(args.params) != len(kinds):
        raise InvalidParameter(f"family {fam!r} takes {len(kinds)} parameter(s)")
    params = [_number(text, kind) for text, kind in zip(args.params, kinds)]
    obj = gen(*params, args.seed) if seeded else gen(*params)
    text = bipartite_to_text(obj) if isinstance(obj, BipartiteGraph) else graph_to_text(obj)
    _emit(text, args.out)
    return EXIT_OK


RECOGNIZERS = {
    "split": recognize.is_split,
    "chordal": recognize.is_chordal,
    "strongly-chordal": recognize.is_strongly_chordal,
    "chordal-bipartite": recognize.is_chordal_bipartite,
    "comparability": recognize.is_comparability,
    "co-comparability": recognize.is_co_comparability,
}


def cmd_recognize(args):
    g = _load_graph(args.file)
    result = RECOGNIZERS[args.cls](g)
    lines = ["true" if result.verdict else "false"]
    for key in sorted(result.certificate):
        lines.append(f"{key}: {result.certificate[key]}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_mimw(args):
    lim = _resolve_limits(args)
    g = _load_graph(args.file)
    if args.lower:
        bound = solver.mimw_lower_eq1(g, lim.tw)
        _emit(
            f"lower {bound.ratio.numerator}/{bound.ratio.denominator} "
            f"integer {bound.integer_bound} tw {bound.treewidth} "
            f"degeneracy {bound.degeneracy}\n",
            args.out,
        )
        return EXIT_OK
    if args.upper:
        rep = solver.mimw_upper(g)
    else:
        rep = solver.mimw_exact(g, lim.exact)
    _emit(rep.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_tw(args):
    lim = _resolve_limits(args)
    g = _load_graph(args.file)
    rep = solver.treewidth_exact(g, lim.tw)
    _emit(
        f"tw {rep.value}\norder {' '.join(str(v) for v in rep.elimination_order)}\n",
        args.out,
    )
    return EXIT_OK


def cmd_construct(args):
    if args.kind == "circle":
        b = construct.build_subdivided_family(_number(args.arg), args.seed)
        _emit(bipartite_to_text(b), args.out)
        return EXIT_OK
    b = _load_bipartite(args.arg)
    if args.kind == "split":
        rec = construct.complete_one_side(b, args.side)
    else:  # cocomp
        rec = construct.complete_both_sides(b)
    _emit(graph_to_text(rec.result), args.out)
    return EXIT_OK


def cmd_embed(args):
    b = _load_bipartite(args.file)
    diagram = construct.embed_chord_diagram(b)
    construct.verify_chord_diagram(diagram, b)
    _emit(diagram.to_text() + "\n", args.out)
    return EXIT_OK


# suite -> the verify options that it takes
VERIFY_OPTIONS = {
    "lemma31": ("seed", "exact_limit", "trials", "n_max"),
    "constructions": ("corpus",),
    "eq1": ("corpus", "exact_limit", "tw_limit"),
}


def cmd_verify(args):
    options = ("seed", "exact_limit", "tw_limit", "trials", "n_max", "corpus")
    given = [k for k in options if getattr(args, k) is not None]
    extra = [k for k in given if k not in VERIFY_OPTIONS[args.suite]]
    if extra:
        flags = ", ".join("--" + k.replace("_", "-") for k in extra)
        raise InvalidParameter(f"verify {args.suite} does not take {flags}")
    defaults = {"exact": harness.EQ1_EXACT_LIMIT} if args.suite == "eq1" else {}
    lim = _resolve_limits(args, **defaults)
    corpus = None  # the suite's built-in corpus
    if args.corpus is not None:
        load = _load_bipartite if args.suite == "constructions" else _load_graph
        corpus = [
            (name, load(os.path.join(args.corpus, name)))
            for name in sorted(os.listdir(args.corpus))
        ]
    if args.suite == "lemma31":
        report = harness.verify_lemma31(
            exact_limit=lim.exact, **{k: getattr(args, k) for k in given if k != "exact_limit"}
        )
    elif args.suite == "constructions":
        report = harness.verify_constructions(corpus)
    else:  # eq1
        report = harness.verify_eq1(corpus, exact_limit=lim.exact, tw_limit=lim.tw)
    return _emit_report(report, args)


def cmd_sweep(args):
    lim = _resolve_limits(args)
    sizes = [_number(s) for s in args.sizes.split(",")]
    report = harness.sweep(
        args.family, sizes, seed=args.seed,
        exact_limit=lim.exact, tw_limit=lim.tw,
    )
    return _emit_report(report, args)


# ---------------------------------------------------------------------------


def _option(*args, **kwargs):
    """A parent parser that adds one option."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


def build_parser():
    # Each subcommand takes only the options it reads.
    out = _option("--out", default=None)
    seed = _option("--seed", type=int, default=0)
    exact = _option("--exact-limit", type=int, default=None)
    tw = _option("--tw-limit", type=int, default=None)
    fmt = _option("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(prog="mimlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seed, out], help="write a generated graph file")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("recognize", parents=[out], help="class membership test")
    p.add_argument("cls", choices=sorted(RECOGNIZERS))
    p.add_argument("file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("mimw", parents=[exact, tw, out], help="mim-width of a graph file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--upper", action="store_true")
    mode.add_argument("--lower", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_mimw)

    p = sub.add_parser("tw", parents=[tw, out], help="exact treewidth")
    p.add_argument("file")
    p.set_defaults(func=cmd_tw)

    p = sub.add_parser("construct", parents=[seed, out], help="run a construction")
    p.add_argument("kind", choices=("split", "cocomp", "circle"))
    p.add_argument(
        "arg",
        help="bipartite graph file (split/cocomp) or cubic vertex count (circle)",
    )
    p.add_argument("--side", choices=("X", "Y"), default="Y")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("embed", parents=[out], help="chord diagram of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_embed)

    # --seed defaults to None here, so that cmd_verify sees whether it was given.
    verify_seed = _option("--seed", type=int, default=None)
    p = sub.add_parser(
        "verify", parents=[verify_seed, exact, tw, fmt, out], help="run a verification suite"
    )
    p.add_argument("suite", choices=("lemma31", "constructions", "eq1"))
    p.add_argument("--trials", type=int, help="lemma31 only (default 200)")
    p.add_argument("--n-max", type=int, help="lemma31 only (default 9)")
    p.add_argument("--corpus", help="constructions and eq1 only: a directory of graph files")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[seed, exact, tw, fmt, out], help="family sweep to CSV")
    p.add_argument("--family", choices=harness.SWEEP_FAMILIES, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_IO if exc.code else EXIT_OK
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (DiagramViolation, CertificateViolation) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (MimlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
