"""Command-line front end.

Exit codes: 0 success, 2 invariant violation, 3 limit exceeded,
4 I/O / parse / parameter error. Limits can be preset via the env var
MIMLAB_LIMITS (e.g. "exact=10,tw=14,cycle=12"); explicit flags win.
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
    GraphFormatError,
    InvalidParameter,
    LimitExceeded,
    MimlabError,
    OddCycleFound,
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
    cycle: int = recognize.DEFAULT_CYCLE_LIMIT
    orient: int = recognize.DEFAULT_ORIENT_LIMIT


def _limits_from_env(lim):
    raw = os.environ.get("MIMLAB_LIMITS", "")
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        if key not in ("exact", "tw", "cycle", "orient"):
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
    if getattr(args, "cycle_limit", None) is not None:
        lim.cycle = args.cycle_limit
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


def _load_bipartite(filename):
    obj = load_graph(filename)
    if isinstance(obj, BipartiteGraph):
        return obj
    return two_color(obj)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    fam = args.family
    p = args.params
    seed = args.seed

    def want(k):
        if len(p) != k:
            raise InvalidParameter(f"family {fam!r} takes {k} parameter(s)")

    if fam == "grid":
        want(2)
        obj = grid(int(p[0]), int(p[1]))
    elif fam == "cycle":
        want(1)
        obj = cycle(int(p[0]))
    elif fam == "path":
        want(1)
        obj = path(int(p[0]))
    elif fam == "complete":
        want(1)
        obj = complete(int(p[0]))
    elif fam == "complete-bipartite":
        want(2)
        obj = complete_bipartite(int(p[0]), int(p[1]))
    elif fam == "random-bipartite":
        want(3)
        obj = random_bipartite(int(p[0]), int(p[1]), float(p[2]), seed)
    elif fam == "cubic":
        want(1)
        obj = random_cubic(int(p[0]), seed)
    else:
        raise InvalidParameter(f"unknown family {fam!r}")
    text = bipartite_to_text(obj) if isinstance(obj, BipartiteGraph) else graph_to_text(obj)
    _emit(text, args.out)
    return EXIT_OK


RECOGNIZERS = {
    "split": lambda g, lim: recognize.is_split(g),
    "chordal": lambda g, lim: recognize.is_chordal(g),
    "strongly-chordal": lambda g, lim: recognize.is_strongly_chordal(g, lim.cycle),
    "chordal-bipartite": lambda g, lim: recognize.is_chordal_bipartite(g, lim.cycle),
    "comparability": lambda g, lim: recognize.is_comparability(g, lim.orient),
    "co-comparability": lambda g, lim: recognize.is_co_comparability(g, lim.orient),
}


def cmd_recognize(args):
    lim = _resolve_limits(args)
    obj = load_graph(args.file)
    g = obj.graph if isinstance(obj, BipartiteGraph) else obj
    result = RECOGNIZERS[args.cls](g, lim)
    lines = ["true" if result.verdict else "false"]
    for key in sorted(result.certificate):
        lines.append(f"{key}: {result.certificate[key]}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_mimw(args):
    lim = _resolve_limits(args)
    obj = load_graph(args.file)
    g = obj.graph if isinstance(obj, BipartiteGraph) else obj
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
        rep = solver.mimw_upper(g, seed=args.seed)
    else:
        rep = solver.mimw_exact(g, lim.exact)
    _emit(rep.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_tw(args):
    lim = _resolve_limits(args)
    obj = load_graph(args.file)
    g = obj.graph if isinstance(obj, BipartiteGraph) else obj
    rep = solver.treewidth_exact(g, lim.tw)
    _emit(
        f"tw {rep.value}\norder {' '.join(str(v) for v in rep.elimination_order)}\n",
        args.out,
    )
    return EXIT_OK


def cmd_construct(args):
    if args.kind == "circle":
        b = construct.build_subdivided_family(int(args.arg), args.seed)
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


def cmd_verify(args):
    # The eq1 corpus goes up to n=10, so that suite's exact limit defaults to 10.
    lim = _resolve_limits(
        args, exact=10 if args.suite == "eq1" else solver.DEFAULT_EXACT_LIMIT
    )
    if args.suite == "lemma31":
        report = harness.verify_lemma31(
            trials=args.trials, n_max=args.n_max, seed=args.seed,
            exact_limit=lim.exact,
        )
    elif args.suite == "constructions":
        corpus = None
        if args.corpus:
            corpus = []
            for name in sorted(os.listdir(args.corpus)):
                corpus.append(
                    (name, _load_bipartite(os.path.join(args.corpus, name)))
                )
        report = harness.verify_constructions(
            corpus, cycle_limit=lim.cycle, orient_limit=lim.orient
        )
    else:  # eq1
        report = harness.verify_eq1(exact_limit=lim.exact, tw_limit=lim.tw)
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    if report.violations:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_sweep(args):
    lim = _resolve_limits(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    report = harness.sweep(
        args.family, sizes, seed=args.seed,
        exact_limit=lim.exact, tw_limit=lim.tw,
    )
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _emit(text, args.out)
    if report.violations:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--exact-limit", type=int, default=None)
    common.add_argument("--tw-limit", type=int, default=None)
    common.add_argument("--cycle-limit", type=int, default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(prog="mimlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a generated graph file")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("recognize", parents=[common], help="class membership test")
    p.add_argument("cls", choices=sorted(RECOGNIZERS))
    p.add_argument("file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("mimw", parents=[common], help="mim-width of a graph file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--upper", action="store_true")
    mode.add_argument("--lower", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=cmd_mimw)

    p = sub.add_parser("tw", parents=[common], help="exact treewidth")
    p.add_argument("file")
    p.set_defaults(func=cmd_tw)

    p = sub.add_parser("construct", parents=[common], help="run a construction")
    p.add_argument("kind", choices=("split", "cocomp", "circle"))
    p.add_argument(
        "arg",
        help="bipartite graph file (split/cocomp) or cubic vertex count (circle)",
    )
    p.add_argument("--side", choices=("X", "Y"), default="Y")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("embed", parents=[common], help="chord diagram of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=("lemma31", "constructions", "eq1"))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--corpus", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common], help="family sweep to CSV")
    p.add_argument("--family", choices=harness.SWEEP_FAMILIES, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (DiagramViolation, CertificateViolation) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (InvalidParameter, GraphFormatError, OddCycleFound, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
