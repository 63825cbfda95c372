"""Command-line front end.

Exit codes: 0 success, 2 invariant violation, 3 limit exceeded,
4 I/O / parse / parameter / usage error. Each subcommand, gen family,
construct kind and verify suite has its own parser, which declares only
the options it reads, after its name; any other option exits 4. The
exponential solvers' limits can be preset via the env var MIMLAB_LIMITS
(e.g. "exact=10,tw=14"); explicit flags win. The recognizers are
polynomial and take no limit.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def _resolve_limits(args, exact=solver.DEFAULT_EXACT_LIMIT, tw=solver.DEFAULT_TW_LIMIT):
    """(exact, tw) limits: the defaults given, then MIMLAB_LIMITS, then the
    flags; each must be positive."""
    lim = {"exact": exact, "tw": tw}
    for part in os.environ.get("MIMLAB_LIMITS", "").split(","):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in lim:
            raise InvalidParameter(f"unknown limit {key!r} in MIMLAB_LIMITS")
        try:
            lim[key] = int(val)
        except ValueError:
            raise InvalidParameter(f"bad limit value in MIMLAB_LIMITS: {part!r}") from None
    for key in lim:  # the flags --exact-limit and --tw-limit
        flag = getattr(args, f"{key}_limit", None)
        if flag is not None:
            lim[key] = flag
        if lim[key] <= 0:
            raise InvalidParameter(f"{key} limit must be positive, got {lim[key]}")
    return lim["exact"], lim["tw"]


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
    gen, kinds, seeded = GENERATORS[args.family]
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


# mimw's modes are flags of one parser: mode -> the one limit that it reads.
MIMW_LIMIT = {"--exact": "--exact-limit", "--upper": None, "--lower": "--tw-limit"}


def cmd_mimw(args):
    mode = "--lower" if args.lower else "--upper" if args.upper else "--exact"
    given = {"--exact-limit": args.exact_limit, "--tw-limit": args.tw_limit}
    extra = [flag for flag, val in given.items() if val is not None and flag != MIMW_LIMIT[mode]]
    if extra:
        raise InvalidParameter(f"mimw {mode} does not take {', '.join(extra)}")
    exact, tw = _resolve_limits(args)
    g = _load_graph(args.file)
    if args.lower:
        bound = solver.mimw_lower_eq1(g, tw)
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
        rep = solver.mimw_exact(g, exact)
    _emit(rep.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_tw(args):
    _, tw = _resolve_limits(args)
    g = _load_graph(args.file)
    rep = solver.treewidth_exact(g, tw)
    _emit(
        f"tw {rep.value}\norder {' '.join(str(v) for v in rep.elimination_order)}\n",
        args.out,
    )
    return EXIT_OK


def cmd_construct(args):
    if args.kind == "circle":
        b = construct.build_subdivided_family(_number(args.n), args.seed)
        _emit(bipartite_to_text(b), args.out)
        return EXIT_OK
    b = _load_bipartite(args.file)
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


def _corpus(args, load):
    """The graph files of --corpus, sorted by name; None, the suite's
    built-in corpus, without it."""
    if args.corpus is None:
        return None
    names = sorted(os.listdir(args.corpus))
    return [(name, load(os.path.join(args.corpus, name))) for name in names]


def cmd_lemma31(args):
    exact, _ = _resolve_limits(args)
    given = {k: getattr(args, k) for k in ("trials", "n_max", "seed") if k in args}
    return _emit_report(harness.verify_lemma31(exact_limit=exact, **given), args)


def cmd_constructions(args):
    return _emit_report(harness.verify_constructions(_corpus(args, _load_bipartite)), args)


def cmd_eq1(args):
    exact, tw = _resolve_limits(args, exact=harness.EQ1_EXACT_LIMIT)
    corpus = _corpus(args, _load_graph)
    report = harness.verify_eq1(corpus, exact_limit=exact, tw_limit=tw)
    return _emit_report(report, args)


def cmd_sweep(args):
    exact, tw = _resolve_limits(args)
    sizes = [_number(s) for s in args.sizes.split(",")]
    report = harness.sweep(args.family, sizes, seed=args.seed, exact_limit=exact, tw_limit=tw)
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
    corpus = _option("--corpus", help="a directory of graph files")

    parser = argparse.ArgumentParser(prog="mimlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph file")
    p.set_defaults(func=cmd_gen)
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, types, seeded) in GENERATORS.items():
        f = families.add_parser(family, parents=[seed, out] if seeded else [out])
        f.add_argument("params", nargs=len(types))

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

    p = sub.add_parser("construct", help="run a construction")
    p.set_defaults(func=cmd_construct)
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("split", parents=[out], help="complete one side of a bipartite file")
    k.add_argument("file")
    k.add_argument("--side", choices=("X", "Y"), default="Y")
    k = kinds.add_parser("cocomp", parents=[out], help="complete both sides of a bipartite file")
    k.add_argument("file")
    k = kinds.add_parser("circle", parents=[seed, out], help="subdivided random cubic graph")
    k.add_argument("n", help="cubic vertex count")

    p = sub.add_parser("embed", parents=[out], help="chord diagram of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True)
    s = suites.add_parser("lemma31", parents=[exact, fmt, out])
    # Absent unless given: verify_lemma31 holds their defaults.
    for flag in ("--seed", "--trials", "--n-max"):
        s.add_argument(flag, type=int, default=argparse.SUPPRESS)
    s.set_defaults(func=cmd_lemma31)
    s = suites.add_parser("constructions", parents=[corpus, fmt, out])
    s.set_defaults(func=cmd_constructions)
    s = suites.add_parser("eq1", parents=[corpus, exact, tw, fmt, out])
    s.set_defaults(func=cmd_eq1)

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
