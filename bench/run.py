#!/usr/bin/env python3
"""mimlab benchmark: one command, three workloads, correctness gate.

    python3 bench/run.py --workload suite-small --seed 0 --seconds 40 --trace 0

Run from the root of a mimlab checkout; the library is imported from
``src/``. Each workload is one caller in a closed loop: one process, no
threads, the next op starts when the previous one returns. Set-up makes
the op lists of successive rounds from ``--seed``; each round is a fresh
draw of the workload's op mix. One pass runs one round's ops. Passes run
until the next one would end after ``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each round twice, untraced and traced, in turns
which one goes first. In the traced pass, every public function of the six library modules is wrapped
in a span. It prints the per-layer metrics and writes the spans to
``.bench_out/``.

Every op's output is checked (witnesses, certificates, pinned answers);
the last stdout line is one JSON object, and any failed op makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
REF_EVERY_NS = 100_000_000
# End-to-end times are reported at a reference host speed: measured time
# x HOST_REF_MS / host.ref_ms, where host.ref_ms is the run's median time
# of a fixed pure-Python kernel (probes.ref_kernel_ms); for setup_s, its
# median around the set-up runs. On a shared 2-core
# host (Python 3.11), speed stepped by up to 60% for minutes at a time and
# the kernel's time followed; over ten runs of an earlier upper-scale mix
# that spanned such a step, raw wall_s spread 0.57 (quartile distance over
# median), scaled 0.08. The measured values are printed next to the scaled
# ones.
HOST_REF_MS = 0.4
TIMED = ("setup_s", "wall_s", "op_ms_p50", "op_ms_p90")
MAX_REPORTED_FAILURES = 10


def load_library():
    if not (SRC / "mimlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'mimlab'} not found; run from the root of a mimlab checkout")
    sys.path.insert(0, str(SRC))
    import mimlab

    if Path(mimlab.__file__).resolve().parent != (SRC / "mimlab").resolve():
        sys.exit(f"error: imported mimlab from {mimlab.__file__}, not from {SRC}")


def time_setup(workload, seed, ref_kernel):
    """Median wall time of a fresh interpreter that imports mimlab and
    builds and serializes the workload's inputs, and the median time of the
    reference kernel timed around those runs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    refs = []
    for _ in range(SETUP_REPEATS):
        refs += [ref_kernel() for _ in range(5)]
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    refs += [ref_kernel() for _ in range(5)]
    return statistics.median(times), statistics.median(refs)


class Pass:
    def __init__(self, ops, rnd, traced, span_lo, op_lo):
        self.ops = ops
        self.rnd = rnd
        self.traced = traced
        self.span_lo = span_lo
        self.span_hi = span_lo
        self.op_lo = op_lo
        self.op_ns = []
        self.cpu_s = 0.0
        self.widths = 0
        self.mimw_calls = 0
        self.mimw_distinct = 0
        self.even_cycles = 0

    @property
    def wall_s(self):
        return sum(self.op_ns) / 1e9


class Runner:
    """Runs passes and checks every op once its timer has stopped."""

    def __init__(self, rec, pins, ref_kernel):
        self.rec = rec
        self.pins = pins
        self.ref_kernel = ref_kernel
        self.attempted = 0
        self.failures = []
        self.first_widths = {}
        self.ref_ms = []
        self._last_ref = 0
        self._next_op = 0

    def maybe_time_ref(self):
        now = time.perf_counter_ns()
        if now - self._last_ref >= REF_EVERY_NS:
            self.ref_ms.append(self.ref_kernel())
            self._last_ref = time.perf_counter_ns()

    def run_pass(self, ops, rnd, traced):
        rec = self.rec
        p = Pass(ops, rnd, traced, len(rec.spans), self._next_op)
        for op in ops:
            self.maybe_time_ref()
            rec.captured.clear()
            rec.op = self._next_op
            self._next_op += 1
            errors = []
            out = None
            rec.active = True
            c0 = time.process_time()
            t0 = time.perf_counter_ns()
            try:
                out = op.run()
            except Exception as exc:  # an op failure is counted, not fatal
                errors.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter_ns()
            c1 = time.process_time()
            rec.active = False
            p.op_ns.append(t1 - t0)
            p.cpu_s += c1 - c0
            if out is not None:
                errors += self.evaluate(op, out, p)
            errors += self.check_captured(p)
            self.attempted += 1
            if errors:
                self.failures.append((op.name, errors))
        p.span_hi = len(rec.spans)
        return p

    def evaluate(self, op, out, p):
        errors, widths, pin = op.evaluate(out)
        p.widths += sum(widths)
        first = self.first_widths.setdefault((p.rnd, op.name), widths)
        if widths != first:
            errors.append(f"widths {widths} differ from the round's first pass {first}")
        if self.pins is not None and p.rnd == 0 and pin is not None:
            want = self.pins.get(op.name)
            if want is None:
                errors.append("no pinned expectation")
            elif pin["csv"] != want["csv"]:
                errors.append(f"CSV digest {pin['csv']} != pinned {want['csv']}")
            elif len(pin["upper"]) != len(want["upper"]) or any(
                got > cap for got, cap in zip(pin["upper"], want["upper"])
            ):
                errors.append(f"upper bounds {pin['upper']} exceed pinned {want['upper']}")
        return errors

    def check_captured(self, p):
        errors = []
        seen = set()
        for qual, check, args, result in self.rec.captured:
            if qual == "solver.mimw_exact":
                p.mimw_calls += 1
                seen.add((args[0].n, args[0].edges))
            elif qual == "recognize.is_strongly_chordal":
                p.even_cycles += result.certificate.get("even_cycles_checked", 0)
            try:
                err = check(args, result)
            except Exception as exc:  # a rejected witness is a failed op
                err = f"{type(exc).__name__}: {exc}"
            if err:
                errors.append(f"{qual}: {err}")
        p.mimw_distinct += len(seen)
        self.rec.captured.clear()
        return errors


def run_traced_pass(runner, ops, rnd):
    reb = spans.install_spans(runner.rec)
    try:
        return runner.run_pass(ops, rnd, True)
    finally:
        reb.restore()


def run_passes(runner, rounds, seconds, trace):
    """One pass per round (two with tracing, untraced and traced, the
    traced one first on odd rounds so neither mode always runs second)
    until the next round would end after `seconds`, or the rounds run
    out."""
    deadline = time.perf_counter() + seconds
    passes = []
    for rnd, ops in enumerate(rounds):
        start = time.perf_counter()
        if trace and rnd % 2:
            passes.append(run_traced_pass(runner, ops, rnd))
        passes.append(runner.run_pass(ops, rnd, False))
        if trace and not rnd % 2:
            passes.append(run_traced_pass(runner, ops, rnd))
        took = time.perf_counter() - start
        if time.perf_counter() + took > deadline:
            break
    return passes


def end_to_end(passes, setup_s):
    """Measured values: `wall_s` is the median pass, `upper_width_sum` is
    round 0's."""
    samples = [ns / 1e6 for p in passes for ns in p.op_ns]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_ms_p50": statistics.median(samples),
        "op_ms_p90": statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "upper_width_sum": passes[0].widths,
    }


def span_values(rec, lo, hi):
    """Self time and calls per traced function and self time per layer
    over spans[lo:hi]; also returns the top-level span time per op."""
    self_ns, calls, top_ns = spans.self_times(rec.spans, lo, hi)
    vals = {}
    for fid, name in enumerate(rec.names):
        vals[name + ".self_s"] = self_ns.get(fid, 0) / 1e9
        vals[name + ".calls"] = calls.get(fid, 0)
    for layer in spans.LAYERS:
        vals[layer + ".self_s"] = sum(
            ns for fid, ns in self_ns.items() if rec.names[fid].startswith(layer + ".")
        ) / 1e9
    return vals, top_ns


def per_layer(passes, runner, setup_hi, cut_us):
    """Per-layer metrics: medians over the traced passes, except names
    starting with ``setup.``, which come from the traced set-up."""
    rec = runner.rec
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        vals, top_ns = span_values(rec, p.span_lo, p.span_hi)
        vals["bench.self_s"] = sum(
            ns - top_ns.get(p.op_lo + i, 0) for i, ns in enumerate(p.op_ns)
        ) / 1e9
        vals["solver.mimw_exact.distinct_frac"] = (
            p.mimw_distinct / p.mimw_calls if p.mimw_calls else 1.0
        )
        vals["recognize.is_strongly_chordal.even_cycles"] = p.even_cycles
        per_pass.append(vals)
    out = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    setup_vals, _ = span_values(rec, 0, setup_hi)
    out.update({"setup." + k: v for k, v in setup_vals.items()})
    out["solver.cut_us.small"] = cut_us["small"]
    out["solver.cut_us.large"] = cut_us["large"]
    out["cpu_s"] = statistics.median(p.cpu_s for p in plain)
    out["host.ref_ms"] = statistics.median(runner.ref_ms)
    plain_s = {p.rnd: p.wall_s for p in plain}
    out["trace.overhead_frac"] = statistics.median(
        p.wall_s / plain_s[p.rnd] - 1.0 for p in traced
    )
    return out


def write_spans(path, rec, passes):
    ops = [
        [p.op_lo + i, op.name, p.rnd, int(p.traced), ns]
        for p in passes
        for i, (op, ns) in enumerate(zip(p.ops, p.op_ns))
    ]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {"span_fields": ["function", "start_ns", "end_ns", "parent", "op"],
             "op_fields": ["op", "name", "round", "traced", "ns"],
             "functions": rec.names, "ops": ops, "spans": rec.spans},
            f, separators=(",", ":"),
        )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.make_rounds(args.workload, args.seed)
        return 0

    import probes

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.trace:
        setup_s, setup_ref_ms = time_setup(args.workload, args.seed, probes.ref_kernel_ms)
    rec = spans.Recorder()
    if args.trace:
        reb = spans.install_spans(rec)
        rec.active = True
        try:
            rounds = workloads.make_rounds(args.workload, args.seed)
        finally:
            rec.active = False
            reb.restore()
    else:
        rounds = workloads.make_rounds(args.workload, args.seed)
    setup_hi = len(rec.spans)
    pins = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads((HERE / "expected.json").read_text())
        pins = pinned.get(args.workload, {})
    spans.install_taps(rec, workloads.CHECKS)
    runner = Runner(rec, pins, probes.ref_kernel_ms)
    passes = run_passes(runner, rounds, args.seconds, bool(args.trace))

    if args.trace:
        values = per_layer(passes, runner, setup_hi, probes.cut_probe_us())
        metrics = spec["per_layer"]
        write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json",
                    rec, passes)
    else:
        measured = end_to_end(passes, setup_s)
        scale = {k: HOST_REF_MS / statistics.median(runner.ref_ms) for k in TIMED}
        scale["setup_s"] = HOST_REF_MS / setup_ref_ms
        values = {k: v * scale[k] if k in scale else v for k, v in measured.items()}
        metrics = spec["end_to_end"]

    failed = len(runner.failures)
    for name, errors in runner.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAIL {name}: {'; '.join(errors)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {len(rounds[0])} ops per pass, "
          f"{runner.attempted} op samples")
    for m in metrics:
        line = f"{m['name']} = {values[m['name']]:.6g} {m['unit']}"
        if not args.trace and m["name"] in TIMED:
            line += f" (measured {measured[m['name']]:.6g} {m['unit']})"
        print(line)
    print(f"error_rate = {failed / runner.attempted:.6g} ratio")
    if not args.trace:
        print(f"host.ref_ms = {statistics.median(runner.ref_ms):.6g} ms (diagnostic)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
