#!/usr/bin/env python3
"""Regenerate the benchmark's pinned data from the library as it stands:

* expected.json: for every harness op of round 0 at the default seed,
  the digest of its CSV and its upper bounds (``workloads.pin_digest``);
* cut_sample.json: the critical cuts ``mimw_upper`` reports on the
  upper-scale graphs of round 0 at the default seed, for the cut-kernel
  probe.

    python3 bench/make_data.py

Pins hold the answers of the library at the time they were made; rerun
only when an answer is meant to change, and say so in the change. Every
op's witnesses and certificates are checked as in a benchmark run first;
if any check fails, nothing is written and the exit code is 1.
"""

from __future__ import annotations

import json
import sys

import run
import spans


def main():
    run.load_library()
    import workloads
    from mimlab import graph

    rec = spans.Recorder()
    spans.install_taps(rec, workloads.CHECKS)
    expected = {}
    cuts = []
    failures = []
    for workload in workloads.WORKLOADS:
        pins = {}
        for op in workloads.make_rounds(workload, workloads.DEFAULT_SEED, rounds=1)[0]:
            rec.captured.clear()
            rec.active = True
            out = op.run()
            rec.active = False
            errors, _widths, pin = op.evaluate(out)
            if pin is not None:
                pins[op.name] = pin
            for qual, check, args, rep in rec.captured:
                err = check(args, rep)
                if err:
                    errors.append(f"{qual}: {err}")
                if qual == "solver.mimw_upper" and rep.critical_cut is not None:
                    cuts.append({"graph": graph.graph_to_text(args[0]),
                                 "a_side": sorted(rep.critical_cut.a_side)})
            if errors:
                failures.append(f"{workload} {op.name}: {'; '.join(errors)}")
        if pins:
            expected[workload] = pins
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit("error: the library fails the benchmark's checks; nothing written")
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    (run.HERE / "cut_sample.json").write_text(json.dumps({"cuts": cuts}, indent=1) + "\n")


if __name__ == "__main__":
    main()
