"""Diagnostics timed apart from the workloads' ops.

* ``ref_kernel_ms``: a fixed pure-Python kernel, timed between ops. Its
  median scales the end-to-end times to a reference host speed and tells
  host drift apart from a change to the program.
* ``cut_probe_us``: microseconds per ``max_induced_matching_cut`` call over
  two fixed cut samples. ``small`` is every cut of the frontier's five
  mim-width graphs (n = 10-12, 7163 cuts);
  ``large`` is the critical cuts that ``mimw_upper`` reports on the
  upper-scale graphs at the default seed (n = 25-35, 5-55 cut edges),
  pinned in cut_sample.json because finding them takes the heuristic's
  full run.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from mimlab import construct, graph, solver

CUT_SAMPLE = Path(__file__).with_name("cut_sample.json")
PROBE_ROUND_S = 0.15
PROBE_ROUNDS = 5


def ref_kernel_ms():
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return (time.perf_counter() - start) * 1000.0


def small_cut_sample():
    """Every cut of the frontier's mim-width graphs, each once: the vertex
    sets that leave out vertex 0, except the empty one."""
    b = graph.two_color(graph.grid(3, 4))
    graphs = [
        b.graph,
        construct.complete_one_side(b, "Y").result,
        construct.complete_both_sides(b).result,
        graph.subdivide_all_edges(graph.complete(4)).graph,
        construct.build_subdivided_family(4, 0).graph,
    ]
    return [
        (g, frozenset(v for v in range(1, g.n) if mask >> v & 1))
        for g in graphs
        for mask in range(2, 1 << g.n, 2)
    ]


def large_cut_sample():
    data = json.loads(CUT_SAMPLE.read_text())
    return [(graph.parse_graph_text(c["graph"]), frozenset(c["a_side"])) for c in data["cuts"]]


def _us_per_call(sample):
    """Median over rounds of µs per call; each round repeats the sample
    until it has run for PROBE_ROUND_S."""
    rounds = []
    for _ in range(PROBE_ROUNDS):
        calls = 0
        start = time.perf_counter()
        while True:
            for g, a in sample:
                solver.max_induced_matching_cut(g, a)
            calls += len(sample)
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_ROUND_S:
                break
        rounds.append(elapsed / calls * 1e6)
    return statistics.median(rounds)


def cut_probe_us():
    return {"small": _us_per_call(small_cut_sample()), "large": _us_per_call(large_cut_sample())}
