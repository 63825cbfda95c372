"""Instrumentation that lives entirely outside mimlab.

Two kinds of wrapper are bound over mimlab's public functions by
rebinding module and class attributes, including the names other mimlab
modules imported with ``from ... import`` (``harness.mimw_exact`` and
``construct.mimw_exact`` are the same object as ``solver.mimw_exact``):

* taps, always installed on the few functions whose results carry a
  witness or certificate: they keep (name, check, args, result) so the caller
  can re-verify every answer once the op's timer has stopped;
* spans, installed only for traced passes on every public function and
  method of the six library modules: each call appends
  (function id, start ns, end ns, parent span index, op id) to an
  in-memory list, and ``self_times`` turns the list into self time per
  function and per layer.

Both do nothing unless ``Recorder.active`` is set, so verification code
that runs between ops is neither captured nor timed.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

LAYERS = ("graph", "decomp", "solver", "recognize", "construct", "harness")

# Called from the innermost loops of the recognizers: O(1) accessors, and
# the chord helpers that run once per enumerated cycle (over 200,000 calls
# per frontier pass). A span around each call would cost about as much as
# the call, so their time stays with the caller's self time.
UNTRACED = frozenset(
    {
        "graph.Graph.has_edge",
        "graph.Graph.degree",
        "recognize.cycle_chords",
        "recognize.has_odd_chord",
    }
)


class Recorder:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names = []
        self.spans = []
        self.stack = []
        self.captured = []


class Rebinder:
    """Replace attributes and undo the replacement later."""

    def __init__(self):
        self._undo = []

    def swap(self, owner, name, new):
        old = vars(owner)[name]
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def swap_everywhere(self, old, new, modules):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is old:
                    self.swap(mod, name, new)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _library_modules():
    return [m for k, m in sys.modules.items() if k == "mimlab" or k.startswith("mimlab.")]


def _targets():
    """(qualified name, owner, attribute, raw value) for every public
    function of the six layer modules and every public method (plus
    ``__init__`` of plain classes) of their public classes."""
    out = []
    for layer in LAYERS:
        mod = sys.modules["mimlab." + layer]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                qual = f"{layer}.{name}"
                if qual not in UNTRACED and not inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    out.append((qual, mod, name, obj))
            elif inspect.isclass(obj):
                plain = not dataclasses.is_dataclass(obj)
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and not (attr == "__init__" and plain):
                        continue
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                        continue
                    qual = f"{layer}.{name}.{attr}"
                    if qual not in UNTRACED:
                        out.append((qual, obj, attr, raw))
    return out


def install_taps(rec, checks):
    """Tap ``checks``: {(module name, function name): check(args, result)}."""
    reb = Rebinder()
    modules = _library_modules()
    for (modname, name), check in checks.items():
        fn = getattr(sys.modules["mimlab." + modname], name)
        reb.swap_everywhere(fn, _tap(rec, f"{modname}.{name}", fn, check), modules)
    return reb


def _tap(rec, qual, fn, check):
    captured = rec.captured

    @functools.wraps(fn)
    def tap(*args, **kwargs):
        result = fn(*args, **kwargs)
        if rec.active:
            captured.append((qual, check, args, result))
        return result

    return tap


def install_spans(rec):
    """Wrap every target in a span recorder; returns the Rebinder that
    undoes it. Function ids index ``rec.names``."""
    reb = Rebinder()
    modules = _library_modules()
    for qual, owner, attr, raw in _targets():
        if qual not in rec.names:
            rec.names.append(qual)
        fid = rec.names.index(qual)
        if inspect.ismodule(owner):
            reb.swap_everywhere(raw, _span(rec, raw, fid), modules)
        elif isinstance(raw, classmethod):
            reb.swap(owner, attr, classmethod(_span(rec, raw.__func__, fid)))
        else:
            reb.swap(owner, attr, _span(rec, raw, fid))
    return reb


def _span(rec, fn, fid):
    spans = rec.spans
    stack = rec.stack
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def span(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[idx] = (fid, start, end, parent, rec.op)

    return span


def self_times(spans, lo, hi):
    """Self time (ns) and call count per function id over spans[lo:hi],
    plus the total duration of the top-level spans per op id. A span's
    self time is its duration minus the durations of its direct children;
    spans are strictly nested because the benchmark is single-threaded."""
    child = {}
    for i in range(lo, hi):
        fid, start, end, parent, op = spans[i]
        if parent >= 0:
            child[parent] = child.get(parent, 0) + end - start
    self_ns = {}
    calls = {}
    top_ns = {}
    for i in range(lo, hi):
        fid, start, end, parent, op = spans[i]
        self_ns[fid] = self_ns.get(fid, 0) + end - start - child.get(i, 0)
        calls[fid] = calls.get(fid, 0) + 1
        if parent < 0:
            top_ns[op] = top_ns.get(op, 0) + end - start
    return self_ns, calls, top_ns
