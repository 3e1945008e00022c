"""Span recording around the public functions of the raag modules.

Installed from outside the package, after import: every public function
defined in a raag module is replaced, in every raag module namespace that
holds it, by a wrapper that records one span per call (name, start, end,
parent span).  The series products are methods, so `PCSeries.__mul__` and
`USeries.__mul__` are wrapped on their classes.  A few spans also count
the work they return (traces enumerated, rows eliminated, ...).

Spans stay in memory; `summary` reduces them to per-name call counts and
self times (duration minus the time covered by child spans), and
`write_spans` dumps them when the job ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

PACKAGE = "raag"

# (module, class, method, span name)
METHODS = (
    ("raag.series", "PCSeries", "__mul__", "series.PCSeries.mul"),
    ("raag.useries", "USeries", "__mul__", "useries.USeries.mul"),
)


def _count_rows(args):
    rows = list(args[0])
    return (rows,) + tuple(args[1:]), {"rows": len(rows)}


# span name -> (prepare(args) -> (args, counts), after(result) -> counts)
HOOKS = {
    "words.enumerate_traces": (None, lambda r: {"states": len(r)}),
    "words.ball": (None, lambda r: {"states": len(r)}),
    "series.PCSeries.mul": (None, lambda r: {"terms_out": len(r.coeffs)}),
    "lie.left_normed_brackets": (None, lambda r: {"rows": len(r)}),
    "linalg.rank_of_rows": (_count_rows, lambda r: {"rank": r}),
    "koszul.verify_resolution": (None, lambda r: {"checked": r.checked}),
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        prepare, after = HOOKS.get(name, (None, None))
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counters = self.counters
        clock = time.perf_counter_ns

        def add(counts):
            for key, n in counts.items():
                key = f"{name}.{key}"
                counters[key] = counters.get(key, 0) + n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, counts = prepare(args)
                add(counts)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                add(after(result))
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls and self_s; plus the work counters."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = [0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - covered[i]
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            if calls[nid]:
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.self_s"] = self_ns[nid] / 1e9
        return out

    def write_spans(self, path: str, job: str) -> None:
        """All spans of the job, as columns; times in ns from the first span."""
        t0 = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "job": job,
                "names": self.names,
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start_ns": [t - t0 for t in self.span_start],
                "end_ns": [t - t0 for t in self.span_end],
            }, fh)


def install(recorder: Recorder) -> None:
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name.startswith(PACKAGE + ".")}
    wrappers: dict[int, tuple[object, object]] = {}
    for modname, mod in modules.items():
        short = modname[len(PACKAGE) + 1:]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != modname):
                continue
            wrappers[id(obj)] = (obj, recorder.wrap(f"{short}.{attr}", obj))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for modname, cls_name, method, span in METHODS:
        cls = getattr(modules.get(modname), cls_name, None)
        if cls is not None and method in vars(cls):
            setattr(cls, method, recorder.wrap(span, vars(cls)[method]))
