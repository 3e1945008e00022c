"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the job, its graph file and either `cli` (arguments for
`raag --graph GRAPH ...`) or `call` (a library function in LIBRARY) with
`args`.  With `"trace": true` the layer spans are recorded and, if
`"spans"` gives a path, written there.  With `"warmup": true` the job only
imports and loads, so that bytecode is compiled before anything is timed.

The last line of stdout is a JSON record with the monotonic times at which
the job was ready (interpreter up, raag imported, graph loaded) and done,
the exit code, the job's output and the process's peak RSS.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _bracket_span(g, upto):
    from raag import lie, series
    return [lie.bracket_span_rank(g, n, series.Q) for n in range(1, upto + 1)]


def _restricted_span(g, p, upto):
    from raag import lie
    return [lie.restricted_span_rank(g, n, p) for n in range(1, upto + 1)]


LIBRARY = {"bracket_span": _bracket_span, "restricted_span": _restricted_span}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import raag.cli
    from raag.graph import Graph

    if spec.get("trace") or spec.get("warmup"):
        import layertrace
    if spec.get("trace"):
        recorder = layertrace.Recorder()
        layertrace.install(recorder)
    with open(spec["graph"], encoding="utf-8") as fh:
        g = Graph.from_json(fh.read())
    if spec.get("warmup"):
        return 0

    ready = time.monotonic_ns()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if "cli" in spec:
            rc = raag.cli.main(["--graph", spec["graph"], *spec["cli"]])
            output = buf.getvalue()
        else:
            rc = 0
            output = LIBRARY[spec["call"]](g, **spec["args"])
    done = time.monotonic_ns()

    record = {"ready_ns": ready, "done_ns": done, "rc": rc, "output": output,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec.get("trace"):
        record["layers"] = recorder.summary()
        if spec.get("spans"):
            recorder.write_spans(spec["spans"], spec["name"])
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
