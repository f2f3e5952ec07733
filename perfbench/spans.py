"""Span analysis for the traced run: per-layer self time and the sweep
pool's timeline.

A span is a dict with id, parent, layer, t0, t1 (CLOCK_MONOTONIC ns, which
every process on the host shares) and optional child_ns (time spent in a
layer below that has no spans of its own: the scheduler inside sim.run).
"""

import json


def load(paths):
    """Reads span files and gives every span a run-wide id. Each file is
    one process, whose own ids restart at 1."""
    spans = []
    for path in paths:
        local = {}
        with open(path) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        base = len(spans)
        for i, row in enumerate(rows):
            local[row["id"]] = base + i + 1
        for row in rows:
            row["id"] = local[row["id"]]
            row["parent"] = local.get(row["parent"], 0)
            spans.append(row)
    return spans


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Seconds per layer not covered by child spans (or child_ns)."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        inner = covered(children.get(s["id"], []), s["t0"], s["t1"])
        child_ns = s.get("child_ns", 0)
        own = max(s["t1"] - s["t0"] - inner - child_ns, 0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own / 1e9
        if child_ns:
            out["sched"] = out.get("sched", 0.0) + child_ns / 1e9
    return out


def pool_timeline(sweeps):
    """sweeps: list of (jobs, t0, t1, cells), cells a list of
    (queued, start, end), all in seconds. Returns

      busy_frac     sum of cell run times / sum of jobs x sweep wall
      drain_idle_s  worker-seconds idle after a sweep's last cell started
                    (its queue was empty) until the sweep returned
      queue_wait_s  mean time from a cell's submission to its start
    """
    busy = capacity = idle = wait = 0.0
    ncells = 0
    for jobs, t0, t1, cells in sweeps:
        capacity += jobs * (t1 - t0)
        if not cells:
            continue
        busy += sum(end - start for _, start, end in cells)
        last_start = max(start for _, start, _ in cells)
        in_drain = sum(max(min(end, t1) - max(start, last_start), 0.0)
                       for _, start, end in cells)
        idle += max(jobs * (t1 - last_start) - in_drain, 0.0)
        wait += sum(start - queued for queued, start, _ in cells)
        ncells += len(cells)
    return {
        "busy_frac": busy / capacity if capacity else 0.0,
        "drain_idle_s": idle,
        "queue_wait_s": wait / ncells if ncells else 0.0,
    }


def sweeps_of(spans):
    """The pool_timeline input, from runtime.sweep and runtime.cell spans."""
    cells = {}
    for s in spans:
        if s["name"] == "runtime.cell":
            cells.setdefault(s["parent"], []).append(
                (s["queued"] / 1e9, s["t0"] / 1e9, s["t1"] / 1e9))
    return [(s.get("jobs", 1), s["t0"] / 1e9, s["t1"] / 1e9,
             cells.get(s["id"], []))
            for s in spans if s["name"] == "runtime.sweep"]


def experiment_walls(spans):
    """Seconds inside run_experiment per experiment id."""
    out = {}
    for s in spans:
        if s["name"] == "exp.run":
            out[s["label"]] = out.get(s["label"], 0.0) + (s["t1"] - s["t0"]) / 1e9
    return out
