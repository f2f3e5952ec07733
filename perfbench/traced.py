"""The traced run: the workload once more under afs_sweep_traced (the
shipped tools/afs_sweep.cpp linked with hooks that time each layer's
public calls from outside), plus perfbench_trace's controlled per-layer
measurements.

Some layer metrics are defined on one workload: exp.<id>.wall_s on
sweep_cold (every experiment runs there) and the svc.* spans on
daemon_mixed. Every traced run reports them all, so the traced run of a
workload that does not exercise that layer also makes a traced
sweep_cold pass, or a short daemon pass over the start of the script.
The store timings come from the workload's own pass when it calls the
store, and from the sweep_cold pass otherwise.
"""

import glob
import json
import os
import shutil
import subprocess
import time

import spans as spanlib
import stats
import verify
import workloads

# Requests in the short daemon pass of a batch workload's traced run.
PROBE_LINES = 100


def _dir_bytes(path):
    return sum(os.path.getsize(p) for p in
               glob.glob(os.path.join(path, "**"), recursive=True)
               if os.path.isfile(p))


def _trace_env(ctx, name):
    """A fresh directory for the traced processes' span and counter files,
    and the environment that switches their hooks on."""
    tdir = workloads.fresh_dir(ctx.work, name)
    return tdir, dict(os.environ, PERFBENCH_TRACE_DIR=os.path.abspath(tdir))


def _collect(tdir, first_pid):
    """Summed counters of every traced process that wrote into tdir, and
    their span files, first_pid's first."""
    counters = {}
    for path in glob.glob(os.path.join(tdir, "*.counters.json")):
        with open(path) as f:
            for k, v in json.load(f).items():
                counters[k] = counters.get(k, [] if isinstance(v, list)
                                           else 0) + v
    if not counters:
        raise RuntimeError(f"no traced process wrote counters into {tdir}")
    first = os.path.join(tdir, f"{first_pid}.spans.jsonl")
    rest = sorted(p for p in glob.glob(os.path.join(tdir, "*.spans.jsonl"))
                  if p != first)
    return counters, [first] + rest


def traced_batch(ctx, workload):
    out = workloads.fresh_dir(ctx.work, f"{workload}-traced")
    tdir, env = _trace_env(ctx, f"{workload}-trace")
    argv, names = workloads.batch_argv(ctx, workload, out,
                                       ctx.afs_sweep_traced)
    os.sync()
    with open(os.path.join(tdir, "run.log"), "wb") as log:
        t0 = time.perf_counter()
        run = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL, env=env)
        try:
            rc = run.wait(timeout=170)
        finally:
            run.kill()
            run.wait()
        wall = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"traced {workload} exited {rc}")
    cells, failed, problems = verify.check_csvs(out, names, ctx.reference)
    counters, span_files = _collect(tdir, run.pid)
    result = {
        "wall_s": wall,
        "counters": counters,
        "spans": spanlib.load(span_files),
        "store_bytes": _dir_bytes(os.path.join(out, ".store")),
        "samples": [],
        "stats": {},
        "attempted": cells,
        "failed": failed,
        "problems": problems,
    }
    shutil.rmtree(out, ignore_errors=True)
    return result


def traced_daemon(ctx, lines=None):
    tdir, env = _trace_env(ctx, "daemon-trace")
    rep = workloads.daemon_rep(ctx, "traced", exe=ctx.afs_sweep_traced,
                               env=env, lines=lines, want_stats=True)
    counters, span_files = _collect(tdir, rep.daemon_pid)
    # Client-side spans, one per request; _link_requests makes each the
    # parent of the daemon's run_experiment span for the same request.
    client = os.path.join(tdir, "client.jsonl")
    with open(client, "w") as f:
        for i, s in enumerate(rep.samples, start=1):
            f.write(json.dumps({
                "id": i, "parent": 0,
                "req": (s.request or {}).get("request", 0),
                "pid": os.getpid(), "tid": 0, "name": "svc.request",
                "layer": "service", "label": s.verb,
                "t0": int(s.sent * 1e9),
                "t1": int((s.done or s.sent) * 1e9)}) + "\n")
    all_spans = spanlib.load([client] + span_files)
    _link_requests(all_spans)
    result = {
        "wall_s": rep.wall_s,
        "counters": counters,
        "spans": all_spans,
        "store_bytes": _dir_bytes(os.path.join(rep.out_dir, ".store")),
        "samples": rep.samples,
        "stats": rep.stats or {},
        "attempted": rep.attempted,
        "failed": rep.failed,
        "problems": rep.problems,
    }
    shutil.rmtree(rep.out_dir, ignore_errors=True)
    return result


def _link_requests(spans):
    """Parents each daemon request's top-level run_experiment span under
    the client's span for that request."""
    client = {s["req"]: s["id"] for s in spans
              if s["name"] == "svc.request" and s["req"]}
    for s in spans:
        if s["name"] == "exp.run" and not s["parent"] and s["req"] in client:
            s["parent"] = client[s["req"]]


def micro(ctx):
    run = subprocess.run([ctx.perfbench_trace, "micro",
                          f"--script={ctx.script_path}",
                          f"--worker-exe={ctx.afs_sweep}"],
                         capture_output=True, text=True, timeout=120)
    if run.returncode != 0:
        raise RuntimeError(f"perfbench_trace micro exited {run.returncode}: "
                           f"{run.stderr[-500:]}")
    m = json.loads(run.stdout.strip().splitlines()[-1])
    if (m["mem_replay_hits"] != m["mem_recorded_hits"]
            or m["mem_replay_misses"] != m["mem_recorded_misses"]):
        raise RuntimeError("memory replay did not reproduce the recording")
    return m


def _pct(values, p):
    return stats.percentile(values, p) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def run(ctx, workload, untraced_wall):
    """Per-layer metrics (name -> (value, unit)), operations attempted and
    failed, problems, notes."""
    own = (traced_daemon(ctx) if workload == "daemon_mixed"
           else traced_batch(ctx, workload))
    sweep = (own if workload == "sweep_cold"
             else traced_batch(ctx, "sweep_cold"))
    svc = (own if workload == "daemon_mixed"
           else traced_daemon(ctx, ctx.script[:PROBE_LINES]))
    m = micro(ctx)
    passes = [p for p in (own, sweep, svc) if p is not own] + [own]

    keep = os.path.join(ctx.trace_dir, f"{workload}.spans.jsonl")
    with open(keep, "w") as f:
        for s in own["spans"]:
            f.write(json.dumps(s) + "\n")

    c = own["counters"]
    selfs = spanlib.self_times(own["spans"])
    pool = spanlib.pool_timeline(spanlib.sweeps_of(own["spans"]))
    walls = spanlib.experiment_walls(sweep["spans"])
    gets = c["store_get_us"] or sweep["counters"]["store_get_us"]
    puts = c["store_put_us"] or sweep["counters"]["store_put_us"]
    answered = [s for s in svc["samples"] if s.verb != "stats"
                and s.accepted is not None and s.done is not None]
    admit = [(s.accepted - s.sent) * 1e3 for s in answered]
    execd = [(s.done - s.accepted) * 1e3 for s in answered]
    st = svc["stats"]

    metrics = {
        "sim.run_s": (c["sim_ns"] / 1e9, "s"),
        "sim.ns_per_access": (_ratio(c["sim_ns"], c["sim_accesses"]), "ns"),
        "mem.ns_per_hit": (m["mem_ns_per_hit"], "ns"),
        "mem.ns_per_miss": (m["mem_ns_per_miss"], "ns"),
        "sim.cells": (c["sim_cells"], "count"),
        "sim.iterations": (c["sim_iterations"], "count"),
        "sim.accesses": (c["sim_accesses"], "count"),
        "sim.misses": (c["sim_misses"], "count"),
        "sim.invalidations": (c["sim_invalidations"], "count"),
        "sched.ns_per_grab": (_ratio(c["sched_ns"], c["sched_grabs"]), "ns"),
        "sched.grabs": (c["sched_grabs"], "count"),
        "sched.steal_frac": (_ratio(c["sched_steals"], c["sched_chunks"]),
                             "ratio"),
        "runtime.busy_frac": (pool["busy_frac"], "ratio"),
        "runtime.drain_idle_s": (pool["drain_idle_s"], "s"),
        "runtime.queue_wait_s": (pool["queue_wait_s"], "s"),
        "runtime.serialize_us": (m["serialize_us"], "us"),
        "runtime.parse_us": (m["parse_us"], "us"),
        "runtime.resumed_cells": (c["resumed_cells"], "count"),
        "store.get_us_p50": (_pct(gets, 50), "us"),
        "store.get_us_p99": (_pct(gets, 99), "us"),
        "store.put_us_p50": (_pct(puts, 50), "us"),
        "store.put_us_p99": (_pct(puts, 99), "us"),
        "store.hits": (c["store_hits"], "count"),
        "store.misses": (c["store_misses"], "count"),
        "store.writes": (c["store_writes"], "count"),
        "store.hit_rate": (_ratio(c["store_hits"],
                                  c["store_hits"] + c["store_misses"]),
                           "ratio"),
        "store.bytes": (own["store_bytes"], "B"),
        "exp.make_spec_s": (m["make_spec_s"], "s"),
    }
    for exp_id in ctx.experiment_ids:
        metrics[f"exp.{exp_id}.wall_s"] = (walls.get(exp_id, 0.0), "s")
    metrics.update({
        "svc.frame_parse_us": (m["frame_parse_us"], "us"),
        "svc.admit_ms_p50": (_pct(admit, 50), "ms"),
        "svc.admit_ms_p99": (_pct(admit, 99), "ms"),
        "svc.exec_ms_p50": (_pct(execd, 50), "ms"),
        "svc.exec_ms_p99": (_pct(execd, 99), "ms"),
        "svc.queue_wait_ms_mean": (st.get("queue_wait_ms_mean", 0.0), "ms"),
        "svc.run_ms_mean": (st.get("run_ms_mean", 0.0), "ms"),
        "svc.ipc_rtt_us": (m["ipc_rtt_us"], "us"),
        "trace.ns_per_event": (m["trace_ns_per_event"], "ns"),
        "trace.overhead_s": (own["wall_s"] - untraced_wall, "s"),
    })
    for layer in ("sim", "sched", "runtime", "experiments"):
        metrics[f"self.{layer}_s"] = (selfs.get(layer, 0.0), "s")

    notes = {
        "spans": keep,
        "span_count": len(own["spans"]),
        "traced_wall_s": own["wall_s"],
        "untraced_wall_s": untraced_wall,
        "self_time_s": {k: round(v, 6) for k, v in sorted(selfs.items())},
        "store_get_samples": len(gets),
        "store_put_samples": len(puts),
        "svc_samples": len(admit),
    }
    return (metrics, sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes),
            [x for p in passes for x in p["problems"]], notes)
