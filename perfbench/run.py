#!/usr/bin/env python3
"""The repository benchmark (see README.md in this directory).

  python3 perfbench/run.py --workload fig15_serial|sweep_cold|daemon_mixed
                           --seed N --seconds S --trace 0|1

Builds afs_sweep and the traced harness from the checkout (Release, in
.bench_build/), runs the workload for about S seconds in fresh
directories under .bench_work/, checks every output, prints each metric
with its unit and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer metrics of a separate traced
run. Exits nonzero when any output is wrong.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import build  # noqa: E402
import script  # noqa: E402
import traced  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("fig15_serial", "sweep_cold", "daemon_mixed")
# A run repeats the daemon_mixed pass (each time against a fresh daemon
# and store) until p99 has at least ten samples beyond it.
MIN_P99_SAMPLES = 1000
DEFAULT_BUILD = os.path.join(".bench_build", "perfbench")


class Context:
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_context(args, build_dir, work):
    ctx = Context()
    ctx.work = work
    ctx.afs_sweep = os.path.join(build_dir, "afs", "tools", "afs_sweep")
    ctx.afs_sweep_traced = os.path.join(build_dir, "afs_sweep_traced")
    ctx.perfbench_trace = os.path.join(build_dir, "perfbench_trace")
    ctx.jobs = os.cpu_count() or 1
    ctx.clients = min(2, ctx.jobs)
    ctx.reference = verify.load_reference()
    ctx.script = script.generate(args.seed)
    ctx.script_path = os.path.join(work, "daemon_mixed.script")
    script.write(ctx.script_path, ctx.script)
    ctx.trace_dir = os.path.join(".bench_work", "traces")
    os.makedirs(ctx.trace_dir, exist_ok=True)
    ctx.experiment_ids = [i for i, kind in
                          workloads.list_experiments(ctx.afs_sweep)
                          if kind != "micro"]
    return ctx


def measure(args, ctx):
    reps = workloads.run_reps(ctx, args.workload, args.seconds)
    while (args.workload == "daemon_mixed"
           and sum(len(r.latencies_ms) for r in reps) < MIN_P99_SAMPLES):
        reps.append(workloads.daemon_rep(ctx, len(reps)))
    e2e, notes = workloads.summarize(reps)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    if not args.trace:
        return e2e, attempted, failed, problems, notes
    layer, t_att, t_fail, t_problems, t_notes = traced.run(
        ctx, args.workload, e2e["wall_s"][0])
    notes.update(t_notes)
    return (layer, attempted + t_att, failed + t_fail, problems + t_problems,
            notes)


def steal_seconds():
    """CPU time the hypervisor has taken from this host's CPUs so far (0
    where /proc/stat is unavailable). A run that saw a lot of it was
    measured on a contended host."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv):
    args = parse_args(argv)
    root = build.repo_root()
    os.chdir(root)
    try:
        build.build(DEFAULT_BUILD, os.path.join(".bench_build", "build.log"))
        meta = build.metadata(DEFAULT_BUILD)
    except Exception as ex:  # no sources, no compiler, a failed build
        print(f"perfbench: cannot build the system under test: {ex}",
              file=sys.stderr)
        return 2
    refused = build.refusal(meta)
    if refused:
        print(f"perfbench: {refused}", file=sys.stderr)
        return 3

    work = os.path.join(".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.time()
    steal0 = steal_seconds()
    try:
        ctx = make_context(args, DEFAULT_BUILD, work)
        metrics, attempted, failed, problems, notes = measure(args, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    notes["host_steal_s"] = round(steal_seconds() - steal0, 2)

    correct = failed == 0 and not problems
    for k, v in meta.items():
        print(f"# {k}: {v}")
    print(f"# workload: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"elapsed={time.time() - started:.1f}s")
    for k, v in notes.items():
        print(f"# {k}: {v}")
    for p in problems[:20]:
        print(f"MISMATCH: {p}")
    print(f"error_rate = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = os.path.join(".bench_work", "results")
    os.makedirs(record, exist_ok=True)
    with open(os.path.join(record, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"meta": meta, "notes": notes, "problems": problems,
                   **result}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
