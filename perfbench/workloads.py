"""The three workloads, measured end to end with tracing off.

A run repeats its workload in fresh directories while the next repetition
still fits in --seconds (at least once), and reports medians over the
repetitions. Each repetition prepares its own out-dir and store, so no two
writers ever share a target.
"""

import os
import shutil
import subprocess
import time

import daemon
import stats
import verify

FIG15_CSVS = ["fig15.csv"]


class Rep:
    """What one repetition measured."""

    def __init__(self):
        self.setup_s = 0.0
        self.spare_setup_s = []
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.accesses = 0
        self.latencies_ms = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = []
        self.stats = None     # daemon: the final stats reply, when asked
        self.out_dir = None   # daemon: kept for the traced run's store
        self.daemon_pid = None


def fresh_dir(work, name):
    path = os.path.join(work, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def list_experiments(exe):
    """(id, kind) of every experiment `afs_sweep list` prints."""
    out = subprocess.run([exe, "list"], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    found = []
    for line in out.splitlines()[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 2:
            found.append((cells[0], cells[1]))
    return found


def batch_setup(ctx, workload, name):
    """Set-up of a batch repetition: a fresh out-dir, and afs_sweep started
    once to confirm its registry holds what the workload runs. Returns
    (out-dir, seconds)."""
    t0 = time.perf_counter()
    out = fresh_dir(ctx.work, name)
    ids = {i for i, _ in list_experiments(ctx.afs_sweep)}
    need = {"fig15"} if workload == "fig15_serial" else set(ctx.experiment_ids)
    if not need <= ids or not need:
        raise RuntimeError(f"afs_sweep list lacks {sorted(need - ids)}")
    return out, time.perf_counter() - t0


def _run_child(argv, log_path):
    """Runs one afs_sweep invocation; returns (exit code, seconds, peak RSS
    in MB of it and its descendants)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, rusage.ru_maxrss / 1024.0


def batch_argv(ctx, workload, out, exe):
    """The afs_sweep command line of a batch workload, and the CSVs it
    writes."""
    if workload == "fig15_serial":
        return ([exe, "run", "fig15", "--jobs=1", "--no-store",
                 f"--out-dir={out}"], FIG15_CSVS)
    return ([exe, "run", "--all", f"--jobs={ctx.jobs}", f"--out-dir={out}"],
            sorted(ctx.reference["csv_sha256"]))


def batch_rep(ctx, workload, index):
    rep = Rep()
    out, rep.setup_s = batch_setup(ctx, workload, f"{workload}-{index}")
    argv, names = batch_argv(ctx, workload, out, ctx.afs_sweep)
    os.sync()  # as in daemon_rep
    rc, rep.wall_s, rep.rss_mb = _run_child(argv, os.path.join(out, "run.log"))
    rep.latencies_ms = [rep.wall_s * 1e3]
    cells, failed, problems = verify.check_csvs(out, names, ctx.reference)
    rep.attempted, rep.failed, rep.problems = cells, failed, problems
    if rc != 0:
        rep.problems.append(f"afs_sweep exited {rc}")
        rep.failed = rep.attempted
    if "fig15.csv" in names:
        miss = verify.check_fig15_misses(out, ctx.reference)
        if miss:
            rep.problems.append(miss)
            rep.failed = rep.attempted
    if workload == "fig15_serial":
        entries = verify.checkpoint_entries(out)
    else:
        entries = verify.store_entries(os.path.join(out, ".store"))
    rep.accesses = verify.simulated_accesses(entries)
    shutil.rmtree(out, ignore_errors=True)
    return rep


def socket_path(ctx, index):
    # DaemonOptions caps the path at 107 bytes, and the checkout may sit
    # deep in the file system: the socket is named relative to the
    # checkout root, where the daemon and the client both run.
    return os.path.relpath(os.path.join(ctx.work, f"d{index}.sock"))


def _start_daemon(ctx, index, exe=None, env=None):
    """Starts a daemon over a fresh out-dir and store; returns it and the
    out-dir. exe swaps the daemon binary (the traced run)."""
    out = fresh_dir(ctx.work, f"daemon-{index}")
    sock = socket_path(ctx, index)
    argv = [exe or ctx.afs_sweep, "serve", "--quiet", "--isolation=process",
            f"--socket={sock}", f"--jobs={ctx.jobs}", f"--out-dir={out}"]
    log = os.path.join(ctx.work, f"daemon-{index}.log")
    return daemon.Daemon(argv, sock, log, env=env), out


def daemon_rep(ctx, index, exe=None, env=None, lines=None,
               want_stats=False):
    """One fresh daemon over an empty store, driven through the script (or
    through `lines`); want_stats asks for its stats before the drain."""
    rep = Rep()
    t0 = time.perf_counter()
    d, out = _start_daemon(ctx, index, exe, env)
    rep.daemon_pid = d.proc.pid
    try:
        d.wait_ready(ctx.jobs)
        rep.setup_s = time.perf_counter() - t0
        # Dirty pages of earlier runs (and the trims their deletions
        # send) would otherwise be written back under the timed phase,
        # whose requests wait on fsync.
        os.sync()
        script = lines or ctx.script
        t1 = time.perf_counter()
        rep.samples = daemon.run_script(d.socket_path, script, ctx.clients)
        rep.wall_s = time.perf_counter() - t1
        if want_stats:
            rep.stats = daemon.request_once(d.socket_path, {"verb": "stats"},
                                            30.0)
    finally:
        status = d.stop()
    daemon.check_answers(script, rep.samples, ctx.reference)
    if status != 0:
        rep.problems.append(f"daemon exited {status}")
    rep.rss_mb = d.rusage.ru_maxrss / 1024.0 if d.rusage else 0.0
    rep.attempted = len(rep.samples)
    rep.failed = sum(1 for s in rep.samples if not s.ok)
    rep.problems += [s.problem for s in rep.samples if s.problem]
    if status != 0 and rep.failed == 0:
        rep.failed = 1
    rep.latencies_ms = [(s.done - s.sent) * 1e3 for s in rep.samples
                        if s.done is not None]
    rep.accesses = verify.simulated_accesses(
        verify.store_entries(os.path.join(out, ".store")))
    rep.out_dir = out
    return rep


# Every batch run takes the median of at least two repetitions: the host
# is a shared VM whose stolen CPU time moves single repetitions by 10-20%.
# One daemon pass already sends the 1000 requests p99 needs and takes
# about as long as two sweep_cold repetitions.
MIN_REPS = {"fig15_serial": 2, "sweep_cold": 2, "daemon_mixed": 1}
# Set-ups prepared and torn down unused after each repetition. A set-up
# takes milliseconds, and the host's speed changes from second to second,
# so setup_s is the median of set-ups spread over the whole run rather
# than of one burst.
SPARE_SETUPS = {"fig15_serial": 7, "sweep_cold": 7, "daemon_mixed": 4}


def spare_setups(ctx, workload, count):
    """Seconds of `count` set-ups, each prepared and torn down unused."""
    out = []
    for i in range(count):
        if workload == "daemon_mixed":
            t0 = time.perf_counter()
            d, path = _start_daemon(ctx, f"setup{i}")
            try:
                d.wait_ready(ctx.jobs)
                out.append(time.perf_counter() - t0)
            finally:
                d.stop()
        else:
            path, seconds = batch_setup(ctx, workload, f"setup-{i}")
            out.append(seconds)
        shutil.rmtree(path, ignore_errors=True)
    return out


def run_reps(ctx, workload, seconds):
    """Repeats the workload while another repetition still fits in
    `seconds`, and at least MIN_REPS[workload] times."""
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if workload == "daemon_mixed":
            rep = daemon_rep(ctx, len(reps))
            shutil.rmtree(rep.out_dir, ignore_errors=True)
        else:
            rep = batch_rep(ctx, workload, len(reps))
        rep.spare_setup_s = spare_setups(ctx, workload,
                                         SPARE_SETUPS[workload])
        reps.append(rep)
        last = time.perf_counter() - t0
        if (len(reps) >= MIN_REPS[workload]
                and time.perf_counter() - start + last > seconds):
            return reps


def summarize(reps):
    """End-to-end metrics (name -> (value, unit)) and a few notes."""
    # Medians over repetitions, so a burst of host contention that hits
    # one repetition moves the run's figure little. p99 needs more samples
    # than one repetition has, so it pools every request of the run. It is
    # the Harrell-Davis estimate: daemon_mixed's slowest requests come in
    # pairs (a cold experiment and the request queued behind it), and the
    # nearest-rank 10th-slowest jumped between pairs from run to run.
    lat = [x for r in reps for x in r.latencies_ms]
    metrics = {
        "setup_s": (stats.median([x for r in reps
                                  for x in [r.setup_s] + r.spare_setup_s]),
                    "s"),
        "wall_s": (stats.median([r.wall_s for r in reps]), "s"),
        "sim_accesses_per_s": (
            stats.median([r.accesses / r.wall_s for r in reps]), "1/s"),
        "req_per_s": (
            stats.median([len(r.latencies_ms) / r.wall_s for r in reps]),
            "1/s"),
        "req_p99_ms": (stats.hd_percentile(lat, 99), "ms"),
        "peak_rss_mb": (stats.median([r.rss_mb for r in reps]), "MB"),
    }
    notes = {
        # Printed, not a bounded metric: daemon_mixed's median request
        # waits on a few fsyncs and thread wake-ups, which on a shared VM
        # slow with the CPU time the host steals; across runs it varied
        # more than the largest bound allows (see README.md, Bounds).
        "req_p50_ms": round(stats.median(
            [stats.percentile(r.latencies_ms, 50) for r in reps]), 4),
        "reps": len(reps),
        "rep_wall_s": [round(r.wall_s, 4) for r in reps],
        "req_p99_nearest_rank_ms": round(stats.percentile(lat, 99), 4),
        "requests": len(lat),
        "p99_samples_beyond": stats.samples_beyond(len(lat), 99),
    }
    return metrics, notes
