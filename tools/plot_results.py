#!/usr/bin/env python3
"""Plot the reproduction CSVs in bench_results/.

Each fig*.csv is long-format: figure,scheduler,procs,time,speedup,...
This renders one PNG per figure (completion time vs processors, log-y,
one line per scheduler) mirroring the paper's plots.

Usage:
  python3 tools/plot_results.py [bench_results] [out_dir]

Requires matplotlib; without it, falls back to ASCII plots on stdout.
"""
import csv
import os
import sys
from collections import defaultdict


def load(path):
    series = defaultdict(list)  # scheduler -> [(procs, time)]
    with open(path) as f:
        for row in csv.DictReader(f):
            if "scheduler" not in row or "procs" not in row:
                return {}
            series[row["scheduler"]].append(
                (int(row["procs"]), float(row["time"]))
            )
    for pts in series.values():
        pts.sort()
    return series


def ascii_plot(name, series, width=60):
    print(f"\n== {name} ==")
    all_t = [t for pts in series.values() for _, t in pts]
    if not all_t:
        return
    lo, hi = min(all_t), max(all_t)
    span = (hi - lo) or 1.0
    for sched, pts in sorted(series.items()):
        print(f"  {sched}")
        for p, t in pts:
            bar = int((t - lo) / span * width)
            print(f"    P={p:3d} {'#' * bar} {t:.0f}")


def main():
    src = sys.argv[1] if len(sys.argv) > 1 else "bench_results"
    out = sys.argv[2] if len(sys.argv) > 2 else "bench_results/plots"
    if not os.path.isdir(src):
        sys.exit(f"no such directory: {src} (run `afs_sweep run --all` first)")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        plt = None
        print("matplotlib not available; ASCII fallback", file=sys.stderr)

    for name in sorted(os.listdir(src)):
        if not (name.startswith("fig") and name.endswith(".csv")):
            continue
        series = load(os.path.join(src, name))
        if not series:
            continue
        fig_id = name[:-4]
        if plt is None:
            ascii_plot(fig_id, series)
            continue
        os.makedirs(out, exist_ok=True)
        plt.figure(figsize=(7, 5))
        for sched, pts in sorted(series.items()):
            xs, ys = zip(*pts)
            plt.plot(xs, ys, marker="o", label=sched)
        plt.xlabel("processors")
        plt.ylabel("completion time (simulator units)")
        plt.yscale("log")
        plt.title(fig_id)
        plt.legend(fontsize=8)
        plt.grid(True, alpha=0.3)
        path = os.path.join(out, f"{fig_id}.png")
        plt.savefig(path, dpi=120, bbox_inches="tight")
        plt.close()
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
