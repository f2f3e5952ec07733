#!/usr/bin/env python3
"""Render engine phase-timer breakdowns (<id>.phases.json) as a table.

`afs_sweep run <id> --time-phases` writes one phases.json next to the
CSV: per-scheduler aggregates of where the engine's host wall clock went
(scheduler calls, work charging, footprint generation, MemorySystem
access, and the residual event-core bookkeeping). This prints each file
as a table with percentages of the sweep total, so claims like "half the
wall clock is MemorySystem::access" can be checked at a glance.

Usage:
  python3 tools/phase_report.py bench_results/fig15.phases.json [more...]
  python3 tools/phase_report.py bench_results   # every *.phases.json in it

Stdlib only; no third-party dependencies.
"""
import glob
import json
import os
import sys

PHASES = [
    ("scheduler_s", "scheduler"),
    ("work_s", "work"),
    ("footprint_s", "footprint"),
    ("memory_s", "memory"),
    ("event_core_other_s", "event core/other"),
]


def render(path):
    with open(path) as f:
        doc = json.load(f)
    rows = sorted(doc.get("schedulers", {}).items())
    rows.append(("TOTAL", doc["sweep"]))
    print(f"\n== {doc.get('id', path)} ({path}) ==")
    header = f"{'scheduler':<16}{'total_s':>9}" + "".join(
        f"{label:>18}" for _, label in PHASES
    )
    print(header)
    for name, agg in rows:
        total = agg.get("total_s", 0.0)
        cells = f"{name:<16}{total:>9.3f}"
        for key, _ in PHASES:
            t = agg.get(key, 0.0)
            pct = 100.0 * t / total if total > 0 else 0.0
            cells += f"{t:>10.3f} ({pct:4.1f}%)"
        print(cells)
        if agg.get("cells_untimed", 0):
            print(f"{'':16}({agg['cells_untimed']} cells untimed — "
                  "resumed from checkpoint, host timings not stored)")
    acc = doc["sweep"].get("memory_accesses", 0)
    mem = doc["sweep"].get("memory_s", 0.0)
    if acc:
        print(f"{acc} memory accesses, {1e9 * mem / acc:.1f} ns each")


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    paths = []
    for arg in argv[1:]:
        if os.path.isdir(arg):
            paths.extend(sorted(glob.glob(os.path.join(arg, "*.phases.json"))))
        else:
            paths.append(arg)
    if not paths:
        print("no *.phases.json files found", file=sys.stderr)
        return 1
    for path in paths:
        render(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
