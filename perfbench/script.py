"""Seeded request script for the daemon_mixed workload.

The request sequence follows the repository's own daemon clients. The
daemon-smoke CI stage asks for every servable experiment (each id
`afs_sweep list` prints that is not a micro-benchmark) cold and then warm;
frontier-smoke asks frontier_tradeoff twice and expects the repeat served
from the store. RUN_IDS is that list, and every id is asked the same
number of times: its first ask is cold, the rest are warm. On top of
those come the request kinds the daemon serves from the store without a
registered id: repeated cheap tables, exact repeats of earlier grids,
grids that overlap earlier grids and small grids not asked for before,
plus a few stats requests.

The split between the kinds below is an assumption, not a measured
traffic mix: the repository has no record of how the daemon is used. It
keeps most requests warm and the cold work to one ask of each experiment
and a minority of small grids.

A pass of 1000 requests has a fixed make-up and a fixed order of request
kinds; the seed picks every grid (kernel, machine, schedulers, processor
counts, and which earlier grid an overlapping one subsets). So every seed
asks for the same registered work in the same rhythm, and the seed's
choices are confined to small grids:
  runs          120 (12%): each of the 24 RUN_IDS 5 times. The first ask
                simulates; repeats resume from the per-sweep checkpoints
                (runtime), or are store hits for the tables, and rewrite
                the same CSV.
  tables         90 (9%): tab3-tab5 30 times more each, as store hits.
  grid_repeat   250 (25%): an exact repeat of an earlier grid, resumed
                from that grid's checkpoints.
  grid_overlap  300 (30%): a subset of an earlier grid's schedulers and
                processor counts, so every cell is a store hit under a
                new grid.
  grid_cold     180 (18%): a small grid not asked for before; its cells
                simulate unless an earlier grid shared them.
  stats          60 (6%): the stats verb, answered inline.

The latency tail (p99 weighs the 4th- to the 20th-slowest of 1000) is set
by the cold asks of the costliest experiments and the requests queued
behind them.
Every request is one protocol line; the same seed gives a byte-identical
script.
"""

import json
import random

RUN_ASKS = 5
TABLE_ASKS = 30
GRID_REPEAT = 250
GRID_OVERLAP = 300
GRID_COLD = 180
STATS = 60

# Every servable experiment of the registry, in `afs_sweep list` order.
RUN_IDS = ["fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
           "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
           "fig17", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7",
           "ablation_afs", "trend_comm_ratio", "frontier_tradeoff"]
TABLE_IDS = ["tab3", "tab4", "tab5"]

MACHINES = ["iris", "ksr1", "butterfly1", "symmetry", "tc2000"]
KERNELS = ["sor:{n},4", "gauss:{n}", "adjoint:{n}", "triangular:{m}",
           "parabolic:{m}"]  # m = 16n: 1-D loads of 768 to 1536 iterations
SIZES = [48, 64, 80, 96]
SCHEDULERS = ["AFS", "GSS", "SS", "FACTORING", "TRAPEZOID", "STATIC",
              "MOD-FACTORING", "ADAPT", "AFS-NN", "WORKSHARE", "TAILOR(0.5)"]
PROCS = [2, 4, 8]


def _line(obj):
    return json.dumps(obj, separators=(",", ":"))


def _cold_grid(rng, seen):
    while True:
        n = rng.choice(SIZES)
        kernel = rng.choice(KERNELS).format(n=n, m=n * 16)
        grid = {
            "verb": "grid",
            "kernel": kernel,
            "machine": rng.choice(MACHINES),
            "schedulers": ",".join(rng.sample(SCHEDULERS, 2)),
            "procs": ",".join(str(p) for p in sorted(rng.sample(PROCS, 2))),
        }
        if _line(grid) not in seen:
            return grid


def _overlap(rng, grid):
    scheds = grid["schedulers"].split(",")
    procs = grid["procs"].split(",")
    sub = dict(grid)
    sub["schedulers"] = ",".join(rng.sample(scheds, rng.randint(1, len(scheds))))
    sub["procs"] = ",".join(sorted(rng.sample(procs, rng.randint(1, len(procs))),
                                   key=int))
    return sub


def generate(seed):
    """The script as a list of protocol lines (no trailing newlines)."""
    kinds = ([("run", i) for i in RUN_IDS for _ in range(RUN_ASKS)]
             + [("run", t) for t in TABLE_IDS for _ in range(TABLE_ASKS)]
             + [("grid_repeat", None)] * GRID_REPEAT
             + [("grid_overlap", None)] * GRID_OVERLAP
             + [("grid_cold", None)] * GRID_COLD
             + [("stats", None)] * STATS)
    random.Random("daemon_mixed order").shuffle(kinds)
    rng = random.Random(seed)
    # An overlapping grid needs an earlier grid: the first grid is cold.
    first = next(i for i, k in enumerate(kinds) if k[0].startswith("grid"))
    cold = next(i for i, k in enumerate(kinds) if k[0] == "grid_cold")
    kinds[first], kinds[cold] = kinds[cold], kinds[first]
    grids, seen, lines = [], set(), []
    for kind, rid in kinds:
        if kind == "run":
            obj = {"verb": "run", "ids": [rid]}
        elif kind == "grid_repeat":
            obj = json.loads(rng.choice([x for x in lines if '"grid"' in x]))
        elif kind == "grid_overlap":
            obj = _overlap(rng, rng.choice(grids))
        elif kind == "grid_cold":
            obj = _cold_grid(rng, seen)
            grids.append(obj)
        else:
            obj = {"verb": "stats"}
        line = _line(obj)
        seen.add(line)
        lines.append(line)
    return lines


def subset_of(lines):
    """For each grid line that asks for a subset of an earlier grid's cells
    (same kernel and machine; its schedulers and processor counts among
    the earlier grid's), the index of the first such earlier grid."""
    parents = {}
    grids = []
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if obj["verb"] != "grid":
            continue
        cells = (obj["kernel"], obj["machine"],
                 set(obj["schedulers"].split(",")),
                 set(obj["procs"].split(",")))
        for j, (kernel, machine, scheds, procs) in grids:
            if (kernel, machine) == cells[:2] and cells[2] <= scheds \
                    and cells[3] <= procs:
                parents[i] = j
                break
        grids.append((i, cells))
    return parents


def write(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))
