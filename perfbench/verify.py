"""Output verification: CSVs against the seed build's hashes, the pinned
fig15 miss total, warm daemon answers against their cold ones, and
overlapping grids against the grids they subset."""

import csv
import glob
import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "outputs.json")


def load_reference(path=REFERENCE):
    with open(path) as f:
        return json.load(f)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def csv_rows(path):
    with open(path, newline="") as f:
        return max(sum(1 for _ in f) - 1, 0)


def check_csvs(out_dir, names, reference):
    """Hash-checks each named CSV in out_dir. Returns (cells, failed_cells,
    problems): every row of a CSV is one cell, and every cell of a missing
    or mismatching CSV counts as failed."""
    cells = failed = 0
    problems = []
    for name in names:
        want = reference["csv_sha256"][name]
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            failed += 1
            cells += 1
            continue
        rows = csv_rows(path)
        cells += rows
        if sha256_file(path) != want:
            problems.append(f"{name}: sha256 differs from the seed reference")
            failed += rows
    return cells, failed, problems


def miss_total(csv_path):
    with open(csv_path, newline="") as f:
        return sum(int(row["misses"]) for row in csv.DictReader(f))


def check_fig15_misses(out_dir, reference):
    """The pinned fig15 miss total; returns a problem string or None."""
    path = os.path.join(out_dir, "fig15.csv")
    if not os.path.exists(path):
        return "fig15.csv: missing"
    got = miss_total(path)
    want = reference["fig15_miss_total"]
    if got != want:
        return f"fig15 miss total {got} != pinned {want}"
    return None


def simulated_accesses(paths):
    """Sum of hits + misses over serialized SimResults (store entries or
    sweep checkpoints): the memory accesses those cells simulated."""
    total = 0
    for path in paths:
        with open(path, errors="replace") as f:
            for line in f:
                key, _, value = line.partition(" ")
                if key in ("hits", "misses"):
                    total += int(value)
    return total


def store_entries(store_dir):
    return glob.glob(os.path.join(store_dir, "*", "*.cell"))


def checkpoint_entries(out_dir):
    return glob.glob(os.path.join(out_dir, ".sweep", "*", "*.cell"))


def _grid_rows(csv_text):
    """(scheduler, procs) -> row line of a grid.csv."""
    rows = {}
    for line in csv_text.splitlines()[1:]:
        fields = line.split(",")
        rows[(fields[1], fields[2])] = line
    return rows


def check_grids(lines, answers, parents):
    """Checks the grid answers of a daemon script against each other.

    lines: the script; answers: index -> the grid.csv text answering that
    line; parents: index -> index of an earlier grid whose cells it
    subsets (script.subset_of). Every grid must answer each of its cells
    exactly once, and every row of a subsetting grid must be byte-identical
    to the earlier grid's row for the same (scheduler, procs): rows hold
    absolute figures and speedups against the same serial time. Returns
    index -> problem for the grids that fail."""
    problems = {}
    for i, text in answers.items():
        obj = json.loads(lines[i])
        want = (len(obj["schedulers"].split(","))
                * len(obj["procs"].split(",")))
        rows = _grid_rows(text)
        if len(rows) != want or len(text.splitlines()) != want + 1:
            problems[i] = f"{lines[i]}: {len(rows)} distinct rows, want {want}"
            continue
        j = parents.get(i)
        if j is None or j not in answers:
            continue
        earlier = _grid_rows(answers[j])
        for key, row in rows.items():
            if earlier.get(key) != row:
                problems[i] = (f"{lines[i]}: row {key} differs from the "
                               f"earlier grid {lines[j]}")
                break
    return problems


class AnswerBook:
    """Remembers the CSV bytes of each request's first answer; every later
    answer to the same request must be byte-identical."""

    def __init__(self):
        self.first = {}

    def check(self, request_key, csv_bytes):
        digests = [hashlib.sha256(data).hexdigest() for data in csv_bytes]
        seen = self.first.setdefault(request_key, digests)
        if seen != digests:
            return f"{request_key}: warm answer differs from the cold one"
        return None
