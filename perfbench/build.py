"""Builds afs_sweep and the traced harness from the checkout's sources, and
describes the build a result was measured on."""

import hashlib
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["afs_sweep", "afs_sweep_traced", "perfbench_trace"]


def repo_root():
    return os.path.dirname(HERE)


def build(build_dir, log_path, targets=TARGETS):
    """Configures (once) and builds; returns nothing, raises on failure."""
    root = repo_root()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise RuntimeError(f"no repository sources next to {HERE}")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache) and os.path.realpath(
            cache_values(build_dir).get("CMAKE_HOME_DIRECTORY", "")) != \
            os.path.realpath(HERE):
        # A build tree copied from another checkout builds that checkout.
        shutil.rmtree(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "ab") as log:
        if not os.path.isfile(cache):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", build_dir,
                        f"-j{os.cpu_count() or 1}", "--target", *targets],
                       stdout=log, stderr=subprocess.STDOUT, check=True)


def cache_values(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                values[m.group(1)] = m.group(2)
    return values


def metadata(build_dir):
    """Commit, host and build description recorded with every result."""
    cache = cache_values(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if x)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": build_type,
        "flags": flags,
        "sanitize": cache.get("AFS_SANITIZE", "OFF"),
        "tsan": cache.get("AFS_TSAN", "OFF"),
        "python": sys.version.split()[0],
    }


def refusal(meta):
    """Why this build must not be measured, or None."""
    if meta["build_type"] not in ("Release", "RelWithDebInfo"):
        return f"refusing to measure a {meta['build_type'] or 'untyped'} build"
    if meta["sanitize"].upper() in ("ON", "1", "TRUE") or \
            meta["tsan"].upper() in ("ON", "1", "TRUE") or \
            "-fsanitize" in meta["flags"]:
        return "refusing to measure a sanitizer build"
    return None


def _commit():
    git = shutil.which("git")
    if git:
        r = subprocess.run([git, "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=repo_root(), capture_output=True, text=True)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(repo_root()):
            return lines[1]
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the sources the build reads, so a result names its code
    even where there is no git history."""
    root = repo_root()
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()
