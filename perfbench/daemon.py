"""The daemon under test and the closed-loop client that drives it."""

import hashlib
import json
import os
import signal
import socket
import subprocess
import threading
import time

import script
import verify

# Events that end the answer to one script line.
TERMINAL = ("done", "error", "stats")


class Daemon:
    """A sweep daemon process (and its sandbox workers, which share its
    process group). stop() always leaves none of them running."""

    def __init__(self, argv, socket_path, log_path, env=None):
        self.socket_path = socket_path
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=self.log,
                                     stdin=subprocess.DEVNULL, env=env,
                                     start_new_session=True)
        self.rusage = None
        self.status = None

    def wait_ready(self, workers, timeout=60.0):
        """Polls until the daemon answers health as serving with all its
        sandbox workers live."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early ({self.proc.returncode})")
            try:
                reply = request_once(self.socket_path, {"verb": "health"}, 5.0)
            except OSError:
                time.sleep(0.001)
                continue
            if (reply.get("status") == "serving"
                    and reply.get("workers_live", workers) >= workers):
                return
            time.sleep(0.001)
        raise RuntimeError("daemon did not answer health in time")

    def stop(self, grace=30.0):
        """Drains with the shutdown verb, then SIGTERM, then SIGKILL to the
        whole process group. Returns the daemon's exit status."""
        if self.status is None:
            try:
                request_once(self.socket_path, {"verb": "shutdown"}, 5.0)
            except (OSError, ValueError):
                pass
            if not self._wait(grace):
                self._signal(signal.SIGTERM)
                if not self._wait(10.0):
                    self._signal(signal.SIGKILL)
                    self._wait(None)
        # Sandbox workers share the group; none may outlive the daemon.
        self._signal(signal.SIGKILL)
        self.log.close()
        return self.status

    def _signal(self, sig):
        try:
            os.killpg(self.proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def _wait(self, timeout):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid,
                                           0 if timeout is None else os.WNOHANG)
            if pid == self.proc.pid:
                self.status = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.status
                self.rusage = rusage
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.005)


def request_once(socket_path, obj, timeout):
    """Sends one inline request on a fresh connection; returns the reply."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(socket_path)
        s.sendall((json.dumps(obj) + "\n").encode())
        f = s.makefile("rb")
        line = f.readline()
        if not line:
            raise OSError("connection closed without a reply")
        return json.loads(line)


class Sample:
    """One script line's answer, timed on the client."""
    __slots__ = ("verb", "sent", "accepted", "done", "ok", "problem",
                 "request", "csvs")

    def __init__(self, verb, sent):
        self.verb, self.sent = verb, sent
        self.accepted = self.done = None
        self.ok = False
        self.problem = None
        self.request = None
        self.csvs = []  # (path, bytes or None) of each CSV the answer named


def run_script(socket_path, lines, clients, timeout=120.0):
    """Drives the script as a closed loop over `clients` connections. Lines
    are taken and sent under one lock, so they reach the daemon in script
    order; each connection has at most one request outstanding. A client
    only copies each answer's CSVs before sending its next line;
    check_answers verifies them after the pass, so no checking holds the
    interpreter lock while the other client waits to time its answer.
    Returns one Sample per line."""
    lock = threading.Lock()
    cursor = [0]
    samples = [None] * len(lines)
    errors = []

    def client():
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(timeout)
                s.connect(socket_path)
                f = s.makefile("rb")
                while True:
                    with lock:
                        i = cursor[0]
                        if i >= len(lines):
                            return
                        cursor[0] += 1
                        obj = json.loads(lines[i])
                        sample = Sample(obj["verb"], time.perf_counter())
                        s.sendall((lines[i] + "\n").encode())
                    samples[i] = sample
                    _read_answer(f, sample)
                    _copy_csvs(sample)
        except Exception as ex:  # a transport failure fails the run
            errors.append(repr(ex))

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, s in enumerate(samples):
        if s is None:
            s = samples[i] = Sample("?", 0.0)
            s.problem = "never answered: " + "; ".join(errors or ["?"])
    return samples


def check_answers(lines, samples, reference):
    """Verifies the answers run_script collected, in script order."""
    answers = verify.AnswerBook()
    for line, s in zip(lines, samples):
        if s.problem is None:
            _check_answer(s, line, reference, answers)
    grids = {i: s.csvs[0][1].decode() for i, s in enumerate(samples)
             if s.ok and s.verb == "grid"}
    for i, problem in verify.check_grids(lines, grids,
                                         script.subset_of(lines)).items():
        samples[i].ok = False
        samples[i].problem = problem


def _read_answer(f, sample):
    while True:
        line = f.readline()
        if not line:
            raise OSError("daemon closed the connection")
        ev = json.loads(line)
        kind = ev.get("event")
        if kind == "accepted":
            sample.accepted = time.perf_counter()
        elif kind in TERMINAL:
            sample.done = time.perf_counter()
            sample.request = ev
            return


def _copy_csvs(sample):
    ev = sample.request
    if ev.get("event") != "done":
        return
    for e in ev.get("experiments", []):
        for path in e.get("csv", []):
            try:
                with open(path, "rb") as f:
                    sample.csvs.append((path, f.read()))
            except OSError:
                sample.csvs.append((path, None))


def _check_answer(sample, line, reference, answers):
    ev = sample.request
    if sample.verb == "stats":
        sample.ok = ev.get("event") == "stats"
        if not sample.ok:
            sample.problem = f"stats answered {ev}"
        return
    if ev.get("event") != "done" or ev.get("ok") is not True or ev.get("exit") != 0:
        sample.problem = f"request {line} answered {json.dumps(ev)[:200]}"
        return
    if not sample.csvs:
        sample.problem = f"request {line} named no CSV"
        return
    for path, data in sample.csvs:
        if data is None:
            sample.problem = f"request {line}: answer CSV {path} unreadable"
            return
        want = reference["csv_sha256"].get(os.path.basename(path))
        if (sample.verb == "run" and want is not None
                and hashlib.sha256(data).hexdigest() != want):
            sample.problem = f"{path}: differs from the seed reference"
            return
    sample.problem = answers.check(line, [data for _, data in sample.csvs])
    sample.ok = sample.problem is None
