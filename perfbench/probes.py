"""Outside-in instrumentation for the benchmark's traced run.

Nothing here edits the program: spans are recorded by the benchmark
around its own calls into each layer's public functions, the mpisim step
timer wraps ``RankComm.call`` only while a traced pass runs, and process
figures come from ``/proc``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import sys
import time

NULL_CONTEXT = contextlib.nullcontext()


class Spans:
    """In-memory span log: ``(name, start, end, parent)`` per call, where
    ``parent`` is the index of the enclosing span or -1.  Written out
    once, when the run ends."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.records))
        self.records.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"],
                 "spans": self.records},
                fh,
            )


def span_of(spans: Spans | None, name: str):
    """``spans.span(name)``, or a no-op context when tracing is off."""
    return NULL_CONTEXT if spans is None else spans.span(name)


class CallTimer:
    """Self time of mpisim's ``RankComm.call`` steps.

    The interpreter drives each MPI intrinsic as a generator
    (``yield from comm.call(...)``); the wrapper times every step the
    runtime takes inside it and subtracts the time the rank's trace sink
    spent in callbacks during that step, when the sink is a
    ``TimingSink`` (its ``elapsed`` counter)."""

    def __init__(self) -> None:
        self.self_s = 0.0
        self.steps = 0

    @contextlib.contextmanager
    def installed(self):
        from repro.mpisim.comm import RankComm

        original = RankComm.call
        timer = self
        clock = time.perf_counter

        def timed_call(comm, name, args):
            gen = original(comm, name, args)
            sink = comm.runtime.tracer
            has_elapsed = hasattr(sink, "elapsed")
            value = None
            while True:
                e0 = sink.elapsed if has_elapsed else 0.0
                t0 = clock()
                try:
                    gen.send(value)
                except StopIteration as stop:
                    timer._add(clock() - t0, sink, e0, has_elapsed)
                    return stop.value
                timer._add(clock() - t0, sink, e0, has_elapsed)
                value = yield

        RankComm.call = timed_call
        try:
            yield self
        finally:
            RankComm.call = original

    def _add(self, dt: float, sink, e0: float, has_elapsed: bool) -> None:
        if has_elapsed:
            dt -= sink.elapsed - e0
        self.self_s += dt
        self.steps += 1


def _status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid: int | None = None) -> list[int]:
    """Live child processes of ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            pass
    return sorted(set(out))


def descendants(pid: int | None = None) -> list[int]:
    todo, seen = children(pid), []
    while todo:
        child = todo.pop()
        seen.append(child)
        todo.extend(children(child))
    return sorted(seen)


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that a process left behind by one
    of its children -- the daemon's, say -- is still one of ours to
    wait for at the end."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_children(grace_s: float = 10.0) -> list[int]:
    """Stop every process this one started and wait for each to end.

    Closes the library's warm worker pools, then stops the
    multiprocessing resource tracker (which otherwise outlives its
    parent until it notices the closed pipe), then waits up to
    ``grace_s`` for the remaining children to exit and kills what is
    still running.  Returns the pids that had to be killed."""
    intra = sys.modules.get("repro.core.intra")
    if intra is not None:
        intra.close_shared_sessions()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    killed: list[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        pids = children()
        if not pids:
            return killed
        for pid in pids:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if done == 0 and time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                killed.append(pid)
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process plus every live
    descendant -- compression workers and the ingest daemon."""
    kb = _status_kb("self", "VmHWM")
    kb += sum(_status_kb(pid, "VmHWM") for pid in descendants())
    return kb / 1024.0


#: Wall time of :func:`calibrate` on the machine the benchmark was tuned
#: on, under typical load; normalized figures are in these units.
CALIBRATION_REF_S = 0.060


def _kernel(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


_rng = random.Random(7)  # fixed inputs of the memory kernel
_KEYS = [f"k{_rng.randrange(10**9)}" for _ in range(40_000)]
_PROBES = [_KEYS[_rng.randrange(len(_KEYS))] for _ in range(30_000)]


def _memory_kernel() -> int:
    """Allocations and random lookups over a few MiB.  Neighbours that
    contend for caches and memory slow the program more than they slow
    the arithmetic loop; this part of the calibration feels them too."""
    table = {key: (i, key) for i, key in enumerate(_KEYS)}
    total = 0
    for key in _PROBES:
        total += table[key][0]
    return total


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel(300_000)
    _memory_kernel()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Wall seconds of fixed pure-Python loops that share no code with
    the program.  The machine's speed drifts by up to a quarter over
    tens of seconds (neighbours on shared cores); timing these loops
    next to every pass lets the benchmark report figures at a reference
    speed, ``raw * CALIBRATION_REF_S / calibrate()`` for a time.

    Each CPU drifts on its own, and the workers and the daemon run on
    CPUs other than the benchmark's, so the loops run once pinned to
    each CPU this process may use and the mean is returned."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = []
    if len(cpus) < 2:
        return _timed_kernel()
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_timed_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
