"""The four workloads of the pipeline benchmark.

Each workload drives the library's public functions over a program mix
(:mod:`mix`).  ``setup`` is the program's own set-up -- compiling every
program, the first (cold) pass, starting the daemon -- and may run
several times in one benchmark run; ``run_pass`` is one timed pass over
the mix in a seeded order.  Every output of a pass is checked against
the independent reference (:mod:`reference`) after its op is timed.

With a :class:`Probe` a pass also records spans around each public call,
times mpisim steps and sink callbacks, and runs the paper's side
measurements (NullSink baselines, serial compression); without one the
same calls run bare.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import mix
from probes import NULL_CONTEXT, CallTimer, Spans, span_of

clock = time.perf_counter


@dataclass
class PassStats:
    """What one pass measured."""

    seconds: float = 0.0  # summed op time (checks excluded)
    events: int = 0
    latencies: list = field(default_factory=list)  # one per user-visible op
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Reference-speed factor: a time measured in this pass, times
    #: ``scale``, is the time at the calibration's reference speed.
    scale: float = 1.0

    @property
    def rate(self) -> float:
        return self.events / (self.seconds * self.scale)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


class Probe:
    """Per-layer instrumentation of the traced run."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.calls = CallTimer()
        self.sums: dict[str, float] = defaultdict(float)


def calls_of(probe: Probe | None):
    """The mpisim step timer, installed for one traced op only."""
    return NULL_CONTEXT if probe is None else probe.calls.installed()


def _corrupt(data: bytes) -> bytes:
    """Flip one byte in the middle (the checker's negative test)."""
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]


class Workload:
    name = ""
    programs: tuple = ()
    tail_q = 0.99  # op-latency tail percentile reported as op_tail_s

    def __init__(self, work_dir: str, seed: int, refs: dict) -> None:
        self.work_dir = work_dir
        self.refs = refs
        self.rng = random.Random(seed)
        self.compiled: dict = {}
        self.defines: dict = {}
        #: The latest output of each program's op (trace workloads).
        self.outputs: dict[str, bytes] = {}

    # -- set-up ---------------------------------------------------------

    def compile_all(self) -> float:
        from repro.static.instrument import compile_minimpi
        from repro.workloads import get as get_workload

        t0 = clock()
        for p in self.programs:
            w = get_workload(p.name)
            self.compiled[p.key] = compile_minimpi(w.source)
            self.defines[p.key] = w.defines(p.nprocs, p.scale)
        return clock() - t0

    def setup(self) -> float:
        """One full set-up; returns its compile seconds.  The cold pass
        runs in the canonical program order."""
        compile_s = self.compile_all()
        stats = self.run_pass(list(self.programs))
        if stats.failed:
            raise RuntimeError(f"cold pass failed: {stats.errors}")
        return compile_s

    def reset(self) -> None:
        """Undo a set-up before the next one."""

    def close(self) -> None:
        """Release what set-up started."""

    def live_workers(self) -> int:
        from probes import children

        return len(children())

    def prepare_inputs(self) -> None:
        """Generate inputs before set-up (outside its time)."""

    def verify_pending(self, st: PassStats) -> int:
        """Check outputs that appear after a pass; returns mismatches."""
        return 0

    def checkpoints(self) -> int:
        """Checkpoints the daemon has taken so far."""
        return 0

    # -- passes ---------------------------------------------------------

    def order(self) -> list:
        """A pass's programs, in seeded order."""
        progs = list(self.programs)
        self.rng.shuffle(progs)
        return progs

    def run_pass(self, progs: list, probe: Probe | None = None) -> PassStats:
        raise NotImplementedError

    def check_trace(self, prog: mix.Program, data: bytes) -> str | None:
        if mix.digest(data) != self.refs[prog.key]["digest"]:
            return f"{prog.key}: trace bytes differ from the reference"
        return None

    def self_test(self) -> bool:
        """The checker must count a one-byte corruption as a failure."""
        prog = self.programs[0]
        data = self.refs[prog.key]["trace"]
        return (
            self.check_trace(prog, data) is None
            and self.check_trace(prog, _corrupt(data)) is not None
        )

    def raw_and_trace_bytes(self) -> tuple[int, int]:
        raw = sum(self.refs[p.key]["raw_bytes"] for p in self.programs)
        cyp = sum(len(self.refs[p.key]["trace"]) for p in self.programs)
        return raw, cyp


# ---------------------------------------------------------------------------


class RegularInline(Workload):
    """``run_cypress`` with inline compression, tree merge, dumps."""

    name = "regular_inline"
    programs = mix.REGULAR
    tail_q = 0.9

    def run_pass(self, progs, probe=None):
        from repro.core import serialize
        from repro.core.api import run_cypress
        from repro.driver import run_compiled
        from repro.mpisim.pmpi import NullSink

        spans = probe.spans if probe else None
        st = PassStats()
        for prog in progs:
            compiled, defines = self.compiled[prog.key], self.defines[prog.key]
            st.ops += 1
            try:
                t0 = clock()
                with span_of(spans, "op"), calls_of(probe):
                    with span_of(spans, "trace.run"):
                        run = run_cypress(
                            compiled, prog.nprocs, defines=defines,
                            measure_overhead=probe is not None,
                        )
                    with span_of(spans, "inter.merge"):
                        merged = run.merge()
                    with span_of(spans, "serialize.dumps"):
                        data = serialize.dumps(merged)
                dt = clock() - t0
            except Exception as exc:  # counted, reported, run continues
                st.fail(f"{prog.key}: {type(exc).__name__}: {exc}")
                continue
            st.seconds += dt
            st.latencies.append(dt)
            st.events += run.run_result.total_events
            self.outputs[prog.key] = data
            error = self.check_trace(prog, data)
            if error:
                st.fail(error)
            if probe is not None:
                s = probe.sums
                s["intra.inline_s"] += run.intra_seconds
                s["mpisim.events"] += run.run_result.total_events
                s["inter.groups"] += merged.group_count()
                s["serialize.trace_bytes"] += len(data)
                # Fig. 16: inline intra time over an untraced run.
                t0 = clock()
                run_compiled(compiled, prog.nprocs, defines=defines,
                             tracer=NullSink())
                null_s = clock() - t0
                s["app.null_s"] += null_s
                s[f"intra_s/{prog.name}"] += run.intra_seconds
                s[f"null_s/{prog.name}"] += null_s
        return st


class IrregularDeferred(Workload):
    """Capture, ``compress_streams(workers=2)`` on the auto (shm)
    transport, tree merge, dumps."""

    name = "irregular_deferred"
    programs = mix.IRREGULAR
    tail_q = 0.9
    workers = 2

    def reset(self) -> None:
        # A fresh compile gives fresh CSTs, which would fork a second set
        # of warm pools beside the first; close the first set so every
        # set-up repetition pays the same forks.
        from repro.core.intra import close_shared_sessions

        close_shared_sessions()

    close = reset

    def run_pass(self, progs, probe=None):
        from repro.core import serialize
        from repro.core.inter import merge_all
        from repro.core.intra import compress_streams
        from repro.driver import run_compiled
        from repro.mpisim.pmpi import StreamCaptureSink, TimingSink

        spans = probe.spans if probe else None
        st = PassStats()
        for prog in progs:
            compiled, defines = self.compiled[prog.key], self.defines[prog.key]
            n = prog.nprocs
            st.ops += 1
            try:
                t0 = clock()
                with span_of(spans, "op"), calls_of(probe):
                    capture = StreamCaptureSink()
                    sink = capture if probe is None else TimingSink(capture)
                    with span_of(spans, "trace.run"):
                        result = run_compiled(
                            compiled, n, defines=defines, tracer=sink
                        )
                    with span_of(spans, "intra.compress") as compress_span:
                        comp = compress_streams(
                            compiled.cst, capture.streams,
                            workers=self.workers, nranks=n,
                        )
                    if comp.quarantine:
                        raise RuntimeError(
                            f"quarantined {comp.quarantine.summary()}"
                        )
                    with span_of(spans, "inter.merge"):
                        merged = merge_all(
                            [comp.ctt(r) for r in range(n)],
                            schedule="tree", nranks=n,
                        )
                    with span_of(spans, "serialize.dumps"):
                        data = serialize.dumps(merged)
                dt = clock() - t0
            except Exception as exc:  # counted, reported, run continues
                st.fail(f"{prog.key}: {type(exc).__name__}: {exc}")
                continue
            st.seconds += dt
            st.latencies.append(dt)
            st.events += result.total_events
            self.outputs[prog.key] = data
            error = self.check_trace(prog, data)
            if error:
                st.fail(error)
            if probe is not None:
                from repro import obs

                registry = obs.active()
                if registry is not None:
                    comp.publish_metrics(registry)
                s = probe.sums
                s["pmpi.capture_s"] += sink.elapsed
                s["mpisim.events"] += result.total_events
                s["inter.groups"] += merged.group_count()
                s["serialize.trace_bytes"] += len(data)
                par_s = compress_span[2] - compress_span[1]
                # The same captures, compressed serially.
                with obs_paused():
                    with probe.spans.span("intra.serial_compress") as rec:
                        compress_streams(
                            compiled.cst, capture.streams, workers=1, nranks=n,
                        )
                ser_s = rec[2] - rec[1]
                s[f"par_s/{prog.name}"] += par_s
                s[f"ser_s/{prog.name}"] += ser_s
        return st


@contextlib.contextmanager
def obs_paused():
    """Switch the obs registry off for a side measurement, so its
    counters describe only the timed ops."""
    from repro import obs

    registry = obs.disable()
    try:
        yield
    finally:
        if registry is not None:
            obs.enable(registry)


class Analyze(Workload):
    """The read side over setup's traces: loads, the seeded query mix,
    ``decompress_all`` and SIM-MPI ``predict``."""

    name = "analyze"
    programs = mix.REGULAR + mix.IRREGULAR
    tail_q = 0.99

    def __init__(self, work_dir, seed, refs) -> None:
        super().__init__(work_dir, seed, refs)
        self.writers = (
            RegularInline(work_dir, seed, refs),
            IrregularDeferred(work_dir, seed, refs),
        )
        self.traces: dict[str, bytes] = {}

    def setup(self) -> float:
        compile_s = 0.0
        for writer in self.writers:
            compile_s += writer.compile_all()
            st = writer.run_pass(list(writer.programs))
            if st.failed:
                raise RuntimeError(f"set-up traces failed: {st.errors}")
            self.traces.update(writer.outputs)
        # The read side has no use for the deferred writer's warm pools;
        # left alive they would only poll in the background of every pass.
        self.writers[1].close()
        st = self.run_pass(list(self.programs))
        if st.failed:
            raise RuntimeError(f"cold pass failed: {st.errors}")
        return compile_s

    def run_pass(self, progs, probe=None):
        from repro.core import serialize
        from repro.core.decompress import decompress_all
        from repro.replay.simmpi import predict

        spans = probe.spans if probe else None
        st = PassStats()
        for prog in progs:
            ref = self.refs[prog.key]
            data = self.traces[prog.key]
            st.ops += 1
            try:
                answers = []
                t0 = clock()
                with span_of(spans, "op"):
                    with span_of(spans, "serialize.loads"):
                        merged = serialize.loads(data)
                    for query in ref["queries"]:
                        with span_of(spans, "query." + query[0]):
                            q0 = clock()
                            answers.append(mix.run_query(merged, query))
                            st.latencies.append(clock() - q0)
                    with span_of(spans, "decompress"):
                        traces = decompress_all(merged)
                    with span_of(spans, "replay.predict"):
                        sim = predict(traces)
                dt = clock() - t0
            except Exception as exc:  # counted, reported, run continues
                st.fail(f"{prog.key}: {type(exc).__name__}: {exc}")
                continue
            st.seconds += dt
            nevents = sum(len(evs) for evs in traces.values())
            st.events += nevents
            if answers != ref["answers"]:
                st.fail(f"{prog.key}: query answers differ from the oracle-checked reference")
            elif mix.replay_digest(traces) != ref["replay_digest"]:
                st.fail(f"{prog.key}: decompressed events differ from the reference")
            elif mix.predict_key(sim) != ref["predict"]:
                st.fail(f"{prog.key}: prediction differs from the reference")
        return st

    def self_test(self) -> bool:
        prog = self.programs[0]
        good = self.traces[prog.key]
        self.traces[prog.key] = _corrupt(good)
        try:
            st = self.run_pass([prog])
        finally:
            self.traces[prog.key] = good
        return st.failed == 1


# ---------------------------------------------------------------------------


class ServerIngest(Workload):
    """A ``repro serve`` daemon in its own process; pre-captured CYPK
    batches streamed through ``TraceClient``, one rank stream at a time
    on one connection (closed loop).  Several jobs are open at once, as
    their rank streams interleave.  A second connection adds no
    throughput (the daemon is one event loop) but makes a stream's
    latency hinge on whether it queued behind another job's finalize,
    which spread the p99 by 40 % run to run."""

    name = "server_ingest"
    programs = mix.SERVER
    tail_q = 0.99
    jobs_per_pass = 4

    def __init__(self, work_dir, seed, refs) -> None:
        super().__init__(work_dir, seed, refs)
        self.blobs: dict[str, dict[int, list[bytes]]] = {}
        self.events: dict[str, int] = {}
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.generation = 0
        self.jobno = 0
        self.pending: list[tuple[str, mix.Program]] = []

    def prepare_inputs(self) -> None:
        """Capture every program's per-rank streams and cut them into
        CYPK batches (input generation, outside set-up time)."""
        from repro.driver import run_compiled
        from repro.mpisim.pmpi import StreamCaptureSink
        from repro.server.client import split_batches

        self.compile_all()
        for p in self.programs:
            capture = StreamCaptureSink()
            result = run_compiled(
                self.compiled[p.key], p.nprocs,
                defines=self.defines[p.key], tracer=capture,
            )
            self.events[p.key] = result.total_events
            self.blobs[p.key] = {
                r: split_batches(capture.streams[r], mix.BATCH_EVENTS)
                for r in range(p.nprocs)
            }

    def _dir(self, *parts: str) -> str:
        return os.path.join(self.work_dir, f"daemon{self.generation}", *parts)

    def setup(self) -> float:
        compile_s = self.compile_all()
        self.generation += 1
        os.makedirs(self._dir(), exist_ok=True)
        port_file = self._dir("port")
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", self._dir("state"), "--out-dir", self._dir("out"),
             "--port", "0", "--port-file", port_file],
            env=env, stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("ingest daemon did not start")
            time.sleep(0.002)
        with open(port_file) as fh:
            self.port = int(fh.read())
        st = self.run_pass(list(self.programs))
        st.failed += self.verify_pending(st)
        if st.failed:
            raise RuntimeError(f"cold pass failed: {st.errors}")
        return compile_s

    def reset(self) -> None:
        self.close()

    def close(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def live_workers(self) -> int:
        from probes import children

        daemon = self.proc.pid if self.proc is not None else None
        return len([pid for pid in children() if pid != daemon])

    def checkpoints(self) -> int:
        """``server.checkpoints`` from the daemon's STATUS (asked on a probe
        session: the daemon answers STATUS only after a HELLO)."""
        import socket

        from repro.server import protocol as proto

        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(proto.control_frame(
                proto.HELLO, job="status-probe", rank=0, nranks=1,
                workload=self.programs[0].name, scale=1.0,
            ))
            proto.read_frame(sock)
            sock.sendall(proto.control_frame(proto.STATUS))
            kind, payload = proto.read_frame(sock)
            if kind != proto.STATUS_ACK:
                raise RuntimeError(f"daemon answered STATUS with frame {kind}")
            return int(proto.decode_control(payload).get("server.checkpoints", 0))

    def order(self):
        """A pass's jobs: each program twice, in seeded order."""
        progs = list(self.programs) * (self.jobs_per_pass // len(self.programs))
        self.rng.shuffle(progs)
        return progs

    def run_pass(self, progs, probe=None):
        from repro.server.client import TraceClient

        rng = self.rng
        jobs = []
        for prog in progs:
            self.jobno += 1
            jobs.append((f"job{self.jobno}", prog))
        # Seeded interleaving of the jobs' rank streams (each job's ranks
        # keep their order).
        queues = [[(job, prog, r) for r in range(prog.nprocs)] for job, prog in jobs]
        tasks = []
        while queues:
            q = rng.choice(queues)
            tasks.append(q.pop(0))
            if not q:
                queues.remove(q)
        st = PassStats()
        failed_jobs: set[str] = set()
        spans = probe.spans if probe else None
        t0 = clock()
        with span_of(spans, "op"):
            for job, prog, rank in tasks:
                client = TraceClient(
                    "127.0.0.1", self.port, job=job, rank=rank,
                    nranks=prog.nprocs, workload=prog.name, scale=prog.scale,
                )
                r0 = clock()
                try:
                    client.send(self.blobs[prog.key][rank])
                except Exception as exc:  # counted, reported, run continues
                    failed_jobs.add(job)
                    st.errors.append(f"{job} rank {rank}: {exc}")
                    continue
                st.latencies.append(clock() - r0)
                if probe is not None:
                    probe.sums["server.reconnects"] += client.reconnects
                    probe.sums["server.throttles"] += client.throttles_seen
        st.seconds = clock() - t0
        st.ops = len(jobs)
        st.failed = len(failed_jobs)
        st.events = sum(
            self.events[prog.key] for job, prog in jobs if job not in failed_jobs
        )
        self.pending.extend((j, p) for j, p in jobs if j not in failed_jobs)
        return st

    def verify_pending(self, st: PassStats) -> int:
        """Check every finished job's finalized trace against the batch
        reference; returns the number of mismatches (a job whose trace
        never appears within the timeout counts as one)."""
        bad = 0
        for job, prog in self.pending:
            path = self._dir("out", f"{job}.cyp")
            deadline = time.monotonic() + 30
            while not os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.005)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                bad += 1
                st.errors.append(f"{job}: no finalized trace ({exc})")
                continue
            error = self.check_trace(prog, data)
            if error:
                bad += 1
                st.errors.append(f"{job}: {error}")
            os.unlink(path)
        self.pending.clear()
        return bad


WORKLOADS = {
    "regular_inline": RegularInline,
    "irregular_deferred": IrregularDeferred,
    "analyze": Analyze,
    "server_ingest": ServerIngest,
}

