"""CYPRESS pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload regular_inline --seed 1 --seconds 10 --trace 0

One run builds the independent references (in separate processes),
sets the workload up several times (the median is ``setup_s``), checks
that the checker counts a flipped byte as a failure, then runs seeded
passes over the workload's program mix for ``--seconds``.  With
``--trace 0`` the passes run bare and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics of ``BENCHMARK.json`` are reported, with the
tracing overhead among them.  The last line of standard output is the
JSON result; what came before it is a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings

SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # timed passes per run, however long they take
MAX_OVERRUN = 1.5  # passes stop at this many --seconds, samples or not


def percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_samples(q: float) -> int:
    """Samples a run needs so that ten lie beyond the ``q`` percentile."""
    return int(round(10 / (1 - q)))


def build_refs(workload: str, seed: int, work: str) -> dict:
    """Build the references in up to two processes, in parallel."""
    import pickle

    parts = max(1, min(2, os.cpu_count() or 1))
    outs = [os.path.join(work, f"ref{i}.pkl") for i in range(parts)]
    here = os.path.dirname(os.path.abspath(__file__))
    procs = [
        subprocess.Popen([
            sys.executable, os.path.join(here, "reference.py"),
            "--workload", workload, "--seed", str(seed),
            "--part", f"{i}/{parts}", "--out", out,
        ])
        for i, out in enumerate(outs)
    ]
    codes = [p.wait() for p in procs]
    if any(codes):
        raise RuntimeError(f"reference build failed (exit codes {codes})")
    refs: dict = {}
    for out in outs:
        with open(out, "rb") as fh:
            refs.update(pickle.load(fh))
    return refs


def calibrated(fn):
    """Run ``fn()`` between two calibration loops.  Returns its result,
    its wall seconds and the reference-speed factor for times measured
    inside it."""
    from probes import CALIBRATION_REF_S, calibrate

    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    scale = CALIBRATION_REF_S / ((before + calibrate()) / 2)
    return result, seconds, scale


def measure(wl, seconds: float, traced: bool):
    """Run passes for ``seconds``; with ``traced`` untraced and traced
    passes alternate.  Returns (untraced passes, traced passes, probe)."""
    from repro import obs
    from workloads import Probe

    probe = Probe() if traced else None
    registry = obs.MetricsRegistry()
    bare, rich = [], []
    start = time.perf_counter()
    need = tail_samples(wl.tail_q)
    while True:
        tracing = traced and len(bare) > len(rich)
        if tracing:
            obs.enable(registry)
            try:
                with probe.spans.span("pass"):
                    st, _, scale = calibrated(
                        lambda: wl.run_pass(wl.order(), probe)
                    )
            finally:
                obs.disable()
            rich.append(st)
        else:
            st, _, scale = calibrated(lambda: wl.run_pass(wl.order()))
            bare.append(st)
        st.scale = scale
        st.failed += wl.verify_pending(st)
        elapsed = time.perf_counter() - start
        samples = sum(len(p.latencies) for p in bare)
        enough = (
            len(bare) >= MIN_PASSES
            and (traced and len(rich) >= MIN_PASSES or samples >= need)
        )
        if elapsed >= seconds and enough or elapsed >= MAX_OVERRUN * seconds:
            break
    if probe is not None:
        probe.registry = registry
    return bare, rich, probe


def end_to_end(wl, bare, setups) -> dict:
    from probes import peak_rss_mb

    latencies = [x * p.scale for p in bare for x in p.latencies]
    raw, cyp = wl.raw_and_trace_bytes()
    print(
        f"{len(bare)} passes, {len(latencies)} op-latency samples "
        f"(op_tail_s is p{wl.tail_q * 100:g}; "
        f"{tail_samples(wl.tail_q)} samples put ten beyond it); "
        f"unscaled: events_per_s "
        f"{statistics.median(p.events / p.seconds for p in bare):.6g}, "
        f"setup_s {statistics.median(s for s, _ in setups):.4g}"
    )
    return {
        "setup_s": statistics.median(s * k for s, k in setups),
        "events_per_s": statistics.median(p.rate for p in bare),
        "op_p50_s": percentile(latencies, 0.5),
        "op_tail_s": percentile(latencies, wl.tail_q),
        "compression_ratio": raw / cyp,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(wl, bare, rich, probe, compile_times, caught, checkpoints) -> dict:
    """The traced run's per-layer figures.  Seconds are per traced pass
    (query and submit figures per call), at reference speed; counts are
    per pass, failure and process counts per run."""
    import mix

    spans, sums = probe.spans, probe.sums
    counters = probe.registry.counters
    npass = max(1, len(rich))
    k = statistics.median(p.scale for p in rich)

    def per_pass(seconds: float) -> float:
        return seconds * k / npass

    def median_call(name: str) -> float:
        xs = spans.durations(name)
        return statistics.median(xs) * k if xs else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    run_s = spans.total("trace.run")
    sink_s = sums["intra.inline_s"] + sums["pmpi.capture_s"]
    events = counters.get("intra.events", 0)
    slow = counters.get("intra.mono_cache_miss", 0) + counters.get(
        "intra.stream_fallback", 0
    )
    submits = [x * p.scale for p in rich for x in p.latencies]
    attempted = sum(p.ops for p in bare + rich)
    failed = sum(p.failed for p in bare + rich)
    out = {
        "static.compile_s": statistics.median(compile_times),
        "minilang.interp_s": per_pass(
            max(0.0, run_s - probe.calls.self_s - sink_s) if run_s else 0.0
        ),
        "mpisim.call_s": per_pass(probe.calls.self_s),
        "mpisim.events": sums["mpisim.events"] / npass,
        "pmpi.capture_s": per_pass(sums["pmpi.capture_s"]),
        "intra.inline_s": per_pass(sums["intra.inline_s"]),
        "intra.overhead_ratio": ratio(sums["intra.inline_s"], sums["app.null_s"]),
        "intra.compress_s": per_pass(spans.total("intra.compress")),
        "intra.serial_compress_s": per_pass(spans.total("intra.serial_compress")),
        "intra.parallel_speedup": ratio(
            spans.total("intra.serial_compress"), spans.total("intra.compress")
        ),
        "intra.slow_path_frac": ratio(slow, events),
        "intra.run_collapsed_frac": ratio(
            counters.get("intra.run_collapsed_events", 0), events
        ),
        "intra.wildcard_deferred": counters.get("intra.wildcard_deferred", 0) / npass,
        "intra.transport_fallbacks": counters.get("faults.transport_fallbacks", 0),
        "intra.fallback_warnings": sum(
            1 for w in caught if issubclass(w.category, RuntimeWarning)
        ),
        "intra.pool_procs": wl.live_workers(),
        "faults.other": sum(
            v for name, v in counters.items()
            if name.startswith("faults.") and name != "faults.transport_fallbacks"
        ),
        "inter.merge_s": per_pass(spans.total("inter.merge")),
        "inter.groups": sums["inter.groups"] / npass,
        "serialize.dumps_s": per_pass(spans.total("serialize.dumps")),
        "serialize.trace_bytes": sums["serialize.trace_bytes"] / npass,
        "serialize.loads_s": per_pass(spans.total("serialize.loads")),
        "decompress.s": per_pass(spans.total("decompress")),
        "replay.predict_s": per_pass(spans.total("replay.predict")),
        "query.traffic_s": median_call("query.traffic"),
        "query.rank_profile_s": median_call("query.rank_profile"),
        "query.critical_leaves_s": median_call("query.critical_leaves"),
        "query.ordering_s": median_call("query.ordering"),
        "server.submit_s": statistics.median(submits) if wl.name == "server_ingest" else 0.0,
        "server.reconnects": sums["server.reconnects"],
        "server.throttles": sums["server.throttles"],
        "server.checkpoints": checkpoints / max(1, len(bare) + len(rich)),
        "bench.tracing_overhead": ratio(
            statistics.median(p.seconds * p.scale for p in rich),
            statistics.median(p.seconds * p.scale for p in bare),
        ),
        "bench.ops_failed_frac": ratio(failed, attempted),
    }
    refs = {p.name: wl.refs[p.key] for p in wl.programs}
    for prog in mix.REGULAR + mix.IRREGULAR:
        ref = refs.get(prog.name)
        out[f"fig15.{prog.name}.ratio"] = (
            ref["raw_bytes"] / len(ref["trace"]) if ref else 0.0
        )
    for prog in mix.REGULAR:
        out[f"fig16.{prog.name}.overhead"] = ratio(
            sums[f"intra_s/{prog.name}"], sums[f"null_s/{prog.name}"]
        )
    for prog in mix.IRREGULAR:
        out[f"speedup.{prog.name}"] = ratio(
            sums[f"ser_s/{prog.name}"], sums[f"par_s/{prog.name}"]
        )
    return out


def load_metric_table(path: str = "BENCHMARK.json") -> tuple[dict, dict]:
    with open(path) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="CYPRESS pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still stops its daemon and worker pools.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join("src", "repro")) or not os.path.exists(
        "BENCHMARK.json"
    ):
        print("perfbench: run from the repository root (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads
    from probes import adopt_orphans, stop_children

    adopt_orphans()

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_table()
    work = os.path.abspath(os.path.join(
        ".perfbench_work", f"{args.workload}-{os.getpid()}"
    ))
    os.makedirs(work, exist_ok=True)
    wl = None
    try:
        refs = build_refs(args.workload, args.seed, work)
        ref_errors = [e for r in refs.values() for e in r["errors"]]
        for error in ref_errors[:10]:
            print(f"reference: {error}")
        wl = workloads.WORKLOADS[args.workload](work, args.seed, refs)
        wl.prepare_inputs()
        setups, compile_times = [], []
        for rep in range(SETUP_REPS):
            if rep:
                wl.reset()
            compile_s, seconds, scale = calibrated(wl.setup)
            setups.append((seconds, scale))
            compile_times.append(compile_s * scale)
        checker_ok = wl.self_test()
        if not checker_ok:
            print("self-test: a flipped byte was NOT counted as a failure")
        with warnings.catch_warnings(record=True) as caught:
            if args.trace:
                warnings.simplefilter("always")
            else:
                warnings.simplefilter("default")
            checkpoints = -wl.checkpoints()
            bare, rich, probe = measure(wl, args.seconds, bool(args.trace))
            checkpoints += wl.checkpoints()
        for w in caught:
            text = str(w.message)
            if len(text) > 160:
                text = text[:160] + "..."
            print(f"warning: {w.category.__name__}: {text}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(
                wl, bare, rich, probe, compile_times, caught, checkpoints
            )
            units = layer_units
            probe.spans.write(os.path.join(
                ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json"
            ))
        else:
            metrics = end_to_end(wl, bare, setups)
            units = e2e_units
    finally:
        if wl is not None:
            wl.close()
        for pid in stop_children():
            print(f"perfbench: killed child process {pid} that did not exit",
                  file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    passes = bare + rich
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for error in p.errors:
            print(f"failed: {error}")
    if set(metrics) != set(units):
        missing = sorted(set(units) ^ set(metrics))
        raise RuntimeError(f"metric table mismatch with BENCHMARK.json: {missing}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(f"ops: {attempted} attempted, {failed} failed")
    result = {
        "correct": failed == 0 and checker_ok and not ref_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in sorted(metrics)
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
