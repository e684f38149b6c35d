"""Independent reference outputs for the pipeline benchmark.

Run as its own process (``python3 perfbench/reference.py``) so that no
cache, pool or interned state is shared with the timed code path, and so
that its memory never shows in the benchmark's peak RSS.  For every
program it builds the trace on the oracle path -- ``CypressConfig(
fastpath=False)`` ingest, a *fold* merge, ``serialize.dumps`` -- and
verifies it once against ``RecordingSink`` ground truth through
``decompress_merged_rank``, the check ``repro verify`` makes.  With
``--analyze`` it also records the SIM-MPI prediction and the seeded
query answers, each checked against ``repro.query.oracle``.

Usage: python3 perfbench/reference.py --workload W --seed N --part I/K --out FILE
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys

import mix


ALL_LEAVES = 10**9


def _gid(leaf) -> int:
    return leaf.gid


def build(prog: mix.Program, seed: int, analyze: bool) -> dict:
    from repro.baselines.rawtrace import RawTraceSink
    from repro.core import serialize
    from repro.core.decompress import decompress_merged_rank
    from repro.core.inter import merge_all
    from repro.core.intra import CypressConfig, IntraProcessCompressor
    from repro.driver import run_compiled
    from repro.mpisim.pmpi import MultiSink, RecordingSink
    from repro.query.oracle import agreement_errors
    from repro.replay.simmpi import predict
    from repro.static.instrument import compile_minimpi
    from repro.workloads import get as get_workload

    w = get_workload(prog.name)
    w.check_procs(prog.nprocs)
    n = prog.nprocs
    compiled = compile_minimpi(w.source)
    comp = IntraProcessCompressor(
        compiled.cst, config=CypressConfig(fastpath=False)
    )
    recorder, raw = RecordingSink(), RawTraceSink()
    result = run_compiled(
        compiled, n, defines=w.defines(n, prog.scale),
        tracer=MultiSink([recorder, comp, raw]),
    )
    errors = []
    if comp.quarantine:
        errors.append(f"reference quarantined ranks {comp.quarantine.summary()}")
    merged = merge_all(
        [comp.ctt(r) for r in range(n)], schedule="fold", nranks=n
    )
    data = serialize.dumps(merged)
    loaded = serialize.loads(data)
    traces = {r: decompress_merged_rank(loaded, r, nranks=n) for r in range(n)}
    for r in range(n):
        truth = [e.replay_tuple() for e in recorder.events.get(r, [])]
        if [e.call_tuple() for e in traces[r]] != truth:
            errors.append(f"rank {r}: reference replay diverges from ground truth")
    ref = {
        "trace": data,
        "digest": mix.digest(data),
        "raw_bytes": raw.total_bytes(),
        "events": result.total_events,
        "errors": errors,
    }
    if analyze:
        ref["replay_digest"] = mix.replay_digest(traces)
        ref["predict"] = mix.predict_key(predict(traces))
        plan = mix.query_plan(seed, prog, loaded)
        answers = []
        for query in plan:
            got = mix.run_query(loaded, query)
            answers.append(got)
            if query[0] == "critical_leaves":
                # The repo's agreement convention for rankings (see
                # tests/query/test_oracle.py): every leaf, compared in gid
                # order, since leaves whose costs tie in exact arithmetic
                # may rank either way after float rounding.  The top-k
                # answer must then be the head of that full ranking.
                full = mix.run_query(loaded, (query[0], ALL_LEAVES))
                if got != full[: query[1]]:
                    errors.append(f"{query!r}: top-k is not the ranking's head")
                got = sorted(full, key=_gid)
                want = sorted(
                    mix.oracle_query(loaded, (query[0], ALL_LEAVES), traces),
                    key=_gid,
                )
            else:
                want = mix.oracle_query(loaded, query, traces)
            errors.extend(agreement_errors(got, want, label=repr(query)))
        ref["queries"] = plan
        ref["answers"] = answers
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(mix.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", default="0/1", help="I/K: build every K-th program from I")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    part, parts = (int(x) for x in args.part.split("/"))
    progs = mix.WORKLOADS[args.workload][part::parts]
    analyze = args.workload == "analyze"
    refs = {p.key: build(p, args.seed, analyze) for p in progs}
    tmp = args.out + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(refs, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main())
