"""Program mixes of the pipeline benchmark's workloads.

Each entry names a registered MiniMPI program (``repro.workloads``) and
the rank count and scale it runs at.  The scales even out the programs'
op times (about 0.1-0.2 s each on a 2-core machine, ep at 512 ranks
excepted), so one pass of a mix takes about a second and op-latency
percentiles do not sit on a gap between two programs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Program:
    name: str  # registered workload name
    nprocs: int
    scale: float

    @property
    def key(self) -> str:
        return f"{self.name}@{self.nprocs}x{self.scale}"


#: Loop-regular codes the paper targets, traced with inline compression.
REGULAR = (
    Program("bt", 16, 1.0),
    Program("cg", 16, 0.6),
    Program("ft", 16, 12.0),
    Program("is", 16, 6.0),
    Program("lu", 16, 0.5),
    Program("mg", 16, 0.2),
    Program("leslie3d", 16, 0.8),
    Program("fig11", 16, 0.6),
)

#: Codes that bypass the fast paths (wildcards, recursion, poor ratios,
#: many ranks), traced by capture and then deferred 2-worker compression.
IRREGULAR = (
    Program("sp", 16, 0.25),
    Program("dt", 65, 1.0),
    Program("farm", 16, 3.0),
    Program("amr", 16, 0.75),
    Program("ep", 512, 1.0),
)

#: Jobs streamed to the ingest daemon.  Short rank streams (one or two
#: batches each) give a run a few thousand latency samples for its p99.
SERVER = (
    Program("fig11", 16, 0.5),
    Program("cg", 16, 0.5),
)

WORKLOADS = {
    "regular_inline": REGULAR,
    "irregular_deferred": IRREGULAR,
    "analyze": REGULAR + IRREGULAR,
    "server_ingest": SERVER,
}

#: Ranks whose ``rank_profile`` each analyze pass queries, per program.
PROFILE_RANKS = 8
#: Events-per-batch of the CYPK blobs a server client streams.
BATCH_EVENTS = 512


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay_digest(traces: dict) -> str:
    """Digest of decompressed per-rank events: the call identity plus the
    recorded timing statistics and call-site gid of every event."""
    h = hashlib.sha256()
    for rank in sorted(traces):
        h.update(repr((rank, [
            (ev.call_tuple(), ev.mean_duration, ev.mean_gap, ev.gid)
            for ev in traces[rank]
        ])).encode())
    return h.hexdigest()


def predict_key(sim) -> tuple:
    """The compared fields of a SIM-MPI prediction (all virtual time)."""
    return (
        tuple(sim.finish_times),
        tuple(sim.comm_times),
        tuple(sim.wait_times or ()),
    )


def query_plan(seed: int, prog: Program, merged) -> list[tuple]:
    """The seeded query mix of one analyze pass over ``prog``'s trace:
    traffic by op and by rank pair, the critical leaves, the profiles of
    :data:`PROFILE_RANKS` seeded ranks, and one ordering of two seeded
    call-site leaves on a seeded rank."""
    import random

    from repro.static.cst import CALL

    rng = random.Random(f"{seed}/{prog.key}")
    leaves = [
        v.gid for v in merged.root.preorder() if v.kind == CALL and v.groups
    ]
    plan = [
        ("traffic", "op"),
        ("traffic", "rank_pair"),
        ("critical_leaves", 10),
    ]
    for rank in rng.sample(range(prog.nprocs), min(PROFILE_RANKS, prog.nprocs)):
        plan.append(("rank_profile", rank))
    gid_a, gid_b = rng.sample(leaves, 2) if len(leaves) > 1 else leaves * 2
    plan.append(("ordering", gid_a, gid_b, rng.randrange(prog.nprocs)))
    return plan


def run_query(merged, query: tuple):
    """Answer one planned query with the decompression-free engine."""
    from repro.query import engine

    kind = query[0]
    if kind == "traffic":
        return engine.traffic(merged, group_by=query[1])
    if kind == "critical_leaves":
        return engine.critical_leaves(merged, k=query[1])
    if kind == "rank_profile":
        return engine.rank_profile(merged, query[1])
    return engine.ordering(merged, query[1], query[2], query[3])


def oracle_query(merged, query: tuple, traces: dict):
    """The replay oracle's answer to the same query."""
    from repro.query import oracle

    kind = query[0]
    if kind == "traffic":
        return oracle.traffic_via_replay(merged, group_by=query[1], traces=traces)
    if kind == "critical_leaves":
        return oracle.critical_leaves_via_replay(merged, k=query[1], traces=traces)
    if kind == "rank_profile":
        return oracle.rank_profile_via_replay(
            merged, query[1], events=traces[query[1]]
        )
    return oracle.ordering_via_replay(
        merged, query[1], query[2], query[3], events=traces[query[3]]
    )
