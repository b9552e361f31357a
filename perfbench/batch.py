"""The batch workloads: in-process (program, db) -> model evaluations.

``wf-path``
    ``well_founded_semantics(win_move_program(), .)`` on the path ``L_1000``.
    Its ground program is acyclic, yet the alternating fixpoint runs about
    n/2 full alternation steps, so grounding and the well-founded engine
    do almost all the work and planning and the kernel almost none.

``graph-mix``
    Four evaluations per pass on fresh Databases: semi-naive TC (``pi3``)
    and stratified TC-complement on a seeded ``random_digraph(300, 0.005)``,
    inflationary ``distance_program`` on ``L_14``, and well-founded
    win-move on a seeded ``random_digraph(2000, 0.0015)``.  Joins,
    anti-joins, complements and fixpoint rounds dominate; the win-move
    ground has odd and even cycles, so alternation is a minor share.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.graphs.digraph import Digraph
from repro.graphs.encode import graph_to_database
from repro.graphs.generators import path, random_digraph
from repro.queries.library import (
    distance_program,
    pi3,
    tc_complement_stratified,
    win_move_program,
)

import common

TC_BAND = (30000, 32000)
"""Closure sizes accepted for graph-mix's ``random_digraph(300, 0.005)``;
the family's median is about 31000 pairs (see :func:`common.banded_seed`)."""

WM_BAND = (1050, 1150)
"""Drawn positions accepted for graph-mix's ``random_digraph(2000, 0.0015)``;
the family's median is about 1100 of 2000."""


def _specs(workload: str, seed: int) -> List[Tuple[str, str, Callable, Callable[[], Digraph]]]:
    if workload == "wf-path":
        return [("wellfounded win-move L_1000", "wellfounded", win_move_program, lambda: path(1000))]
    if workload != "graph-mix":
        raise ValueError("not a batch workload: %r" % workload)
    tc_seed = common.banded_seed(
        lambda s: random_digraph(300, 0.005, s), common.closure_size, seed, TC_BAND
    )
    wm_seed = common.banded_seed(
        lambda s: random_digraph(2000, 0.0015, s), common.drawn_positions, seed, WM_BAND
    )
    return [
        ("seminaive pi3 G(300,0.005)", "seminaive", pi3,
         lambda: random_digraph(300, 0.005, tc_seed)),
        ("stratified tc-complement G(300,0.005)", "stratified", tc_complement_stratified,
         lambda: random_digraph(300, 0.005, tc_seed)),
        ("inflationary distance L_14", "inflationary", distance_program, lambda: path(14)),
        ("wellfounded win-move G(2000,0.0015)", "wellfounded", win_move_program,
         lambda: random_digraph(2000, 0.0015, wm_seed)),
    ]


SETUP_REPEATS = {"wf-path": 4000, "graph-mix": 10}
"""Set-up repetitions per run, a fixed amount of work of 2-3 s on the
2-vCPU VM the benchmark was built on (one ``graph-mix`` set-up is about
0.3 s, one ``wf-path`` set-up under 1 ms)."""

SETUP_BLOCKS = 10
"""The set-up repetitions are timed in this many blocks, with a host-speed
sample before each."""


def setup(workload: str, seed: int, host: common.HostSpeed) -> Tuple[List[common.Evaluation], float]:
    """Generate the seeded inputs and build their Databases, repeatedly.

    Returns the evaluations (from the last repetition) and the mean
    set-up seconds, normalised by the host speed sampled between blocks.
    """
    specs = _specs(workload, seed)

    def generate():
        graphs = [make_graph() for _n, _e, _p, make_graph in specs]
        for g in graphs:
            graph_to_database(g)
        return graphs

    times: List[float] = []
    first = len(host.samples)
    for _ in range(SETUP_BLOCKS):
        host.sample()
        for _ in range(SETUP_REPEATS[workload] // SETUP_BLOCKS):
            started = time.perf_counter()
            graphs = generate()
            times.append(time.perf_counter() - started)
    evals = []
    for (name, engine, make_program, _), graph in zip(specs, graphs):
        program = make_program()
        evals.append(common.Evaluation(name, engine, str(program), program.carrier, graph))
    return evals, statistics.fmean(times) * host.factor(host.samples[first:])


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    with common.HostSpeed() as host:
        return _run(workload, seed, seconds, trace, host)


def _run(workload: str, seed: int, seconds: float, trace: bool, host: common.HostSpeed) -> Dict:
    evals, setup_s = setup(workload, seed, host)
    common.settle_heap()
    log = ["%s: %d edges" % (ev.name, len(ev.graph.edges)) for ev in evals]
    if trace:
        path_ = common.WORK / "traces" / ("%s-seed%d.json" % (workload, seed))
        metrics, attempted, failed, roots = common.traced_run(evals, seconds, host)
        common.write_chrome(path_, roots)
        log.append("chrome trace: %s" % path_.relative_to(common.ROOT))
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "log": log}

    # The peak from here on is the evaluations', not the input selection's.
    common.reset_peak_rss()
    # One untimed pass first: lazy imports and first-call set-up are paid
    # once per process, not once per evaluation.
    _times, warm_failed = common.timed_pass(evals)
    passes: List[float] = []
    each: List[float] = []
    failed = 0
    first = len(host.samples)
    deadline = time.perf_counter() + seconds
    while len(passes) < 3 or time.perf_counter() < deadline:
        host.sample()
        times, bad = common.timed_pass(evals)
        passes.append(sum(times))
        each.extend(times)
        failed += bad
    factor = host.factor(host.samples[first:])
    metrics = {
        "setup_s": setup_s,
        # The mean, not the median: the host's speed switches between states
        # for seconds at a time, and the median of a run's passes jumps
        # between them where the mean averages over them.
        "eval_s": statistics.fmean(passes) * factor,
        "peak_rss_mb": common.peak_rss_mb_self(),
        "goodput_ops": (len(each) - failed) / sum(each) / factor,
        "latency_p95_ms": common.percentile(passes, 95) * factor * 1e3,
    }
    log.append("%d passes, %d evaluations; pass wall seconds: %s"
               % (len(passes), len(each), " ".join("%.3f" % p for p in passes)))
    log.append("wall: eval %.4f s, pass p95 %.1f ms; reference %.1f ms, so times x %.3f"
               % (statistics.fmean(passes), common.percentile(passes, 95) * 1e3,
                  host.reference_ms(), factor))
    return {"metrics": metrics, "attempted": len(evals) + len(each),
            "failed": warm_failed + failed, "log": log}
