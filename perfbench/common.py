"""Shared pieces of the benchmark: evaluations, layer attribution, statistics.

An :class:`Evaluation` is one (program, database) pair of a workload
together with the answer an independent oracle (:mod:`oracles`) gives for
it.  Batch workloads time passes over their evaluations; the serving
workload's traced run attributes its served views' from-scratch
evaluation with the same machinery.

Layer attribution (the traced run) calls each layer's public entry point
itself — ``parse_program``, ``lint_program``, ``compile_program``,
``ground_program`` and the ``core.semantics`` engines — inside spans of
its own on the ``repro.obs`` tracer, with the engine-side recorder
routed into a private registry.  Nothing inside ``src/repro`` is
instrumented for the benchmark.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import lint_program
from repro.core.grounding import ground_program
from repro.core.parser import parse_program
from repro.core.planning import PLAN_STORE, compile_program
from repro.core.semantics import (
    inflationary_semantics,
    seminaive_least_fixpoint,
    stratified_semantics,
    well_founded_semantics,
)
from repro.graphs.digraph import Digraph
from repro.graphs.encode import graph_to_database
from repro.obs import TRACER, MetricsRegistry, export_chrome, walk
from repro.obs.metrics import disable_metrics, enable_metrics

import oracles

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
"""Everything a run writes (server state, logs, Chrome traces) lives here."""

ENGINES: Dict[str, Callable] = {
    "seminaive": seminaive_least_fixpoint,
    "stratified": stratified_semantics,
    "inflationary": inflationary_semantics,
    "wellfounded": well_founded_semantics,
}

ROUND_SPANS = ("seminaive.round", "inflationary.round", "stratum")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb_self() -> float:
    """This process's resident high-water mark (``VmHWM``) in MiB."""
    return proc_status_kib("self", "VmHWM") / 1024.0


def proc_status_kib(pid, field_name: str) -> float:
    with open("/proc/%s/status" % pid) as f:
        for line in f:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    raise KeyError(field_name)


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident size (Linux
    4.0 and later), so the peak that follows is reached by what runs next
    and not by the benchmark's own input selection and oracles."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


REFERENCE_S = 0.08
"""Nominal seconds of one reference computation (``hostref.py``): the host
speed at which normalised times equal wall times.  About what the
computation takes on the 2-vCPU VM the benchmark was built on."""


class HostSpeed:
    """Times a fixed reference computation in a helper process.

    The shared host switches between speed states up to about 1.8x apart,
    for seconds to minutes at a time, whatever the program does.  Timing
    the same fixed computation beside the program's work tells how fast
    the host ran; a wall time times :meth:`factor` is what it would have
    been at the nominal speed (:data:`REFERENCE_S`).  The helper
    never imports the program under test and runs only between the timed
    parts, never beside them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("hostref.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            self.samples.append(float(self.proc.stdout.readline()))

    def factor(self, samples: Optional[Sequence[float]] = None) -> float:
        """Nominal seconds per wall second over ``samples`` (default: all)."""
        return REFERENCE_S / statistics.fmean(self.samples if samples is None else samples)

    def reference_ms(self) -> float:
        return statistics.fmean(self.samples) * 1e3

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def banded_seed(
    make: Callable[[int], Digraph],
    measure: Callable[[Digraph], int],
    seed: int,
    band: Tuple[int, int],
) -> int:
    """The first sub-seed of ``seed`` whose graph measures within ``band``.

    Sparse G(n, p) graphs near the giant-component threshold differ
    several-fold from seed to seed in closure size (and, for win-move, in
    how many positions are drawn), so runs on different seeds would
    measure different amounts of work.  The band keeps each seed's graph
    inside its family, giant strongly connected component included, while
    making the work comparable.  The search is input selection, not timed
    set-up.
    """
    low, high = band
    for attempt in range(1000):
        sub_seed = seed * 1000 + attempt
        if low <= measure(make(sub_seed)) <= high:
            return sub_seed
    raise RuntimeError("no graph within %r after 1000 attempts" % (band,))


def closure_size(graph: Digraph) -> int:
    return len(oracles.closure(graph.nodes, graph.edges))


def drawn_positions(graph: Digraph) -> int:
    return len(oracles.win_move(graph.nodes, graph.edges)[1])


# ----------------------------------------------------------------------
# Evaluations
# ----------------------------------------------------------------------


@dataclass
class Evaluation:
    """One (program, db) pair, its engine, and the oracle's answer for it."""

    name: str
    engine: str
    program_text: str
    carrier: str
    graph: Digraph
    program: Any = field(init=False)
    expected: Any = field(init=False)

    def __post_init__(self) -> None:
        self.program = parse_program(self.program_text, carrier=self.carrier)
        self.expected = self._oracle()

    def database(self):
        """A freshly built Database: its index and complement caches are cold."""
        return graph_to_database(self.graph)

    def _oracle(self):
        g = self.graph
        if self.engine == "wellfounded":
            return oracles.win_move(g.nodes, g.edges)
        if self.carrier in ("S", "TC"):
            return oracles.closure(g.nodes, g.edges)
        if self.carrier == "NOTC":
            return oracles.closure_complement(g.nodes, g.edges)
        if self.carrier == "S3":
            return oracles.distance(g.nodes, g.edges)
        raise ValueError("no oracle for carrier %r" % self.carrier)

    def check(self, result) -> bool:
        if self.engine == "wellfounded":
            won, drawn = self.expected
            true = {values[0] for pred, values in result.true if pred == self.carrier}
            undef = {values[0] for pred, values in result.undefined if pred == self.carrier}
            return true == won and undef == drawn
        return result.carrier_value.tuples == self.expected


def settle_heap() -> None:
    """Collect garbage, then exempt the benchmark's own live objects (inputs,
    oracle answers, load records) from later collections, so the collector's
    full passes during a timed evaluation scan what the program allocated,
    as they would in a process that holds nothing else."""
    gc.collect()
    gc.freeze()


def cold_caches() -> None:
    """Forget compiled plans and planner statistics, as a fresh process has."""
    PLAN_STORE.clear()
    PLAN_STORE.statistics.clear()


def timed_pass(evals: Iterable[Evaluation]) -> Tuple[List[float], int]:
    """Evaluate each pair once on a fresh Database; ``(seconds each, failures)``."""
    times = []
    failed = 0
    for ev in evals:
        db = ev.database()
        cold_caches()
        started = time.perf_counter()
        result = ENGINES[ev.engine](ev.program, db)
        times.append(time.perf_counter() - started)
        if not ev.check(result):
            failed += 1
    return times, failed


# ----------------------------------------------------------------------
# Layer attribution (traced run)
# ----------------------------------------------------------------------


def _counter(registry: MetricsRegistry, name: str) -> float:
    for family in registry.families():
        if family.name == name:
            return family.value
    return 0.0


def _outermost(roots, names) -> float:
    """Summed duration of spans named in ``names`` not nested in another such span."""
    total = 0.0
    stack = [(r, False) for r in roots]
    while stack:
        node, inside = stack.pop()
        hit = node.name in names
        if hit and not inside:
            total += node.duration
        stack.extend((c, inside or hit) for c in node.children)
    return total


def attribution_pass(evals: Sequence[Evaluation], registry: MetricsRegistry) -> Dict[str, float]:
    """One pass calling every layer in turn; per-layer seconds and counts.

    Must run with the tracer started and the recorder enabled.  Each
    well-founded evaluation is grounded by ``ground_program`` and the
    ground program handed to the engine, so grounding and the
    alternating fixpoint are timed apart.
    """
    layer = dict.fromkeys(("parse", "lint", "compile", "ground", "wellfounded"), 0.0)
    ground_rules = 0
    model_atoms = 0
    failed = 0
    first_span = len(TRACER.roots)
    for ev in evals:
        db = ev.database()
        cold_caches()
        with TRACER.span("bench.evaluation", evaluation=ev.name):
            with TRACER.span("bench.parse") as sp:
                program = parse_program(ev.program_text, carrier=ev.carrier)
            layer["parse"] += sp.duration
            with TRACER.span("bench.lint") as sp:
                lint_program(program, db)
            layer["lint"] += sp.duration
            with TRACER.span("bench.compile") as sp:
                compile_program(program, db)
            layer["compile"] += sp.duration
            if ev.engine == "wellfounded":
                with TRACER.span("bench.ground") as sp:
                    gp = ground_program(program, db)
                layer["ground"] += sp.duration
                ground_rules += len(gp)
                with TRACER.span("bench.wellfounded") as sp:
                    result = well_founded_semantics(program, db, ground=gp)
                layer["wellfounded"] += sp.duration
                model_atoms += len(result.true) + len(result.undefined)
            else:
                with TRACER.span("bench.engine"):
                    result = ENGINES[ev.engine](program, db)
        if not ev.check(result):
            failed += 1
    roots = TRACER.roots[first_span:]
    alternation_rows = sum(
        node.attrs.get("possible", 0) + node.attrs.get("rows_out", 0)
        for node, _ in walk(roots)
        if node.name == "alternation.step"
    )
    out = {
        "core.parser.parse_ms": layer["parse"] * 1e3,
        "analysis.lint_ms": layer["lint"] * 1e3,
        "core.planning.compile_ms": layer["compile"] * 1e3,
        "core.grounding.ground_ms": layer["ground"] * 1e3,
        "core.grounding.ground_rules": float(ground_rules),
        "core.semantics.wellfounded_ms": layer["wellfounded"] * 1e3,
        "core.semantics.round_ms": _outermost(roots, ROUND_SPANS) * 1e3,
        "core.semantics.alternation_rows_per_atom": (
            alternation_rows / model_atoms if model_atoms else 0.0
        ),
        "failed": float(failed),
    }
    return out


ENGINE_COUNTERS = (
    "repro_engine_replans_total",
    "repro_kernel_lowered_total",
    "repro_kernel_declined_total",
    "repro_engine_kernel_executions_total",
    "repro_engine_row_executions_total",
    "repro_engine_rounds_total",
    "repro_wf_alternation_steps_total",
)


def traced_run(evals: Sequence[Evaluation], seconds: float, host: HostSpeed):
    """The per-layer numbers for ``evals`` within about ``seconds``.

    Two thirds of the time alternate plain passes with the same passes
    under the tracer and recorder (the ratio of their means is the tracing
    overhead; alternating keeps the host's speed swings out of it), and a
    third runs the layer-by-layer attribution passes, whose span forest is
    returned for the Chrome trace.  Returns
    ``(metrics, evaluations attempted, evaluations failed, spans)``.
    """
    attempted = failed = 0
    plain: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds * 2.0 / 3.0
    while not traced or time.perf_counter() < deadline:
        host.sample()
        times, bad = timed_pass(evals)
        plain.append(sum(times))
        attempted += len(times)
        failed += bad
        enable_metrics(MetricsRegistry())
        TRACER.start()
        try:
            times, bad = timed_pass(evals)
        finally:
            TRACER.stop()
            disable_metrics()
        traced.append(sum(times))
        attempted += len(times)
        failed += bad

    registry = MetricsRegistry()
    passes: List[Dict[str, float]] = []
    enable_metrics(registry)
    TRACER.start()
    try:
        deadline = time.perf_counter() + seconds / 3.0
        while not passes or time.perf_counter() < deadline:
            passes.append(attribution_pass(evals, registry))
            attempted += len(evals)
    finally:
        roots = TRACER.stop()
        disable_metrics()
    failed += int(sum(p.pop("failed") for p in passes))

    metrics = {name: median([p[name] for p in passes]) for name in passes[0]}
    n = float(len(passes))
    counts = {name: _counter(registry, name) for name in ENGINE_COUNTERS}
    lowered = counts["repro_kernel_lowered_total"]
    declined = counts["repro_kernel_declined_total"]
    kernel = counts["repro_engine_kernel_executions_total"]
    rows = counts["repro_engine_row_executions_total"]
    metrics.update(
        {
            "core.planning.replans": counts["repro_engine_replans_total"] / n,
            "db.kernel.lowered_frac": lowered / (lowered + declined) if lowered + declined else 0.0,
            "db.kernel.kernel_exec_frac": kernel / (kernel + rows) if kernel + rows else 0.0,
            "core.semantics.rounds": counts["repro_engine_rounds_total"] / n,
            "core.semantics.alternation_steps": counts["repro_wf_alternation_steps_total"] / n,
            "obs.tracing_overhead_frac": statistics.fmean(traced) / statistics.fmean(plain) - 1.0,
            "host.reference_ms": host.reference_ms(),
        }
    )
    return metrics, attempted, failed, roots


def write_chrome(path: Path, roots, extra_events: Optional[List[Dict[str, Any]]] = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = json.loads(export_chrome(roots))
    if extra_events:
        doc["traceEvents"].extend(extra_events)
    path.write_text(json.dumps(doc))
