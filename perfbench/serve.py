"""The serving workload: ``repro serve`` under an open-loop mixed load.

``serve-mixed`` starts the real server as a subprocess,
``python -m repro serve`` with a durable ``--state`` directory and the
default flush policy (full fsync chain, ``--snapshot-every 64``,
``--tick-ms 10``), and hosts two views:

* ``tc``: stratified transitive closure over a seeded
  ``random_digraph(200, 0.006)`` whose giant strongly connected component
  makes edge deletes run DRed's over-delete and rederive.  It is
  registered by the command line the server boots with.
* ``wm``: well-founded win-move on the path ``L_400``, registered over
  TCP.  Every ``wm`` write is a flip (delete or re-insert the tail edge),
  the update that rewrites every alternation layer.

One process with no worker threads drives the load over two TCP
connections on a seeded schedule (see :data:`RATES`): connection W
carries ``tc`` edge deletes and re-inserts and ``wm`` flips, connection R
carries ``tc`` reads and pings.  Requests are pipelined and matched by
``id``; each is timed from when it was due, and one unanswered within
:data:`DEADLINE_S` of its due time is a failure, so a stalled or hung
server shows up as failures instead of a hung benchmark.

Every acknowledgement must be ``ok`` with a ``seq`` that does not go
back and the changeset the oracle predicts for the batch it rode in (the
server acknowledges every write folded into one commit with that
commit's ``seq`` and net changeset); every read must equal the
oracle's closure of the edges acknowledged up to the ``seq`` it
reports.  After the load the server is killed with SIGKILL and started
again on the same state directory, and ``recovery_s`` runs until both
views read back equal to the oracle over the acknowledged writes.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.db.csvio import dump_database
from repro.graphs.digraph import Digraph
from repro.graphs.encode import graph_to_database
from repro.graphs.generators import path, random_digraph
from repro.queries.library import transitive_closure_program, win_move_program
from repro.server.protocol import encode_database

import common
import oracles

TC_NODES, TC_P = 200, 0.006
TC_BAND = (3800, 4000)
"""Closure sizes accepted for the ``tc`` graph's shape: the middle of the
family, whose median is about 3900 pairs (see :func:`make_inputs`)."""
WM_LENGTH = 400
WM_TAIL = (WM_LENGTH - 1, WM_LENGTH)

RATES = {"tc_write": 2.5, "wm_flip": 0.5, "tc_read": 20.0, "ping": 5.0}
"""Offered requests per second.  The unmodified server keeps up with
this mix on a 2-core box; the backlog would show as a falling goodput.
At 2.5 ``tc`` writes per second a 30 s window makes 75 ``tc`` commits, so
the 64th cuts a snapshot inside the window."""

TC_OPS = ("tc_write", "tc_read")
"""The requests whose latency is the end-to-end ``latency_p95_ms`` of this
workload: every ``tc`` write and read, slowed by the ``wm`` flips and
DRed deletes they queue behind."""

DEADLINE_S = 10.0
SETUP_REPEATS = 8
ATTRIBUTION_S = 10.0
"""Seconds of from-scratch passes over the served views in the traced run."""
START_TIMEOUT_S = 60.0
SERVER_FLAGS = ["--tick-ms", "10", "--snapshot-every", "64", "--log-level", "warning"]

TC_PROGRAM = str(transitive_closure_program("TC"))
WM_PROGRAM = str(win_move_program())

Edge = Tuple[int, int]


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------


class Server:
    """One ``python -m repro serve`` process; its output goes to ``log``."""

    def __init__(self, work: Path, name: str) -> None:
        self.log = work / (name + ".log")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def spawn(self, args: List[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *args, "--port", "0", *SERVER_FLAGS],
                stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                cwd=str(common.ROOT), env=env,
            )

    async def listening(self) -> int:
        """Wait for the ``serving on host:port`` line; return the port."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        pattern = re.compile(rb"serving on [^:\s]+:(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            await asyncio.sleep(0.002)
        raise RuntimeError("server did not start; see %s" % self.log)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()

    async def shutdown(self, conn: Optional["Connection"]) -> None:
        """Graceful stop through the ``shutdown`` verb; SIGKILL if it lingers."""
        if self.proc is None or self.proc.poll() is not None:
            return
        if conn is not None:
            try:
                await asyncio.wait_for(conn.call({"op": "shutdown"}), 10.0)
            except (OSError, asyncio.TimeoutError, ConnectionError):
                pass
        deadline = time.perf_counter() + 20.0
        while self.proc.poll() is None and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        self.kill()


def proc_io_write_bytes(pid: int) -> int:
    with open("/proc/%d/io" % pid) as f:
        for line in f:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    return 0


def proc_cpu_ms(pid: int) -> float:
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks * 1e3 / os.sysconf("SC_CLK_TCK")


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Connections: pipelined JSON lines matched by id
# ----------------------------------------------------------------------


@dataclass
class Op:
    due: float
    conn: str
    kind: str
    request: Dict[str, Any]
    edges: Optional[FrozenSet[Edge]] = None  # the view's edges once this write commits
    sent: Optional[float] = None
    done: Optional[float] = None
    response: Optional[Dict[str, Any]] = None
    ok: bool = False


class Connection:
    """A TCP connection with a reader task resolving requests by ``id``."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, "asyncio.Future"] = {}
        self.next_id = 0
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=2 ** 26)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                response = json.loads(line)
                target = self.pending.pop(response.get("id"), None)
                if target is not None:
                    target.set_result((response, now))
        finally:
            for fut in self.pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("server closed the connection"))
            self.pending.clear()

    def send(self, request: Dict[str, Any]) -> "asyncio.Future":
        """Write one request; the future resolves to ``(response, arrival time)``."""
        self.next_id += 1
        request = dict(request, id=self.next_id)
        fut = asyncio.get_running_loop().create_future()
        self.pending[self.next_id] = fut
        self.writer.write(json.dumps(request, separators=(",", ":")).encode() + b"\n")
        return fut

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response, _ = await self.send(request)
        return response

    async def close(self) -> None:
        if self.writer.is_closing():
            return
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# ----------------------------------------------------------------------
# Inputs and schedule
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    tc_graph: Digraph
    wm_graph: Digraph
    work: Path


def make_inputs(seed: int, work: Path) -> Inputs:
    """The seeded inputs: a relabelled ``tc`` graph and the path ``L_400``.

    The cost of a DRed delete depends on where the edge sits in the
    graph's strongly connected components, and differs several-fold
    between members of ``random_digraph(200, 0.006)`` with the same
    closure size.  So every seed gets the same shape, the first member
    of the family whose closure is in :data:`TC_BAND`, under a seeded
    relabelling of its nodes; the seed also drives the delta stream and
    the arrival schedule.
    """
    shape_seed = common.banded_seed(
        lambda s: random_digraph(TC_NODES, TC_P, s), common.closure_size, 0, TC_BAND
    )
    shape = random_digraph(TC_NODES, TC_P, shape_seed)
    labels = sorted(shape.nodes)
    random.Random("serve-mixed/labels/%d" % seed).shuffle(labels)
    relabel = dict(zip(sorted(shape.nodes), labels))
    tc = Digraph(labels, [(relabel[u], relabel[v]) for u, v in shape.edges])
    return Inputs(tc, path(WM_LENGTH), work)


def _due_times(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """``rate * seconds`` arrivals, one at a uniform point of each period."""
    return [(i + rng.random()) / rate for i in range(int(rate * seconds))]


def delete_victims(graph: Digraph, count: int, rng: random.Random) -> List[Edge]:
    """``count`` edges to delete, a stratified sample of the graph's edges.

    A DRed delete costs roughly in proportion to the closure pairs whose
    derivations pass through the edge, and a handful of edges (those on
    the strongly connected core) carry most of them.  Edges are ranked by
    that weight and cut into ``count`` strata, and one edge is drawn from
    each, so every run deletes the same mix of heavy and light edges.
    """
    tc = oracles.closure(graph.nodes, graph.edges)
    ancestors = {n: 1 for n in graph.nodes}
    descendants = {n: 1 for n in graph.nodes}
    for u, v in tc:
        descendants[u] += 1
        ancestors[v] += 1
    ranked = sorted(graph.edges, key=lambda e: (ancestors[e[0]] * descendants[e[1]], e))
    bounds = [round(i * len(ranked) / count) for i in range(count + 1)]
    victims = [rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(victims)
    return victims


def schedule(inputs: Inputs, seed: int, seconds: float) -> List[Op]:
    """The seeded open-loop schedule, in due order.

    ``tc`` writes alternate: delete an edge of the seed graph (see
    :func:`delete_victims`), then re-insert it, so the graph stays within
    one edge of the seed graph.  ``wm`` writes alternately delete and
    re-insert the path's tail edge.
    """
    rng = random.Random("serve-mixed/%d" % seed)
    base = frozenset(inputs.tc_graph.edges)
    due_writes = _due_times(rng, RATES["tc_write"], seconds)
    victims = delete_victims(inputs.tc_graph, (len(due_writes) + 1) // 2, rng)
    ops: List[Op] = []
    for i, due in enumerate(due_writes):
        victim = victims[i // 2]
        if i % 2 == 0:
            change = {"deletes": {"E": [list(victim)]}}
            edges = base - {victim}
        else:
            change = {"inserts": {"E": [list(victim)]}}
            edges = base
        ops.append(Op(due, "W", "tc_write", dict(op="delta", view="tc", **change), edges))
    wm_base = frozenset(inputs.wm_graph.edges)
    for i, due in enumerate(_due_times(rng, RATES["wm_flip"], seconds)):
        side = "deletes" if i % 2 == 0 else "inserts"
        edges = wm_base - {WM_TAIL} if i % 2 == 0 else wm_base
        request = {"op": "delta", "view": "wm", side: {"E": [list(WM_TAIL)]}}
        ops.append(Op(due, "W", "wm_flip", request, edges))
    for due in _due_times(rng, RATES["tc_read"], seconds):
        ops.append(Op(due, "R", "tc_read", {"op": "query", "view": "tc", "predicate": "TC"}))
    for due in _due_times(rng, RATES["ping"], seconds):
        ops.append(Op(due, "R", "ping", {"op": "ping"}))
    ops.sort(key=lambda op: op.due)
    return ops


# ----------------------------------------------------------------------
# Oracle bookkeeping
# ----------------------------------------------------------------------


class Oracle:
    """Expected view contents for an edge set, memoised."""

    def __init__(self, inputs: Inputs) -> None:
        self.tc_nodes = inputs.tc_graph.nodes
        self.wm_nodes = inputs.wm_graph.nodes
        self._tc: Dict[FrozenSet[Edge], FrozenSet[Edge]] = {}
        self._wm: Dict[FrozenSet[Edge], FrozenSet[Tuple[int]]] = {}

    def tc(self, edges: FrozenSet[Edge]) -> FrozenSet[Edge]:
        if edges not in self._tc:
            self._tc[edges] = oracles.closure(self.tc_nodes, edges)
        return self._tc[edges]

    def wm(self, edges: FrozenSet[Edge]) -> FrozenSet[Tuple[int]]:
        if edges not in self._wm:
            won, drawn = oracles.win_move(self.wm_nodes, edges)
            assert not drawn, "a path has no drawn positions"
            self._wm[edges] = frozenset((n,) for n in won)
        return self._wm[edges]

    def view(self, view: str, edges: FrozenSet[Edge]):
        return self.tc(edges) if view == "tc" else self.wm(edges)


def _rows(obj, pred: str) -> FrozenSet[tuple]:
    return frozenset(tuple(t) for t in (obj or {}).get(pred, ()))


def _changed(op: Op, pred: str) -> Tuple[FrozenSet[tuple], FrozenSet[tuple]]:
    changes = op.response.get("changeset") or {}
    return _rows(changes.get("inserted"), pred), _rows(changes.get("deleted"), pred)


def _commit_length(run: List[Op], pred: str, prev_edges, view_of, advanced: bool) -> Optional[int]:
    """How many acks of ``run`` (one ``seq``) rode in its committed batch.

    The server folds every delta queued within a tick into one batch and
    acknowledges each member with the batch's ``seq`` and net changeset; a
    batch whose deltas cancel out is acknowledged with the previous
    ``seq`` and an empty changeset.  So acks sharing a ``seq`` are one
    committed batch ``run[:j]`` (``j`` is 0 when the ``seq`` did not
    advance) followed by batches that churned back to its state
    ``run[j:]``.  Returns a ``j`` the acks and the oracle agree on, or None.
    """
    empty = (frozenset(), frozenset())
    before = view_of(prev_edges)
    for j in range(len(run), 0, -1) if advanced else (0,):
        edges = run[j - 1].edges if j else prev_edges
        after = view_of(edges)
        net = (after - before, before - after)
        if (
            run[-1].edges == edges
            and all(_changed(op, pred) == net for op in run[:j])
            and all(_changed(op, pred) == empty for op in run[j:])
        ):
            return j
    return None


def check_acks(ops: List[Op], oracle: Oracle, start: Dict[str, Tuple[int, FrozenSet[Edge]]]):
    """Mark writes ok; return ``{view: {seq: edges}}`` for acknowledged states.

    A view's writes are acknowledged in the order they were sent.  Acks
    sharing a ``seq`` are checked together (see :func:`_commit_length`):
    they are ok when they were answered in time with ``ok``, the ``seq``
    did not go back, and each carries the changeset the oracle predicts
    for the batch it rode in.
    """
    states: Dict[str, Dict[int, FrozenSet[Edge]]] = {
        view: {seq: edges} for view, (seq, edges) in start.items()
    }
    pred = {"tc": "TC", "wm": "WIN"}
    for view, (prev_seq, prev_edges) in start.items():
        acked = [
            op for op in ops
            if op.kind in ("tc_write", "wm_flip") and op.request["view"] == view
            and op.response is not None and op.response.get("ok")
            and isinstance(op.response.get("seq"), int)
        ]
        for seq, group in itertools.groupby(acked, key=lambda op: op.response["seq"]):
            run = list(group)
            j = None if seq < prev_seq else _commit_length(
                run, pred[view], prev_edges, lambda e: oracle.view(view, e), seq > prev_seq)
            for op in run:
                op.ok = j is not None and op.done - op.due <= DEADLINE_S
                op.response.pop("changeset", None)
            if j:
                prev_seq, prev_edges = seq, run[j - 1].edges
                states[view][seq] = prev_edges
    return states


def check_reads(ops: List[Op], oracle: Oracle, tc_states: Dict[int, FrozenSet[Edge]]) -> None:
    for op in ops:
        if op.response is None or not op.response.get("ok") or op.done - op.due > DEADLINE_S:
            continue
        if op.kind == "ping":
            op.ok = op.response.get("pong") is True
        elif op.kind == "tc_read":
            edges = tc_states.get(op.response.get("seq"))
            op.ok = edges is not None and _rows(
                {"TC": op.response.pop("tuples", None)}, "TC"
            ) == oracle.tc(edges)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


async def boot(
    inputs: Inputs, index: int, procs: List[Server], conns: List[Connection]
) -> Tuple[Server, Connection, float, Path]:
    """Spawn a server on a fresh state directory, ping it, host both views.

    Returns the server, an open connection, the set-up seconds and the
    state directory.  The server and connection are also added to
    ``procs`` and ``conns`` as soon as they exist, for the caller's
    clean-up.
    """
    work = inputs.work
    state = work / ("state-%d" % index)
    shutil.rmtree(state, ignore_errors=True)
    db_dir = work / "tc-db"
    server = Server(work, "server-%d" % index)
    procs.append(server)
    started = time.perf_counter()
    server.spawn([str(work / "tc.dl"), "--db", str(db_dir), "--name", "tc",
                  "--state", str(state)])
    port = await server.listening()
    conn = await Connection.open(port)
    conns.append(conn)
    pong = await conn.call({"op": "ping"})
    if not pong.get("ok"):
        raise RuntimeError("ping failed: %r" % pong)
    reply = await conn.call({
        "op": "register", "name": "wm", "program": WM_PROGRAM, "semantics": "wellfounded",
        "carrier": "WIN", "db": encode_database(graph_to_database(inputs.wm_graph)),
    })
    elapsed = time.perf_counter() - started
    if not reply.get("ok"):
        raise RuntimeError("register wm failed: %r" % reply)
    return server, conn, elapsed, state


async def drive(ops: List[Op], conns: Dict[str, Connection]) -> None:
    """Send ``ops`` on schedule and collect their answers.

    Due times in ``ops`` are offsets on entry and absolute
    ``time.perf_counter()`` readings on return, like ``sent`` and ``done``.
    """
    loop = asyncio.get_running_loop()
    t0 = time.perf_counter() + 0.05

    async def sender(name: str) -> None:
        waits = []
        for op in (o for o in ops if o.conn == name):
            delay = t0 + op.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            op.sent = time.perf_counter()
            fut = conns[name].send(op.request)
            waits.append((op, fut))
            await conns[name].writer.drain()
        for op, fut in waits:
            remaining = t0 + op.due + DEADLINE_S - time.perf_counter()
            try:
                op.response, op.done = await asyncio.wait_for(
                    asyncio.shield(fut), max(remaining, 0.0)
                )
            except (asyncio.TimeoutError, ConnectionError):
                continue

    tasks = [loop.create_task(sender(name)) for name in conns]
    await asyncio.gather(*tasks)
    for op in ops:
        op.due += t0


def _scrape(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{series: value}`` (labels kept in the key)."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def _sum(samples: Dict[str, float], name: str, view: Optional[str] = None) -> float:
    total = 0.0
    for key, value in samples.items():
        base, _, labels = key.partition("{")
        if base == name and (view is None or 'view="%s"' % view in labels):
            total += value
    return total


async def _metrics(conn: Connection) -> Dict[str, float]:
    return _scrape((await conn.call({"op": "metrics"}))["metrics"])


async def recover(
    inputs: Inputs, state: Path, oracle: Oracle, final, procs: List[Server], conns: List[Connection]
) -> Tuple[float, Server, Connection, bool]:
    """SIGKILL was just sent: restart on ``state``, time to a correct read of both views."""
    server = Server(inputs.work, "server-recovered")
    procs.append(server)
    server.spawn(["--name", "tc", "--state", str(state)])
    port = await server.listening()
    conn = await Connection.open(port)
    conns.append(conn)
    deadline = time.perf_counter() + 60.0
    while True:
        good = True
        for view, pred in (("tc", "TC"), ("wm", "WIN")):
            seq, edges = final[view]
            r = await conn.call({"op": "query", "view": view, "predicate": pred})
            good = good and r.get("ok") and r.get("seq") == seq and _rows(
                {pred: r.get("tuples")}, pred) == oracle.view(view, edges)
        if good or time.perf_counter() > deadline:
            return time.perf_counter(), server, conn, bool(good)
        await asyncio.sleep(0.01)


def latency_ms(ops: List[Op], kinds, q: float) -> float:
    """Percentile ``q`` of latency from due time, in ms.

    A failed request counts as answered at its deadline.
    """
    values = [
        (op.done - op.due) if op.ok else DEADLINE_S
        for op in ops if op.kind in kinds
    ]
    return common.percentile(values, q) * 1e3


def window_mean(before, after, name: str, view: Optional[str] = None) -> float:
    """Mean of histogram ``name`` over the observations made between two scrapes."""
    count = _sum(after, name + "_count", view) - _sum(before, name + "_count", view)
    total = _sum(after, name + "_sum", view) - _sum(before, name + "_sum", view)
    return total / count if count else 0.0


def server_layers(ops: List[Op], before, after, write_bytes: int, cpu_ms: float) -> Dict[str, float]:
    """Per-layer numbers of the load window from two ``metrics`` scrapes,
    the server's ``/proc`` counters and the load generator's records."""

    def delta(name: str, view: Optional[str] = None) -> float:
        return _sum(after, name, view) - _sum(before, name, view)

    def mean(name: str, view: Optional[str] = None, scale: float = 1e3) -> float:
        return window_mean(before, after, name, view) * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    acked_writes = sum(op.ok for op in ops if op.kind in ("tc_write", "wm_flip"))
    answered = sum(op.done is not None for op in ops)
    return {
        "server.service.commit_ms.tc": mean("repro_server_commit_seconds", "tc"),
        "server.service.commit_ms.wm": mean("repro_server_commit_seconds", "wm"),
        "server.service.batch_size": mean("repro_server_batch_size", scale=1.0),
        "materialize.apply_ms": mean("repro_view_apply_seconds"),
        "materialize.recompute_frac": ratio(
            delta("repro_view_recomputes_total"), delta("repro_view_applies_total")),
        "materialize.wf_layer_updates_per_delta": ratio(
            delta("repro_wf_layer_updates_total"), delta("repro_server_commits_total", "wm")),
        "server.wal.append_ms": mean("repro_wal_append_seconds"),
        "server.wal.snapshot_ms": mean("repro_wal_snapshot_seconds"),
        "server.wal.snapshots": delta("repro_wal_snapshot_seconds_count"),
        "server.wal.write_bytes_per_op": ratio(write_bytes, acked_writes),
        "server.net.ping_p50_ms": latency_ms(ops, ("ping",), 50),
        "server.net.ping_p95_ms": latency_ms(ops, ("ping",), 95),
        "server.cpu_ms_per_op": ratio(cpu_ms, answered),
        "loadgen.late_ms_p95": common.percentile(
            [op.sent - op.due for op in ops if op.sent is not None], 95) * 1e3,
        "write_p50_ms": latency_ms(ops, ("tc_write",), 50),
        "write_p95_ms": latency_ms(ops, ("tc_write",), 95),
        "wf_write_p50_ms": latency_ms(ops, ("wm_flip",), 50),
        "read_p50_ms": latency_ms(ops, ("tc_read",), 50),
        "read_p95_ms": latency_ms(ops, ("tc_read",), 95),
    }


async def run_async(seed: int, seconds: float, trace: bool, host: common.HostSpeed) -> Dict:
    work = common.WORK / "serve"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = make_inputs(seed, work)
    (work / "tc.dl").write_text(TC_PROGRAM + "\n")
    dump_database(graph_to_database(inputs.tc_graph), work / "tc-db")
    oracle = Oracle(inputs)
    ops = schedule(inputs, seed, seconds)
    log = ["tc: random_digraph(%d, %g), %d edges, closure %d pairs; wm: L_%d"
           % (TC_NODES, TC_P, len(inputs.tc_graph.edges),
              len(oracle.tc(frozenset(inputs.tc_graph.edges))), WM_LENGTH),
           "offered: %s per second, deadline %.0f s" % (RATES, DEADLINE_S)]

    setup_times = []
    procs: List[Server] = []
    conns: List[Connection] = []
    try:
        for i in range(SETUP_REPEATS):
            server, w, elapsed, state = await boot(inputs, i, procs, conns)
            setup_times.append(elapsed)
            # The reference runs while the server is idle, between boots.
            host.sample(2)
            if i < SETUP_REPEATS - 1:
                await server.shutdown(w)
                await w.close()
                shutil.rmtree(state, ignore_errors=True)

        r = await Connection.open(server.port)
        conns.append(r)
        start = {}
        for view in ("tc", "wm"):
            info = await w.call({"op": "info", "view": view})
            base = inputs.tc_graph if view == "tc" else inputs.wm_graph
            start[view] = (info["seq"], frozenset(base.edges))
        before = await _metrics(w)
        common.settle_heap()
        io0, cpu0 = proc_io_write_bytes(server.pid), proc_cpu_ms(server.pid)

        await drive(ops, {"W": w, "R": r})

        io1, cpu1 = proc_io_write_bytes(server.pid), proc_cpu_ms(server.pid)
        after = await _metrics(w)
        peak_rss_mb = common.proc_status_kib(server.pid, "VmHWM") / 1024.0
        await r.close()
        await w.close()

        states = check_acks(ops, oracle, start)
        check_reads(ops, oracle, states["tc"])
        common.settle_heap()
        final = {}
        for view in ("tc", "wm"):
            seq = max(states[view])
            final[view] = (seq, states[view][seq])
        state_bytes = dir_bytes(state)

        killed = time.perf_counter()
        server.kill()
        recovered_at, server, conn, recovered_ok = await recover(
            inputs, state, oracle, final, procs, conns)
        recovery_s = recovered_at - killed
        replayed = _sum(await _metrics(conn), "repro_server_recovery_replayed_total") if trace else 0.0
        await server.shutdown(conn)
    finally:
        for conn in conns:
            await conn.close()
        for server in procs:
            server.kill()

    writes = [op for op in ops if op.kind in ("tc_write", "wm_flip")]
    user = [op for op in ops if op.kind != "ping"]
    failed = sum(not op.ok for op in ops) + (not recovered_ok)
    attempted = len(ops) + 1
    finished = max((op.done for op in ops if op.done is not None), default=ops[-1].due)
    window = finished - min(op.due for op in ops)
    log.append("%d requests (%d writes), %d failed; recovered %s in %.3f s"
               % (len(ops), len(writes), failed - (not recovered_ok),
                  "correctly" if recovered_ok else "WRONGLY", recovery_s))
    log.append("latency p50/p95 ms: " + ", ".join(
        "%s %.1f/%.1f" % (kind, latency_ms(ops, (kind,), 50), latency_ms(ops, (kind,), 95))
        for kind in RATES))

    if trace:
        # The batch layers, attributed on both served views evaluated from
        # scratch on their seed data: what recomputing costs, beside what
        # maintaining does.
        evals = [
            common.Evaluation("stratified tc", "stratified", TC_PROGRAM, "TC", inputs.tc_graph),
            common.Evaluation("wellfounded wm", "wellfounded", WM_PROGRAM, "WIN", inputs.wm_graph),
        ]
        metrics, eval_attempted, eval_failed, roots = common.traced_run(evals, ATTRIBUTION_S, host)
        metrics.update(server_layers(ops, before, after, io1 - io0, cpu1 - cpu0))
        metrics.update({
            "server.wal.state_bytes": float(state_bytes),
            "server.wal.replayed": replayed,
            "recovery_s": recovery_s,
        })
        events = [
            {"name": op.kind, "ph": "X", "pid": 2, "tid": 1 if op.conn == "W" else 2,
             "ts": round((op.due - ops[0].due) * 1e6, 3),
             "dur": round(((op.done or op.due + DEADLINE_S) - op.due) * 1e6, 3),
             "args": {"seq": (op.response or {}).get("seq"), "ok": op.ok}}
            for op in ops
        ]
        trace_path = common.WORK / "traces" / ("serve-mixed-seed%d.json" % seed)
        common.write_chrome(trace_path, roots, events)
        log.append("chrome trace: %s" % trace_path.relative_to(common.ROOT))
        failed += eval_failed
        attempted += eval_attempted
    else:
        log.append("set-up wall seconds: %s; reference %.1f ms, so set-up x %.3f"
                   % (" ".join("%.3f" % t for t in setup_times), host.reference_ms(),
                      host.factor()))
        metrics = {
            "setup_s": statistics.fmean(setup_times) * host.factor(),
            # The window's times stay wall times: reference samples taken
            # around the window did not follow the server's speed inside it.
            # eval_s is incremental evaluation: the mean commit (view
            # maintenance plus WAL append) of both views, as the server times it.
            "eval_s": window_mean(before, after, "repro_server_commit_seconds"),
            "peak_rss_mb": peak_rss_mb,
            "goodput_ops": sum(op.ok for op in user) / window,
            "latency_p95_ms": latency_ms(ops, TC_OPS, 95),
        }
    shutil.rmtree(work, ignore_errors=True)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "log": log}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    with common.HostSpeed() as host:
        return asyncio.run(run_async(seed, seconds, trace, host))
