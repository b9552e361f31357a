"""Tests for the benchmark's oracles and its serving-load checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import serve  # noqa: E402
from repro.core.semantics import (  # noqa: E402
    inflationary_semantics,
    stratified_semantics,
    well_founded_semantics,
)
from repro.graphs.encode import graph_to_database  # noqa: E402
from repro.graphs.generators import cycle, path, random_digraph  # noqa: E402
from repro.queries.library import (  # noqa: E402
    distance_program,
    tc_complement_stratified,
    win_move_program,
)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_win_move_on_paths_alternates_from_the_end(n):
    g = path(n)
    won, drawn = oracles.win_move(g.nodes, g.edges)
    assert won == {i for i in range(1, n) if (n - i) % 2 == 1}
    assert drawn == frozenset()


@pytest.mark.parametrize("n", [3, 5, 4, 6])
def test_win_move_on_cycles_is_drawn_everywhere(n):
    g = cycle(n)
    won, drawn = oracles.win_move(g.nodes, g.edges)
    assert won == frozenset()
    assert drawn == g.nodes


def test_win_move_exit_from_a_cycle_decides_it():
    # 1 -> 2 -> 3 -> 1 with an exit 3 -> 4 (4 has no move): 3 wins, 2 loses, 1 wins.
    won, drawn = oracles.win_move({1, 2, 3, 4}, {(1, 2), (2, 3), (3, 1), (3, 4)})
    assert won == {1, 3}
    assert drawn == frozenset()


@pytest.mark.parametrize("seed", range(6))
def test_win_move_matches_the_well_founded_model(seed):
    g = random_digraph(25, 0.08, seed)
    result = well_founded_semantics(win_move_program(), graph_to_database(g))
    won, drawn = oracles.win_move(g.nodes, g.edges)
    assert {v[0] for _p, v in result.true} == won
    assert {v[0] for _p, v in result.undefined} == drawn


def test_closure_and_complement_partition_all_pairs():
    g = random_digraph(12, 0.15, 3)
    tc = oracles.closure(g.nodes, g.edges)
    notc = oracles.closure_complement(g.nodes, g.edges)
    assert tc | notc == {(u, v) for u in g.nodes for v in g.nodes}
    assert not tc & notc
    result = stratified_semantics(tc_complement_stratified(), graph_to_database(g))
    assert result.carrier_value.tuples == notc


def test_distance_matches_the_inflationary_carrier():
    g = path(4)
    result = inflationary_semantics(distance_program(), graph_to_database(g))
    assert result.carrier_value.tuples == oracles.distance(g.nodes, g.edges)


# ----------------------------------------------------------------------
# serve-mixed: schedule and acknowledgement checks
# ----------------------------------------------------------------------


def _inputs(seed=1):
    return serve.Inputs(random_digraph(30, 0.08, seed), path(6), work=None)


def test_schedule_is_seeded_and_offers_the_stated_rates():
    inputs = _inputs()
    a = serve.schedule(inputs, 7, 4.0)
    b = serve.schedule(inputs, 7, 4.0)
    assert [(o.due, o.request) for o in a] == [(o.due, o.request) for o in b]
    assert [(o.due, o.request) for o in a] != [(o.due, o.request) for o in serve.schedule(inputs, 8, 4.0)]
    for kind, rate in serve.RATES.items():
        assert sum(o.kind == kind for o in a) == int(rate * 4.0)
    assert all(x.due <= y.due for x, y in zip(a, a[1:]))


def test_tc_writes_delete_then_reinsert_the_same_edge():
    inputs = _inputs()
    writes = [o for o in serve.schedule(inputs, 3, 5.0) if o.kind == "tc_write"]
    base = frozenset(inputs.tc_graph.edges)
    for delete, insert in zip(writes[::2], writes[1::2]):
        (edge,) = delete.request["deletes"]["E"]
        assert insert.request["inserts"]["E"] == [edge]
        assert delete.edges == base - {tuple(edge)}
        assert insert.edges == base


def _acked(op, seq, inserted=(), deleted=(), pred="TC", late=0.0):
    op.done = op.due + late
    op.response = {"ok": True, "seq": seq, "changeset": {
        "inserted": {pred: [list(t) for t in inserted]} if inserted else {},
        "deleted": {pred: [list(t) for t in deleted]} if deleted else {},
    }}


def test_acks_must_not_go_back_and_carry_the_oracle_changeset():
    inputs = _inputs(2)
    oracle = serve.Oracle(inputs)
    base = frozenset(inputs.tc_graph.edges)
    delete, insert = [o for o in serve.schedule(inputs, 1, 1.0) if o.kind == "tc_write"][:2]
    gone = oracle.tc(base) - oracle.tc(delete.edges)
    assert gone, "the first victim must shrink the closure for this test"
    start = {"tc": (0, base), "wm": (0, frozenset(inputs.wm_graph.edges))}

    def check(insert_seq, inserted, late=0.0):
        delete.ok = insert.ok = False
        _acked(delete, 1, deleted=gone)
        _acked(insert, insert_seq, inserted=inserted, late=late)
        return serve.check_acks([delete, insert], oracle, start)

    states = check(2, gone)
    assert delete.ok and insert.ok
    assert states["tc"] == {0: base, 1: delete.edges, 2: base}
    check(1, gone)  # same seq: one batch, yet the acks carry different changesets
    assert not delete.ok and not insert.ok
    check(0, gone)  # seq goes back
    assert delete.ok and not insert.ok
    check(2, list(gone)[1:])  # changeset misses a pair
    assert delete.ok and not insert.ok
    check(2, gone, late=serve.DEADLINE_S + 1)  # past its deadline
    assert delete.ok and not insert.ok


def _first_writes(seed, count):
    inputs = _inputs(seed)
    oracle = serve.Oracle(inputs)
    writes = [o for o in serve.schedule(inputs, 2, 2.0) if o.kind == "tc_write"][:count]
    start = {"tc": (0, frozenset(inputs.tc_graph.edges)),
             "wm": (0, frozenset(inputs.wm_graph.edges))}
    return oracle, writes, start


def test_writes_folded_into_one_commit_share_its_seq_and_net_changeset():
    oracle, (d1, i1, d2), start = _first_writes(2, 3)
    base = start["tc"][1]
    # d1 commits alone at seq 1; i1 and d2 ride in one batch at seq 2, whose
    # net change runs from d1's state to d2's.
    before, after = oracle.tc(d1.edges), oracle.tc(d2.edges)
    assert before != after, "the batch must change the closure for this test"
    _acked(d1, 1, deleted=oracle.tc(base) - before)
    for op in (i1, d2):
        _acked(op, 2, inserted=after - before, deleted=before - after)
    states = serve.check_acks([d1, i1, d2], oracle, start)
    assert d1.ok and i1.ok and d2.ok
    assert states["tc"] == {0: base, 1: d1.edges, 2: d2.edges}

    # Each member carrying only its own change is wrong when that differs.
    oracle, (d1, i1, d2), start = _first_writes(2, 3)
    own = oracle.tc(base) - oracle.tc(d1.edges)
    assert own, "the first victim must shrink the closure for this test"
    _acked(d1, 1, deleted=own)
    _acked(i1, 1, inserted=own)
    serve.check_acks([d1, i1], oracle, start)
    assert not d1.ok and not i1.ok


def test_a_batch_that_churns_to_nothing_keeps_the_old_seq():
    oracle, (d1, i1), start = _first_writes(2, 2)
    # The delete and the re-insert cancel in one batch: no commit, old seq.
    _acked(d1, 0)
    _acked(i1, 0)
    states = serve.check_acks([d1, i1], oracle, start)
    assert d1.ok and i1.ok
    assert states["tc"] == {0: start["tc"][1]}
    # The delete alone cannot keep the old seq.
    oracle, (d1, _i1), start = _first_writes(2, 2)
    _acked(d1, 0)
    serve.check_acks([d1], oracle, start)
    assert not d1.ok


def test_reads_are_checked_at_the_seq_they_report():
    inputs = _inputs(4)
    oracle = serve.Oracle(inputs)
    base = frozenset(inputs.tc_graph.edges)
    smaller = next(base - {e} for e in sorted(base) if oracle.tc(base - {e}) != oracle.tc(base))
    read = next(o for o in serve.schedule(inputs, 1, 1.0) if o.kind == "tc_read")
    read.done = read.due
    cases = [(0, base, True), (1, smaller, True), (1, base, False), (5, base, False)]
    for seq, edges, expect in cases:
        read.ok = False
        read.response = {"ok": True, "seq": seq, "tuples": [list(t) for t in oracle.tc(edges)]}
        serve.check_reads([read], oracle, {0: base, 1: smaller})
        assert read.ok is expect


def test_due_times_are_one_per_period():
    times = serve._due_times(random.Random(0), 4.0, 3.0)
    assert len(times) == 12
    assert all(i / 4.0 <= t < (i + 1) / 4.0 for i, t in enumerate(times))


def test_window_mean_takes_the_observations_between_two_scrapes():
    before = serve._scrape(
        "# TYPE repro_server_commit_seconds histogram\n"
        'repro_server_commit_seconds_sum{view="tc"} 1.0\n'
        'repro_server_commit_seconds_count{view="tc"} 10\n'
        'repro_server_commit_seconds_sum{view="wm"} 2.0\n'
        'repro_server_commit_seconds_count{view="wm"} 4\n'
    )
    after = serve._scrape(
        'repro_server_commit_seconds_sum{view="tc"} 1.5\n'
        'repro_server_commit_seconds_count{view="tc"} 20\n'
        'repro_server_commit_seconds_sum{view="wm"} 3.5\n'
        'repro_server_commit_seconds_count{view="wm"} 7\n'
    )
    name = "repro_server_commit_seconds"
    assert serve.window_mean(before, after, name, "tc") == pytest.approx(0.05)
    assert serve.window_mean(before, after, name, "wm") == pytest.approx(0.5)
    assert serve.window_mean(before, after, name) == pytest.approx(2.0 / 13)
    assert serve.window_mean(after, after, name) == 0.0
