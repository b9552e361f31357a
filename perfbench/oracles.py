"""Answers the benchmark checks every evaluation against, computed without Datalog.

* win-move (``WIN(x) :- E(x, y), !WIN(y)``) by retrograde analysis of the
  game graph: a position with no move is lost, a position with a move to a
  lost position is won, a position whose every move leads to a won position
  is lost, and whatever the backward induction never labels is drawn.  The
  well-founded model is exactly that labelling: true = won, undefined =
  drawn, false = lost.
* transitive closure and the distance query via :mod:`repro.graphs.algorithms`
  (breadth-first search, no rules involved).
* TC-complement as every pair over the universe minus the closure.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.graphs.algorithms import distance_query, transitive_closure
from repro.graphs.digraph import Digraph

Edge = Tuple[int, int]


def win_move(nodes: Iterable[int], edges: Iterable[Edge]) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """``(won, drawn)`` positions of the win-move game on ``(nodes, edges)``."""
    nodes = set(nodes)
    preds: Dict[int, List[int]] = {n: [] for n in nodes}
    moves_left: Dict[int, int] = {n: 0 for n in nodes}
    for u, v in set(edges):
        preds[v].append(u)
        moves_left[u] += 1
    won: Set[int] = set()
    lost: Set[int] = {n for n in nodes if moves_left[n] == 0}
    queue = deque(lost)
    while queue:
        node = queue.popleft()
        for p in preds[node]:
            if p in won or p in lost:
                continue
            if node in lost:
                won.add(p)
                queue.append(p)
            else:
                moves_left[p] -= 1
                if moves_left[p] == 0:
                    lost.add(p)
                    queue.append(p)
    return frozenset(won), frozenset(nodes - won - lost)


def closure(nodes: Iterable[int], edges: Iterable[Edge]) -> FrozenSet[Edge]:
    """Pairs ``(u, v)`` joined by a path of length >= 1."""
    return transitive_closure(Digraph(nodes, edges))


def closure_complement(universe: Iterable[int], edges: Iterable[Edge]) -> FrozenSet[Edge]:
    """Every pair over ``universe`` that the closure does not contain."""
    universe = list(universe)
    tc = closure(universe, edges)
    return frozenset((u, v) for u in universe for v in universe if (u, v) not in tc)


def distance(nodes: Iterable[int], edges: Iterable[Edge]):
    """The distance query ``D(x, y, x*, y*)`` of Proposition 2."""
    return distance_query(Digraph(nodes, edges))
