"""Inflationary DATALOG — the semantics the paper proposes (Section 4).

For a program pi with operator Theta, define

    Theta^1 = Theta(empty),   Theta^{n+1} = Theta^n  union  Theta(Theta^n)

and let ``Theta^infinity`` be the union of the chain.  Because the sequence
is increasing, it stabilises after at most ``sum_i |A|^{arity(S_i)}`` rounds,
so the inflationary semantics is computable in polynomial time in the size
of the database — the paper's central argument for it.

Key facts reproduced in the test-suite and experiments:

* For negation-free DATALOG programs, ``Theta^{n+1} = Theta(Theta^n)``
  (Theta is monotone), so the inflationary semantics *is* the least
  fixpoint — inflationary DATALOG conservatively extends the standard
  semantics.
* ``T(x) :- !T(y)`` yields ``Theta^infinity = A`` (after one round).
* ``pi_1 : T(x) :- E(y, x), !T(y)`` yields ``{x : exists y E(y, x)}``.
* ``Theta^infinity`` need not be a fixpoint of Theta at all — the paper's
  Section 4 warning — e.g. the toggle program's value ``A`` has
  ``Theta(A) = empty``.
"""

from __future__ import annotations

from typing import List, Optional

from ...db.database import Database
from ...obs import RECORDER, TRACER
from ..fixpoint import idb_equal, idb_union
from ..operator import IDBMap, empty_idb, theta
from ..planning import PLAN_STORE, ProgramPlan
from ..program import Program
from .base import EvaluationResult


def inflationary_step(
    program: Program,
    db: Database,
    current: IDBMap,
    plan: Optional[ProgramPlan] = None,
) -> IDBMap:
    """One application of the inflationary operator ``S |-> S u Theta(S)``."""
    return idb_union([current, theta(program, db, current, plan=plan)])


def inflationary_semantics(
    program: Program,
    db: Database,
    keep_trace: bool = False,
    max_rounds: Optional[int] = None,
) -> EvaluationResult:
    """Compute ``Theta^infinity``, the inductive fixpoint of S u Theta(S).

    Works for *every* DATALOG¬ program — that totality is the point of the
    semantics.  ``result.rounds`` is the paper's ``n_0``: the first ``n``
    with ``Theta^n = Theta^{n+1}``; it is at most ``sum_i |A|^{arity_i}``.
    """
    n = len(db.universe)
    bound = sum(n ** program.arity(p) for p in program.idb_predicates) + 1
    limit = bound if max_rounds is None else max_rounds

    # Adaptive plans over the shared store: re-planned mid-fixpoint when
    # the observed IDB sizes diverge from the planning-time estimates.
    plan = PLAN_STORE.adaptive_program_plan(program, db)
    current = empty_idb(program)
    trace: Optional[List[IDBMap]] = [dict(current)] if keep_trace else None
    rounds = 0
    while rounds < limit:
        with TRACER.span("inflationary.round") as sp:
            nxt = inflationary_step(program, db, current, plan=plan)
            if sp:
                sp["round"] = rounds + 1
                sp["rows_out"] = sum(len(r) for r in nxt.values())
                sp["replans"] = plan.replans
        if idb_equal(nxt, current):
            break
        rounds += 1
        current = nxt
        if keep_trace:
            trace.append(dict(current))
    else:
        raise AssertionError(
            "inflationary iteration exceeded its theoretical bound %d" % limit
        )
    if RECORDER.enabled:
        RECORDER.inc("repro_engine_rounds_total", rounds)
    return EvaluationResult(
        program=program,
        db=db,
        idb=current,
        rounds=rounds,
        engine="inflationary",
        trace=trace,
    )


def theta_stage(program: Program, db: Database, n: int) -> IDBMap:
    """The paper's stage ``Theta^n`` (``n >= 0``; stage 0 is empty)."""
    if n < 0:
        raise ValueError("stage must be non-negative")
    plan = PLAN_STORE.program_plan(program, db)
    current = empty_idb(program)
    for _ in range(n):
        current = inflationary_step(program, db, current, plan=plan)
    return current
