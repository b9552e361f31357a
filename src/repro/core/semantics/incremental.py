"""Delta-driven (semi-naive) inflationary evaluation.

An ablation on the paper's bottom-up iteration.  The inflationary stage
``S_{k+1} = S_k u Theta(S_k)`` only ever *adds* tuples, which makes a
differential evaluation sound even in the presence of negation:

* negated IDB literals ``!T(a)`` can only flip from true to false as the
  stages grow, so an instantiation whose body holds at stage ``k`` but not
  at stage ``k-1`` must contain a positive IDB literal matched by a
  stage-``k`` delta tuple;
* consequently, rules without positive IDB literals can contribute new
  tuples only in round 1 (their round-1 derivation set is the largest they
  will ever produce, and the union already keeps it).

So after round 1 we evaluate only *delta variants* — one per positive IDB
occurrence, reading the previous round's new tuples there — exactly like
classical semi-naive evaluation, except deltas are never "subtracted" from
negations.  The engine is property-tested equal to
:func:`repro.core.semantics.inflationary.inflationary_semantics` and
benchmarked against it in ``benchmarks/bench_ablation_incremental.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...db.database import Database
from ...db.relation import Relation
from ..literals import Atom
from ..operator import empty_idb, theta
from ..planning import PLAN_STORE, execute_plan
from ..program import Program
from ..rules import Rule
from .base import EvaluationResult

_DELTA_SUFFIX = "__inflationary_delta"


def _delta_name(pred: str) -> str:
    return pred + _DELTA_SUFFIX


def _delta_variants(rule: Rule, idb: frozenset) -> List[Rule]:
    """One rule variant per positive IDB occurrence, reading the delta."""
    variants: List[Rule] = []
    for position, lit in enumerate(rule.body):
        if isinstance(lit, Atom) and lit.pred in idb:
            body = list(rule.body)
            body[position] = Atom(_delta_name(lit.pred), lit.args)
            variants.append(Rule(rule.head, body))
    return variants


def incremental_inflationary_semantics(
    program: Program,
    db: Database,
    max_rounds: Optional[int] = None,
) -> EvaluationResult:
    """Compute ``Theta^infinity`` with delta-driven rounds.

    Semantically identical to
    :func:`~repro.core.semantics.inflationary.inflationary_semantics`;
    asymptotically cheaper on recursive rules because each round touches
    only instantiations involving freshly added tuples.
    """
    idb_preds = program.idb_predicates

    variants: List[Rule] = []
    for rule in program.rules:
        variants.extend(_delta_variants(rule, idb_preds))

    # Plans come from the shared store: the full program for round 1, the
    # delta variants (joined through the small deltas first) for the
    # rest — wrapped adaptively so a variant's non-delta IDB atoms are
    # re-planned once their observed sizes diverge from the estimates.
    delta_preds = frozenset(_delta_name(p) for p in idb_preds)
    program_plan = PLAN_STORE.program_plan(program, db)
    adaptive_variants = PLAN_STORE.adaptive_rule_plans(
        variants, db=db, small_preds=delta_preds
    )

    n = len(db.universe)
    bound = sum(n ** program.arity(p) for p in idb_preds) + 1
    limit = bound if max_rounds is None else max_rounds

    # Round 1 is a full Theta application (it alone can use rules with no
    # positive IDB literal, and it seeds the deltas).
    current = theta(program, db, empty_idb(program), plan=program_plan)
    delta = dict(current)
    rounds = 0 if not any(delta[p] for p in idb_preds) else 1

    while any(delta[p] for p in idb_preds):
        interp = db.with_relations(
            list(current.values())
            + [delta[p].with_name(_delta_name(p)) for p in idb_preds]
        )
        derived: Dict[str, Set[Tuple]] = {p: set() for p in idb_preds}
        for plan in adaptive_variants.refresh(interp):
            derived[plan.head_pred] |= execute_plan(
                plan, interp, stats=PLAN_STORE.statistics
            )
        delta = {
            p: Relation(p, program.arity(p), derived[p] - current[p].tuples)
            for p in idb_preds
        }
        if any(delta[p] for p in idb_preds):
            rounds += 1
            current = {p: current[p].union(delta[p]) for p in idb_preds}
        if rounds > limit:
            raise AssertionError(
                "incremental inflationary iteration exceeded its bound %d" % limit
            )
    return EvaluationResult(
        program=program,
        db=db,
        idb=current,
        rounds=rounds,
        engine="incremental-inflationary",
        trace=None,
    )
