"""Well-founded semantics via Van Gelder's alternating fixpoint.

The paper cites Van Gelder's tight-derivation work [VG86] among the
responses to negation; the well-founded model is the now-standard
three-valued semantics that assigns *every* DATALOG¬ program a partial
model.  We include it as an extension for comparison with the paper's
proposals: on the paper's program ``pi_1`` (the win–move game) the
well-founded model is total exactly on databases where the fixpoint
semantics is unproblematic (e.g. paths), and leaves the odd-cycle atoms
undefined — precisely the instances where ``(pi_1, D)`` has no fixpoint.

Implementation: ground the program (the grounder evaluates each rule's
EDB part through a plan fetched from the shared
:data:`~repro.core.planning.PLAN_STORE` and executed set-at-a-time by
the batch executor with cached indexes — see :mod:`repro.core.planning`
and :mod:`repro.core.grounding`), then iterate the anti-monotone
*stability operator* ``A``:

    A(I) = least model of the positive program obtained by evaluating
           every negative literal against I  (``not n`` holds iff n not in I)

``A`` is anti-monotone, so ``A o A`` is monotone; the well-founded model is

    true      = lfp(A o A)
    possible  = A(true)          (= gfp(A o A))
    undefined = possible - true
    false     = everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from ...db.database import Database
from ...db.relation import Relation
from ...obs import RECORDER, TRACER
from ..grounding import GroundAtom, GroundProgram, ground_program
from ..operator import IDBMap
from ..program import Program


@dataclass
class WellFoundedResult:
    """The three-valued well-founded model of ``(program, db)``.

    ``true``/``undefined`` are ground-atom sets; everything not in their
    union is false.  ``rounds`` counts outer alternating-fixpoint steps.
    """

    program: Program
    db: Database
    true: FrozenSet[GroundAtom]
    undefined: FrozenSet[GroundAtom]
    rounds: int

    engine = "wellfounded"
    """Engine tag, mirroring :class:`~repro.core.semantics.base.EvaluationResult`."""

    @property
    def is_total(self) -> bool:
        """True when no atom is undefined (two-valued well-founded model)."""
        return not self.undefined

    def true_idb(self) -> IDBMap:
        """The true atoms as a ``{pred: Relation}`` valuation."""
        return _group(self.program, self.true)

    def undefined_idb(self) -> IDBMap:
        """The undefined atoms as a ``{pred: Relation}`` valuation."""
        return _group(self.program, self.undefined)


def _group(program: Program, atoms: FrozenSet[GroundAtom]) -> IDBMap:
    grouped: Dict[str, Set] = {p: set() for p in program.idb_predicates}
    for pred, values in atoms:
        grouped[pred].add(values)
    return {
        p: Relation(p, program.arity(p), tuples) for p, tuples in grouped.items()
    }


def _least_model_of_reduct(
    ground: GroundProgram, reference: Set[GroundAtom]
) -> Set[GroundAtom]:
    """``A(reference)``: least model with negation evaluated against
    ``reference`` (``not n`` holds iff ``n not in reference``)."""
    true: Set[GroundAtom] = set()
    # Keep only rules whose negative part is satisfied; then run a
    # queue-based least-model computation on the positive remainder.
    active = [
        r for r in ground.rules if all(n not in reference for n in r.neg)
    ]
    changed = True
    while changed:
        changed = False
        remaining = []
        for r in active:
            if r.head in true:
                continue
            if all(p in true for p in r.pos):
                true.add(r.head)
                changed = True
            else:
                remaining.append(r)
        active = remaining
    return true


def well_founded_semantics(
    program: Program,
    db: Database,
    ground: Optional[GroundProgram] = None,
) -> WellFoundedResult:
    """Compute the well-founded model by alternating fixpoint.

    A pre-computed :class:`GroundProgram` may be supplied to share grounding
    work across analyses.
    """
    with TRACER.span("wellfounded") as root:
        gp = ground if ground is not None else ground_program(program, db)
        true: Set[GroundAtom] = set()
        rounds = 0
        while True:
            rounds += 1
            with TRACER.span("alternation.step") as sp:
                overestimate = _least_model_of_reduct(gp, true)
                next_true = _least_model_of_reduct(gp, overestimate)
                if sp:
                    sp["step"] = rounds
                    sp["possible"] = len(overestimate)
                    sp["rows_out"] = len(next_true)
            if next_true == true:
                break
            true = next_true
        with TRACER.span("alternation.possible") as sp:
            possible = _least_model_of_reduct(gp, true)
            if sp:
                sp["rows_out"] = len(possible)
        if root:
            root["rounds"] = rounds
            root["ground_rules"] = len(gp)
        if RECORDER.enabled:
            RECORDER.inc("repro_wf_alternation_steps_total", 2 * rounds + 1)
    return WellFoundedResult(
        program=program,
        db=db,
        true=frozenset(true),
        undefined=frozenset(possible - true),
        rounds=rounds,
    )
