"""Delete/Rederive (DRed) maintenance for recursive components.

Counting does not extend to recursion (a recursive tuple can support
itself through a cycle of derivations), so recursive strongly connected
components are maintained with Gupta–Mumick–Subrahmanian's DRed:

1. **Over-delete** — transitively delete every tuple with *some*
   derivation that used a retracted input: seeds come from the delta
   variants of the base changes (a positive lower literal that lost
   tuples, or a negated lower literal whose predicate *gained* tuples —
   the non-monotone flip the paper's semantics forces us to respect),
   then deletions propagate through the component's own positive
   recursion semi-naively.  Every over-deletion variant reads the *old*
   state away from the differentiated position: the derivations being
   invalidated existed before the change.
2. **Rederive** — over-deletion removes a superset of the truly dead
   tuples, so the survivors are a *sound under-approximation* of the new
   fixpoint; restarting the semi-naive least-fixpoint iteration from
   them (against the post-change inputs) converges to exactly the new
   fixpoint while re-deriving only what over-deletion lost.  Lower-level
   insertions ride the same iteration; on a pure-insertion update the
   over-deletion phase is skipped entirely and round 1 evaluates only
   the insertion delta variants, keeping the work proportional to the
   delta.

Within a component, negation only ever reads *lower* predicates — for
stratified views by stratification, for inflationary views because the
maintainable (semipositive) fragment negates EDB only.  That is the
algorithmic face of the stratum-by-stratum fixed-point structure the
paper's non-monotone operators demand: each component's operator is
monotone once the layers below it are frozen, so a least-fixpoint
restart from a sound under-approximation is exact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from ..core.literals import Atom, Negation
from ..core.planning.batch import execute_plan
from ..core.rules import Rule
from ..db.database import Database
from ..db.relation import Relation
from ..obs import TRACER
from .delta import Tup
from .variants import del_name, ins_name, new_name, old_name, PlanCache

IDBValues = Dict[str, Relation]
ChangePair = Tuple[FrozenSet[Tup], FrozenSet[Tup]]

DELETE_FRONTIER = "@dred_del"
INSERT_FRONTIER = "@dred_new"
"""Frontier alias suffixes for the component's own predicates."""


class RecursiveState:
    """DRed maintenance for one recursive component.

    Parameters
    ----------
    preds:
        The component's predicates with their arities.
    rules:
        Every rule whose head is in the component.  Positive body atoms
        may read the component itself; negated atoms never do
        (stratification / semipositivity).
    plans:
        The shared plan cache.
    """

    __slots__ = ("preds", "rules", "plans")

    def __init__(self, preds: Dict[str, int], rules: List[Rule], plans: PlanCache) -> None:
        self.preds = dict(preds)
        self.rules = rules
        self.plans = plans

    # ------------------------------------------------------------------
    # Variant construction
    # ------------------------------------------------------------------

    def _read(self, literal, suffix: str):
        """A literal reading base predicates under ``@old``/``@new``.

        Component predicates keep their plain names — they are bound to
        the evolving working values by the caller.
        """
        if isinstance(literal, Atom):
            if literal.pred in self.preds:
                return literal
            return Atom(literal.pred + suffix, literal.args)
        if isinstance(literal, Negation):
            atom = literal.atom
            assert atom.pred not in self.preds, (
                "negation inside a recursive component: !%s" % atom.pred
            )
            return Negation(Atom(atom.pred + suffix, atom.args))
        return literal

    def _variant(self, rule: Rule, position: int, pred_alias: str, suffix: str) -> Rule:
        """``rule`` with ``position`` reading ``pred_alias`` and the rest
        reading base predicates under ``suffix``."""
        lit = rule.body[position]
        atom = lit if isinstance(lit, Atom) else lit.atom
        body = [
            Atom(pred_alias, atom.args) if j == position else self._read(other, suffix)
            for j, other in enumerate(rule.body)
        ]
        return Rule(rule.head, body)

    def _comp_positions(self, rule: Rule) -> List[int]:
        """Positive body positions reading a component predicate."""
        return [
            i
            for i, lit in enumerate(rule.body)
            if isinstance(lit, Atom) and lit.pred in self.preds
        ]

    def _base_flips(self, rule: Rule, base_changes, killing: bool):
        """``(position, flip alias)`` pairs for base-level changes.

        ``killing=True`` yields the flips that can invalidate a
        derivation (positive literal lost tuples / negated literal's
        predicate gained them); ``killing=False`` the flips that can
        create one.
        """
        out = []
        for i, lit in enumerate(rule.body):
            if isinstance(lit, Atom) and lit.pred not in self.preds:
                change = base_changes.get(lit.pred)
                if change is None:
                    continue
                ins, dels = change
                if killing and dels:
                    out.append((i, del_name(lit.pred)))
                elif not killing and ins:
                    out.append((i, ins_name(lit.pred)))
            elif isinstance(lit, Negation):
                change = base_changes.get(lit.atom.pred)
                if change is None:
                    continue
                ins, dels = change
                if killing and ins:
                    out.append((i, ins_name(lit.atom.pred)))
                elif not killing and dels:
                    out.append((i, del_name(lit.atom.pred)))
        return out

    def _derive(self, variant: Rule, interp: Database) -> Set[Tup]:
        # stats=None: over-delete/rederive rounds run over frontier and
        # alias relations; their sizes are delta-shaped and must not
        # feed the adaptive planner's cardinality statistics.
        return execute_plan(self.plans.plan(variant), interp, stats=None)

    # ------------------------------------------------------------------
    # Phase 1: over-delete
    # ------------------------------------------------------------------

    def _over_delete(
        self,
        current: IDBValues,
        aliases: IDBValues,
        base_changes,
        universe,
        limit: int,
    ) -> Dict[str, Set[Tup]]:
        """Tuples with some old derivation through a retracted input."""
        deleted: Dict[str, Set[Tup]] = {p: set() for p in self.preds}
        relations: Dict[str, Relation] = dict(aliases)
        for pred, value in current.items():
            relations[pred] = value

        # Seeds: base-level killing flips, evaluated in the old state.
        interp = Database(universe, relations.values(), check=False)
        frontier: Dict[str, Set[Tup]] = {p: set() for p in self.preds}
        for rule in self.rules:
            for position, flip in self._base_flips(rule, base_changes, killing=True):
                variant = self._variant(rule, position, flip, old_name(""))
                hits = self._derive(variant, interp) & current[rule.head.pred].tuples
                frontier[rule.head.pred] |= hits

        # Propagate deletions through the component's positive recursion:
        # each round differentiates one component position with the
        # newly deleted tuples, everything else still reading old values.
        rounds = 0
        while any(frontier.values()):
            for pred, hits in frontier.items():
                deleted[pred] |= hits
            rounds += 1
            if rounds > limit:
                raise AssertionError("DRed over-deletion exceeded its bound %d" % limit)
            for pred in self.preds:
                relations[pred + DELETE_FRONTIER] = Relation(
                    pred + DELETE_FRONTIER, self.preds[pred], frontier[pred]
                )
            interp = Database(universe, relations.values(), check=False)
            next_frontier: Dict[str, Set[Tup]] = {p: set() for p in self.preds}
            for rule in self.rules:
                for i in self._comp_positions(rule):
                    if not frontier.get(rule.body[i].pred):
                        continue
                    variant = self._variant(
                        rule, i, rule.body[i].pred + DELETE_FRONTIER, old_name("")
                    )
                    head = rule.head.pred
                    next_frontier[head] |= (
                        self._derive(variant, interp) & current[head].tuples
                    ) - deleted[head]
            frontier = next_frontier
        return deleted

    # ------------------------------------------------------------------
    # Phase 2 + 3: rederive from the survivors, semi-naively
    # ------------------------------------------------------------------

    def _refixpoint(
        self,
        surviving: IDBValues,
        aliases: IDBValues,
        rederiving: bool,
        base_changes,
        universe,
        limit: int,
    ) -> IDBValues:
        """The least fixpoint containing ``surviving`` over the new inputs."""
        current = dict(surviving)

        def interp_with(extra: List[Relation]) -> Database:
            merged = dict(aliases)
            merged.update({p: current[p] for p in self.preds})
            merged.update({r.name: r for r in extra})
            return Database(universe, merged.values(), check=False)

        if rederiving:
            # Some tuples were over-deleted: any of them might be
            # rederivable through surviving support, so round 1 is one
            # full consequence application over the new inputs.
            interp = interp_with([])
            derived: Dict[str, Set[Tup]] = {p: set() for p in self.preds}
            for rule in self.rules:
                full = Rule(rule.head, [self._read(t, new_name("")) for t in rule.body])
                derived[rule.head.pred] |= self._derive(full, interp)
            delta = {
                p: frozenset(derived[p]) - current[p].tuples for p in self.preds
            }
        else:
            # Pure insertion at the base: only the gained delta variants,
            # prefix and suffix both reading the new state (sound for set
            # semantics; anything already known is subtracted).
            interp = interp_with([])
            gained: Dict[str, Set[Tup]] = {p: set() for p in self.preds}
            for rule in self.rules:
                for position, flip in self._base_flips(rule, base_changes, killing=False):
                    variant = self._variant(rule, position, flip, new_name(""))
                    gained[rule.head.pred] |= self._derive(variant, interp)
            delta = {
                p: frozenset(gained[p]) - current[p].tuples for p in self.preds
            }

        rounds = 0
        while any(delta.values()):
            rounds += 1
            if rounds > limit:
                raise AssertionError("DRed rederivation exceeded its bound %d" % limit)
            current = {
                p: current[p].union(Relation(p, self.preds[p], delta[p]))
                for p in self.preds
            }
            frontier = [
                Relation(p + INSERT_FRONTIER, self.preds[p], delta[p]) for p in self.preds
            ]
            interp = interp_with(frontier)
            derived = {p: set() for p in self.preds}
            for rule in self.rules:
                for i in self._comp_positions(rule):
                    if not delta.get(rule.body[i].pred):
                        continue
                    variant = self._variant(
                        rule, i, rule.body[i].pred + INSERT_FRONTIER, new_name("")
                    )
                    derived[rule.head.pred] |= self._derive(variant, interp)
            delta = {
                p: frozenset(derived[p]) - current[p].tuples for p in self.preds
            }
        return current

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def apply(
        self,
        current: IDBValues,
        aliases: IDBValues,
        base_changes: Dict[str, ChangePair],
        universe,
    ) -> Tuple[IDBValues, Dict[str, ChangePair]]:
        """Maintain the component; return ``(new values, per-pred changes)``.

        ``current`` maps the component's predicates (plain names) to
        their pre-change values; ``aliases`` supplies ``P@old``,
        ``P@new``, ``P@ins`` and ``P@del`` relations for every base
        predicate the rules read; ``base_changes`` the effective
        ``(inserts, deletes)`` per changed base predicate.
        """
        n = len(universe)
        limit = sum(n ** a for a in self.preds.values()) + 1

        killing = any(
            self._base_flips(rule, base_changes, killing=True)
            for rule in self.rules
        )
        if killing:
            with TRACER.span("dred.overdelete") as sp:
                over = self._over_delete(
                    current, aliases, base_changes, universe, limit
                )
                if sp:
                    sp["rows_out"] = sum(len(s) for s in over.values())
        else:
            over = {p: set() for p in self.preds}
        rederiving = any(over.values())
        surviving = {
            p: current[p].difference(Relation(p, self.preds[p], over[p]))
            for p in self.preds
        }
        with TRACER.span("dred.rederive") as sp:
            final = self._refixpoint(
                surviving, aliases, rederiving, base_changes, universe, limit
            )
            if sp:
                sp["rows_out"] = sum(len(r) for r in final.values())
        changes: Dict[str, ChangePair] = {}
        for p in self.preds:
            before = current[p].tuples
            after = final[p].tuples
            changes[p] = (frozenset(after - before), frozenset(before - after))
        return final, changes
