"""An iterative DPLL SAT solver with unit propagation and activity branching.

This is the "generic SAT solver" the paper uses to compute exact solutions
against which the MSROPM's accuracy is normalized.  The solver is a classic
DPLL search:

* two-literal-watching-free, clause-state propagation (simple but correct);
* unit propagation to fixpoint after every decision;
* conflict-driven variable *activity* bumping (a light-weight VSIDS flavour)
  to steer branching towards recently conflicting variables;
* an explicit trail + decision stack, so the search is iterative rather than
  recursive and cannot hit Python's recursion limit on the 2116-node
  benchmark encodings.

It is intended for the structured coloring encodings used in this repository
(tens of thousands of variables, highly propagating), not as a competitive
general-purpose CDCL solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SATError
from repro.sat.cnf import CNF, Literal, negate, variable_of


@dataclass
class SATResult:
    """Outcome of a SAT run.

    Attributes
    ----------
    satisfiable:
        ``True`` for SAT, ``False`` for UNSAT, ``None`` when the search was
        aborted by the decision limit.
    assignment:
        For SAT results, a complete variable → bool assignment.
    decisions / propagations / conflicts:
        Search statistics.
    """

    satisfiable: Optional[bool]
    assignment: Optional[Dict[int, bool]] = None
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0

    @property
    def is_sat(self) -> bool:
        """``True`` iff a satisfying assignment was found."""
        return self.satisfiable is True

    @property
    def is_unsat(self) -> bool:
        """``True`` iff the formula was proven unsatisfiable."""
        return self.satisfiable is False

    @property
    def is_unknown(self) -> bool:
        """``True`` iff the search hit its decision limit."""
        return self.satisfiable is None


class DPLLSolver:
    """Iterative DPLL solver over a :class:`CNF` formula.

    Parameters
    ----------
    formula:
        The formula to solve.  It is not modified.
    max_decisions:
        Optional cap on the number of branching decisions; exceeded searches
        return an "unknown" :class:`SATResult`.
    """

    def __init__(self, formula: CNF, max_decisions: Optional[int] = None) -> None:
        if max_decisions is not None and max_decisions <= 0:
            raise SATError(f"max_decisions must be positive, got {max_decisions}")
        self._formula = formula
        self._max_decisions = max_decisions
        self._clauses: List[Tuple[Literal, ...]] = formula.clauses
        self._num_vars = formula.num_variables
        # occurrence lists: literal -> clause indices containing it
        self._occurrences: Dict[Literal, List[int]] = {}
        for index, clause in enumerate(self._clauses):
            for literal in clause:
                self._occurrences.setdefault(literal, []).append(index)
        self._activity: Dict[int, float] = {var: 0.0 for var in range(1, self._num_vars + 1)}

    # ------------------------------------------------------------------
    def solve(self, assumptions: Optional[Sequence[Literal]] = None) -> SATResult:
        """Run the search, optionally under a list of assumption literals."""
        assignment: Dict[int, Optional[bool]] = {var: None for var in range(1, self._num_vars + 1)}
        # Trail entries are (literal, kind) with kind one of:
        #   "decision" — first branch of a decision (its flip is still untried)
        #   "flipped"  — second branch of a decision (both phases now tried)
        #   "implied"  — unit propagation or assumption
        trail: List[Tuple[Literal, str]] = []
        decisions = 0
        propagations = 0
        conflicts = 0

        def assign(literal: Literal, kind: str) -> bool:
            """Assert ``literal``; return False on immediate contradiction."""
            var = variable_of(literal)
            value = literal > 0
            current = assignment[var]
            if current is not None:
                return current == value
            assignment[var] = value
            trail.append((literal, kind))
            return True

        def unit_propagate() -> Optional[Tuple[Literal, ...]]:
            """Propagate to fixpoint; return a conflicting clause or None."""
            nonlocal propagations
            changed = True
            while changed:
                changed = False
                for clause in self._clauses:
                    unassigned: Optional[Literal] = None
                    satisfied = False
                    num_unassigned = 0
                    for literal in clause:
                        value = assignment[variable_of(literal)]
                        if value is None:
                            num_unassigned += 1
                            unassigned = literal
                        elif (literal > 0) == value:
                            satisfied = True
                            break
                    if satisfied:
                        continue
                    if num_unassigned == 0:
                        return clause
                    if num_unassigned == 1:
                        assert unassigned is not None
                        if not assign(unassigned, "implied"):
                            return clause
                        propagations += 1
                        changed = True
            return None

        def backtrack_to_decision() -> Optional[Literal]:
            """Undo assignments up to (and including) the most recent first-branch decision.

            Returns that decision literal (so the caller can try its flip), or
            ``None`` when no untried branch remains, i.e. the formula is UNSAT.
            Flipped decisions encountered on the way are undone and skipped,
            because both of their phases have already been explored.
            """
            while trail:
                literal, kind = trail.pop()
                assignment[variable_of(literal)] = None
                if kind == "decision":
                    return literal
            return None

        # Apply assumptions as forced (non-decision) assignments.
        if assumptions:
            for literal in assumptions:
                if not assign(literal, "implied"):
                    return SATResult(satisfiable=False, decisions=0, propagations=0, conflicts=1)

        # Trivial empty-clause check.
        if any(len(clause) == 0 for clause in self._clauses):
            return SATResult(satisfiable=False, conflicts=1)

        while True:
            conflict = unit_propagate()
            if conflict is not None:
                conflicts += 1
                for literal in conflict:
                    self._activity[variable_of(literal)] += 1.0
                # Flip the most recent decision whose other phase is untried.
                flipped = False
                while not flipped:
                    decision = backtrack_to_decision()
                    if decision is None:
                        return SATResult(
                            satisfiable=False,
                            decisions=decisions,
                            propagations=propagations,
                            conflicts=conflicts,
                        )
                    flipped = assign(negate(decision), "flipped")
                continue

            # Pick the next branching variable (highest activity, then lowest index).
            branch_var = self._pick_branch_variable(assignment)
            if branch_var is None:
                final = {var: bool(value) for var, value in assignment.items() if value is not None}
                for var in range(1, self._num_vars + 1):
                    final.setdefault(var, False)
                return SATResult(
                    satisfiable=True,
                    assignment=final,
                    decisions=decisions,
                    propagations=propagations,
                    conflicts=conflicts,
                )
            decisions += 1
            if self._max_decisions is not None and decisions > self._max_decisions:
                return SATResult(
                    satisfiable=None,
                    decisions=decisions,
                    propagations=propagations,
                    conflicts=conflicts,
                )
            assign(branch_var, "decision")

    # ------------------------------------------------------------------
    def _pick_branch_variable(self, assignment: Dict[int, Optional[bool]]) -> Optional[Literal]:
        """Return a positive literal of the best unassigned variable, or None."""
        best_var: Optional[int] = None
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if assignment[var] is None:
                activity = self._activity.get(var, 0.0)
                if activity > best_activity:
                    best_activity = activity
                    best_var = var
        if best_var is None:
            return None
        return best_var


def solve_cnf(formula: CNF, assumptions: Optional[Sequence[Literal]] = None, max_decisions: Optional[int] = None) -> SATResult:
    """Convenience wrapper: build a :class:`DPLLSolver` and solve ``formula``."""
    solver = DPLLSolver(formula, max_decisions=max_decisions)
    result = solver.solve(assumptions=assumptions)
    if result.is_sat and result.assignment is not None and not formula.evaluate(result.assignment):
        raise SATError("internal error: solver returned a non-satisfying assignment")
    return result
