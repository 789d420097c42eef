"""CNF formula representation for the SAT baseline.

The paper normalizes its accuracy metric against exact solutions obtained
with "a generic SAT solver".  This package provides that substrate from
scratch: a CNF data structure (this module), a DPLL solver with unit
propagation and activity-based branching, and a graph coloring → CNF
encoder.

Literals follow the DIMACS convention: variables are positive integers
``1..n`` and a negative integer denotes a negated variable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SATError

Literal = int
Clause = Tuple[Literal, ...]


def negate(literal: Literal) -> Literal:
    """Return the negation of a literal."""
    if literal == 0:
        raise SATError("0 is not a valid literal")
    return -literal


def variable_of(literal: Literal) -> int:
    """Return the variable index of a literal."""
    if literal == 0:
        raise SATError("0 is not a valid literal")
    return abs(literal)


class CNF:
    """A CNF formula: a conjunction of clauses over integer variables.

    Variables do not need to be declared in advance; ``num_variables`` is the
    largest variable index seen.  Empty clauses are allowed (they make the
    formula trivially unsatisfiable) but adding one raises unless explicitly
    permitted, because it almost always indicates an encoding bug.
    """

    def __init__(self, clauses: Optional[Iterable[Sequence[Literal]]] = None, num_variables: int = 0) -> None:
        self._clauses: List[Clause] = []
        self._num_variables = int(num_variables)
        if self._num_variables < 0:
            raise SATError(f"num_variables must be non-negative, got {num_variables}")
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of variables (largest index referenced or declared)."""
        return self._num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self._clauses)

    @property
    def clauses(self) -> List[Clause]:
        """The clause list (tuples of literals)."""
        return list(self._clauses)

    def new_variable(self) -> int:
        """Allocate and return a fresh variable index."""
        self._num_variables += 1
        return self._num_variables

    def add_clause(self, literals: Sequence[Literal], allow_empty: bool = False) -> None:
        """Add a clause given as a sequence of non-zero integer literals.

        Duplicate literals are removed; tautological clauses (containing both
        ``l`` and ``-l``) are silently dropped since they are always satisfied.
        """
        unique: Set[Literal] = set()
        for literal in literals:
            if not isinstance(literal, int) or literal == 0:
                raise SATError(f"invalid literal {literal!r}")
            unique.add(literal)
        if not unique and not allow_empty:
            raise SATError("refusing to add an empty clause (pass allow_empty=True to force)")
        for literal in unique:
            if -literal in unique:
                return  # tautology
            self._num_variables = max(self._num_variables, abs(literal))
        self._clauses.append(tuple(sorted(unique, key=abs)))

    def add_clauses(self, clauses: Iterable[Sequence[Literal]]) -> None:
        """Add every clause in ``clauses``."""
        for clause in clauses:
            self.add_clause(clause)

    def add_at_most_one(self, literals: Sequence[Literal]) -> None:
        """Add pairwise clauses enforcing that at most one literal is true."""
        literals = list(literals)
        for i in range(len(literals)):
            for j in range(i + 1, len(literals)):
                self.add_clause([negate(literals[i]), negate(literals[j])])

    def add_exactly_one(self, literals: Sequence[Literal]) -> None:
        """Add clauses enforcing that exactly one literal is true."""
        literals = list(literals)
        if not literals:
            raise SATError("exactly-one constraint over an empty literal set is unsatisfiable")
        self.add_clause(literals)
        self.add_at_most_one(literals)

    # ------------------------------------------------------------------
    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Return ``True`` if ``assignment`` (variable → bool) satisfies the formula.

        Every variable appearing in the formula must be assigned.
        """
        for clause in self._clauses:
            satisfied = False
            for literal in clause:
                var = variable_of(literal)
                if var not in assignment:
                    raise SATError(f"variable {var} is unassigned")
                value = assignment[var]
                if (literal > 0 and value) or (literal < 0 and not value):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Alias of :meth:`evaluate` for readability at call sites."""
        return self.evaluate(assignment)

    def variables(self) -> Set[int]:
        """Return the set of variables that appear in at least one clause."""
        return {variable_of(literal) for clause in self._clauses for literal in clause}

    def copy(self) -> "CNF":
        """Return a copy of this formula."""
        clone = CNF(num_variables=self._num_variables)
        clone._clauses = list(self._clauses)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CNF variables={self.num_variables} clauses={self.num_clauses}>"
