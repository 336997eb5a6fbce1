"""1-in-3 SAT: instances where every clause must contain exactly one true
literal. Clauses are triples of nonzero ints in DIMACS convention (variable
k is literal k, its negation -k; variables are 1-based).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Clause = tuple[int, int, int]
# (variables, assignments, clause-digit vectors) of one variable block
Block = tuple[tuple[int, ...], tuple[tuple[bool, ...], ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class OneInThreeSatInstance:
    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        for c in self.clauses:
            if len(c) != 3:
                raise ValueError(f"clause {c} is not a triple")
            for lit in c:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range in {c}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def clause_true_count(self, clause: Clause, assignment: tuple[bool, ...]) -> int:
        return sum(
            1
            for lit in clause
            if assignment[abs(lit) - 1] == (lit > 0)
        )

    def satisfies(self, assignment: tuple[bool, ...]) -> bool:
        """Exactly-one-true in every clause."""
        if len(assignment) != self.n_vars:
            raise ValueError("assignment length mismatch")
        return all(self.clause_true_count(c, assignment) == 1 for c in self.clauses)


def one_in_three_sat_brute_force(
    inst: OneInThreeSatInstance,
) -> tuple[bool, ...] | None:
    """Lex-min satisfying assignment (False < True), or None."""
    if inst.n_vars > 24:
        raise ValueError("brute force capped at 24 variables")
    for bits in itertools.product((False, True), repeat=inst.n_vars):
        if inst.satisfies(bits):
            return bits
    return None


def clause_digit_blocks(inst: OneInThreeSatInstance, groups: int) -> list[Block]:
    """The clause-digit encoding shared by the SAT reductions.

    Variables 1..n are split into `groups` consecutive blocks of
    ceil(n / groups), the last one padded with unused variables. Each block
    gives (variables, assignments, vectors): every assignment of its
    variables in lex order (False < True), and for each one the vector of
    clause digits, a digit being the number of clause literals made true by
    the block's variables, capped at 2.
    """
    per = -(-inst.n_vars // groups)
    if per > 12:
        raise ValueError("enumeration capped at 12 variables per block")
    blocks = []
    for g in range(groups):
        lo = g * per + 1
        # each clause's literals inside the block: (offset, wanted value)
        lits = [
            [(abs(lit) - lo, lit > 0) for lit in c if 0 <= abs(lit) - lo < per]
            for c in inst.clauses
        ]
        assignments = tuple(itertools.product((False, True), repeat=per))
        vectors = tuple(
            tuple(min(sum(bits[i] == want for i, want in ls), 2) for ls in lits)
            for bits in assignments
        )
        blocks.append((tuple(range(lo, lo + per)), assignments, vectors))
    return blocks


def random_instance(
    n_vars: int, m: int, seed: int, *, allow_repeats: bool = False
) -> OneInThreeSatInstance:
    """Random instance with m clauses over n_vars variables. By default each
    clause uses three distinct variables.
    """
    if n_vars < 3 and not allow_repeats:
        raise ValueError("distinct-variable clauses need n_vars >= 3")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        if allow_repeats:
            vs = [rng.randrange(1, n_vars + 1) for _ in range(3)]
        else:
            vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return OneInThreeSatInstance(n_vars, tuple(clauses))


def enumerate_clause_patterns(n_vars: int) -> list[Clause]:
    """All clauses over n_vars variables with three distinct variables,
    canonical order (ascending variable), all 8 sign patterns each.
    """
    out = []
    for vs in itertools.combinations(range(1, n_vars + 1), 3):
        for signs in itertools.product((1, -1), repeat=3):
            out.append(tuple(s * v for s, v in zip(signs, vs)))
    return out


def enumerate_instances(n_vars: int, max_m: int) -> list[OneInThreeSatInstance]:
    """Every instance with 1..max_m clauses drawn (as an unordered multiset)
    from the canonical clause patterns. Exhaustive ground truth corpora for
    the reduction equivalence tests.
    """
    patterns = enumerate_clause_patterns(n_vars)
    out = []
    for m in range(1, max_m + 1):
        for combo in itertools.combinations_with_replacement(patterns, m):
            out.append(OneInThreeSatInstance(n_vars, combo))
    return out
