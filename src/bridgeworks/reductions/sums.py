"""3-SUM and k-SUM instances from 1-in-3 SAT via positional digit encoding.

Digit map (per group assignment, per clause): the shared clause digit of
sat.clause_digit_blocks, the number of clause literals made true by the
group's variables, capped at 2. A clause column of the combined sum hits
exactly 1 iff exactly one group contributes a single true literal and the
rest none, i.e. the clause has exactly one true literal overall.

Each group-g integer spells its m clause digits followed by a one-hot tag
block (digit 1 in tag position g) in base 10; the only negative element is
minus the all-ones repunit. A zero-sum selection must therefore take the
negative element once and one integer per group, and digit columns add
without carries for k <= 6 (tag columns cap at k-1 <= 5, so a carry chain
can never start; carry_overflow_example shows the k = 7 failure).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .sat import Block, OneInThreeSatInstance, clause_digit_blocks

Vector = tuple[int, ...]


def repunit(n_digits: int) -> int:
    """111...1 with n_digits ones."""
    if n_digits < 1:
        raise ValueError("need at least one digit")
    return (10**n_digits - 1) // 9


def _digits_to_int(digits: tuple[int, ...]) -> int:
    value = 0
    for d in digits:
        value = value * 10 + d
    return value


@dataclass(frozen=True)
class KSumInstance:
    k: int
    m: int
    integers: tuple[int, ...]       # group blocks in order, negative last
    group_sizes: tuple[int, ...]     # elements per group block
    group_vars: tuple[tuple[int, ...], ...]
    assignments: tuple[tuple[tuple[bool, ...], ...], ...]  # per group
    source: OneInThreeSatInstance | None = None

    @property
    def n_digits(self) -> int:
        return self.m + self.k - 1


@dataclass(frozen=True)
class ThreeSumInstance:
    m: int
    integers: tuple[int, ...]
    a_count: int
    b_count: int
    vectors_a: tuple[Vector, ...]
    vectors_b: tuple[Vector, ...]
    source: OneInThreeSatInstance | None = None

    @property
    def n_digits(self) -> int:
        return self.m + 2


def _pack(inst: OneInThreeSatInstance, groups: int) -> tuple[list[Block], tuple[int, ...]]:
    """The clause-digit blocks and the integers they spell: each block's
    integers in order (clause digits, then a one-hot tag for the block),
    and minus the repunit last."""
    if inst.m < 1:
        raise ValueError("need at least one clause")
    blocks = clause_digit_blocks(inst, groups)
    integers = [
        _digits_to_int(digits) * 10**groups + 10 ** (groups - 1 - g)
        for g, (_, _, vectors) in enumerate(blocks)
        for digits in vectors
    ]
    integers.append(-repunit(inst.m + groups))
    return blocks, tuple(integers)


def sat_to_ksum(inst: OneInThreeSatInstance, k: int) -> KSumInstance:
    """Partition variables into k-1 groups (padding with unused variables to
    a multiple of k-1) and emit the tagged digit integers.
    """
    if not 3 <= k <= 6:
        raise ValueError("supported for 3 <= k <= 6 (carries break beyond)")
    blocks, integers = _pack(inst, k - 1)
    return KSumInstance(
        k=k,
        m=inst.m,
        integers=integers,
        group_sizes=tuple(len(a) for _, a, _ in blocks),
        group_vars=tuple(v for v, _, _ in blocks),
        assignments=tuple(a for _, a, _ in blocks),
        source=inst,
    )


def sat_to_threesum(inst: OneInThreeSatInstance) -> ThreeSumInstance:
    """Two-group special case laid out with the A/B bookkeeping pinned by
    the external interface. Digits and integers coincide with sat_to_ksum
    at k = 3; the vectors are the two blocks' clause digits.
    """
    ((_, aa, va), (_, ab, vb)), integers = _pack(inst, 2)
    return ThreeSumInstance(
        m=inst.m,
        integers=integers,
        a_count=len(aa),
        b_count=len(ab),
        vectors_a=va,
        vectors_b=vb,
        source=inst,
    )


def threesum_brute_force(
    integers: tuple[int, ...] | ThreeSumInstance,
) -> tuple[int, int, int] | None:
    """Lex-min index triple i < j < k with S[i] + S[j] + S[k] == 0, or None.
    Hash-assisted: for each (i, j) the needed third value is looked up.
    """
    s = integers.integers if isinstance(integers, ThreeSumInstance) else integers
    where: dict[int, list[int]] = {}
    for i, v in enumerate(s):
        where.setdefault(v, []).append(i)
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            need = -(s[i] + s[j])
            idxs = where.get(need)
            if not idxs:
                continue
            pos = bisect_right(idxs, j)
            if pos < len(idxs):
                return i, j, idxs[pos]
    return None


def ksum_brute_force(
    inst: KSumInstance | tuple[int, ...],
    k: int | None = None,
) -> tuple[int, ...] | None:
    """Lex-min strictly increasing index k-tuple summing to zero, or None.
    k = 3 takes the hash-assisted threesum_brute_force."""
    if isinstance(inst, KSumInstance):
        s, kk = inst.integers, inst.k
    else:
        s, kk = inst, k
        if kk is None:
            raise ValueError("k required when passing a raw tuple")
    if math.comb(len(s), kk) > 10**7:
        raise ValueError("search space above 10^7 combinations")
    if kk == 3:
        return threesum_brute_force(s)
    for combo in itertools.combinations(range(len(s)), kk):
        if sum(s[i] for i in combo) == 0:
            return combo
    return None


def carry_overflow_example() -> dict:
    """Six two-digit addends (the k = 7 shape) whose column of 2s overflows:
    five copies of digit pattern (0,2) plus one (0,1) sum to 11, the
    two-digit repunit, even though no pair of patterns is complementary.
    """
    patterns = ((0, 2),) * 5 + ((0, 1),)
    addends = tuple(_digits_to_int(p) for p in patterns)
    total = sum(addends)
    return {
        "k": 7,
        "digit_patterns": patterns,
        "addends": addends,
        "sum": total,
        "repunit": repunit(2),
        "collides": total == repunit(2),
    }


@dataclass(frozen=True)
class SumIffReport:
    sat: bool
    sum_hit: bool

    @property
    def consistent(self) -> bool:
        return self.sat == self.sum_hit


def verify_threesum_iff(inst: OneInThreeSatInstance) -> SumIffReport:
    return verify_ksum_iff(inst, 3)


def verify_ksum_iff(inst: OneInThreeSatInstance, k: int) -> SumIffReport:
    from .sat import one_in_three_sat_brute_force

    if inst.n_vars > 12 or inst.m > 8:
        raise ValueError("verification guarded to n_vars <= 12, m <= 8")
    sat = one_in_three_sat_brute_force(inst) is not None
    hit = ksum_brute_force(sat_to_ksum(inst, k)) is not None
    return SumIffReport(sat=sat, sum_hit=hit)
