"""3-SUM and k-SUM instances from 1-in-3 SAT via positional digit encoding.

Digit map (per group assignment, per clause): the digit is the number of
clause literals made true by the group's variables, capped at 2. A clause
column of the combined sum hits exactly 1 iff exactly one group contributes
a single true literal and the rest none, i.e. the clause has exactly one
true literal overall.

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

from .sat import OneInThreeSatInstance

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


def _clause_digit(clause, group_vars: frozenset[int], amap: dict[int, bool]) -> int:
    true_count = 0
    for lit in clause:
        v = abs(lit)
        if v in group_vars and amap[v] == (lit > 0):
            true_count += 1
    return min(true_count, 2)


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

    def group_of_index(self, i: int) -> int | None:
        """Group number (0-based) of element i, None for the negative."""
        off = 0
        for g, size in enumerate(self.group_sizes):
            if i < off + size:
                return g
            off += size
        return None


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


def sat_to_ksum(inst: OneInThreeSatInstance, k: int) -> KSumInstance:
    """Partition variables into k-1 groups (padding with unused variables to
    a multiple of k-1) and emit the tagged digit integers.
    """
    if not 3 <= k <= 6:
        raise ValueError("supported for 3 <= k <= 6 (carries break beyond)")
    if inst.m < 1:
        raise ValueError("need at least one clause")
    groups = k - 1
    n = inst.n_vars
    n_padded = n if n % groups == 0 else n + (groups - n % groups)
    per = n_padded // groups
    if per > 12:
        raise ValueError("group enumeration capped at 12 variables per group")
    m = inst.m
    integers: list[int] = []
    sizes: list[int] = []
    gvars: list[tuple[int, ...]] = []
    gassign: list[tuple[tuple[bool, ...], ...]] = []
    for g in range(groups):
        vars_g = tuple(range(g * per + 1, (g + 1) * per + 1))
        gset = frozenset(vars_g)
        assigns = []
        count = 0
        for bits in itertools.product((False, True), repeat=per):
            amap = dict(zip(vars_g, bits))
            digits = tuple(_clause_digit(c, gset, amap) for c in inst.clauses)
            tags = tuple(1 if t == g else 0 for t in range(groups))
            integers.append(_digits_to_int(digits + tags))
            assigns.append(bits)
            count += 1
        sizes.append(count)
        gvars.append(vars_g)
        gassign.append(tuple(assigns))
    integers.append(-repunit(m + groups))
    return KSumInstance(
        k=k,
        m=m,
        integers=tuple(integers),
        group_sizes=tuple(sizes),
        group_vars=tuple(gvars),
        assignments=tuple(gassign),
        source=inst,
    )


def sat_to_threesum(inst: OneInThreeSatInstance) -> ThreeSumInstance:
    """Two-group special case laid out with the A/B bookkeeping pinned by
    the external interface. Digits and integers coincide with sat_to_ksum
    at k = 3.
    """
    ks = sat_to_ksum(inst, 3)
    a_count, b_count = ks.group_sizes
    n_digits = ks.m
    vecs = []
    for value in ks.integers[:-1]:
        ds = []
        v = value // 100  # strip the two tag digits
        for _ in range(n_digits):
            ds.append(v % 10)
            v //= 10
        vecs.append(tuple(reversed(ds)))
    return ThreeSumInstance(
        m=ks.m,
        integers=ks.integers,
        a_count=a_count,
        b_count=b_count,
        vectors_a=tuple(vecs[:a_count]),
        vectors_b=tuple(vecs[a_count:]),
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
