"""Complementary vectors from 1-in-3 SAT, and the geometric one-bridge
decision instances that answer them.

Digit map (per half-assignment, per clause): the shared clause digit of
sat.clause_digit_blocks (true literals among the half's variables, capped
at 2) with 0 and 1 swapped, so the digit is 0 for exactly one, 1 for none,
2 for two or more. Two vectors u, v are complementary iff every digit of
both is binary and u_i + v_i = 1 for all i. The formula is satisfiable
(exactly one true literal per clause) iff some A-vector and B-vector are
complementary.

Tree construction: each vector becomes a root-to-leaf path whose edge
weights are (1/3)^(i-1) for digit 0, 0 for digit 1, and 4 for digit 2, so a
binary vector's path depth encodes its digit set in base 3 and a digit-2
vector overshoots every achievable pairing (4 > C = sum of all place
values). Terminals of binary paths sit on the x = 0 axis at heights
C - depth (tree 1) and depth (tree 2); everything else is held off-axis, so
a zero-length bridge exists iff two terminals coincide iff depths sum to C
iff the vectors are complementary. Anchor leaves at unit distance above/
below the path roots witness the leaf-distance threshold C + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..geometry import WeightedTree
from ..numerics import Number
from .sat import OneInThreeSatInstance, clause_digit_blocks

Vector = tuple[int, ...]


@dataclass(frozen=True)
class CovInstance:
    m: int
    vectors_a: tuple[Vector, ...]
    vectors_b: tuple[Vector, ...]
    assignments_a: tuple[tuple[bool, ...], ...]
    assignments_b: tuple[tuple[bool, ...], ...]
    half_a_vars: tuple[int, ...]   # 1-based variable ids covered by side A
    half_b_vars: tuple[int, ...]
    source: OneInThreeSatInstance | None = None


def sat_to_cov(inst: OneInThreeSatInstance) -> CovInstance:
    """Split variables into two halves (padding odd counts with a fresh
    unused variable) and emit one digit vector per half-assignment.
    """
    (vars_a, aa, da), (vars_b, ab, db) = clause_digit_blocks(inst, 2)

    def cov(vectors):
        return tuple(tuple((1, 0, 2)[d] for d in v) for v in vectors)

    return CovInstance(
        m=inst.m,
        vectors_a=cov(da),
        vectors_b=cov(db),
        assignments_a=aa,
        assignments_b=ab,
        half_a_vars=vars_a,
        half_b_vars=vars_b,
        source=inst,
    )


def vectors_complementary(u: Vector, v: Vector) -> bool:
    return all(
        du <= 1 and dv <= 1 and du + dv == 1
        for du, dv in zip(u, v, strict=True)
    )


def cov_brute_force(inst: CovInstance) -> tuple[int, int] | None:
    """First (ia, ib) with complementary vectors, minimizing ia then ib.
    Vectors containing a 2 can never participate and are skipped.
    """
    first_by_vector: dict[Vector, int] = {}
    for ib, v in enumerate(inst.vectors_b):
        if max(v, default=0) <= 1 and v not in first_by_vector:
            first_by_vector[v] = ib
    for ia, u in enumerate(inst.vectors_a):
        if max(u, default=0) > 1:
            continue
        want = tuple(1 - d for d in u)
        ib = first_by_vector.get(want)
        if ib is not None:
            return ia, ib
    return None


# ---------------------------------------------------------------------------
# Geometric instance


@dataclass(frozen=True)
class OneBridgeReductionParams:
    m: int
    c: Fraction            # sum of the m place values
    c1: Fraction            # required bridge length (0)
    c2: Fraction            # required leaf-to-leaf distance through the bridge
    depth_sums_a: tuple[Fraction, ...]
    depth_sums_b: tuple[Fraction, ...]


def _build_side(
    vectors: tuple[Vector, ...],
    steps: list[tuple[Fraction, Fraction, Fraction]],
    c: Fraction,
    sign: int,
) -> tuple[WeightedTree, list[Fraction]]:
    """One tree: anchor -- center -- star of digit paths; steps[i][d] is
    the edge weight of digit d at position i + 1.

    sign=1 builds the tree whose terminals sit at (0, c - depth) with the
    center at (1/2, c) and anchor above; sign=-1 mirrors it below: center
    (-1/2, 0), terminals (0, depth), anchor below.
    """
    base = c if sign > 0 else Fraction(0)
    half = sign * Fraction(1, 2)
    points: list[tuple] = [(half, base + sign), (half, base)]
    labels = ["anchor", "center"]
    edges: list[tuple[int, int, Number]] = [(0, 1, Fraction(1))]
    depths: list[Fraction] = []
    m = len(steps)
    for k, vec in enumerate(vectors):
        binary = max(vec, default=0) <= 1
        col = half if binary else half + sign * (k + 1)
        prev = 1  # center index
        depth = Fraction(0)
        for i, d in enumerate(vec, start=1):
            ell = steps[i - 1][d]
            depth += ell
            points.append((Fraction(0) if binary and i == m else col, base - sign * depth))
            labels.append(f"v{k}.{i}")
            edges.append((prev, len(points) - 1, ell))
            prev = len(points) - 1
        depths.append(depth)
    tree = WeightedTree(points, edges, labels=tuple(labels), explicit_weights=True)
    return tree, depths


def cov_to_one_bridge(
    inst: CovInstance,
) -> tuple[WeightedTree, WeightedTree, OneBridgeReductionParams]:
    """Geometric trees answering the complementary-vector question through
    the one-bridge decision with thresholds c1 = 0 and c2 = C + 2.
    """
    m = inst.m
    if m < 1:
        raise ValueError("need at least one digit position")
    c = Fraction(3, 2) * (1 - Fraction(1, 3) ** m)
    steps = [(Fraction(1, 3) ** i, Fraction(0), Fraction(4)) for i in range(m)]
    t1, depths_a = _build_side(inst.vectors_a, steps, c, 1)
    t2, depths_b = _build_side(inst.vectors_b, steps, c, -1)
    params = OneBridgeReductionParams(
        m=m,
        c=c,
        c1=Fraction(0),
        c2=c + 2,
        depth_sums_a=tuple(depths_a),
        depth_sums_b=tuple(depths_b),
    )
    return t1, t2, params


@dataclass(frozen=True)
class IffReport:
    sat: bool
    cov: bool
    bridge: bool

    @property
    def consistent(self) -> bool:
        return self.sat == self.cov == self.bridge


def verify_one_bridge_iff(inst: OneInThreeSatInstance) -> IffReport:
    """End-to-end agreement check: SAT brute force, vector brute force, and
    the geometric one-bridge decision must all answer alike.
    """
    from ..bridge import one_bridge_decide
    from .sat import one_in_three_sat_brute_force

    if inst.n_vars > 10 or inst.m > 6:
        raise ValueError("verification guarded to n_vars <= 10, m <= 6")
    sat = one_in_three_sat_brute_force(inst) is not None
    cov = sat_to_cov(inst)
    pair = cov_brute_force(cov)
    t1, t2, params = cov_to_one_bridge(cov)
    witness = one_bridge_decide(t1, t2, params.c1, params.c2)
    return IffReport(sat=sat, cov=pair is not None, bridge=witness is not None)
