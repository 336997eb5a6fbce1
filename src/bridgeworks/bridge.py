"""Single-bridge insertion between two disjoint embedded trees.

The merged diameter after adding bridge (p, q) is
max(diam(T1), diam(T2), ecc1(p) + |pq| + ecc2(q)); only the last term
depends on the bridge, so the solvers score f(p, q) = ecc1(p) + |pq| + ecc2(q)
and tie-break lexicographically on (value, p, q).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    Point,
    WeightedTree,
    build_distance_table,  # noqa: F401  unused; perfbench/tracing.py patches this name
    center_vertex,
    euclidean_distance,
    first_argmax,
    single_source_tree_distances,
    tree_eccentricities,
)
from .numerics import Number, TOLERANCE, backend_override, is_exact, values_equal


@dataclass(frozen=True)
class BridgeSolution:
    p: int
    q: int
    bridge_length: Number
    value: Number                 # ecc1(p) + |pq| + ecc2(q)
    merged_diameter: Number       # max(diam1, diam2, value)
    witness: tuple[int, int]      # farthest vertices (x in T1, y in T2)
    method: str                   # "exact" | "greedy"
    backend: str                  # "rational" | "double"


def _tree_is_exact(t: WeightedTree) -> bool:
    return all(is_exact(p.x) and is_exact(p.y) for p in t.points) and all(
        is_exact(w) for _, _, w in t.edges
    )


def _resolve_mode(*trees: WeightedTree) -> str:
    ov = backend_override()
    if ov == "double":
        return "double"
    exact_in = all(_tree_is_exact(t) for t in trees)
    if ov == "rational":
        if not exact_in:
            raise ValueError(
                "BRIDGEWORKS_BACKEND=rational requires exact coordinates/weights"
            )
        return "rational"
    return "rational" if exact_in else "double"


def _backend_of(value: Number) -> str:
    return "rational" if is_exact(value) else "double"


def _reported(x: Number) -> Number:
    """x as a solver reports it: a float under BRIDGEWORKS_BACKEND=double,
    which may otherwise leave exact values (a dominating tree diameter,
    exact eccentricities) in the report."""
    return float(x) if backend_override() == "double" else x


def _eccentricity(t: WeightedTree, v: int) -> tuple[Number, int]:
    """ecc(v) and the lex-min vertex farthest from v, from one sweep.

    Reported eccentricities come from here: a tree_eccentricities entry
    has the same value but may differ in type (5 vs Fraction(5)), and
    reports print the two differently.
    """
    return first_argmax(single_source_tree_distances(t, v))


def solve_exact(
    t1: WeightedTree,
    t2: WeightedTree,
    *,
    threads: int = 1,
) -> BridgeSolution:
    """Optimal bridge by full scan over vertex pairs, O(n1 * n2) after
    O(n1 + n2) tree sweeps. `threads` (>= 1) splits the float scan; on a
    2-vCPU host a second thread pays only from n of about 2000 up."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    mode = _resolve_mode(t1, t2)
    ecc1 = tree_eccentricities(t1)
    ecc2 = tree_eccentricities(t2)

    if mode == "double":
        p, q, val = _scan_double(t1, t2, ecc1.ecc, ecc2.ecc, threads)
        blen = math.hypot(
            float(t1.points[p].x) - float(t2.points[q].x),
            float(t1.points[p].y) - float(t2.points[q].y),
        )
    else:
        p, q, blen = _scan_exact(t1, t2, ecc1.ecc, ecc2.ecc)
    ecc_p, x = _eccentricity(t1, p)
    ecc_q, y = _eccentricity(t2, q)
    if mode == "rational":
        # the scan's minimum, summed from eccentricities of the report's type
        val = ecc_p + blen + ecc_q

    merged = _reported(max(ecc1.diameter, ecc2.diameter, val))
    return BridgeSolution(
        p=p,
        q=q,
        bridge_length=blen,
        value=val,
        merged_diameter=merged,
        witness=(x, y),
        method="exact",
        backend=_backend_of(val),
    )


def _scan_exact(t1, t2, e1, e2):
    pts1, pts2 = t1.points, t2.points
    best = None
    for p in range(len(pts1)):
        a = pts1[p]
        ep = e1[p]
        for q in range(len(pts2)):
            w = euclidean_distance(a, pts2[q])
            v = ep + w + e2[q]
            if best is None or v < best[0]:
                best = (v, p, q, w)
    _, p, q, w = best
    return p, q, w


def _scan_double(t1, t2, ecc1, ecc2, threads):
    x1, y1 = _float_xy(t1.points)
    x2, y2 = _float_xy(t2.points)
    e1 = np.array([float(e) for e in ecc1])
    e2 = np.array([float(e) for e in ecc2])

    def values(lo: int, hi: int) -> np.ndarray:
        d = np.hypot(x1[lo:hi, None] - x2, y1[lo:hi, None] - y2)
        d += e1[lo:hi, None]
        d += e2
        return d

    val, p, q = _chunked_argmin(len(x1), len(x2), values, threads)
    return p, q, val


# Rows per chunk of a float scan are chosen so that each temporary holds
# about this many float64 entries (64 KiB): it stays in cache, and a scan's
# memory does not grow with n1 * n2.
_CHUNK_ENTRIES = 2**13


def _float_xy(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([float(p.x) for p in points]),
        np.array([float(p.y) for p in points]),
    )


def _chunked_argmin(n1: int, n2: int, values, threads: int = 1) -> tuple[float, int, int]:
    """Lex-min (value, row, column) of the n1 x n2 matrix whose rows lo:hi
    values(lo, hi) computes, one chunk of rows at a time. With threads > 1,
    each of up to `threads` workers scans every threads-th chunk of the
    same sequence, so memory stays one chunk per worker."""
    step = max(1, _CHUNK_ENTRIES // n2)

    def chunk_min(lo: int) -> tuple[float, int, int]:
        vals = values(lo, min(lo + step, n1))
        r, c = divmod(int(np.argmin(vals)), n2)   # first occurrence = lex-min
        return (float(vals[r, c]), lo + r, c)

    starts = range(0, n1, step)
    workers = min(threads, len(starts))
    if workers <= 1:
        return min(map(chunk_min, starts))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return min(ex.map(lambda k: min(map(chunk_min, starts[k::workers])), range(workers)))


def approx_greedy(t1: WeightedTree, t2: WeightedTree) -> BridgeSolution:
    """Bridge at the bichromatic closest pair.

    Guarantee: merged-diameter value at most twice the optimum. The closest
    pair minimizes |pq|, and any bridge value is at least max(r1, r2) with
    r_i the tree radius, which bounds the eccentricity overshoot. Backend
    as in solve_exact.
    """
    _resolve_mode(t1, t2)  # raises when rational is forced on inexact trees
    p, q, blen = bichromatic_closest_pair(t1.points, t2.points)
    ecc1, x = _eccentricity(t1, p)
    ecc2, y = _eccentricity(t2, q)
    val = ecc1 + blen + ecc2
    # merged diameter needs the component diameters too
    diam1 = tree_eccentricities(t1).diameter
    diam2 = tree_eccentricities(t2).diameter
    merged = _reported(max(diam1, diam2, val))
    blen, val = _reported(blen), _reported(val)
    return BridgeSolution(
        p=p,
        q=q,
        bridge_length=blen,
        value=val,
        merged_diameter=merged,
        witness=(x, y),
        method="greedy",
        backend=_backend_of(val),
    )


def bichromatic_closest_pair(
    pts1: Sequence[Point],
    pts2: Sequence[Point],
) -> tuple[int, int, Number]:
    """Closest pair across the two point sets; ties by lex-min (i, j).

    Exact input takes the exact quadratic scan, float input a vectorized
    scan in chunks of rows with bounded memory; on float input both compute
    the same IEEE dx*dx + dy*dy, so they agree.
    """
    if all(is_exact(p.x) and is_exact(p.y) for p in (*pts1, *pts2)):
        return _closest_pair_scan(pts1, pts2)
    x1, y1 = _float_xy(pts1)
    x2, y2 = _float_xy(pts2)

    def squared(lo: int, hi: int) -> np.ndarray:
        dx = x1[lo:hi, None] - x2
        dy = y1[lo:hi, None] - y2
        dx *= dx
        dy *= dy
        dx += dy
        return dx

    _, i, j = _chunked_argmin(len(x1), len(x2), squared)
    return i, j, euclidean_distance(pts1[i], pts2[j])


def _closest_pair_scan(
    pts1: Sequence[Point], pts2: Sequence[Point]
) -> tuple[int, int, Number]:
    """Reference O(n1 * n2) scan on squared distances, in the input's arithmetic."""
    best = None
    for i, a in enumerate(pts1):
        for j, b in enumerate(pts2):
            dx = a.x - b.x
            dy = a.y - b.y
            d2 = dx * dx + dy * dy
            if best is None or d2 < best[0]:
                best = (d2, i, j)
    _, i, j = best
    return i, j, euclidean_distance(pts1[i], pts2[j])


# ---------------------------------------------------------------------------
# Decision variant


class DecisionWitness(NamedTuple):
    p: int
    q: int
    x: int
    y: int


def _leaves(t: WeightedTree) -> list[int]:
    if t.n == 1:
        return [0]
    return [v for v in range(t.n) if len(t.adjacency[v]) == 1]


def one_bridge_decide(
    t1: WeightedTree,
    t2: WeightedTree,
    c1: Number,
    c2: Number,
) -> DecisionWitness | None:
    """Is there a bridge (p, q) with |pq| = c1 and leaves x, y such that
    d1(x, p) + c1 + d2(q, y) = c2?  Returns the lex-min witness or None.

    Exact inputs (backend as in solve_exact, so forcing rational on inexact
    trees raises ValueError; exact c1 and c2) use exact equality;
    otherwise relative tolerance TOLERANCE. Only the endpoints of
    scanned candidates are swept, and each swept q gets one sorted index
    of T2's leaf distances, searched by a bisect window per leaf of T1.
    """
    exact = _resolve_mode(t1, t2) == "rational" and is_exact(c1) and is_exact(c2)
    num = (lambda v: v) if exact else float

    # candidate bridge endpoints with |pq| = c1
    if exact and c1 == 0:
        # zero-length bridge means coincident points: hash on coordinates
        by_coord: dict = {}
        for q in range(t2.n):
            by_coord.setdefault(t2.points[q], []).append(q)
        cand = [(p, q) for p in range(t1.n) for q in by_coord.get(t1.points[p], ())]
    else:
        cand = [
            (p, q)
            for p in range(t1.n)
            for q in range(t2.n)
            if values_equal(euclidean_distance(t1.points[p], t2.points[q]), c1)
        ]

    leaves1 = _leaves(t1)
    leaves2 = _leaves(t2)
    need = num(c2) - num(c1)
    eps = 0 if exact else TOLERANCE * max(1.0, abs(float(c2)))
    rows1: dict[int, list[Number]] = {}
    index2: dict[int, list[tuple[Number, int]]] = {}
    for p, q in cand:
        if p not in rows1:
            d1 = single_source_tree_distances(t1, p)
            rows1[p] = [num(d1[x]) for x in leaves1]
        if q not in index2:
            d2 = single_source_tree_distances(t2, q)
            index2[q] = sorted((num(d2[y]), y) for y in leaves2)
        table = index2[q]
        for x, dx in zip(leaves1, rows1[p]):
            rem = need - dx
            lo = bisect_left(table, (rem - eps, -1))
            hi = bisect_right(table, (rem + eps, t2.n))
            if lo < hi:
                return DecisionWitness(p, q, x, min(y for _, y in table[lo:hi]))
    return None


# ---------------------------------------------------------------------------
# Forest connection


@dataclass(frozen=True)
class ForestConnection:
    bridges: tuple[tuple[int, int, int, int], ...]  # (tree_i, u, tree_j, v)
    diameter: Number
    hub: int


def connect_forest(trees: Sequence[WeightedTree]) -> ForestConnection:
    """Connect k >= 2 disjoint trees with k-1 bridges into one tree.

    Strategy: try each tree as the hub; bridge every other tree's center to
    the hub's center; keep the hub minimizing the merged diameter (ties to
    the lower hub index). For two trees this is center-to-center, whose
    value r1 + |c1 c2| + r2 is at most twice the optimal bridge value.
    Backend as in solve_exact.
    """
    k = len(trees)
    if k < 2:
        raise ValueError("need at least two trees")
    _resolve_mode(*trees)  # raises when rational is forced on inexact trees
    eccs = [tree_eccentricities(t) for t in trees]
    centers = [center_vertex(e) for e in eccs]
    radii = [_eccentricity(t, c)[0] for t, c in zip(trees, centers)]
    diams = [e.diameter for e in eccs]

    best = None
    for h in range(k):
        offs = [
            euclidean_distance(trees[i].points[centers[i]], trees[h].points[centers[h]])
            if i != h
            else 0
            for i in range(k)
        ]
        # merged graph is a star of trees rooted at center(h)
        arms = [radii[i] + offs[i] for i in range(k)]
        top = sorted(arms, reverse=True)
        cross = top[0] + top[1]
        diam = max(max(diams), cross)
        if best is None or (diam, h) < (best[0], best[1]):
            best = (diam, h)
    diam, h = best
    bridges = tuple(
        (i, centers[i], h, centers[h]) for i in range(k) if i != h
    )
    return ForestConnection(bridges=bridges, diameter=_reported(diam), hub=h)


# ---------------------------------------------------------------------------
# Worst-case instance for the greedy bound


def greedy_tightness_instance(
    n: Number = 1000, eps: Number = Fraction(1, 100)
) -> tuple[WeightedTree, WeightedTree]:
    """Two 3-vertex paths on which the greedy bridge approaches ratio 2.

    Both trees are horizontal paths with explicit edge weights n. The unique
    closest pair joins the far ends (length 1 - eps), scoring 4n + 1 - eps,
    while the optimal bridge joins the middles, scoring 2n + 1.
    """
    if eps <= 0 or eps >= 1:
        raise ValueError("eps must be in (0, 1)")
    t1 = WeightedTree(
        [(-10, 0), (0, 0), (10, 0)],
        [(0, 1, n), (1, 2, n)],
        labels=("a", "b", "c"),
        explicit_weights=True,
    )
    t2 = WeightedTree(
        [(-10, -1), (0, -1), (10, -1 + eps)],
        [(0, 1, n), (1, 2, n)],
        labels=("d", "e", "f"),
        explicit_weights=True,
    )
    return t1, t2
