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
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    Point,
    WeightedTree,
    _non_finite_row,
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


def solve_exact(t1: WeightedTree, t2: WeightedTree) -> BridgeSolution:
    """Optimal bridge, scoring only the vertex pairs that can still win.

    A pair scores ecc1(p) + |pq| + ecc2(q). The scan takes the two
    centres' score as the incumbent and scores a pair only when a lower
    bound on its score is at most the incumbent, keeping ties for the
    lex-min (value, p, q).
    - Exact input orders each tree's vertices by (eccentricity, index)
      and bounds a pair by ecc1(p) + ecc2(q) (the threshold algorithm's
      stopping rule). It scores about 1% of n1 * n2 on collinear Fraction
      trees, and all of them, O(n1 * n2), when the trees lie far apart.
    - Float input cuts T2 into blocks of 128 vertices in (x, y) order and
      bounds p against a block by ecc1(p) + the block's least ecc2 + the
      larger axis distance from p to the block's bounding box. That costs
      n1 * n2 / 128 bounds plus 128 scores per (p, block) kept: about 3%
      of n1 * n2 scored on the benchmark's trees, and about 0.01% on
      2000-vertex trees side by side or 10**5 apart. Ties at the minimum
      everywhere still make it O(n1 * n2).
    The sweeps and sorts add O(n1 + n2) and O(n log n)."""
    mode = _resolve_mode(t1, t2)
    ecc1 = tree_eccentricities(t1)
    ecc2 = tree_eccentricities(t2)

    if mode == "double":
        p, q, val = _scan_double(t1, t2, ecc1.ecc, ecc2.ecc)
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


def _float_bound(x: Number) -> float:
    """float(x), or inf past the float range, where a float sum with x
    would overflow anyway."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _scan_exact(t1, t2, e1, e2):
    """Lex-min (ep + |pq| + eq, p, q) in the input's arithmetic, walking
    rows and columns by (eccentricity, index) and each row only while
    ep + eq can still reach the incumbent. An irrational |pq| makes the
    score the float fl(fl(ep + |pq|) + eq), at least fl(ep + eq) since
    rounding is monotone, so a pair is cut only when both ep + eq and
    fl(ep + eq) exceed the incumbent."""
    pts1, pts2 = t1.points, t2.points
    f1 = [_float_bound(e) for e in e1]
    f2 = [_float_bound(e) for e in e2]
    cols = sorted(range(len(pts2)), key=lambda q: (e2[q], q))
    best = None
    for p in sorted(range(len(pts1)), key=lambda p: (e1[p], p)):
        a, ep, fp = pts1[p], e1[p], f1[p]
        for k, q in enumerate(cols):
            eq = e2[q]
            if best is not None and ep + eq > best[0] and fp + f2[q] > best[0]:
                if k == 0:
                    # later rows have ep (and fp) at least as large
                    _, p, q, w = best
                    return p, q, w
                break
            w = euclidean_distance(a, pts2[q])
            cand = (ep + w + eq, p, q, w)
            if best is None or cand < best:
                best = cand
    _, p, q, w = best
    return p, q, w


def _scan_double(t1, t2, ecc1, ecc2):
    x1, y1 = _float_xy(t1.points)
    x2, y2 = _float_xy(t2.points)
    val, p, q = _blocked_argmin(x1, y1, x2, y2, _floats(ecc1), _floats(ecc2))
    return p, q, val


# Rows per chunk of a float scan are chosen so that each temporary holds
# about this many float64 entries (64 KiB): it stays in cache, and a scan's
# memory does not grow with n1 * n2.
_CHUNK_ENTRIES = 2**13

# Points per column block of a float scan; each block has one bound per row.
_BLOCK = 128


def _scores(dx, dy, e1, e2) -> np.ndarray:
    """fl(fl(hypot(dx, dy) + e1) + e2), the float scans' bridge score."""
    d = np.hypot(dx, dy)
    d += e1
    d += e2
    return d


def _squares(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """fl(fl(dx*dx) + fl(dy*dy)), in place in dx."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _floats(values) -> np.ndarray:
    """float64 array of float(v) for each v, without a float() call per v."""
    return np.fromiter(values, dtype=np.float64)


def _float_xy(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    xy = _floats(chain.from_iterable(points))
    return xy[0::2].copy(), xy[1::2].copy()


def _blocked_argmin(x1, y1, x2, y2, a=None, b=None) -> tuple[float, int, int]:
    """Lex-min (s, i, j) over every pair of a point i of set 1 and a point j
    of set 2, where s is the bridge score `_scores` of dx, dy, a[i], b[j]
    with weights a, b, and the squared distance `_squares` without.

    Set 2 is sorted by (x, y), padded to whole blocks by repeating its last
    point (a repeat only rescores a real pair) and cut into blocks of
    _BLOCK points. With dx, dy the distances from point i to a block's
    bounding box along x and y, the bound of row i and the block is
    a[i] + max(dx, dy) + the block's least b with weights, and
    dx*dx + dy*dy without. A row and a block are scored only when their
    bound is at most the incumbent: the best of the pair of least weights
    (with weights) or of each row's nearest points in x (without). Rows go
    in chunks of about _CHUNK_ENTRIES bounds and the pairs kept are scored
    in pieces of about _CHUNK_ENTRIES, so memory stays one chunk and one
    piece at a time, whatever n1 * n2.
    """
    n1 = len(x1)
    order = np.lexsort((y2, x2))
    order = np.append(order, np.repeat(order[-1], -len(order) % _BLOCK))
    xs, ys = x2[order], y2[order]
    by = ys.reshape(-1, _BLOCK)
    x_lo, x_hi, y_lo, y_hi = xs[::_BLOCK], xs[_BLOCK - 1::_BLOCK], by.min(axis=1), by.max(axis=1)
    n_blocks = len(x_lo)

    if a is None:
        at = np.searchsorted(xs, x1)
        i, j = np.tile(np.arange(n1), 2), np.clip(np.concatenate([at - 1, at]), 0, len(xs) - 1)
    else:
        bs = b[order]
        b_min = bs.reshape(-1, _BLOCK).min(axis=1)
        i, j = np.argmin(a), np.argmin(bs)

    def score(i, j):
        dx, dy = x1[i] - xs[j], y1[i] - ys[j]
        return _squares(dx, dy) if a is None else _scores(dx, dy, a[i], bs[j])

    inc = score(i, j).min()
    rows = max(1, _CHUNK_ENTRIES // n_blocks)
    pairs = max(1, _CHUNK_ENTRIES // _BLOCK)

    def piece_min(i: np.ndarray, k: np.ndarray) -> tuple[float, int, int]:
        j = k[:, None] * _BLOCK + np.arange(_BLOCK)
        vals = score(i[:, None], j)
        best = vals.min()
        r, c = np.nonzero(vals == best)
        return (float(best), *min(zip(i[r].tolist(), order[j[r, c]].tolist())))

    def chunk_min(lo: int) -> tuple[float, int, int]:
        # d is at most the float score of every pair of row i with the
        # block, so it needs no slack and keeps every tie of the minimum.
        # Rounding is monotone: a box distance is at most the pair's
        # |fl(x1 - x2)| (or y), a hypot within one ulp is at least the
        # larger of the two (a float below the real hypot), and each
        # square or sum in d rounds operands no larger than the score's.
        x, y = x1[lo:lo + rows, None], y1[lo:lo + rows, None]
        dx = np.maximum(np.maximum(x_lo - x, x - x_hi), 0.0)
        dy = np.maximum(np.maximum(y_lo - y, y - y_hi), 0.0)
        d = dx * dx + dy * dy if a is None else np.maximum(dx, dy) + a[lo:lo + rows, None] + b_min
        i, k = np.divmod(np.flatnonzero(d <= inc), n_blocks)
        i += lo
        return min((piece_min(i[s:s + pairs], k[s:s + pairs]) for s in range(0, len(i), pairs)),
                   default=(math.inf, n1, 0))

    return min(map(chunk_min, range(0, n1, rows)))


def approx_greedy(t1: WeightedTree, t2: WeightedTree) -> BridgeSolution:
    """Bridge at the bichromatic closest pair.

    Guarantee: merged-diameter value at most twice the optimum. The closest
    pair minimizes |pq|, and any bridge value is at least max(r1, r2) with
    r_i the tree radius, which bounds the eccentricity overshoot. Backend
    as in solve_exact. Cost: O(n1 + n2) tree sweeps plus the closest pair,
    which scores only the pairs its bound cannot rule out:
    output-sensitive, and O(n1 * n2) in the worst case.
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

    The incumbent is the closest of each point's nearest neighbours in x
    of pts2. Exact input sorts pts2 by x and scores a pair only when
    dx * dx is at most the incumbent squared distance, in exact arithmetic
    with no square root: O(n1 * n2) in the worst case, every point within
    reach in x. Float input cuts pts2 into blocks of 128 points in (x, y)
    order and scores a point against a block only when its squared
    distance to the block's bounding box is at most the incumbent, in
    numpy chunks of bounded memory. It computes the same IEEE
    dx*dx + dy*dy as a full scan, so the two agree. That costs
    n1 * n2 / 128 bounds plus 128 scores per (point, block) kept: under
    0.25% of n1 * n2 scored on 2000-point sets side by side, 10**5 apart
    in x or 1000 apart in y, and O(n1 * n2) when every pair ties at the
    minimum. An empty side, or a float coordinate that is NaN or
    infinite, raises ValueError naming the side.
    """
    exact = all(is_exact(p.x) and is_exact(p.y) for p in (*pts1, *pts2))
    xy: list[np.ndarray] = []
    for name, pts in (("pts1", pts1), ("pts2", pts2)):
        if len(pts) == 0:
            raise ValueError(f"closest pair needs a point on each side; {name} is empty")
        if not exact:
            # only a float is NaN or infinite; the row loop runs only to name it
            xy += _float_xy(pts)
            if not np.isfinite(xy[-2:]).all():
                bad = _non_finite_row(pts)
                raise ValueError(f"{name}[{bad}] has a non-finite coordinate in {tuple(pts[bad])}")
    if exact:
        i, j = _closest_pair_exact(pts1, pts2)
    else:
        _, i, j = _blocked_argmin(*xy)
    return i, j, euclidean_distance(pts1[i], pts2[j])


def _closest_pair_exact(pts1: Sequence[Point], pts2: Sequence[Point]) -> tuple[int, int]:
    order = sorted(range(len(pts2)), key=lambda j: pts2[j].x)
    xs = [pts2[j].x for j in order]

    def key(i: int, j: int):
        dx = pts1[i].x - pts2[j].x
        dy = pts1[i].y - pts2[j].y
        return (dx * dx + dy * dy, i, j)

    at = [bisect_left(xs, a.x) for a in pts1]
    best = min(key(i, order[k]) for i, k0 in enumerate(at)
               for k in (k0 - 1, k0) if 0 <= k < len(xs))
    for i, a in enumerate(pts1):
        for walk in (range(at[i], len(xs)), range(at[i] - 1, -1, -1)):
            for k in walk:
                dx = xs[k] - a.x
                if dx * dx > best[0]:
                    break
                best = min(best, key(i, order[k]))
    return best[1], best[2]


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
