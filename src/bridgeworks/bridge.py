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
    """Optimal bridge, scoring only the vertex pairs that can still win.

    A pair scores ecc1(p) + |pq| + ecc2(q) >= ecc1(p) + ecc2(q). The scan
    orders each tree's vertices by (eccentricity, index), takes the two
    centres' score as the incumbent, and scores a pair only while
    ecc1(p) + ecc2(q) is at most the incumbent (the threshold algorithm's
    stopping rule), keeping ties for the lex-min (value, p, q). After
    O(n1 + n2) tree sweeps and the sorts, the cost is the number of pairs
    scored: about 1% of n1 * n2 on the benchmark's float trees and on
    collinear Fraction trees, and all of them, O(n1 * n2), when the trees
    lie far apart. `threads` (>= 1) splits the float scan
    once its pairs fill two or more chunks; on a 2-vCPU host a second
    thread pays only from n of about 2000 up."""
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


def _scan_double(t1, t2, ecc1, ecc2, threads):
    x1, y1 = _float_xy(t1.points)
    x2, y2 = _float_xy(t2.points)
    e1, e2 = _floats(ecc1), _floats(ecc2)

    def values(lo: int, hi: int) -> np.ndarray:
        return _scores(x1[lo:hi, None] - x2, y1[lo:hi, None] - y2, e1[lo:hi, None], e2)

    # A score is fl(fl(hypot + e1) + e2) >= fl(e1 + e2) (monotone
    # rounding), so with columns sorted by e2, row p keeps the prefix with
    # fl(e1[p] + e2) <= the centres' score.
    order = np.argsort(e2, kind="stable")
    x2s, y2s, e2s = x2[order], y2[order], e2[order]

    def pair_values(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return _scores(x1[i] - x2s[j], y1[i] - y2s[j], e1[i], e2s[j])

    centres = np.array([np.argmin(e1)]), np.zeros(1, dtype=np.intp)
    inc = pair_values(*centres)[0]
    hi = np.searchsorted(e2s, _widened(inc) - e1, side="right")
    if _prunes(hi.sum(), x1, y1, x2, y2, e1, e2):
        val, p, q = _windowed_argmin(np.zeros_like(hi), hi, order, pair_values, threads)
    else:
        val, p, q = _chunked_argmin(len(x1), len(x2), values, threads)
    return p, q, val


# Rows per chunk of a float scan are chosen so that each temporary holds
# about this many float64 entries (64 KiB): it stays in cache, and a scan's
# memory does not grow with n1 * n2.
_CHUNK_ENTRIES = 2**13


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


def _prunes(kept: int, x1, y1, x2, y2, *more) -> bool:
    """Whether a windowed scan of `kept` pairs beats the full scan: a
    flat-indexed pair costs about twice a broadcast one, and non-finite
    input (whose bounds prove nothing) always takes the full scan."""
    return 2 * kept < len(x1) * len(x2) and all(
        np.isfinite(a).all() for a in (x1, y1, x2, y2, *more)
    )


def _widened(bound: float) -> float:
    """A float above `bound` by a few ulps. A pair whose float lower bound
    a + b is at most `bound` has b <= fl(_widened(bound) - a), so a sorted
    search with the widened value keeps every such pair (and perhaps a few
    more, which are scored and lose)."""
    return bound + abs(bound) * 2.0**-50


def _min_over_chunks(chunk_min, chunks: Sequence, threads: int):
    """min(map(chunk_min, chunks)); with threads > 1 and two or more chunks,
    each of up to `threads` workers takes every threads-th chunk."""
    workers = min(threads, len(chunks))
    if workers <= 1:
        return min(map(chunk_min, chunks))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return min(ex.map(lambda k: min(map(chunk_min, chunks[k::workers])), range(workers)))


def _chunked_argmin(n1: int, n2: int, values, threads: int = 1) -> tuple[float, int, int]:
    """Lex-min (value, row, column) of the n1 x n2 matrix whose rows lo:hi
    values(lo, hi) computes, one chunk of rows at a time, so memory stays
    one chunk per worker."""
    step = max(1, _CHUNK_ENTRIES // n2)

    def chunk_min(lo: int) -> tuple[float, int, int]:
        vals = values(lo, min(lo + step, n1))
        r, c = divmod(int(np.argmin(vals)), n2)   # first occurrence = lex-min
        return (float(vals[r, c]), lo + r, c)

    return _min_over_chunks(chunk_min, range(0, n1, step), threads)


def _windowed_argmin(lo, hi, col_ids, values, threads: int = 1) -> tuple[float, int, int]:
    """Lex-min (value, i, col_ids[j]) over the pairs with lo[i] <= j < hi[i];
    values(i, j) scores flat index arrays of them. Rows go into chunks of
    about _CHUNK_ENTRIES pairs (a wider row is a chunk of its own), so
    memory stays one chunk per worker."""
    width = hi - lo
    live = np.flatnonzero(width)
    start = np.cumsum(width[live]) - width[live]
    chunks = np.split(live, np.flatnonzero(np.diff(start // _CHUNK_ENTRIES)) + 1)

    def chunk_min(rows: np.ndarray) -> tuple[float, int, int]:
        w = width[rows]
        i = np.repeat(rows, w)
        j = np.arange(len(i)) - np.repeat(np.cumsum(w) - w - lo[rows], w)
        vals = values(i, j)
        best = vals.min()
        hits = np.flatnonzero(vals == best)
        return (float(best), *min(zip(i[hits].tolist(), col_ids[j[hits]].tolist())))

    return _min_over_chunks(chunk_min, chunks, threads)


def approx_greedy(t1: WeightedTree, t2: WeightedTree) -> BridgeSolution:
    """Bridge at the bichromatic closest pair.

    Guarantee: merged-diameter value at most twice the optimum. The closest
    pair minimizes |pq|, and any bridge value is at least max(r1, r2) with
    r_i the tree radius, which bounds the eccentricity overshoot. Backend
    as in solve_exact. Cost: O(n1 + n2) tree sweeps plus the closest pair,
    which scores only the pairs within reach in x: output-sensitive, and
    O(n1 * n2) in the worst case.
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

    pts2 is sorted by x, the incumbent is the closest of each point's
    nearest neighbours in x, and a pair is scored only when dx * dx is at
    most the incumbent squared distance. Exact input does this in exact
    arithmetic on squared distances, with no square root; float input
    takes numpy chunks with bounded memory and computes the same IEEE
    dx*dx + dy*dy, so both agree with a full scan. The cost is
    O((n1 + n2) log n2) plus the pairs scored, O(n1 * n2) in the worst
    case (every point within the incumbent distance in x). An empty side
    raises ValueError.
    """
    for name, pts in (("pts1", pts1), ("pts2", pts2)):
        if len(pts) == 0:
            raise ValueError(f"closest pair needs a point on each side; {name} is empty")
    if all(is_exact(p.x) and is_exact(p.y) for p in (*pts1, *pts2)):
        i, j = _closest_pair_exact(pts1, pts2)
    else:
        i, j = _closest_pair_double(pts1, pts2)
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


def _closest_pair_double(pts1: Sequence[Point], pts2: Sequence[Point]) -> tuple[int, int]:
    x1, y1 = _float_xy(pts1)
    x2, y2 = _float_xy(pts2)

    def squared(lo: int, hi: int) -> np.ndarray:
        return _squares(x1[lo:hi, None] - x2, y1[lo:hi, None] - y2)

    order = np.argsort(x2, kind="stable")
    x2s, y2s = x2[order], y2[order]

    def pair_squared(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return _squares(x1[i] - x2s[j], y1[i] - y2s[j])

    # fl(dx*dx) <= inc needs |x1 - x2| <= sqrt(inc) * (1 + 2**-52); a
    # float x2 inside that real interval lies between the rounded ends
    at = np.searchsorted(x2s, x1)
    near = np.clip(np.concatenate([at - 1, at]), 0, len(x2s) - 1)
    inc = pair_squared(np.tile(np.arange(len(x1)), 2), near).min()
    reach = math.sqrt(inc) * (1 + 2.0**-48)
    lo = np.searchsorted(x2s, x1 - reach, side="left")
    hi = np.searchsorted(x2s, x1 + reach, side="right")
    if _prunes((hi - lo).sum(), x1, y1, x2, y2):
        _, i, j = _windowed_argmin(lo, hi, order, pair_squared)
    else:
        _, i, j = _chunked_argmin(len(x1), len(x2), squared)
    return i, j


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
