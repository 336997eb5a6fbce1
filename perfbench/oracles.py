"""Independent oracles for checking CLI answers.

None of this calls bridgeworks. Eccentricities come from the two-sweep
identity ecc(v) = max(d(v, a), d(v, b)) for a diameter pair (a, b), which
holds for trees with nonnegative weights; bridge optima are numpy scans over
those eccentricities; twin values are re-scored by Dijkstra on the merged
graph; the twin optimum on exact inputs is a brute force in integers after
scaling every length by one common denominator.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import numpy as np

from workloads import Number, Tree, segment_length

TOL = 1e-9


def close(a: Number, b: Number) -> bool:
    """Exact equality for exact operands, relative tolerance otherwise."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= TOL * max(1.0, abs(fa), abs(fb))


def at_most(a: Number, b: Number) -> bool:
    """a <= b, exactly for exact operands, with tolerance otherwise."""
    return a <= b or close(a, b)


def distances_from(adj, src: int) -> list[Number]:
    dist: list = [None] * len(adj)
    dist[src] = 0
    stack = [src]
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + w
                stack.append(v)
    return dist


def _argmax(vals) -> int:
    return max(range(len(vals)), key=lambda i: (vals[i], -i))


def eccentricities(tree: Tree) -> tuple[list[Number], Number]:
    """Every vertex's eccentricity and the diameter, in three sweeps."""
    adj = tree.adjacency()
    a = _argmax(distances_from(adj, 0))
    da = distances_from(adj, a)
    b = _argmax(da)
    db = distances_from(adj, b)
    return [max(x, y) for x, y in zip(da, db)], da[b]


def tree_diameter(adj) -> Number:
    d0 = distances_from(adj, 0)
    return max(distances_from(adj, _argmax(d0)))


# ---------------------------------------------------------------------------
# Single bridge and forest


def bridge_oracle(t1: Tree, t2: Tree) -> dict:
    """Optimum of ecc1(p) + |pq| + ecc2(q) over float trees, every (p, q)
    within tolerance of it, and likewise for the closest pair."""
    ecc1, diam1 = eccentricities(t1)
    ecc2, diam2 = eccentricities(t2)
    x1 = np.array([[float(x), float(y)] for x, y in t1.points])
    x2 = np.array([[float(x), float(y)] for x, y in t2.points])
    w = np.hypot(x1[:, None, 0] - x2[None, :, 0], x1[:, None, 1] - x2[None, :, 1])
    vals = np.array(ecc1, dtype=float)[:, None] + w + np.array(ecc2, dtype=float)[None, :]
    opt, closest = float(vals.min()), float(w.min())
    return {
        "ecc1": ecc1, "ecc2": ecc2, "diam1": diam1, "diam2": diam2,
        "opt": opt,
        "near_opt": np.argwhere(vals <= opt + TOL * max(1.0, opt)).tolist(),
        "closest": closest,
        "closest_pair": np.argwhere(w <= closest + TOL * max(1.0, closest)).tolist(),
    }


def merged_adjacency(trees: list[Tree], bridges) -> list[list[tuple[int, Number]]]:
    """Disjoint union of the trees plus (tree_i, u, tree_j, v) bridges of
    Euclidean length; vertex u of tree i is offset[i] + u."""
    offset = [0]
    for t in trees:
        offset.append(offset[-1] + t.n)
    adj: list[list[tuple[int, Number]]] = []
    for k, t in enumerate(trees):
        adj += [[(offset[k] + v, w) for v, w in row] for row in t.adjacency()]
    for i, u, j, v in bridges:
        w = segment_length(trees[i].points[u], trees[j].points[v])
        a, b = offset[i] + u, offset[j] + v
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


# ---------------------------------------------------------------------------
# Twin bridges


def _dijkstra(adj, src: int) -> list[Number]:
    dist: list = [None] * len(adj)
    dist[src] = 0
    heap = [(0, src)]
    done = [False] * len(adj)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def twin_rescore(t1: Tree, t2: Tree, b1, b2) -> Number:
    """Constrained diameter of T1 u T2 u {b1, b2} from all-pairs Dijkstra:
    every cross pair counts; a same-tree pair counts only when the merged
    distance is strictly below its in-tree distance."""
    n1 = t1.n
    adj = merged_adjacency([t1, t2], [(0, b1[0], 1, b1[1]), (0, b2[0], 1, b2[1])])
    dist = [_dijkstra(adj, s) for s in range(len(adj))]
    value = max(dist[a][n1 + b] for a in range(n1) for b in range(t2.n))
    for base, t in ((0, t1), (n1, t2)):
        tadj = t.adjacency()
        for a in range(t.n):
            own = distances_from(tadj, a)
            for b in range(a + 1, t.n):
                d = dist[base + a][base + b]
                if d < own[b] and d > value:
                    value = d
    return value


def _all_pairs(tree: Tree) -> list[list[Number]]:
    adj = tree.adjacency()
    return [distances_from(adj, s) for s in range(tree.n)]


def twin_pair_values(t1: Tree, t2: Tree):
    """Constrained diameter of every vertex-disjoint bridge pair
    ((p1, q1), (p2, q2)), p1 < p2, of an exact instance, computed in int64
    after scaling all lengths by the least common denominator: the pairs as
    a list, their values as an array, and the scale."""
    D1, D2 = _all_pairs(t1), _all_pairs(t2)
    W = [[segment_length(a, b) for b in t2.points] for a in t1.points]
    flat = [Fraction(x) for m in (D1, D2, W) for row in m for x in row]
    scale = math.lcm(*(x.denominator for x in flat))
    if max(flat) * scale >= 2**40:
        raise ValueError("instance too large for the int64 brute force")

    def ints(m):
        return np.array([[int(Fraction(x) * scale) for x in row] for row in m], dtype=np.int64)

    D1, D2, W = ints(D1), ints(D2), ints(W)
    n1, n2 = t1.n, t2.n
    pairs = [
        ((p1, q1), (p2, q2))
        for p1 in range(n1)
        for q1 in range(n2)
        for p2 in range(p1 + 1, n1)
        for q2 in range(n2)
        if q2 != q1
    ]
    P1, Q1, P2, Q2 = (np.array(c) for c in zip(*[(*b1, *b2) for b1, b2 in pairs]))
    w1, w2 = W[P1, Q1], W[P2, Q2]
    # cross pairs (a in T1, b in T2): the better of the two single crossings
    via1 = D1[:, P1].T[:, :, None] + w1[:, None, None] + D2[Q1][:, None, :]
    via2 = D1[:, P2].T[:, :, None] + w2[:, None, None] + D2[Q2][:, None, :]
    value = np.minimum(via1, via2).max(axis=(1, 2))
    # same-tree pairs: out over one bridge, across the other tree, back over the other
    for Da, Pa, Pb, Db, Qa, Qb in ((D1, P1, P2, D2, Q1, Q2), (D2, Q1, Q2, D1, P1, P2)):
        loop = (w1 + Db[Qa, Qb] + w2)[:, None, None]
        alt = np.minimum(
            Da[:, Pa].T[:, :, None] + loop + Da[Pb][:, None, :],
            Da[:, Pb].T[:, :, None] + loop + Da[Pa][:, None, :],
        )
        counted = np.where(alt < Da[None, :, :], alt, -1).max(axis=(1, 2))
        value = np.maximum(value, counted)
    return pairs, value, scale


def twin_brute_force(t1: Tree, t2: Tree) -> Fraction:
    """Minimum constrained diameter over every vertex-disjoint bridge pair."""
    _, values, scale = twin_pair_values(t1, t2)
    return Fraction(int(values.min()), scale)
