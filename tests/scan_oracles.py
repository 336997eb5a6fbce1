"""Full-scan oracles for the single-bridge scans: every endpoint pair is
scored, in the same arithmetic as the library, with no pruning. Tree
distances come from a plain walk outward from the source.

Import as a sibling module (`from scan_oracles import ...`): pytest puts
this directory on sys.path for the test modules.
"""

from __future__ import annotations

import numpy as np

from bridgeworks.geometry import euclidean_distance


def tree_distances_dfs(tree, src):
    """Distances from src to every vertex, by a stack walk outward from src
    over the tree's own edge list: each vertex gets its predecessor's
    distance plus the edge weight, so every entry is the left-to-right sum
    of its path's weights from an int 0."""
    adj = [[] for _ in range(tree.n)]
    for u, v, w in tree.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [0] * tree.n
    seen = [False] * tree.n
    seen[src] = True
    stack = [src]
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if not seen[v]:
                seen[v] = True
                dist[v] = dist[u] + w
                stack.append(v)
    return dist


def scan_exact(t1, t2, e1, e2):
    """(p, q, |pq|) of the lex-min (e1[p] + |pq| + e2[q], p, q) over all
    n1 * n2 pairs, summed in the input's arithmetic as `solve_exact` sums
    exact input."""
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


def scan_double(t1, t2, e1, e2):
    """(value, p, q) of the lex-min float score over the whole n1 x n2
    matrix, built at once with the float scan's operations (hypot, then
    += e1, then += e2), so the value has the same bits."""
    x1, y1, x2, y2 = (np.array([float(getattr(pt, c)) for pt in t.points])
                      for t, c in ((t1, "x"), (t1, "y"), (t2, "x"), (t2, "y")))
    d = np.hypot(x1[:, None] - x2, y1[:, None] - y2)
    d += np.array([float(e) for e in e1])[:, None]
    d += np.array([float(e) for e in e2])
    p, q = divmod(int(np.argmin(d)), len(x2))   # first occurrence = lex-min
    return float(d[p, q]), p, q


def closest_pair_scan(pts1, pts2):
    """Lex-min (dx*dx + dy*dy, i, j) over all pairs, in the input's
    arithmetic, as (i, j, |pq|)."""
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
