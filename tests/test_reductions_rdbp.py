"""Distance-decrease gadget construction and its cover correspondence.

Independent checks recompute the clearance radius from raw geometry and
re-derive shortest paths with a local Dijkstra.
"""

from __future__ import annotations

import heapq
import itertools
import math

import pytest

from bridgeworks import PlanarGraph, validate_planar
from bridgeworks.reductions import (
    RdbpIffReport,
    k4_embedding,
    prism_embedding,
    rdbp_brute_force,
    rdbp_minimum_budget,
    rdbp_subset_decreases_all,
    vc_to_rdbp,
    vertex_cover_brute_force,
    verify_rdbp_iff,
)


def dij(n, adj, s):
    dist = [math.inf] * n
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def graph_adj(graph, extra=()):
    n = len(graph.points)
    adj = [[] for _ in range(n)]
    def ed(a, b):
        pa, pb = graph.points[a], graph.points[b]
        return math.hypot(float(pa[0]) - float(pb[0]), float(pa[1]) - float(pb[1]))
    for (u, v) in tuple(graph.edges) + tuple(extra):
        w = ed(u, v)
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def seg_dist(p, a, b):
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def oracle_epsilon(points, edges):
    pts = [(float(x), float(y)) for (x, y) in points]
    feat = math.inf
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            feat = min(feat, math.dist(pts[i], pts[j]))
    for i in range(n):
        for (u, v) in edges:
            if i in (u, v):
                continue
            feat = min(feat, seg_dist(pts[i], pts[u], pts[v]))
    # slack of the best detour around each edge
    adj_full = [[] for _ in range(n)]
    for (u, v) in edges:
        w = math.dist(pts[u], pts[v])
        adj_full[u].append((v, w))
        adj_full[v].append((u, w))
    slack = math.inf
    for (u, v) in edges:
        w = math.dist(pts[u], pts[v])
        adj = [[(b, ww) for (b, ww) in row if {a, b} != {u, v}]
               for a, row in enumerate(adj_full)]
        alt = dij(n, adj, u)[v]
        slack = min(slack, alt - w)
    return min(feat / 4, slack / 16)


# ---------------------------------------------------------------- structure

@pytest.mark.parametrize("embedding", [k4_embedding, prism_embedding])
def test_gadget_structure(embedding):
    points, edges = embedding()
    inst = vc_to_rdbp(points, edges, budget=1)
    g = inst.graph
    n_orig = len(points)
    assert len(inst.gadgets) == n_orig
    assert math.isclose(inst.epsilon, oracle_epsilon(points, edges), rel_tol=1e-9)

    # every gadget: u keeps its position, ports sit at distance eps
    for gd in inst.gadgets:
        pu = g.points[gd.u]
        orig = points[gd.original]
        assert float(pu[0]) == pytest.approx(float(orig[0]))
        assert float(pu[1]) == pytest.approx(float(orig[1]))
        for port in (gd.u1, gd.u2, gd.u3):
            pp = g.points[port]
            d = math.hypot(float(pp[0]) - float(pu[0]), float(pp[1]) - float(pu[1]))
            assert d == pytest.approx(inst.epsilon, rel=1e-9)
        assert len(gd.terminals) == 3

    # base degrees <= 4, and still <= 5 with every shortcut inserted
    deg = [0] * len(g.points)
    for (u, v) in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert max(deg) <= 4
    for (a, b) in inst.candidates:
        deg[a] += 1
        deg[b] += 1
    assert max(deg) <= 5

    # plane drawing stays valid with all shortcuts at once
    augmented = PlanarGraph(points=g.points, edges=tuple(g.edges) + tuple(inst.candidates))
    assert validate_planar(augmented) == []

    # one demand pair per original edge, terminals on the two endpoint gadgets
    assert len(inst.pairs) == len(edges)


# ---------------------------------------------------------------- semantics

@pytest.mark.parametrize("embedding,cover_size", [(k4_embedding, 3), (prism_embedding, 4)])
def test_minimum_budget_equals_cover_number(embedding, cover_size):
    points, edges = embedding()
    cover = vertex_cover_brute_force(len(points), edges)
    assert len(cover) == cover_size
    inst = vc_to_rdbp(points, edges, budget=cover_size)
    k, subset = rdbp_minimum_budget(inst)
    assert k == cover_size
    assert rdbp_subset_decreases_all(inst, subset)
    assert rdbp_brute_force(inst, cover_size - 1) is None


@pytest.mark.parametrize("embedding", [k4_embedding, prism_embedding])
def test_subsets_correspond_to_covers_exhaustively(embedding):
    points, edges = embedding()
    c = len(vertex_cover_brute_force(len(points), edges))
    assert verify_rdbp_iff(points, edges) == RdbpIffReport(c, c, True)


def test_non_cover_subset_leaves_a_pair_unimproved():
    points, edges = k4_embedding()
    inst = vc_to_rdbp(points, edges, budget=2)
    # {1, 3} misses edge (0, 2) entirely
    assert not rdbp_subset_decreases_all(inst, (1, 3))
    assert rdbp_subset_decreases_all(inst, (0, 1, 2, 3))


def test_shortcut_strictly_decreases_covered_pairs_only():
    points, edges = k4_embedding()
    inst = vc_to_rdbp(points, edges, budget=1)
    g = inst.graph
    n = len(g.points)
    base_adj = graph_adj(g)
    with_0 = graph_adj(g, extra=[inst.candidates[0]])
    for idx, (a, b) in enumerate(inst.pairs):
        d0 = dij(n, base_adj, a)[b]
        d1 = dij(n, with_0, a)[b]
        u, v = edges[idx]
        if 0 in (u, v):
            assert d1 < d0 - 1e-12
        else:
            assert d1 >= d0 - 1e-12


# ---------------------------------------------------------------- validation

def test_rejects_non_cubic_graph():
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]
    with pytest.raises(ValueError):
        vc_to_rdbp(pts, [(0, 1), (1, 2), (2, 0)], budget=1)  # degrees are 2


def test_rejects_crossing_embedding():
    # K4 drawn with the interior vertex pulled outside: diagonals cross
    pts = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    with pytest.raises(ValueError):
        vc_to_rdbp(pts, edges, budget=1)


def two_k4s_joined_by_a_bridge():
    """Cubic planar, connected, with articulation vertices 4 and 9: K4 with
    edge (0, 1) subdivided at vertex 4, its mirror image under y -> -y-3,
    and the edge joining the two subdivision vertices."""
    points, edges = k4_embedding()
    points = points + [(2.0, -1.0)]
    edges = [e for e in edges if e != (0, 1)] + [(0, 4), (4, 1)]
    mirror = [(x, -y - 3) for x, y in points]
    return points + mirror, edges + [(u + 5, v + 5) for u, v in edges] + [(4, 9)]


def two_disjoint_k4s():
    points, edges = k4_embedding()
    shifted = [(x + 10, y) for x, y in points]
    return points + shifted, edges + [(u + 4, v + 4) for u, v in edges]


@pytest.mark.parametrize("graph,message", [
    (two_disjoint_k4s, "graph is not connected"),
    # the lowest-index vertex whose removal disconnects the rest is named
    (two_k4s_joined_by_a_bridge, "vertex 4 is an articulation point"),
])
def test_rejects_graphs_that_are_not_2connected(graph, message):
    points, edges = graph()
    with pytest.raises(ValueError, match=message):
        vc_to_rdbp(points, edges, budget=1)
