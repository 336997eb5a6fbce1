"""Vertex cover on cubic planar graphs, reduced to a restricted
distance-decrease budget problem on a geometric graph.

Each original vertex u becomes a gadget: the three incident edges are cut at
distance eps from u, yielding cut vertices placed on the edges. Two of them
(the pair whose edge directions are angularly closest, so the connecting
chord stays short) flank a corridor u1 - u - u2; the third, u3, loses its
direct segment to u and is wired through the chord (u3, u1) instead. Every
cut vertex carries a constant-size tail ending in a terminal leaf, and the
route from any cut vertex to the terminal of its own edge traverses the full
corridor. The per-vertex shortcut candidate is the chord (u1, u2), which
shortens all three corridor traversals by 2*eps - |u1 u2| >= eps/2 at once.

One measurement pair of terminals per original edge. A shortcut set strictly
decreases every pair distance iff the chosen original vertices form a vertex
cover, so the minimum decreasing budget equals the cover number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..geometry import PlanarGraph, dijkstra, euclidean_distance, validate_planar, walk_parents
from ..numerics import definitely_less

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class Gadget:
    original: int
    u: int                       # id of the original point in the new graph
    u1: int
    u2: int
    u3: int
    terminals: tuple[int, int, int]   # terminal for the u1 / u2 / u3 edge


@dataclass(frozen=True)
class RdbpInstance:
    graph: PlanarGraph
    pairs: tuple[tuple[int, int], ...]
    candidates: tuple[tuple[int, int], ...]  # candidates[i] belongs to original vertex i
    budget: int
    epsilon: float
    gadgets: tuple[Gadget, ...]


# ---------------------------------------------------------------------------
# Input checks


def _check_cubic_planar_2connected(g: PlanarGraph):
    n = len(g.points)
    if n < 4:
        raise ValueError("need at least 4 vertices")
    for v in range(n):
        if g.degree(v) != 3:
            raise ValueError(f"vertex {v} has degree {g.degree(v)}, need 3")
    crossings = validate_planar(g)
    if crossings:
        raise ValueError(f"embedding is not planar: segments cross at {crossings[:3]}")
    # connected, and no vertex whose blocking leaves another unreached; the
    # n + 1 walks cost O(n (n + m)), below validate_planar's O(m^2)
    if None in walk_parents(g.adjacency, 0):
        raise ValueError("graph is not connected")
    for v in range(n):
        if walk_parents(g.adjacency, 0 if v else 1, (v,)).count(None) > 1:
            raise ValueError(f"vertex {v} is an articulation point")


def _point_segment_distance(p, a, b) -> float:
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    px, py = float(p[0]), float(p[1])
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _min_feature(g: PlanarGraph) -> float:
    n = len(g.points)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(euclidean_distance(g.points[i], g.points[j])))
    for v in range(n):
        for (a, b) in g.edges:
            if v in (a, b):
                continue
            best = min(best, _point_segment_distance(g.points[v], g.points[a], g.points[b]))
    return best


def _min_detour_slack(g: PlanarGraph) -> float:
    """Smallest excess of any edge's best alternative route over the edge
    itself. Gadget overheads must stay below this, or a detour through a
    third vertex could undercut an uncovered pair's direct route.
    """
    n = len(g.points)
    slack = math.inf
    for (a, b) in g.edges:
        w_ab = float(euclidean_distance(g.points[a], g.points[b]))
        adj = [
            [(v, w) for v, w in row if {u, v} != {a, b}]
            for u, row in enumerate(g.adjacency)
        ]
        alt = dijkstra(n, adj, a)[b]
        if alt != math.inf:
            slack = min(slack, float(alt) - w_ab)
    return slack


# ---------------------------------------------------------------------------
# Gadget geometry


def _ccw_gap(a: float, b: float) -> float:
    return (b - a) % TWO_PI


def _ang_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


# tail layout: (angle fraction, radius multiple of eps) per hop, terminal last
_TAIL_Y = ((0.20, 0.38), (0.32, 0.41), (0.45, 0.44))
_TAIL_X = ((0.25, 1.25), (0.35, 1.35), (0.45, 1.45))
_TAIL_Z = ((0.55, 1.00), (0.67, 1.05), (0.80, 1.10))


def _build_gadget(g: PlanarGraph, u: int, eps: float, points, edges, add_point):
    """Emit one vertex gadget; returns (Gadget, ports) where ports maps each
    neighbor of u to the cut-vertex id on that edge.
    """
    ux, uy = float(g.points[u][0]), float(g.points[u][1])
    nbrs = sorted(v for v, _ in g.adjacency[u])
    angs = {
        v: math.atan2(float(g.points[v][1]) - uy, float(g.points[v][0]) - ux)
        % TWO_PI
        for v in nbrs
    }
    ordered = sorted(nbrs, key=lambda v: angs[v])
    gaps = [
        _ccw_gap(angs[ordered[i]], angs[ordered[(i + 1) % 3]])
        for i in range(3)
    ]
    i_min = min(range(3), key=lambda i: (gaps[i], ordered[i]))
    pa, pb = ordered[i_min], ordered[(i_min + 1) % 3]   # min wedge, ccw a -> b
    pc = ordered[(i_min + 2) % 3]
    delta_m = gaps[i_min]
    # chord partner: the min-pair ray angularly nearer to the third direction,
    # so the chord (u3, u1) spans an empty wedge
    if (_ang_dist(angs[pc], angs[pa]), pa) <= (_ang_dist(angs[pc], angs[pb]), pb):
        n1, n2 = pa, pb
    else:
        n1, n2 = pb, pa
    th1, th2, th3 = angs[n1], angs[n2], angs[pc]
    sigma = 1.0 if math.isclose(_ccw_gap(th1, th2), delta_m, abs_tol=1e-12) else -1.0
    delta_z = _ang_dist(th3, th1)
    delta_r = TWO_PI - delta_m - delta_z

    chord = 2 * eps * math.sin(delta_m / 2)
    if 2 * eps - chord < eps / 2:
        raise ValueError(
            f"vertex {u}: closest incident edge directions spread "
            f"{math.degrees(delta_m):.1f} deg; shortcut saving below eps/2. "
            "Provide an embedding with a tighter min angle (<= ~97.2 deg)."
        )

    def at(radius: float, angle: float) -> tuple[float, float]:
        return (ux + radius * math.cos(angle), uy + radius * math.sin(angle))

    id_u = add_point((ux, uy))
    id_u1 = add_point(at(eps, th1))
    id_u2 = add_point(at(eps, th2))
    id_u3 = add_point(at(eps, th3))
    edges.append((id_u1, id_u))
    edges.append((id_u, id_u2))
    edges.append((id_u3, id_u1))

    def tail(base_id: int, base_angle: float, sweep: float, layout) -> int:
        prev = base_id
        last = prev
        for t, r in layout:
            pid = add_point(at(r * eps, base_angle + sweep * t))
            edges.append((prev, pid))
            prev = pid
            last = pid
        return last

    term_y = tail(id_u1, th1, sigma * delta_m, _TAIL_Y)       # slot-2 edge terminal
    term_x = tail(id_u2, th2, sigma * delta_r, _TAIL_X)       # slot-1 edge terminal
    term_z = tail(id_u2, th2, sigma * delta_r, _TAIL_Z)       # slot-3 edge terminal

    ports = {n1: id_u1, n2: id_u2, pc: id_u3}
    terminal_for = {n1: term_x, n2: term_y, pc: term_z}
    gadget = Gadget(
        original=u,
        u=id_u,
        u1=id_u1,
        u2=id_u2,
        u3=id_u3,
        terminals=(term_x, term_y, term_z),
    )
    return gadget, ports, terminal_for


def vc_to_rdbp(
    points,
    edges,
    budget: int,
) -> RdbpInstance:
    """Build the distance-decrease instance for a cubic, 2-connected, planar
    embedded graph with the given shortcut budget.

    Raises ValueError unless the graph has at least 4 vertices, every
    vertex has degree 3 (the first vertex that does not is named), no two
    segments cross (the first three crossing edge pairs are named), the
    graph is connected, and no vertex is an articulation vertex (the
    lowest-index one is named).
    """
    g = PlanarGraph(points, edges)
    _check_cubic_planar_2connected(g)
    eps = min(_min_feature(g) / 4, _min_detour_slack(g) / 16)
    if not eps > 0:
        raise ValueError("degenerate embedding: zero minimum feature size")

    new_points: list[tuple[float, float]] = []
    new_edges: list[tuple[int, int]] = []

    def add_point(p) -> int:
        new_points.append(p)
        return len(new_points) - 1

    gadgets = []
    ports_of: dict[int, dict[int, int]] = {}
    term_of: dict[int, dict[int, int]] = {}
    for u in range(len(g.points)):
        gadget, ports, terms = _build_gadget(g, u, eps, new_points, new_edges, add_point)
        gadgets.append(gadget)
        ports_of[u] = ports
        term_of[u] = terms
    for (a, b) in g.edges:
        new_edges.append((ports_of[a][b], ports_of[b][a]))

    gp = PlanarGraph(new_points, new_edges)
    crossings = validate_planar(gp)
    if crossings:
        raise ValueError(f"gadget construction self-intersects at {crossings[:3]}")
    if max(gp.degree(v) for v in range(len(new_points))) > 4:
        raise ValueError("gadget construction exceeded degree 4")
    candidates = tuple((gd.u1, gd.u2) for gd in gadgets)
    with_all = gp.with_edges(candidates)
    if validate_planar(with_all):
        raise ValueError("shortcut chords cross the construction")
    if max(with_all.degree(v) for v in range(len(new_points))) > 5:
        raise ValueError("shortcuts exceeded degree 5")

    pairs = tuple(
        (term_of[a][b], term_of[b][a])
        for (a, b) in g.edges
    )
    return RdbpInstance(
        graph=gp,
        pairs=pairs,
        candidates=candidates,
        budget=budget,
        epsilon=eps,
        gadgets=tuple(gadgets),
    )


# ---------------------------------------------------------------------------
# Decision machinery


def _pair_distances(inst: RdbpInstance, extra: tuple[tuple[int, int], ...],
                    pairs: tuple[tuple[int, int], ...]) -> list:
    n = len(inst.graph.points)
    adj = [list(row) for row in inst.graph.adjacency]
    for (a, b) in extra:
        w = euclidean_distance(inst.graph.points[a], inst.graph.points[b])
        adj[a].append((b, w))
        adj[b].append((a, w))
    return [dijkstra(n, adj, s)[t] for (s, t) in pairs]


def rdbp_subset_decreases_all(
    inst: RdbpInstance,
    subset: tuple[int, ...],
    base: list | None = None,
) -> bool:
    """True iff adding the chosen shortcut candidates strictly decreases
    every measurement pair's distance.
    """
    if base is None:
        base = _pair_distances(inst, (), inst.pairs)
    new = _pair_distances(inst, tuple(inst.candidates[i] for i in subset), inst.pairs)
    return all(definitely_less(nv, bv) for nv, bv in zip(new, base))


def rdbp_brute_force(
    inst: RdbpInstance,
    k: int | None = None,
    *,
    _base: list | None = None,
) -> tuple[int, ...] | None:
    """Lex-min candidate-index subset of size k decreasing all pairs, or
    None. k defaults to the instance budget.
    """
    if k is None:
        k = inst.budget
    ncand = len(inst.candidates)
    if math.comb(ncand, k) > 10**6:
        raise ValueError("search space above 10^6 subsets")
    base = _base if _base is not None else _pair_distances(inst, (), inst.pairs)
    for combo in itertools.combinations(range(ncand), k):
        if rdbp_subset_decreases_all(inst, combo, base):
            return combo
    return None


def rdbp_minimum_budget(inst: RdbpInstance) -> tuple[int, tuple[int, ...]]:
    """Smallest k admitting a decreasing subset, with its lex-min witness."""
    base = _pair_distances(inst, (), inst.pairs)
    for k in range(len(inst.candidates) + 1):
        sol = rdbp_brute_force(inst, k, _base=base)
        if sol is not None:
            return k, sol
    raise RuntimeError("even the full candidate set fails to decrease all pairs")


VERTEX_COVER_MAX_N = 20


def vertex_cover_brute_force(n: int, edges) -> tuple[int, ...]:
    """Lex-min minimum vertex cover by increasing size, on at most
    VERTEX_COVER_MAX_N vertices."""
    if n > VERTEX_COVER_MAX_N:
        raise ValueError(f"guarded to {VERTEX_COVER_MAX_N} vertices")
    es = [tuple(e[:2]) for e in edges]
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in es):
                return combo
    raise RuntimeError("unreachable: full vertex set covers everything")


@dataclass(frozen=True)
class RdbpIffReport:
    """`subsets_match_covers` is per pair: each pair is decreased by exactly
    the subsets meeting its edge. That implies the set-level iff."""

    cover_size: int
    budget_size: int
    subsets_match_covers: bool

    @property
    def consistent(self) -> bool:
        return self.cover_size == self.budget_size and self.subsets_match_covers


def verify_rdbp_iff(points, edges) -> RdbpIffReport:
    """Check the reduction on a graph of at most VERTEX_COVER_MAX_N
    vertices: the minimum decreasing budget equals the cover number, and a
    candidate subset decreases a pair iff the matching vertex set meets
    the pair's edge.

    Adding shortcuts never lengthens a path, so the subsets that decrease
    pair k of edge (u, v) are closed under supersets. They are exactly
    the subsets meeting {u, v} iff {u} and {v} each decrease the pair and
    all other vertices together do not: three shortest-path runs per
    pair. When every pair passes, a subset decreases all pairs iff it is
    a vertex cover, so the budget is the cover number. Otherwise it comes
    from `rdbp_minimum_budget` on at most 8 vertices, and past that a
    ValueError names the first failing pair.
    """
    n = len(points)
    cover_size = len(vertex_cover_brute_force(n, edges))
    inst = vc_to_rdbp(points, edges, 0)
    base = _pair_distances(inst, (), inst.pairs)

    def decreases(k: int, subset) -> bool:
        extra = tuple(inst.candidates[i] for i in subset)
        return definitely_less(_pair_distances(inst, extra, inst.pairs[k:k + 1])[0], base[k])

    for k, (u, v) in enumerate(e[:2] for e in edges):
        others = [w for w in range(n) if w not in (u, v)]
        if decreases(k, (u,)) and decreases(k, (v,)) and not decreases(k, others):
            continue
        if n > 8:  # rdbp_minimum_budget tries up to 2^n subsets, m Dijkstra runs each
            raise ValueError(f"pair {k} of edge ({u}, {v}) fails the per-pair check; "
                             "the budget search is guarded to 8 vertices")
        return RdbpIffReport(cover_size, rdbp_minimum_budget(inst)[0], False)
    return RdbpIffReport(cover_size, cover_size, True)


# ---------------------------------------------------------------------------
# Reference embeddings (cubic, 2-connected, planar)


def k4_embedding():
    """Complete graph on four vertices: outer triangle plus an interior
    vertex, placed so every vertex has an incident edge pair within the
    shortcut-margin angle.
    """
    points = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (1.2, 0.7)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return points, edges


def prism_embedding():
    """Triangular prism: nested triangles joined by a perfect matching."""
    points = [
        (0.0, 0.0), (12.0, 0.0), (6.0, 10.0),
        (4.0, 2.5), (8.0, 2.5), (6.0, 6.0),
    ]
    edges = [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (0, 3), (1, 4), (2, 5),
    ]
    return points, edges
