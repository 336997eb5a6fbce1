"""Geometric primitives: points, weighted trees, distance tables, planarity.

Coordinates may be int, Fraction, or float. Arithmetic stays exact while the
operands are exact; square roots fall back to float unless the squared length
is a perfect rational square.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .numerics import Number, TOLERANCE, exact_sqrt, is_exact, values_equal


class Point(NamedTuple):
    x: Number
    y: Number


def _as_point(p) -> Point:
    if isinstance(p, Point):
        return p
    return Point(p[0], p[1])


def euclidean_distance(a: Point, b: Point) -> Number:
    """Distance between two points.

    Exact (int/Fraction) when the points are exact and the segment is
    axis-aligned or its squared length is a perfect rational square;
    otherwise an IEEE double via math.hypot.
    """
    dx = a.x - b.x
    dy = a.y - b.y
    if isinstance(dx, float) or isinstance(dy, float):
        # the same double as hypot(float(dx), float(dy)), without is_exact's
        # ABC checks
        return math.hypot(dx, dy)
    if is_exact(dx) and is_exact(dy):
        if dx == 0:
            return abs(dy)
        if dy == 0:
            return abs(dx)
        r = exact_sqrt(dx * dx + dy * dy)
        if r is not None:
            return int(r) if r.denominator == 1 else r
    return math.hypot(float(dx), float(dy))


# ---------------------------------------------------------------------------
# Weighted trees


def _non_finite_row(rows: Sequence[tuple]) -> int | None:
    """Index of the first row holding a float inf or NaN, or None.

    Only floats are looked at: an int or Fraction is finite, and converting
    a huge one to float would overflow. One sum of the floats clears a
    finite input in C; a non-finite sum, which finite floats also reach by
    overflow, scans the rows.
    """
    if math.isfinite(sum(filter(float.__instancecheck__, chain.from_iterable(rows)))):
        return None
    for i, row in enumerate(rows):
        if any(isinstance(x, float) and not math.isfinite(x) for x in row):
            return i
    return None


@dataclass(frozen=True)
class WeightedTree:
    """A tree embedded in the plane.

    Edge weights default to Euclidean lengths of the embedded segments.
    With explicit_weights=True the given weights stand on their own (they
    may disagree with the embedding); they must be nonnegative.

    The constructor roots the tree at vertex 0 and keeps, in three private
    lists of n entries (O(n) memory, outside ==, hash and repr), a
    parent-first visit order, each vertex's parent and the weight of the
    edge to it, for single_source_tree_distances.
    """

    points: tuple[Point, ...]
    edges: tuple[tuple[int, int, Number], ...]
    labels: tuple[str, ...] | None = None
    explicit_weights: bool = False

    def __init__(
        self,
        points: Sequence,
        edges: Iterable,
        labels: Sequence[str] | None = None,
        explicit_weights: bool = False,
    ):
        pts = tuple(map(_as_point, points))
        n = len(pts)
        if n == 0:
            raise ValueError("tree needs at least one vertex")
        bad = _non_finite_row(pts)
        if bad is not None:
            raise ValueError(f"vertex {bad} has a non-finite coordinate in {tuple(pts[bad])}")
        norm_edges = []
        for e in edges:
            e = tuple(e)
            if len(e) == 2:
                u, v = e
                w = None
            elif len(e) == 3:
                u, v, w = e
            else:
                raise ValueError(f"edge must be (u,v) or (u,v,w), got {e!r}")
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge endpoints ({u},{v}) for n={n}")
            if explicit_weights:
                if w is None:
                    raise ValueError("explicit_weights=True requires edge weights")
                if not (w >= 0):  # NaN fails too
                    raise ValueError(f"edge ({u},{v}) weight {w} is negative or NaN")
            else:
                try:
                    geo = euclidean_distance(pts[u], pts[v])
                except OverflowError:  # an exact length past the float range
                    raise ValueError(
                        f"edge ({u},{v}) embedded length is too large for a float"
                    ) from None
                if geo == math.inf:   # hypot of finite coordinates overflowed
                    raise ValueError(f"edge ({u},{v}) embedded length {geo} is not finite")
                if w is None:
                    w = geo
                elif not values_equal(w, geo):
                    raise ValueError(
                        f"edge ({u},{v}) weight {w} != embedded length {geo}"
                    )
            norm_edges.append((u, v, w))
        if explicit_weights:
            bad = _non_finite_row(norm_edges)
            if bad is not None:
                u, v, w = norm_edges[bad]
                raise ValueError(f"edge ({u},{v}) weight {w} is not finite")
        if len(norm_edges) != n - 1:
            raise ValueError(f"tree on {n} vertices needs {n-1} edges, got {len(norm_edges)}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length mismatch")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "explicit_weights", explicit_weights)
        # one walk from vertex 0 checks the tree (n-1 edges + connected) and
        # roots it there: the list grows while the loop reads it, so each
        # vertex comes after its parent
        parent = [None] * n
        parent_weight = [0] * n
        parent[0] = 0
        order = [0]
        adj = self.adjacency
        for u in order:
            for v, w in adj[u]:
                if parent[v] is None:
                    parent[v] = u
                    parent_weight[v] = w
                    order.append(v)
        if len(order) < n:
            raise ValueError("edges do not form a connected tree")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_parent_weight", parent_weight)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Number], ...], ...]:
        adj: list[list[tuple[int, Number]]] = [[] for _ in self.points]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(a) for a in adj)


def single_source_tree_distances(tree: WeightedTree, src: int) -> list[Number]:
    """Distances from src to every vertex (tree paths are unique), in O(n).

    The climb from src to the root sets each ancestor from the child below
    it; one pass over the parent-first order then sets every other vertex
    from its parent. Either way d(v) = d(u) + w(u, v) for the vertex u
    before v on the src..v path, so each distance is the left-to-right sum
    of the path's weights from an int 0: the same value, type and float
    bits as a walk outward from src.
    """
    parent = tree._parent
    parent_weight = tree._parent_weight
    dist: list = [None] * tree.n
    dist[src] = 0
    v = src
    while v:   # vertex 0 is the root
        u = parent[v]
        dist[u] = dist[v] + parent_weight[v]
        v = u
    for v in tree._order:
        if dist[v] is None:
            dist[v] = dist[parent[v]] + parent_weight[v]
    return dist


def first_argmax(vals: Sequence[Number]) -> tuple[Number, int]:
    """Largest value and the lowest index attaining it."""
    best = vals[0]
    arg = 0
    for i in range(1, len(vals)):
        if vals[i] > best:
            best = vals[i]
            arg = i
    return best, arg


class Eccentricities(NamedTuple):
    ecc: list[Number]
    diameter: Number


def tree_eccentricities(tree: WeightedTree) -> Eccentricities:
    """Every vertex's eccentricity and the diameter in three sweeps, O(n).

    With nonnegative weights, a (the lex-min farthest vertex from 0) and b
    (the lex-min farthest vertex from a) end a diameter, and every vertex's
    farthest distance is to one of them: ecc(v) = max(d(v, a), d(v, b)).
    On exact input ecc(v) equals the maximum of build_distance_table's row
    v, and the diameter equals the table's, type included (the lex-min end
    of a diameter is a or b, and the other is its lex-min farthest vertex).
    An ecc(v) is a distance to a or b, so with mixed int and Fraction
    weights it can be Fraction(5) where the row's first maximum is 5.
    Float sums may differ from the rows in the last ulp.
    """
    _, a = first_argmax(single_source_tree_distances(tree, 0))
    da = single_source_tree_distances(tree, a)
    _, b = first_argmax(da)
    ecc = list(map(max, da, single_source_tree_distances(tree, b)))
    return Eccentricities(ecc, max(ecc))


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs tree distances and the diameter."""

    dist: tuple[tuple[Number, ...], ...]
    diameter: Number
    diameter_pair: tuple[int, int]     # lex-min (x, z), x <= z


def build_distance_table(tree: WeightedTree) -> DistanceTable:
    n = tree.n
    raw = [single_source_tree_distances(tree, s) for s in range(n)]
    # float path sums depend on accumulation order, so d(x,z) and d(z,x)
    # can differ in the last ulp; mirror the upper triangle to keep the
    # metric symmetric
    for x in range(n):
        for z in range(x + 1, n):
            raw[z][x] = raw[x][z]
    diam = max(map(max, raw))
    # lex-min (x, z) with x <= z realizing the diameter: the first row
    # holding it has no partner below its diagonal
    x = next(x for x, row in enumerate(raw) if diam in row)
    return DistanceTable(tuple(map(tuple, raw)), diam, (x, raw[x].index(diam, x)))


def center_vertex(eccs: Eccentricities) -> int:
    """Lex-min vertex of minimum eccentricity."""
    return eccs.ecc.index(min(eccs.ecc))


def walk_parents(
    adjacency: Sequence[Sequence[tuple[int, Number]]],
    src: int,
    blocked: Sequence[int] = (),
) -> list[int | None]:
    """Each vertex's predecessor on a walk from src that never enters a
    blocked vertex: src maps to itself, and every vertex the walk does not
    reach (the blocked ones included) maps to None."""
    parent: list[int | None] = [None] * len(adjacency)
    # pre-marked as reached, so the walk never enters them and the inner
    # loop needs no second test
    for b in blocked:
        parent[b] = b
    parent[src] = src
    stack = [src]
    while stack:
        u = stack.pop()
        for v, _ in adjacency[u]:
            if parent[v] is None:
                parent[v] = u
                stack.append(v)
    for b in blocked:
        parent[b] = None
    return parent


def path_vertices(tree: WeightedTree, a: int, b: int) -> list[int]:
    """Vertex sequence of the unique a..b path."""
    parent = walk_parents(tree.adjacency, a)
    out = [b]
    while out[-1] != a:
        out.append(parent[out[-1]])
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Segment predicates


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): 1 ccw, -1 cw, 0 collinear.

    Exact for exact inputs; floats get a relative tolerance band.
    """
    t1 = (b.x - a.x) * (c.y - a.y)
    t2 = (b.y - a.y) * (c.x - a.x)
    cross = t1 - t2
    if is_exact(cross):
        return (cross > 0) - (cross < 0)
    scale = max(1.0, abs(float(t1)), abs(float(t2)))
    c = float(cross)
    if abs(c) <= TOLERANCE * scale:
        return 0
    return 1 if c > 0 else -1


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    """c collinear with a-b assumed; is c within the bounding box of a-b?"""
    lo_x, hi_x = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    lo_y, hi_y = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    return lo_x <= c.x <= hi_x and lo_y <= c.y <= hi_y


def segments_properly_cross(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True iff the open segments cross at a single interior point."""
    o1 = orientation(p1, p2, p3)
    o2 = orientation(p1, p2, p4)
    o3 = orientation(p3, p4, p1)
    o4 = orientation(p3, p4, p2)
    return o1 * o2 < 0 and o3 * o4 < 0


def segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True iff the closed segments share at least one point."""
    if segments_properly_cross(p1, p2, p3, p4):
        return True
    if orientation(p1, p2, p3) == 0 and _on_segment(p1, p2, p3):
        return True
    if orientation(p1, p2, p4) == 0 and _on_segment(p1, p2, p4):
        return True
    if orientation(p3, p4, p1) == 0 and _on_segment(p3, p4, p1):
        return True
    if orientation(p3, p4, p2) == 0 and _on_segment(p3, p4, p2):
        return True
    return False


# ---------------------------------------------------------------------------
# General embedded graphs (used by the reduced-diameter reduction)


@dataclass(frozen=True)
class PlanarGraph:
    """Geometric graph: straight-line edges, weights = Euclidean lengths."""

    points: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __init__(self, points: Sequence, edges: Iterable, labels=None):
        pts = tuple(_as_point(p) for p in points)
        n = len(pts)
        es = []
        seen = set()
        for e in edges:
            u, v = e[0], e[1]
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            es.append(key)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length mismatch")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", tuple(es))
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Number], ...], ...]:
        adj: list[list[tuple[int, Number]]] = [[] for _ in self.points]
        for u, v in self.edges:
            w = euclidean_distance(self.points[u], self.points[v])
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "PlanarGraph":
        return PlanarGraph(self.points, list(self.edges) + list(extra), self.labels)


def validate_planar(graph: PlanarGraph) -> list[tuple[int, int]]:
    """Indices (i, j) of edge pairs whose straight segments conflict.

    Non-adjacent edge pairs may not intersect at all. Edge pairs sharing an
    endpoint may touch only at that endpoint (collinear overlap is flagged).
    A pair whose bounding boxes are disjoint is skipped before any
    orientation test: every conflict point, a crossing or a touching
    endpoint, lies in both boxes. The box test only compares coordinates,
    so exact input stays exact.
    """
    pts = graph.points
    es = graph.edges
    boxes = []
    for a, b in es:
        pa, pb = pts[a], pts[b]
        boxes.append((min(pa.x, pb.x), max(pa.x, pb.x), min(pa.y, pb.y), max(pa.y, pb.y)))
    bad = []
    for i in range(len(es)):
        a, b = es[i]
        pa, pb = pts[a], pts[b]
        lo_x, hi_x, lo_y, hi_y = boxes[i]
        for j in range(i + 1, len(es)):
            lo_x2, hi_x2, lo_y2, hi_y2 = boxes[j]
            if lo_x2 > hi_x or hi_x2 < lo_x or lo_y2 > hi_y or hi_y2 < lo_y:
                continue
            c, d = es[j]
            if a in (c, d) or b in (c, d):
                # shared endpoint: only collinear overlap can go wrong
                shared = a if a in (c, d) else b
                oa = a if shared != a else b
                oc = c if shared != c else d
                if orientation(pts[shared], pts[oa], pts[oc]) == 0:
                    # other endpoints on the same ray through shared -> overlap
                    if _on_segment(pts[shared], pts[oa], pts[oc]) or _on_segment(
                        pts[shared], pts[oc], pts[oa]
                    ):
                        bad.append((i, j))
                continue
            if segments_intersect(pa, pb, pts[c], pts[d]):
                bad.append((i, j))
    return bad


def dijkstra(
    n: int,
    adjacency: Sequence[Sequence[tuple[int, Number]]],
    source: int,
) -> list[Number]:
    INF = math.inf
    dist: list[Number] = [INF] * n
    dist[source] = 0
    heap: list[tuple[float, int]] = [(0.0, source)]
    done = [False] * n
    while heap:
        _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        du = dist[u]
        for v, w in adjacency[u]:
            nd = du + w
            if dist[v] is INF or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (float(nd), v))
    return dist
