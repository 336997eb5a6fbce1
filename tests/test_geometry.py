"""Tree metric, distance table, and planar predicate tests.

The Dijkstra oracle here is written independently of the library's
internals: plain heap Dijkstra over the tree's adjacency, floats only.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from bridgeworks import (
    WeightedTree,
    PlanarGraph,
    Point,
    build_distance_table,
    center_vertex,
    euclidean_distance,
    gen_random_tree,
    path_vertices,
    segments_intersect,
    segments_properly_cross,
    validate_planar,
)
from bridgeworks.geometry import (
    _on_segment,
    first_argmax,
    orientation,
    single_source_tree_distances,
    tree_eccentricities,
    walk_parents,
)
from bridgeworks.bridge import approx_greedy, bichromatic_closest_pair, connect_forest, solve_exact
from scan_oracles import closest_pair_scan, tree_distances_dfs


# ---------------------------------------------------------------- oracle

def oracle_dijkstra(tree, src):
    n = tree.n
    adj = [[] for _ in range(n)]
    for (u, v, w) in tree.edges:
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    dist = [math.inf] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def random_tree(rng, n, mode):
    if mode == "float":
        return gen_random_tree(n, rng.randrange(10**6))
    if mode == "grid":
        return gen_random_tree(n, rng.randrange(10**6), grid=True)
    # explicit integer weights on collinear integer points
    xs = rng.sample(range(0, 10 * n), n)
    pts = [(Fraction(x), Fraction(0)) for x in xs]
    edges = [(rng.randrange(i), i, Fraction(rng.randint(1, 20)))
             for i in range(1, n)]
    return WeightedTree(pts, edges, explicit_weights=True)


def mixed_weight_tree(rng, n):
    """Explicit weights mixing int, Fraction and zero: equal distances of
    either type (5 and Fraction(5)) tie often."""
    weights = [0, 1, 2, Fraction(1, 2), Fraction(3, 2)]
    edges = [(rng.randrange(max(0, i - 2), i), i, rng.choice(weights)) for i in range(1, n)]
    return WeightedTree([(x, 0) for x in range(n)], edges, explicit_weights=True)


# ---------------------------------------------------------------- distances

def test_tree_distances_match_dijkstra_oracle():
    rng = random.Random(7)
    for trial in range(60):
        mode = ("float", "grid", "explicit")[trial % 3]
        tree = random_tree(rng, rng.randint(2, 14), mode)
        table = build_distance_table(tree)
        for src in range(tree.n):
            want = oracle_dijkstra(tree, src)
            got = [float(d) for d in table.dist[src]]
            assert got == pytest.approx(want, rel=1e-12)
            srow = [float(d) for d in single_source_tree_distances(tree, src)]
            assert srow == pytest.approx(want, rel=1e-12)


def shuffled_edges(rng, tree):
    """The same tree from its edge list in a random order, each edge in a
    random orientation."""
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in tree.edges]
    rng.shuffle(edges)
    return WeightedTree(tree.points, edges, explicit_weights=tree.explicit_weights)


def sweep_trees():
    rng = random.Random(29)
    trees = [WeightedTree([(Fraction(1, 3), 0)], [])]
    for n in (2, 3, 9, 40):
        trees += [
            gen_random_tree(n, rng.randrange(10**6)),                          # float
            gen_random_tree(n, rng.randrange(10**6), grid=True),               # int and float
            gen_random_tree(n, rng.randrange(10**6), bbox=(0, 0, 99, 0), grid=True),  # int
            WeightedTree([(Fraction(x, 7), 0) for x in rng.sample(range(10 * n), n)],
                         [(rng.randrange(i), i) for i in range(1, n)]),        # Fraction
            random_tree(rng, n, "explicit"),
            mixed_weight_tree(rng, n),
            WeightedTree([(x, 0) for x in range(n)],
                         [(rng.randrange(i), i, rng.uniform(0, 3)) for i in range(1, n)],
                         explicit_weights=True),
        ]
    trees += [shuffled_edges(rng, t) for t in trees]
    # a star on a center other than vertex 0
    trees.append(WeightedTree([(0, 0)] + [(math.cos(k), math.sin(k)) for k in range(1, 12)],
                              [(5, k) for k in range(12) if k != 5]))
    return trees


def test_tree_distances_equal_the_walk_from_the_source():
    # same value, type (5 vs Fraction(5)) and float bits as the walk
    for tree in sweep_trees():
        for src in range(tree.n):
            got = single_source_tree_distances(tree, src)
            want = tree_distances_dfs(tree, src)
            assert [(type(d), repr(d)) for d in got] == [(type(d), repr(d)) for d in want]


def test_tree_distances_on_a_long_path():
    # vertex 0 at one end: a sweep from the other end climbs 1,999 parents
    rng = random.Random(3)
    xs = [0.0]
    for _ in range(1999):
        xs.append(xs[-1] + rng.uniform(0.1, 2.0))
    edges = [(i, i + 1) for i in range(1999)]
    rng.shuffle(edges)
    tree = WeightedTree([(x, 0.0) for x in xs], edges)
    for src in (0, 1999, 1000):
        got = single_source_tree_distances(tree, src)
        assert list(map(repr, got)) == list(map(repr, tree_distances_dfs(tree, src)))


# ---------------------------------------------------------------- rooting

def bfs_rooting(tree):
    """Each vertex's parent and the weight of the edge to it, from a
    breadth-first walk from vertex 0 over the tree's own edge list; vertex 0
    is its own parent, at weight 0."""
    adj = [[] for _ in range(tree.n)]
    for u, v, w in tree.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent, weight = [None] * tree.n, [0] * tree.n
    parent[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v, w in adj[u]:
            if parent[v] is None:
                parent[v], weight[v] = u, w
                queue.append(v)
    return parent, weight


def bits(values):
    """Type and value of each entry, a float by its hex digits."""
    return [(type(x), x.hex() if isinstance(x, float) else x) for x in values]


def relabelled(rng, tree):
    """The same tree with its vertices numbered in a random order."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    points = [None] * tree.n
    for v, p in enumerate(tree.points):
        points[perm[v]] = p
    return WeightedTree(points, [(perm[u], perm[v], w) for u, v, w in tree.edges],
                        explicit_weights=tree.explicit_weights)


def rooting_trees():
    """Random float, int and Fraction trees (n <= 60, vertices renumbered)
    with their edge lists shuffled, reversed and with every endpoint pair
    swapped; paths listed from the far leaf to vertex 0; stars centred away
    from vertex 0; and trees of one and two vertices."""
    rng = random.Random(41)
    trees = [WeightedTree([(0, 0)], []), WeightedTree([(0.5, 0.25)], []),
             WeightedTree([(0, 0), (3, 4)], [(0, 1)]), WeightedTree([(0, 0), (3, 4)], [(1, 0)]),
             WeightedTree([(0.5, 0), (0.25, 1)], [(1, 0)])]
    for trial in range(45):
        n = rng.randint(2, 60)
        kind = trial % 3
        if kind == 0:
            tree = gen_random_tree(n, rng.randrange(10**6))                          # float
        elif kind == 1:
            tree = gen_random_tree(n, rng.randrange(10**6), bbox=(0, 0, 9 * n, 9), grid=True)  # int
        else:
            tree = random_tree(rng, n, "explicit")                                  # Fraction
        tree = relabelled(rng, tree)
        trees += [
            tree,
            shuffled_edges(rng, tree),
            WeightedTree(tree.points, tree.edges[::-1], explicit_weights=tree.explicit_weights),
            WeightedTree(tree.points, [(v, u, w) for u, v, w in tree.edges],
                         explicit_weights=tree.explicit_weights),
        ]
    for n in (3, 8, 31):
        xs = [Fraction(k * k, 3) for k in range(n)]
        trees += [
            WeightedTree([(x, 0) for x in xs], [(k, k - 1) for k in range(n - 1, 0, -1)]),
            WeightedTree([(float(x), 0.0) for x in xs], [(k - 1, k) for k in range(n - 1, 0, -1)]),
            WeightedTree([(k, k) for k in range(n)], [(n // 2, k) for k in range(n) if k != n // 2]),
            WeightedTree([(math.cos(k), math.sin(k)) for k in range(n)],
                         [(k, n - 1) for k in range(n - 1)]),
        ]
    return trees


def test_rooting_matches_a_breadth_first_reference():
    for tree in rooting_trees():
        parent, weight = bfs_rooting(tree)
        assert tree._parent == parent
        assert bits(tree._parent_weight) == bits(weight)
        order = tree._order
        assert sorted(order) == list(range(tree.n)) and order[0] == 0
        place = {v: i for i, v in enumerate(order)}
        assert all(place[parent[v]] < place[v] for v in range(1, tree.n))
        for src in range(tree.n):
            assert (bits(single_source_tree_distances(tree, src))
                    == bits(tree_distances_dfs(tree, src)))


def test_rooting_a_long_path_needs_no_recursion():
    # listed from the far leaf to vertex 0, so each vertex waits on the next
    n = 200_000
    tree = WeightedTree([(k, 0) for k in range(n)], [(k, k - 1) for k in range(n - 1, 0, -1)])
    assert single_source_tree_distances(tree, n - 1) == list(range(n - 1, -1, -1))


@pytest.mark.parametrize("points,edges", [
    ([(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 1), (1, 0), (2, 3)]),   # duplicate, piece without 0
    ([(0, 0), (1, 0), (2, 0), (2, 1)], [(1, 2), (2, 3), (3, 1)]),   # triangle, 0 isolated
    ([(0, 0), (1, 0), (2, 0), (2, 1)], [(0, 1), (1, 2), (2, 0)]),   # triangle on 0, 3 isolated
])
def test_rooting_rejects_what_is_not_a_tree(points, edges):
    with pytest.raises(ValueError, match="edges do not form a connected tree"):
        WeightedTree(points, edges)


def test_adjacency_is_built_on_first_use():
    tree = WeightedTree([(0, 0), (3, 4), (3, 0), (0, 4)], [(1, 0), (1, 2), (3, 0)])
    other = WeightedTree([(10, 0), (10, 3), (13, 3)], [(0, 1), (2, 1)])
    build_distance_table(tree)
    tree_eccentricities(tree)
    solve_exact(tree, other)
    approx_greedy(tree, other)
    connect_forest([other, tree, other])
    assert "adjacency" not in vars(tree) and "adjacency" not in vars(other)
    # each vertex's neighbours in edge-list order
    assert tree.adjacency == (((1, 5), (3, 4)), ((0, 5), (2, 4)), ((1, 4),), ((0, 4),))
    assert vars(tree)["adjacency"] is tree.adjacency


def test_path_distance_equals_sum_of_edge_weights():
    # distance between any two vertices is additive along the unique path
    rng = random.Random(11)
    weight = {}
    for trial in range(120):
        tree = random_tree(rng, rng.randint(2, 15), ("float", "explicit")[trial % 2])
        table = build_distance_table(tree)
        weight = {(u, v): w for (u, v, w) in tree.edges}
        weight.update({(v, u): w for (u, v, w) in tree.edges})
        for a in range(tree.n):
            for b in range(tree.n):
                path = path_vertices(tree, a, b)
                assert path[0] == a and path[-1] == b
                total = sum(weight[(path[i], path[i + 1])]
                            for i in range(len(path) - 1))
                assert math.isclose(float(total), float(table.dist[a][b]), rel_tol=1e-12, abs_tol=1e-12)


def test_walk_parents_never_enters_a_blocked_vertex():
    # path 0-1-2-3 with leaf 4 on vertex 1
    tree = WeightedTree([(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)],
                        [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert walk_parents(tree.adjacency, 0) == [0, 0, 1, 2, 1]
    assert walk_parents(tree.adjacency, 0, (2,)) == [0, 0, None, None, 1]
    assert walk_parents(tree.adjacency, 3, (2,)) == [None, None, None, 3, None]


def row_eccentricities(table):
    """Each vertex's eccentricity, lex-min farthest vertex and the lex-min
    center, read from the all-pairs rows."""
    ecc = [max(row) for row in table.dist]
    far = [row.index(e) for row, e in zip(table.dist, ecc)]
    return ecc, far, ecc.index(min(ecc))


def lex_min_diameter_pair(table):
    n = len(table.dist)
    return min((x, z) for x in range(n) for z in range(x, n)
               if table.dist[x][z] == table.diameter)


def test_eccentricity_diameter_center_consistency():
    rng = random.Random(13)
    for _ in range(40):
        tree = random_tree(rng, rng.randint(2, 12), "float")
        table = build_distance_table(tree)
        ecc, far, c = row_eccentricities(table)
        for v in range(tree.n):
            row = table.dist[v]
            # far is the first argmax
            assert row[far[v]] == ecc[v]
            assert all(row[u] < ecc[v] for u in range(far[v]))
        assert table.diameter == max(ecc)
        x, z = table.diameter_pair
        assert x <= z and table.dist[x][z] == table.diameter
        assert (x, z) == lex_min_diameter_pair(table)
        assert ecc[c] == min(ecc)
        assert all(ecc[u] > ecc[c] for u in range(c))


def test_sweep_eccentricities_equal_the_table_on_exact_input():
    rng = random.Random(19)
    trees = [WeightedTree([(Fraction(1, 3), 0)], [])]
    trees += [random_tree(rng, rng.randint(2, 14), "explicit") for _ in range(20)]
    trees += [mixed_weight_tree(rng, rng.randint(2, 9)) for _ in range(300)]
    for tree in trees:
        table = build_distance_table(tree)
        ecc, far, c = row_eccentricities(table)
        sweep = tree_eccentricities(tree)
        assert sweep.ecc == ecc
        # reports print the diameter, so its type must match too
        assert (sweep.diameter, type(sweep.diameter)) == (table.diameter, type(table.diameter))
        assert center_vertex(sweep) == c
        assert table.diameter_pair == lex_min_diameter_pair(table)
        for v in range(tree.n):
            e, f = first_argmax(single_source_tree_distances(tree, v))
            assert (e, type(e), f) == (ecc[v], type(ecc[v]), far[v])


def test_center_vertex_takes_the_exported_eccentricities():
    import bridgeworks

    # a path 0-1-2-3 with arms 5, 1, 2: vertex 1 is 5 from one end and 3
    # from the other, vertex 2 is 6 and 2, so the center is 1
    t = WeightedTree([(0, 0), (5, 0), (6, 0), (8, 0)], [(0, 1), (1, 2), (2, 3)])
    eccs = bridgeworks.tree_eccentricities(t)
    assert isinstance(eccs, bridgeworks.Eccentricities)
    assert eccs == ([8, 5, 6, 8], 8)
    assert bridgeworks.center_vertex(eccs) == 1


def test_diameter_pair_is_lex_min():
    # two tied diameters: path 0-1-2 with equal arms, pairs (0,2) only,
    # vs a star where several leaf pairs tie
    star = WeightedTree(
        [(Fraction(0), Fraction(0)), (Fraction(5), Fraction(0)),
         (Fraction(-5), Fraction(0)), (Fraction(0), Fraction(5))],
        [(0, 1), (0, 2), (0, 3)],
    )
    table = build_distance_table(star)
    assert table.diameter == 10
    assert table.diameter_pair == (1, 2)  # first pair realizing 10


def test_exact_inputs_stay_exact():
    pts = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)), (Fraction(3), Fraction(4))]
    tree = WeightedTree(pts, [(0, 1), (1, 2)])
    table = build_distance_table(tree)
    assert table.dist[0][2] == Fraction(7)
    assert all(isinstance(d, (int, Fraction)) for row in table.dist for d in row)


def test_tree_exact_flag():
    exact = [
        WeightedTree([(0, 0), (3, 0), (3, 4)], [(0, 1), (1, 2)]),
        WeightedTree([(Fraction(1, 3), 0), (Fraction(1, 3), Fraction(5, 7))], [(0, 1)]),
        WeightedTree([(0, 0), (3, 4)], [(0, 1)]),          # length 5
        WeightedTree([(0, 0), (1, 1)], [(0, 1, Fraction(3, 2))], explicit_weights=True),
    ]
    inexact = [
        WeightedTree([(0, 0), (0.5, 0)], [(0, 1)]),        # a float coordinate
        WeightedTree([(0, 0), (1, 0)], [(0, 1, 2.5)], explicit_weights=True),
        WeightedTree([(0, 0), (1, 1)], [(0, 1)]),          # length sqrt(2)
        WeightedTree([(0, 0), (3, 4), (4, 5)], [(0, 1), (1, 2)]),
    ]
    assert [t.exact for t in exact] == [True] * 4
    assert [t.exact for t in inexact] == [False] * 4
    # cached, read-only, and outside ==, hash and repr
    t, fresh = inexact[2], WeightedTree([(0, 0), (1, 1)], [(0, 1)])
    assert "exact" in vars(t) and "exact" not in vars(fresh)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    with pytest.raises(AttributeError):
        t.exact = True


def test_first_argmax_keeps_the_first_maximum_and_its_type():
    def loop(vals):   # the reference: a strict > scan from the left
        best, arg = vals[0], 0
        for i in range(1, len(vals)):
            if vals[i] > best:
                best, arg = vals[i], i
        return best, arg

    cases = [[2], [1, 5, Fraction(5), 3], [Fraction(5), 5.0, 5], [0.5, 7, 2, 7.0], [3, 2, 1]]
    rng = random.Random(5)
    kinds = (int, float, lambda v: Fraction(v), lambda v: Fraction(2 * v, 2))
    cases += [[rng.choice(kinds)(rng.randrange(4)) for _ in range(rng.randint(1, 9))]
              for _ in range(300)]
    for vals in cases:
        (m, i), (want_m, want_i) = first_argmax(vals), loop(vals)
        assert i == want_i and m is want_m is vals[i]


def test_explicit_weights_override_geometry():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
    tree = WeightedTree(pts, [(0, 1, Fraction(42))], explicit_weights=True)
    table = build_distance_table(tree)
    assert table.dist[0][1] == 42
    geo = WeightedTree(pts, [(0, 1)])
    assert build_distance_table(geo).dist[0][1] == 1


def test_zero_length_edges_allowed():
    pts = [(Fraction(2), Fraction(2)), (Fraction(2), Fraction(2)), (Fraction(5), Fraction(2))]
    tree = WeightedTree(pts, [(0, 1), (1, 2)])
    table = build_distance_table(tree)
    assert table.dist[0][1] == 0
    assert table.dist[0][2] == 3


def test_tree_validation_rejects_bad_structure():
    pts = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(ValueError):
        WeightedTree(pts, [(0, 1)])                    # not spanning
    with pytest.raises(ValueError):
        WeightedTree(pts, [(0, 1), (1, 2), (2, 0)])    # cycle
    with pytest.raises(ValueError):
        WeightedTree(pts, [(0, 1), (1, 3)])            # index out of range
    for dup in ([(0, 1), (0, 1)], [(0, 1), (1, 0)]):   # duplicate edge
        with pytest.raises(ValueError, match="edges do not form a connected tree"):
            WeightedTree(pts, dup)


@pytest.mark.parametrize(
    "points,edges,explicit,message",
    [
        ([(0, 0), (1, 0)], [(0, 1, math.nan)], True, "edge (0,1) weight nan is negative or NaN"),
        ([(0, 0), (1, 0)], [(0, 1, -1)], True, "edge (0,1) weight -1 is negative or NaN"),
        ([(0, 0), (1, 0), (2, 0)], [(0, 1, 1), (1, 2, math.inf)], True, "edge (1,2) weight inf is not finite"),
        ([(0, 0), (1, math.nan)], [(0, 1)], False, "vertex 1 has a non-finite coordinate in (1, nan)"),
        ([(-math.inf, 0), (1, 0)], [(0, 1, 1)], True, "vertex 0 has a non-finite coordinate in (-inf, 0)"),
        ([(Fraction(1, 2), 0.5), (0.5, math.inf)], [(0, 1)], False,
         "vertex 1 has a non-finite coordinate in (0.5, inf)"),
        # finite coordinates whose embedded length overflows
        ([(1e308, 0.0), (-1e308, 0.0)], [(0, 1)], False, "edge (0,1) embedded length inf is not finite"),
        # an exact length whose float conversion overflows
        ([(0, 0), (10**400, 1)], [(0, 1)], False, "edge (0,1) embedded length is too large for a float"),
    ],
)
def test_tree_rejects_non_finite_values_and_negative_weights(points, edges, explicit, message):
    with pytest.raises(ValueError) as ei:
        WeightedTree(points, edges, explicit_weights=explicit)
    assert str(ei.value) == message


def test_tree_accepts_finite_values_past_the_float_range():
    # finite floats whose sum overflows, and ints too large for a float
    big = WeightedTree([(1e308, 1e308), (1e308, 0.0)], [(0, 1, 1e308)], explicit_weights=True)
    assert big.edges == ((0, 1, 1e308),)
    huge = WeightedTree([(10**400, 0.5), (10**400, 1.5)], [(0, 1)])
    assert huge.edges == ((0, 1, 1.0),)


def test_euclidean_distance_exact_when_representable():
    a = (Fraction(0), Fraction(0))
    ax = euclidean_distance(WeightedTree([a, (Fraction(7), Fraction(0))], [(0, 1)]).points[0],
                            WeightedTree([a, (Fraction(7), Fraction(0))], [(0, 1)]).points[1])
    assert ax == 7 and isinstance(ax, (int, Fraction))
    tri = WeightedTree([a, (Fraction(3), Fraction(4))], [(0, 1)])
    d = euclidean_distance(tri.points[0], tri.points[1])
    assert d == 5 and isinstance(d, (int, Fraction))
    odd = WeightedTree([a, (Fraction(1), Fraction(1))], [(0, 1)])
    d2 = euclidean_distance(odd.points[0], odd.points[1])
    assert isinstance(d2, float) and math.isclose(d2, math.sqrt(2))


def test_euclidean_distance_float_path_is_hypot_of_floats():
    coords = [0, 1, -3, 2**60, Fraction(1, 3), Fraction(-7, 2), Fraction(10**300, 7),
              0.0, -0.0, 1.5, -2.25, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
              1e308, -1e308, 1.7976931348623157e308]
    rng = random.Random(8)
    floats = 0
    for _ in range(4000):
        a = Point(rng.choice(coords), rng.choice(coords))
        b = Point(rng.choice(coords), rng.choice(coords))
        dx, dy = a.x - b.x, a.y - b.y
        if not (isinstance(dx, float) or isinstance(dy, float)):
            continue
        floats += 1
        want = math.hypot(float(dx), float(dy))
        got = euclidean_distance(a, b)
        assert type(got) is float and got.hex() == want.hex(), (a, b)
    assert floats > 2000
    # exact axis-aligned and perfect-square segments stay exact
    for a, b, want in [
        ((0, 0), (0, -7), 7),
        ((Fraction(1, 2), 3), (2, 3), Fraction(3, 2)),
        ((0, 0), (3, 4), 5),
        ((0, 0), (Fraction(3, 5), Fraction(4, 5)), 1),
        ((1, 1), (Fraction(5, 2), 3), Fraction(5, 2)),
    ]:
        got = euclidean_distance(Point(*a), Point(*b))
        assert got == want and type(got) is type(want)


# ---------------------------------------------------------------- segments

def P(x, y):
    tree = WeightedTree([(x, y), (x + 1, y)], [(0, 1)])
    return tree.points[0]


def test_segment_predicates():
    # proper crossing
    assert segments_intersect(P(0, 0), P(4, 4), P(0, 4), P(4, 0))
    assert segments_properly_cross(P(0, 0), P(4, 4), P(0, 4), P(4, 0))
    # shared endpoint: intersecting but not properly crossing
    assert segments_intersect(P(0, 0), P(4, 0), P(4, 0), P(4, 4))
    assert not segments_properly_cross(P(0, 0), P(4, 0), P(4, 0), P(4, 4))
    # T-contact at an interior point
    assert segments_intersect(P(0, 0), P(4, 0), P(2, 0), P(2, 3))
    assert not segments_properly_cross(P(0, 0), P(4, 0), P(2, 0), P(2, 3))
    # collinear overlap
    assert segments_intersect(P(0, 0), P(4, 0), P(2, 0), P(6, 0))
    assert not segments_properly_cross(P(0, 0), P(4, 0), P(2, 0), P(6, 0))
    # disjoint
    assert not segments_intersect(P(0, 0), P(1, 0), P(2, 1), P(3, 1))
    assert not segments_properly_cross(P(0, 0), P(1, 0), P(2, 1), P(3, 1))


def test_validate_planar_reports_proper_crossings_only():
    square = [(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
              (Fraction(4), Fraction(4)), (Fraction(0), Fraction(4))]
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g_ok = PlanarGraph(points=tuple(square), edges=tuple(ring))
    assert validate_planar(g_ok) == []
    g_x = PlanarGraph(points=tuple(square), edges=tuple(ring) + ((0, 2), (1, 3)))
    crossings = validate_planar(g_x)
    assert len(crossings) == 1
    (e1, e2), = crossings
    assert {e1, e2} == {4, 5}   # the two diagonals, by edge index


def _conflicts_of_every_pair(graph):
    """validate_planar without its bounding-box filter: every edge pair
    goes through the orientation tests."""
    pts, es = graph.points, graph.edges
    bad = []
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if a in (c, d) or b in (c, d):
                shared = a if a in (c, d) else b
                oa = a if shared != a else b
                oc = c if shared != c else d
                if orientation(pts[shared], pts[oa], pts[oc]) == 0 and (
                    _on_segment(pts[shared], pts[oa], pts[oc])
                    or _on_segment(pts[shared], pts[oc], pts[oa])
                ):
                    bad.append((i, j))
                continue
            if segments_intersect(pts[a], pts[b], pts[c], pts[d]):
                bad.append((i, j))
    return bad


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_validate_planar_box_filter_keeps_every_conflict(kind):
    # points on a small lattice, so collinear overlaps, touching endpoints
    # and shared endpoints all occur; the float lattice is not exact
    scale = {"int": 1, "fraction": Fraction(1, 3), "float": 0.1}[kind]
    rng = random.Random(kind)
    total = 0
    for _ in range(80):
        lattice = rng.sample([(x, y) for x in range(7) for y in range(7)], 12)
        pts = [(x * scale, y * scale) for x, y in lattice]
        pairs = rng.sample([(u, v) for u in range(12) for v in range(u + 1, 12)], rng.randint(2, 20))
        g = PlanarGraph(points=pts, edges=pairs)
        want = _conflicts_of_every_pair(g)
        assert validate_planar(g) == want
        total += len(want)
    assert total > 100   # the corpus is not conflict-free


# ---------------------------------------------------------------- closest pair

def test_bichromatic_closest_pair_methods_agree():
    rng = random.Random(3)
    for _ in range(50):
        n1 = rng.randint(1, 40)
        n2 = rng.randint(1, 40)
        t1 = gen_random_tree(max(n1, 2), rng.randrange(10**6))
        t2 = gen_random_tree(max(n2, 2), rng.randrange(10**6), bbox=(50, 50, 150, 150))
        a = closest_pair_scan(t1.points, t2.points)
        b = bichromatic_closest_pair(t1.points, t2.points)
        assert a[:2] == b[:2]
        assert math.isclose(float(a[2]), float(b[2]), rel_tol=1e-9)
    # float grids: coincident points and many equidistant pairs; both scans
    # compute the same IEEE squares, so they agree exactly
    for _ in range(30):
        step = rng.choice((0.1, 0.25, 1.0, 1 / 3))
        pts1, pts2 = (
            [Point(step * rng.randrange(6), step * rng.randrange(6)) for _ in range(rng.randint(1, 30))]
            for _ in range(2)
        )
        assert bichromatic_closest_pair(pts1, pts2) == closest_pair_scan(pts1, pts2)


def test_bichromatic_closest_pair_tie_is_lex_min():
    # two pairs at distance exactly 2: (0,0)-(2,0) and (1,5)-(3,5)
    pts1 = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(5))]
    pts2 = [(Fraction(2), Fraction(0)), (Fraction(3), Fraction(5))]
    t1 = WeightedTree(pts1, [(0, 1)])
    t2 = WeightedTree(pts2, [(0, 1)])
    i, j, d = bichromatic_closest_pair(t1.points, t2.points)
    assert (i, j, d) == (0, 0, 2)
    # the same tie on float input goes through the numpy scan
    as_float = [[Point(float(p.x), float(p.y)) for p in t.points] for t in (t1, t2)]
    assert bichromatic_closest_pair(*as_float)[:2] == (0, 0)


# ---------------------------------------------------------------- generator

def test_gen_random_tree_is_deterministic_and_valid():
    a = gen_random_tree(12, 99)
    b = gen_random_tree(12, 99)
    assert a.points == b.points and a.edges == b.edges
    assert a.n == 12 and len(a.edges) == 11

    g = gen_random_tree(20, 5, grid=True, bbox=(0, 0, 30, 30))
    seen = set()
    for p in g.points:
        assert p.x == int(p.x) and p.y == int(p.y)
        assert 0 <= p.x <= 30 and 0 <= p.y <= 30
        seen.add((p.x, p.y))
    assert len(seen) == 20  # distinct lattice points

    w = gen_random_tree(8, 5, explicit_weight_range=(3, 9))
    assert w.explicit_weights
    assert all(3 <= e[2] <= 9 for e in w.edges)


def test_grid_sampling_stays_inside_a_fractional_bbox():
    # both sampling branches: the whole lattice (small boxes) and rejection
    # sampling (a box far larger than 4 n^2 points)
    for bbox, n in (((0.5, 0.5, 3.5, 3.5), 9), ((-3.5, -2.5, -0.5, 0.5), 9),
                    ((Fraction(1, 3), 0, Fraction(20, 3), Fraction(5, 2)), 18),
                    ((0.5, 0.5, 1000.5, 1000.5), 30), ((-900.5, -0.5, -0.5, 900.5), 30)):
        x0, y0, x1, y1 = bbox
        for seed in range(5):
            g = gen_random_tree(n, seed, grid=True, bbox=bbox)
            assert len(set(g.points)) == n
            assert all(type(p.x) is int and type(p.y) is int for p in g.points)
            assert all(x0 <= p.x <= x1 and y0 <= p.y <= y1 for p in g.points)
    with pytest.raises(ValueError, match="holds 0 lattice points"):
        gen_random_tree(1, 0, grid=True, bbox=(0.5, 0, 0.9, 0))
    with pytest.raises(ValueError, match="holds 9 lattice points, need 10"):
        gen_random_tree(10, 0, grid=True, bbox=(0.5, 0.5, 3.5, 3.5))
    # integral bounds of any type sample the same trees as int bounds
    for bbox in ((0, 0, 30, 30), (0, 0, 400, 0), (-5, -7, 10**6, 10**6)):
        want = gen_random_tree(20, 3, grid=True, bbox=bbox)
        for conv in (float, Fraction):
            got = gen_random_tree(20, 3, grid=True, bbox=tuple(map(conv, bbox)))
            assert (got.points, got.edges) == (want.points, want.edges)
