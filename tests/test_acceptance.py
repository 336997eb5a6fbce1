"""Binding end-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured quantities and
enforces its wall-clock budget. Oracles here are independent of the
library internals: fresh Dijkstra sweeps, exhaustive topology
enumeration, rational recomputation of depths and capacities.
"""

from __future__ import annotations

import itertools
import heapq
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from bridgeworks import (
    PlanarGraph,
    WeightedTree,
    approx_greedy,
    brute_force_twin,
    connect_forest,
    crossing_optimum_instance,
    euclidean_distance,
    gen_random_tree,
    greedy_tightness_instance,
    solve_exact,
    solve_twin,
    validate_planar,
)
from bridgeworks.geometry import single_source_tree_distances
from bridgeworks.io import serialize_tree
from bridgeworks.reductions import (
    cov_to_one_bridge,
    carry_overflow_example,
    enumerate_instances,
    k4_embedding,
    prism_embedding,
    random_instance,
    rdbp_minimum_budget,
    repunit,
    sat_to_cov,
    sat_to_threesum,
    threesum_brute_force,
    vc_to_rdbp,
    verify_one_bridge_iff,
    verify_threesum_iff,
    vertex_cover_brute_force,
)


# --------------------------------------------------------------- corpora

def collinear_pair(rng, n_max, spread, x0_other):
    """Two disjoint collinear trees with exact rational geometry."""
    def mk(n, x0):
        xs = rng.sample(range(0, spread), n)
        pts = [(Fraction(x0 + x), Fraction(0)) for x in xs]
        return WeightedTree(pts, [(rng.randrange(i), i) for i in range(1, n)])
    return mk(rng.randint(2, n_max), 0), mk(rng.randint(2, n_max), x0_other)


@lru_cache(maxsize=1)
def bridge_corpus_500():
    out = []
    for seed in range(500):
        rng = random.Random(seed)
        t1, t2 = collinear_pair(rng, n_max=12, spread=96, x0_other=200)
        out.append((t1, t2, solve_exact(t1, t2)))
    return out


def oracle_best_bridge_value(t1, t2):
    ecc1 = [max(single_source_tree_distances(t1, p)) for p in range(t1.n)]
    ecc2 = [max(single_source_tree_distances(t2, q)) for q in range(t2.n)]
    return min(
        ecc1[p] + euclidean_distance(t1.points[p], t2.points[q]) + ecc2[q]
        for p in range(t1.n)
        for q in range(t2.n)
    )


def test_c01_exact_bridge_matches_fresh_oracle():
    t0 = time.perf_counter()
    corpus = bridge_corpus_500()
    for t1, t2, sol in corpus:
        assert sol.backend == "rational"
        assert sol.value == oracle_best_bridge_value(t1, t2)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 1 PASS: 500/500 exact-vs-oracle equal ({dt:.2f}s)")


def test_c02_greedy_within_factor_two_and_tight_family():
    corpus = bridge_corpus_500()
    t0 = time.perf_counter()
    worst = Fraction(0)
    for t1, t2, sol in corpus:
        g = approx_greedy(t1, t2)
        ratio = Fraction(g.value, sol.value)
        assert ratio <= 2
        worst = max(worst, ratio)
    n, eps = 1000, Fraction(1, 100)
    t1, t2 = greedy_tightness_instance(n, eps)
    exact = solve_exact(t1, t2)
    greedy = approx_greedy(t1, t2)
    assert exact.value == 2 * n + 1
    assert greedy.value == 4 * n + 1 - eps
    tight = Fraction(greedy.value, exact.value)
    assert tight > Fraction(1999, 1000)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 2 PASS: worst random ratio {float(worst):.4f}, "
          f"tight family ratio {float(tight):.6f} ({dt:.2f}s)")


def _dump_twin_discrepancy(kind, seed, t1, t2, got, want):
    path = Path(__file__).with_name(f"_twin_discrepancy_{kind}_{seed}.txt")
    path.write_text(
        f"# solver value {got} vs brute force {want}, seed {seed} ({kind})\n"
        + serialize_tree(t1)
        + serialize_tree(t2)
    )
    return path


def test_c03_twin_solver_equals_brute_force_on_rational_corpus():
    t0 = time.perf_counter()
    checked = 0
    for kind, explicit in (("geometric", False), ("explicit", True)):
        for seed in range(150):
            rng = random.Random(seed)
            n1, n2 = rng.randint(3, 7), rng.randint(3, 7)
            def mk(n, x0):
                xs = rng.sample(range(0, 60), n)
                pts = [(Fraction(x0 + x), Fraction(0)) for x in xs]
                if explicit:
                    edges = [(rng.randrange(i), i, Fraction(rng.randint(1, 12)))
                             for i in range(1, n)]
                    return WeightedTree(pts, edges, explicit_weights=True)
                return WeightedTree(pts, [(rng.randrange(i), i) for i in range(1, n)])
            t1, t2 = mk(n1, 0), mk(n2, 100)
            tw = solve_twin(t1, t2)
            bf = brute_force_twin(t1, t2)
            if tw.value != bf.value:
                path = _dump_twin_discrepancy(kind, seed, t1, t2, tw.value, bf.value)
                raise AssertionError(
                    f"twin discrepancy on {kind} seed {seed}: "
                    f"{tw.value} != {bf.value}; instance dumped to {path}"
                )
            checked += 1
    dt = time.perf_counter() - t0
    assert checked == 300
    assert dt < 60.0
    print(f"criterion 3 PASS: 300/300 twin == brute force ({dt:.2f}s)")


def test_c04_crossing_bridges_beat_the_parallel_layout():
    t0 = time.perf_counter()
    eps = Fraction(1, 100)
    t1, t2 = crossing_optimum_instance(eps=eps)
    sol = solve_twin(t1, t2)
    bc = euclidean_distance(t1.points[1], t2.points[0])
    bd = euclidean_distance(t1.points[1], t2.points[1])
    assert sol.intersecting is True
    assert sol.value == bc + 2 * eps
    assert sol.value < bd + 2 * eps
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 4 PASS: crossing optimum {sol.value} < {bd + 2 * eps} ({dt:.2f}s)")


@lru_cache(maxsize=1)
def sat_corpus():
    insts = list(enumerate_instances(4, 3))
    insts += [random_instance(6, 4, seed) for seed in range(200)]
    return insts


def test_c05_sat_vectors_bridge_three_way_equivalence():
    t0 = time.perf_counter()
    corpus = sat_corpus()
    sat_count = 0
    checked_m = set()
    for inst in corpus:
        rep = verify_one_bridge_iff(inst)
        assert rep.consistent, f"iff broke on {inst}"
        assert rep.sat == rep.cov == rep.bridge
        sat_count += rep.sat
        # the reduction's thresholds depend only on the clause count m
        if inst.m not in checked_m:
            checked_m.add(inst.m)
            _, _, params = cov_to_one_bridge(sat_to_cov(inst))
            assert params.c1 == 0
            assert params.c2 == params.c + 2
    dt = time.perf_counter() - t0
    assert len(corpus) == 6544 + 200
    assert dt < 120.0
    print(f"criterion 5 PASS: {len(corpus)} formulas three-way consistent, "
          f"{sat_count} satisfiable ({dt:.2f}s)")


def _depth(vector):
    total = Fraction(0)
    for i, d in enumerate(vector, start=1):
        if d == 0:
            total += Fraction(1, 3) ** (i - 1)
        elif d == 2:
            total += 4
    return total


def _capacity(m):
    return Fraction(3, 2) * (1 - Fraction(1, 3) ** m)


def test_c06_depth_inequalities_hold_exactly():
    t0 = time.perf_counter()
    for m in range(2, 41):
        for i in range(m - 1):
            tail = sum((Fraction(1, 3) ** j for j in range(i + 1, m)), Fraction(0))
            assert Fraction(1, 3) ** i > tail
    rng = random.Random(606)
    for shared, side in ((0, 1), (1, -1)):
        for _ in range(1000):
            m = rng.randint(1, 12)
            i = rng.randrange(m)
            pre = [rng.choice(((0, 1), (1, 0))) for _ in range(i)]
            u = [a for a, _ in pre] + [shared]
            v = [b for _, b in pre] + [shared]
            while len(u) < m:
                u.append(rng.randint(0, 1))
                v.append(rng.randint(0, 1))
            gap = _depth(u) + _depth(v) - _capacity(m)
            assert side * gap > 0
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 6 PASS: tail bound m<=40 and 2000 pair inequalities ({dt:.2f}s)")


def test_c07_sum_reduction_equivalence_and_carry_demo():
    t0 = time.perf_counter()
    corpus = sat_corpus()
    for inst in corpus:
        rep = verify_threesum_iff(inst)
        assert rep.consistent
        if rep.sat:
            inst3 = sat_to_threesum(inst)
            tri = threesum_brute_force(inst3.integers)
            assert tri is not None
            target = -repunit(inst.m + 2)
            assert any(inst3.integers[i] == target for i in tri)
    ex = carry_overflow_example()
    assert ex["addends"] == (2, 2, 2, 2, 2, 1)
    assert ex["digit_patterns"] == ((0, 2),) * 5 + ((0, 1),)
    assert ex["sum"] == 11 == ex["repunit"] == repunit(2)
    assert ex["collides"] is True
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 7 PASS: {len(corpus)} formulas sum-iff consistent, "
          f"carry demo digit-exact ({dt:.2f}s)")


def test_c08_shortcut_budget_equals_cover_number():
    t0 = time.perf_counter()
    for embedding, expect in ((k4_embedding, 3), (prism_embedding, 4)):
        points, edges = embedding()
        cover = vertex_cover_brute_force(len(points), edges)
        assert len(cover) == expect
        inst = vc_to_rdbp(points, edges, budget=expect)
        k, subset = rdbp_minimum_budget(inst)
        assert k == len(cover)
        deg = [0] * len(inst.graph.points)
        for (u, v) in inst.graph.edges:
            deg[u] += 1
            deg[v] += 1
        assert validate_planar(inst.graph) == []
        assert max(deg) <= 4
        for (a, b) in inst.candidates:
            deg[a] += 1
            deg[b] += 1
        assert max(deg) <= 5
        augmented = PlanarGraph(
            points=inst.graph.points,
            edges=tuple(inst.graph.edges) + tuple(inst.candidates),
        )
        assert validate_planar(augmented) == []
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 8 PASS: budgets 3 and 4 match cover numbers ({dt:.2f}s)")


# ---------------------------------------------------- forest oracle (c9)

def _labelled_topologies(k):
    """All labelled trees on k nodes, decoded from attachment sequences."""
    if k == 2:
        return [[(0, 1)]]
    out = []
    for seq in itertools.product(range(k), repeat=k - 2):
        deg = [1] * k
        for s in seq:
            deg[s] += 1
        leaves = [i for i in range(k) if deg[i] == 1]
        heapq.heapify(leaves)
        edges = []
        for s in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, s), max(leaf, s)))
            deg[s] -= 1
            if deg[s] == 1:
                heapq.heappush(leaves, s)
        u, v = sorted(leaves)
        edges.append((u, v))
        out.append(edges)
    return out


def oracle_forest_optimum(trees):
    """Exact minimum merged diameter over every topology and endpoint choice.

    The merged graph is always a tree, so each candidate decomposes per
    tree pair into (farthest-in-source) + bridges + through-segments +
    (farthest-in-target); the grid over endpoint choices is evaluated
    with one broadcast array per route segment.
    """
    k = len(trees)
    D, FAR = [], []
    for t in trees:
        d = np.array(
            [[float(x) for x in single_source_tree_distances(t, s)] for s in range(t.n)]
        )
        d = np.maximum(d, d.T)
        D.append(d)
        FAR.append(d.max(axis=0))
    base = max(d.max() for d in D)
    best = math.inf
    for edges in _labelled_topologies(k):
        sizes, W, PU, QV = [], [], [], []
        for (u, v) in edges:
            nu, nv = trees[u].n, trees[v].n
            w = np.array(
                [
                    [
                        float(euclidean_distance(trees[u].points[a], trees[v].points[b]))
                        for b in range(nv)
                    ]
                    for a in range(nu)
                ]
            )
            W.append(w.ravel())
            PU.append(np.repeat(np.arange(nu), nv))
            QV.append(np.tile(np.arange(nv), nu))
            sizes.append(nu * nv)

        def axes(arr, *eis):
            shape = [1] * (k - 1)
            for ei, dim in zip(eis, arr.shape):
                shape[ei] = dim
            return arr.reshape(shape)

        def port(ei, tree):
            return PU[ei] if edges[ei][0] == tree else QV[ei]

        adj = {i: [] for i in range(k)}
        for ei, (u, v) in enumerate(edges):
            adj[u].append((v, ei))
            adj[v].append((u, ei))

        def route(s, t):
            prev = {s: None}
            frontier = [s]
            while frontier:
                x = frontier.pop()
                for (y, ei) in adj[x]:
                    if y not in prev:
                        prev[y] = (x, ei)
                        frontier.append(y)
            hops = []
            cur = t
            while prev[cur] is not None:
                x, ei = prev[cur]
                hops.append((ei, x, cur))
                cur = x
            return list(reversed(hops))

        grid = np.zeros([1] * (k - 1))
        for s in range(k):
            for t in range(s + 1, k):
                hops = route(s, t)
                ei0 = hops[0][0]
                term = axes(FAR[s][port(ei0, s)] + W[ei0], ei0)
                for (ea, _, mid), (eb, _, _) in zip(hops, hops[1:]):
                    through = D[mid][port(ea, mid)[:, None], port(eb, mid)[None, :]]
                    term = term + axes(through, ea, eb) + axes(W[eb], eb)
                elast = hops[-1][0]
                term = term + axes(FAR[t][port(elast, t)], elast)
                grid = np.maximum(grid, term)
        best = min(best, max(float(grid.min()), float(base)))
    return best


def test_c09_forest_connection_within_factor_four_of_optimum():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = random.Random(9_000 + i)
        kk = rng.randint(3, 4)
        trees = [
            gen_random_tree(rng.randint(1, 6), seed=31 * i + j,
                            bbox=(60 * j, 0, 60 * j + 30, 30))
            for j in range(kk)
        ]
        conn = connect_forest(trees)
        opt = oracle_forest_optimum(trees)
        got = float(conn.diameter)
        assert got >= opt - 1e-6  # the oracle really is a lower bound
        assert got <= 4 * opt + 1e-6
        if opt > 0:
            worst = max(worst, got / opt)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 9 PASS: 200 forests, worst ratio {worst:.3f} ({dt:.2f}s)")
