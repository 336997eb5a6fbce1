"""Single-bridge solver, greedy approximation, and forest connection tests.

Oracle: full scan over all n1*n2 bridges where each bridge is re-scored
from scratch (two fresh distance sweeps, no shared tables), lex-min
(value, p, q) tie-break.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import bridgeworks.bridge
import bridgeworks.geometry
from bridgeworks import (
    WeightedTree,
    approx_greedy,
    build_distance_table,
    connect_forest,
    euclidean_distance,
    gen_random_tree,
    greedy_tightness_instance,
    one_bridge_decide,
    solve_exact,
)
from bridgeworks.bridge import bichromatic_closest_pair
from bridgeworks.geometry import Point, single_source_tree_distances, tree_eccentricities
from bridgeworks.numerics import is_exact, resolve_backend
from bridgeworks.reductions import cov_to_one_bridge, random_instance, sat_to_cov
from bridgeworks.twin import (
    brute_force_twin,
    evaluate_constrained_diameter,
    solve_cases_12,
    solve_cases_34,
    solve_twin,
)
from scan_oracles import closest_pair_scan, scan_double, scan_exact, tree_distances_dfs


# ---------------------------------------------------------------- oracle

def oracle_best_bridge(t1, t2):
    """Lex-min (value, p, q) over every bridge, scored independently."""
    ecc1 = [max(tree_distances_dfs(t1, p)) for p in range(t1.n)]
    ecc2 = [max(tree_distances_dfs(t2, q)) for q in range(t2.n)]
    best = None
    for p in range(t1.n):
        for q in range(t2.n):
            val = ecc1[p] + euclidean_distance(t1.points[p], t2.points[q]) + ecc2[q]
            key = (val, p, q)
            if best is None or key < best:
                best = key
    return best


def rational_pair(seed, n_max=12):
    rng = random.Random(seed)
    n1 = rng.randint(2, n_max)
    n2 = rng.randint(2, n_max)
    def mk(n, x0):
        xs = rng.sample(range(0, 8 * n_max), n)
        pts = [(Fraction(x0 + x), Fraction(0)) for x in xs]
        return WeightedTree(pts, [(rng.randrange(i), i) for i in range(1, n)])
    return mk(n1, 0), mk(n2, 200)


def mixed_weight_pair(rng):
    """Integer points, explicit weights mixing int, Fraction and zero, so
    that equal distances of either type (5 and Fraction(5)) tie often."""
    weights = [0, 1, 2, Fraction(1, 2), Fraction(3, 2)]
    def mk(x0):
        n = rng.randint(1, 9)
        pts = [(x0 + rng.randrange(10), 0) for _ in range(n)]
        edges = [(rng.randrange(max(0, i - 2), i), i, rng.choice(weights)) for i in range(1, n)]
        return WeightedTree(pts, edges, explicit_weights=True)
    return mk(0), mk(20)


def float_pair(seed, n_max=12):
    rng = random.Random(seed)
    t1 = gen_random_tree(rng.randint(2, n_max), seed * 2 + 1)
    t2 = gen_random_tree(rng.randint(2, n_max), seed * 2 + 2, bbox=(150, 0, 250, 100))
    return t1, t2


# ---------------------------------------------------------------- exact solver

def test_solve_exact_matches_oracle_rational():
    for seed in range(80):
        t1, t2 = rational_pair(seed)
        sol = solve_exact(t1, t2)
        val, p, q = oracle_best_bridge(t1, t2)
        assert (sol.value, sol.p, sol.q) == (val, p, q)
        assert sol.backend == "rational"


def test_solve_exact_matches_oracle_float():
    for seed in range(40):
        t1, t2 = float_pair(seed)
        sol = solve_exact(t1, t2)
        val, p, q = oracle_best_bridge(t1, t2)
        assert math.isclose(float(sol.value), float(val), rel_tol=1e-9)
        assert (sol.p, sol.q) == (p, q)
        assert sol.backend == "double"


def row_eccentricities(tab):
    """Each vertex's eccentricity and lex-min farthest vertex, read from the
    all-pairs rows."""
    ecc = [max(row) for row in tab.dist]
    return ecc, [row.index(e) for row, e in zip(tab.dist, ecc)]


def test_bridge_solution_invariants():
    for seed in range(30):
        t1, t2 = rational_pair(seed, n_max=9)
        sol = solve_exact(t1, t2)
        tab1 = build_distance_table(t1)
        tab2 = build_distance_table(t2)
        (ecc1, _), (ecc2, _) = row_eccentricities(tab1), row_eccentricities(tab2)
        assert sol.value == ecc1[sol.p] + sol.bridge_length + ecc2[sol.q]
        assert sol.bridge_length == euclidean_distance(t1.points[sol.p], t2.points[sol.q])
        x, y = sol.witness
        assert tab1.dist[x][sol.p] == ecc1[sol.p]
        assert tab2.dist[sol.q][y] == ecc2[sol.q]
        # witnesses are the first vertices attaining the eccentricities
        assert all(tab1.dist[u][sol.p] < ecc1[sol.p] for u in range(x))
        assert all(tab2.dist[sol.q][v] < ecc2[sol.q] for v in range(y))
        assert sol.merged_diameter == max(tab1.diameter, tab2.diameter, sol.value)
        # no bridge beats the reported optimum
        for p in range(t1.n):
            for q in range(t2.n):
                f = ecc1[p] + euclidean_distance(t1.points[p], t2.points[q]) + ecc2[q]
                assert sol.value <= f


def table_answers(t1, t2):
    """What the solvers report, computed from the all-pairs tables; value
    types included, since reports print 5 and Fraction(5) differently."""
    tab1, tab2 = build_distance_table(t1), build_distance_table(t2)
    (ecc1, far1), (ecc2, far2) = row_eccentricities(tab1), row_eccentricities(tab2)
    _, p, q = min(
        (ecc1[p] + euclidean_distance(t1.points[p], t2.points[q]) + ecc2[q], p, q)
        for p in range(t1.n) for q in range(t2.n)
    )
    gp, gq, _ = closest_pair_scan(t1.points, t2.points)
    out = {}
    for method, p, q in (("exact", p, q), ("greedy", gp, gq)):
        blen = euclidean_distance(t1.points[p], t2.points[q])
        val = ecc1[p] + blen + ecc2[q]
        out[method] = (p, q, blen, val, max(tab1.diameter, tab2.diameter, val),
                       (far1[p], far2[q]), method, "rational")
    # the centers: the first rows with the smallest row maximum
    c1, c2 = ecc1.index(min(ecc1)), ecc2.index(min(ecc2))
    cross = ecc1[c1] + euclidean_distance(t1.points[c1], t2.points[c2]) + ecc2[c2]
    out["forest"] = (((1, c2, 0, c1),), max(max(tab1.diameter, tab2.diameter), cross), 0)
    return out


def test_single_bridge_solvers_sweep_and_report_what_the_tables_give(monkeypatch):
    rng = random.Random(29)
    pairs = [mixed_weight_pair(rng) for _ in range(150)]
    expected = [table_answers(t1, t2) for t1, t2 in pairs]

    def refuse(tree):
        raise AssertionError("the single-bridge solvers need no all-pairs table")

    monkeypatch.setattr(bridgeworks.bridge, "build_distance_table", refuse)
    monkeypatch.setattr(bridgeworks.geometry, "build_distance_table", refuse)
    for (t1, t2), want in zip(pairs, expected):
        for method, sol in (("exact", solve_exact(t1, t2)), ("greedy", approx_greedy(t1, t2))):
            got = (sol.p, sol.q, sol.bridge_length, sol.value, sol.merged_diameter,
                   sol.witness, sol.method, sol.backend)
            assert got == want[method]
            assert [type(x) for x in got] == [type(x) for x in want[method]]
        conn = connect_forest([t1, t2])
        got = (conn.bridges, conn.diameter, conn.hub)
        assert got == want["forest"] and type(conn.diameter) is type(want["forest"][1])


def tie_rich_float_pair(seed, weights):
    """Overlapping integer grids as floats, with explicit integer weights in
    `weights`: many bridges tie at the optimum (coincident points, equal
    eccentricities), and 120 x 90 pairs span two default scan chunks."""
    pair = (
        gen_random_tree(120, seed, grid=True, bbox=(0, 0, 15, 15), explicit_weight_range=weights),
        gen_random_tree(90, seed + 100, grid=True, bbox=(8, 0, 23, 15), explicit_weight_range=weights),
    )
    return [
        WeightedTree([(float(p.x), float(p.y)) for p in t.points],
                     [(u, v, float(w)) for u, v, w in t.edges], explicit_weights=True)
        for t in pair
    ]


def tied_rows(t1, t2, value):
    """The rows p of every bridge scoring `value` in the oracle's scoring."""
    ecc1 = [max(tree_distances_dfs(t1, p)) for p in range(t1.n)]
    ecc2 = [max(tree_distances_dfs(t2, q)) for q in range(t2.n)]
    return {
        p for p in range(t1.n) for q in range(t2.n)
        if ecc1[p] + euclidean_distance(t1.points[p], t2.points[q]) + ecc2[q] == value
    }


@pytest.mark.parametrize("pts1,pts2,empty", [
    ([], [(0, 0), (1, 2)], "pts1"),             # exact points
    ([(0, 0), (Fraction(1, 2), 3)], [], "pts2"),
    ([], [(0.5, 0.0), (1.0, 2.0)], "pts1"),     # float points
    ([(0.5, 0.0), (1.0, 2.0)], [], "pts2"),
])
def test_closest_pair_rejects_an_empty_side(pts1, pts2, empty):
    pts1, pts2 = ([Point(*p) for p in pts] for pts in (pts1, pts2))
    with pytest.raises(ValueError, match=f"{empty} is empty"):
        bichromatic_closest_pair(pts1, pts2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_closest_pair_rejects_non_finite_coordinates(bad):
    # a NaN compares false, so a scan could settle on it: (0, 0, nan)
    good = [Point(0.5, 0.0), Point(3.0, 1.0)]
    for pts1, pts2, want in (
        ([Point(bad, 0.0), Point(0.0, 0.0)], good, f"pts1[0] has a non-finite coordinate in ({bad}, 0.0)"),
        (good, [Point(0.0, 0.0), Point(1.0, bad)], f"pts2[1] has a non-finite coordinate in (1.0, {bad})"),
    ):
        with pytest.raises(ValueError) as ei:
            bichromatic_closest_pair(pts1, pts2)
        assert str(ei.value) == want


def test_a_cross_distance_past_the_float_range_names_both_points():
    # from (4, 3) to (10**400, 10**400) on a diagonal: irrational, so a float
    big = 10**400
    t1 = WeightedTree([(0, 0), (4, 0), (4, 3)], [(0, 1), (1, 2)])
    t2 = WeightedTree([(big, big), (big, big + 1)], [(0, 1)])
    for call, where in (
        (lambda: solve_exact(t1, t2), "t1 vertex 1 to t2 vertex 0"),
        (lambda: approx_greedy(t1, t2), "pts1 vertex 2 to pts2 vertex 0"),
        (lambda: one_bridge_decide(t1, t2, 1.5, 2), "t1 vertex 0 to t2 vertex 0"),
        (lambda: connect_forest([t2, t1]), "trees[1] vertex 1 to trees[0] vertex 0"),
        (lambda: solve_twin(t1, t2), "t1 vertex 0 to t2 vertex 0"),
    ):
        with pytest.raises(OverflowError) as ei:
            call()
        assert str(ei.value) == f"distance from {where} is too large for a float"


def test_chunk_sizes_do_not_change_result(monkeypatch):
    # one-row chunks put every tie across a chunk boundary; n1 * n2 entries
    # scan the whole matrix as one chunk
    cases = [float_pair(17, n_max=20), *(tie_rich_float_pair(s, (0, 0)) for s in (0, 1)),
             tie_rich_float_pair(4, (0, 1))]
    for t1, t2 in cases:
        closest = closest_pair_scan(t1.points, t2.points)
        got = set()
        for entries in (1, bridgeworks.bridge._CHUNK_ENTRIES, t1.n * t2.n):
            monkeypatch.setattr(bridgeworks.bridge, "_CHUNK_ENTRIES", entries)
            sol = solve_exact(t1, t2)
            got.add((sol.p, sol.q, sol.value))
            assert bichromatic_closest_pair(t1.points, t2.points) == closest
        assert len(got) == 1
        (p, q, value), = got
        want = oracle_best_bridge(t1, t2)
        assert (p, q) == want[1:] and math.isclose(value, want[0], rel_tol=1e-12)
    # the tie-rich pairs tie at the optimum on several rows
    assert all(len(tied_rows(*pair, oracle_best_bridge(*pair)[0])) >= 5 for pair in cases[1:])


def test_float_scans_score_few_pairs_when_the_distance_decides(monkeypatch):
    # trees 10**5 apart (solve_exact) and point sets on one x range, 1000
    # apart in y (the closest pair): eccentricities alone, or distances in
    # x alone, bound no pair away here
    scored = []

    def counting(real):
        def wrapped(*args):
            out = real(*args)
            scored.append(out.size)
            return out
        return wrapped

    for name in ("_scores", "_squares"):
        monkeypatch.setattr(bridgeworks.bridge, name, counting(getattr(bridgeworks.bridge, name)))
    far = gen_random_tree(2000, 1), gen_random_tree(2000, 2, bbox=(10**5, 0, 10**5 + 100, 100))
    y_separated = (gen_random_tree(2000, 1, bbox=(0, 0, 100, 1)),
                   gen_random_tree(2000, 2, bbox=(0, 1000, 100, 1001)))
    for (t1, t2), run in ((far, lambda: solve_exact(t1, t2)),
                          (y_separated, lambda: bichromatic_closest_pair(t1.points, t2.points))):
        scored.clear()
        run()
        assert 0 < sum(scored) < 0.01 * t1.n * t2.n


def test_float_scans_have_bounded_memory():
    # scanning the whole 2000 x 2000 matrix at once peaked at 128 MB
    # (solve_exact) and 79 MB (approx_greedy); a scan holds one chunk of
    # block bounds and one piece of scores at a time
    t1 = gen_random_tree(2000, 1)
    for t2 in (gen_random_tree(2000, 2, bbox=(150, 0, 250, 100)),
               gen_random_tree(2000, 2, bbox=(10**5, 0, 10**5 + 100, 100))):
        for run in (lambda: solve_exact(t1, t2), lambda: approx_greedy(t1, t2)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2_000_000, peak


def random_size(seed, n_max):
    return random.Random(seed).randint(1, n_max)


def slanted_exact_pair(seed):
    """Integer points off any common line with exact explicit weights: the
    trees stay exact, and most |pq| are irrational floats."""
    rng = random.Random(seed)
    def mk(x0):
        n = rng.randint(1, 12)
        pts = [(x0 + rng.randrange(12), rng.randrange(12)) for _ in range(n)]
        weights = (0, 1, 2, Fraction(5, 2))
        return WeightedTree(pts, [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)],
                            explicit_weights=True)
    return mk(0), mk(8)


SCAN_FAMILIES = {
    "separated": lambda s: float_pair(s, n_max=40),
    "overlapping": lambda s: (
        gen_random_tree(random_size(s, 40), 2 * s + 1),
        gen_random_tree(random_size(-s, 40), 2 * s + 2, bbox=(40, 0, 140, 100))),
    # the centres' score exceeds every ecc1 + ecc2, so only |pq| can prune
    "far_apart": lambda s: (
        gen_random_tree(random_size(s, 40), 2 * s + 1, bbox=(0, 0, 10, 10)),
        gen_random_tree(random_size(-s, 40), 2 * s + 2, bbox=(10**4, 0, 10**4 + 10, 10))),
    # one x range, 1000 apart in y: every pair is within reach in x
    "y_separated": lambda s: (
        gen_random_tree(random_size(s, 40), 2 * s + 1, bbox=(0, 0, 100, 1)),
        gen_random_tree(random_size(-s, 40), 2 * s + 2, bbox=(0, 1000, 100, 1001))),
    "tie_rich": lambda s: tie_rich_float_pair(s, (0, 1)),
    # exact integer grids sharing points
    "coincident": lambda s: (
        gen_random_tree(random_size(s, 25), s, grid=True, bbox=(0, 0, 5, 5)),
        gen_random_tree(random_size(-s, 25), s + 50, grid=True, bbox=(2, 0, 7, 5))),
    "fraction_collinear": rational_pair,
    "slanted_exact": slanted_exact_pair,
}


@pytest.mark.parametrize("backend", ["default", "double"])
@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_pruned_scans_equal_the_full_scans(family, backend, monkeypatch):
    if backend == "double":
        monkeypatch.setenv("BRIDGEWORKS_BACKEND", "double")
    for seed in range(10):
        t1, t2 = SCAN_FAMILIES[family](seed)
        e1, e2 = tree_eccentricities(t1).ecc, tree_eccentricities(t2).ecc
        sol = solve_exact(t1, t2)
        if sol.backend == "rational":
            want = scan_exact(t1, t2, e1, e2)
            assert (sol.p, sol.q, sol.bridge_length) == want
            assert type(sol.bridge_length) is type(want[2])
        else:
            # the same float operations, so the same bits
            assert (sol.value, sol.p, sol.q) == scan_double(t1, t2, e1, e2)
        assert bichromatic_closest_pair(t1.points, t2.points) == closest_pair_scan(t1.points, t2.points)


def fraction_collinear_tree(rng, n, x0):
    """A uniform-attachment tree on y = 1/3 with non-integral x = k/d,
    d in {3, 4, 6, 12}, in [x0, x0 + 100): exact geometric weights."""
    xs = set()
    while len(xs) < n:
        d = rng.choice((3, 4, 6, 12))
        k = rng.randrange(x0 * d, (x0 + 100) * d)
        if k % d:
            xs.add(Fraction(k, d))
    pts = [(x, Fraction(1, 3)) for x in sorted(xs)]
    rng.shuffle(pts)
    return WeightedTree(pts, [(rng.randrange(i), i) for i in range(1, n)])


def test_exact_scan_scores_few_pairs_on_collinear_trees(monkeypatch):
    rng = random.Random(400)
    t1, t2 = fraction_collinear_tree(rng, 400, 0), fraction_collinear_tree(rng, 400, 150)
    scored = []
    monkeypatch.setattr(bridgeworks.bridge, "euclidean_distance",
                        lambda a, b: scored.append(1) or euclidean_distance(a, b))
    sol = solve_exact(t1, t2)
    assert len(scored) < 0.05 * t1.n * t2.n
    e1, e2 = tree_eccentricities(t1).ecc, tree_eccentricities(t2).ecc
    assert (sol.p, sol.q, sol.bridge_length) == scan_exact(t1, t2, e1, e2)


def test_exact_scan_takes_values_past_the_float_range():
    # axis-aligned, so every score is an exact int far above 1e308; the
    # scan's float bounds must not raise where exact arithmetic does not
    big = 10**400
    t1 = WeightedTree([(0, 0), (big, 0), (2 * big, 0)], [(0, 1), (1, 2)])
    t2 = WeightedTree([(5 * big, 0), (5 * big + 5, 0), (4 * big, 0)], [(0, 1), (0, 2)])
    e1, e2 = tree_eccentricities(t1).ecc, tree_eccentricities(t2).ecc
    sol = solve_exact(t1, t2)
    assert (sol.p, sol.q, sol.bridge_length) == scan_exact(t1, t2, e1, e2) == (1, 2, 3 * big)


def test_backend_override_forces_double(monkeypatch):
    t1, t2 = rational_pair(3)
    exact = solve_exact(t1, t2)
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "double")
    forced = solve_exact(t1, t2)
    assert forced.backend == "double"
    assert math.isclose(float(forced.value), float(exact.value), rel_tol=1e-9)


def test_resolve_backend_rule(monkeypatch):
    exact = WeightedTree([(0, 0), (Fraction(3, 2), 2)], [(0, 1)])
    slanted = WeightedTree([(0, 0), (1, 1)], [(0, 1)])   # int coordinates, float length
    floats = WeightedTree([(0.5, 0), (3, 1)], [(0, 1)])
    assert resolve_backend(exact, exact) == "rational"
    assert resolve_backend(exact, floats) == resolve_backend(slanted, exact) == "double"
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "double")
    assert resolve_backend(exact, exact) == resolve_backend(exact, floats) == "double"
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "rational")
    assert resolve_backend(exact, exact, exact) == "rational"
    for trees, pos in (((floats, exact), 1), ((exact, slanted, floats), 2),
                       ((exact, exact, floats), 3)):
        with pytest.raises(ValueError, match=f"requires exact coordinates/weights; tree {pos} "):
            resolve_backend(*trees)
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "float")
    with pytest.raises(ValueError, match="must be 'rational' or 'double'"):
        resolve_backend(exact)


def reported_numbers(sol):
    if hasattr(sol, "merged_diameter"):
        return [sol.bridge_length, sol.value, sol.merged_diameter]
    if hasattr(sol, "hub"):
        return [sol.diameter]
    return [sol.value]


SOLVERS = {
    "exact": solve_exact,
    "greedy": approx_greedy,
    "forest": lambda t1, t2: connect_forest([t1, t2]),
    "twin": solve_twin,
    "twin_brute": brute_force_twin,
    "cases_12": solve_cases_12,
    "cases_34": solve_cases_34,
    "evaluator": lambda t1, t2: evaluate_constrained_diameter(t1, t2, (0, 0), (1, 1)),
}


def test_every_solver_follows_the_backend_override(monkeypatch):
    exact_pairs = [
        # a 3-4-5 corner and a segment; every solver stays exact by default
        (WeightedTree([(0, 0), (4, 0), (4, 3)], [(0, 1), (1, 2)]),
         WeightedTree([(10, 0), (14, 0)], [(0, 1)])),
        # T1's diameter 200 dominates every single bridge's value
        (WeightedTree([(0, 0), (100, 0), (200, 0)], [(0, 1), (1, 2)]),
         WeightedTree([(100, 1), (100, 2)], [(0, 1)])),
    ]
    default = [{name: solve(t1, t2) for name, solve in SOLVERS.items()} for t1, t2 in exact_pairs]
    decide = [one_bridge_decide(t1, t2, 6, 13) for t1, t2 in exact_pairs]
    assert all(is_exact(x) for sols in default for sol in sols.values()
               for x in reported_numbers(sol))
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "double")
    for (t1, t2), want, witness in zip(exact_pairs, default, decide):
        for name, solve in SOLVERS.items():
            sol = solve(t1, t2)
            got = reported_numbers(sol)
            assert all(type(x) is float for x in got), (name, got)
            assert got == [float(x) for x in reported_numbers(want[name])], name
            assert getattr(sol, "backend", "double") == "double", name
        assert one_bridge_decide(t1, t2, 6, 13) == witness

    # float trees under a forced rational backend: every solver refuses
    t1 = WeightedTree([(0.5, 0), (3, 1)], [(0, 1)])
    t2 = WeightedTree([(3, 1), (3, 4.5)], [(0, 1)])
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "rational")
    for solve in (*SOLVERS.values(), lambda t1, t2: one_bridge_decide(t1, t2, 0, 7)):
        with pytest.raises(ValueError, match="requires exact coordinates/weights"):
            solve(t1, t2)


# ---------------------------------------------------------------- greedy

def test_greedy_within_factor_two_and_never_below_exact():
    for seed in range(60):
        t1, t2 = (rational_pair(seed) if seed % 2 else float_pair(seed))
        ex = solve_exact(t1, t2)
        gr = approx_greedy(t1, t2)
        assert gr.method == "greedy"
        # greedy picks closest-pair endpoints, re-scored with true ecc
        d = euclidean_distance(t1.points[gr.p], t2.points[gr.q])
        assert float(d) <= min(float(euclidean_distance(a, b))
                               for a in t1.points for b in t2.points) + 1e-9
        assert float(ex.value) <= float(gr.value) + 1e-9
        assert float(gr.value) <= 2 * float(ex.value) + 1e-9


def test_greedy_tightness_instance_hits_caption_values():
    n = 1000
    eps = Fraction(1, 100)
    t1, t2 = greedy_tightness_instance(n, eps)
    ex = solve_exact(t1, t2)
    gr = approx_greedy(t1, t2)
    assert ex.value == 2 * n + 1
    assert gr.value == 4 * n + 1 - eps
    assert gr.value / ex.value > Fraction(1999, 1000)


# ---------------------------------------------------------------- decision

def test_decision_finds_zero_length_bridge_and_path_sum():
    # two paths touching at a shared point; c2 = 3 + 0 + 4
    t1 = WeightedTree([(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0))], [(0, 1)])
    t2 = WeightedTree([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(4))],
                      [(0, 1)])
    # t2 vertex 0 coincides with t1 vertex 1
    w = one_bridge_decide(t1, t2, Fraction(0), Fraction(7))
    assert w is not None
    assert (w.p, w.q) == (1, 0)
    assert (w.x, w.y) == (0, 1)
    assert one_bridge_decide(t1, t2, Fraction(0), Fraction(8)) is None
    assert one_bridge_decide(t1, t2, Fraction(1), Fraction(7)) is None


def test_exact_decision_matches_c1_by_squared_length():
    # |pq|^2 = 1 + 10**-12: the float |pq| is within 1e-9 of 1, the bridge is not
    t1 = WeightedTree([(0, 0), (-1, 0)], [(0, 1)])
    off = WeightedTree([(1, Fraction(1, 10**6)), (2, Fraction(1, 10**6))], [(0, 1)])
    assert one_bridge_decide(t1, off, 1, 3) is None
    # a 3-4-5 bridge of length exactly 1, off both axes
    on = WeightedTree([(Fraction(3, 5), Fraction(4, 5)), (Fraction(8, 5), Fraction(4, 5))], [(0, 1)])
    assert one_bridge_decide(t1, on, 1, 3) == (0, 0, 1, 1)
    assert one_bridge_decide(t1, on, -1, 3) is None


def test_decision_tolerance_on_floats():
    t1 = WeightedTree([(0.0, 0.0), (3.0, 0.0)], [(0, 1)])
    t2 = WeightedTree([(3.0, 0.0), (3.0, 4.0)], [(0, 1)])
    assert one_bridge_decide(t1, t2, 0.0, 7.0 + 1e-12) is not None
    assert one_bridge_decide(t1, t2, 0.0, 7.1) is None


def test_decision_follows_the_solver_backend_rule(monkeypatch):
    # forcing rational on float trees fails as it does for solve_exact
    t1 = WeightedTree([(0.0, 0.0), (3.0, 0.0)], [(0, 1)])
    t2 = WeightedTree([(3.0, 0.0), (3.0, 4.0)], [(0, 1)])
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "rational")
    with pytest.raises(ValueError, match="requires exact"):
        one_bridge_decide(t1, t2, 0, 7)


def reduction_call(seed, shift=0):
    """A one-bridge decision from the 1-in-3-SAT reduction; shift moves c2
    off every leaf-path sum, so every candidate gets scanned."""
    t1, t2, params = cov_to_one_bridge(sat_to_cov(random_instance(6, 4, seed)))
    return t1, t2, params.c1, params.c2 + shift


def grid_call(rng):
    """Axis-aligned integer trees (some coincident points) and thresholds
    read off a random bridge and two random vertices, or just off them."""
    def grid_tree(n):
        pts = [(rng.randint(0, 2), 0)]
        edges = []
        for i in range(1, n):
            u = rng.randrange(i)
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            step = rng.randint(0, 2)
            pts.append((pts[u][0] + dx * step, pts[u][1] + dy * step))
            edges.append((u, i))
        return WeightedTree(pts, edges)
    t1, t2 = grid_tree(rng.randint(1, 9)), grid_tree(rng.randint(1, 9))
    p, q = rng.randrange(t1.n), rng.randrange(t2.n)
    x, y = rng.randrange(t1.n), rng.randrange(t2.n)
    c1 = euclidean_distance(t1.points[p], t2.points[q])
    c2 = (single_source_tree_distances(t1, p)[x] + c1
          + single_source_tree_distances(t2, q)[y] + rng.choice((0, 0, Fraction(1, 2))))
    return t1, t2, c1, c2


def test_decision_sweeps_only_scanned_candidate_endpoints(monkeypatch):
    calls = []

    def counting(tree, src):
        calls.append((id(tree), src))
        return single_source_tree_distances(tree, src)

    monkeypatch.setattr(bridgeworks.bridge, "single_source_tree_distances", counting)
    for shift in (0, Fraction(1, 9)):
        t1, t2, c1, c2 = reduction_call(65, shift)
        calls.clear()
        w = one_bridge_decide(t1, t2, c1, c2)
        assert (w is None) == (shift != 0)
        # c1 = 0: the candidates are the coincident pairs, scanned in order
        cand = [(p, q) for p in range(t1.n) for q in range(t2.n)
                if t1.points[p] == t2.points[q]]
        scanned = cand if w is None else cand[:cand.index((w.p, w.q)) + 1]
        ends = len({p for p, _ in scanned}) + len({q for _, q in scanned})
        assert len(calls) == len(set(calls)) == ends < t2.n


def test_decision_agrees_across_backends(monkeypatch):
    rng = random.Random(37)
    cases = [reduction_call(seed, shift) for seed in (0, 3, 65, 112)
             for shift in (0, Fraction(1, 9))]
    cases += [grid_call(rng) for _ in range(150)]
    found = 0
    for t1, t2, c1, c2 in cases:
        monkeypatch.delenv("BRIDGEWORKS_BACKEND", raising=False)
        want = one_bridge_decide(t1, t2, c1, c2)
        monkeypatch.setenv("BRIDGEWORKS_BACKEND", "double")
        assert one_bridge_decide(t1, t2, c1, c2) == want
        found += want is not None
    assert 0 < found < len(cases)


# ---------------------------------------------------------------- forest

def merged_forest_diameter(trees, bridges):
    """Dijkstra over the union of trees plus bridge edges, floats."""
    import heapq
    offs = []
    total = 0
    for t in trees:
        offs.append(total)
        total += t.n
    adj = [[] for _ in range(total)]
    for ti, t in enumerate(trees):
        for (u, v, w) in t.edges:
            adj[offs[ti] + u].append((offs[ti] + v, float(w)))
            adj[offs[ti] + v].append((offs[ti] + u, float(w)))
    for (ti, vi, tj, vj) in bridges:
        a, b = offs[ti] + vi, offs[tj] + vj
        w = float(euclidean_distance(trees[ti].points[vi], trees[tj].points[vj]))
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = 0.0
    for s in range(total):
        dist = [math.inf] * total
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
        best = max(best, max(dist))
    return best


def random_forest(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    trees = []
    for i in range(k):
        n = rng.randint(2, 6)
        trees.append(gen_random_tree(n, rng.randrange(10**6),
                                     bbox=(120 * i, 0, 120 * i + 100, 100)))
    return trees


def test_connect_forest_structure_and_reported_diameter():
    for seed in range(25):
        trees = random_forest(seed)
        conn = connect_forest(trees)
        k = len(trees)
        assert len(conn.bridges) == k - 1
        assert 0 <= conn.hub < k
        # spans all components: hub tree linked to every other tree
        linked = {conn.hub}
        for (ti, _, tj, _) in conn.bridges:
            linked.add(ti)
            linked.add(tj)
        assert linked == set(range(k))
        got = merged_forest_diameter(trees, conn.bridges)
        assert math.isclose(float(conn.diameter), got, rel_tol=1e-9)


def test_connect_forest_needs_two_trees():
    with pytest.raises(ValueError):
        connect_forest([gen_random_tree(5, 1)])
