"""Twin-bridge insertion: two vertex-disjoint bridges minimizing the
constrained diameter of the merged network T'' = T1 u T2 u {b1, b2}.

Objective. A vertex pair qualifies iff its endpoints lie in different trees,
or lie in the same tree and some through-bridge route is strictly shorter
than the in-tree path (ties excluded, so the bridges are essential to the
pair). The constrained diameter is the max of delta_T'' over qualifying
pairs; we minimize it over bridge pairs (p1,q1), (p2,q2) with p1 != p2,
q1 != q2, tie-breaking lexicographically on (p1, q1, p2, q2) with the
convention p1 < p2.

All shortest paths in T'' factor through the four bridge endpoints, so one
term function, `_terms`, gives every pair's distance in closed form over
the two tree distance tables, held as numpy arrays: float64 for inexact
input, integers scaled by one common denominator for exact input with
rational cross distances (tables built over integer edge weights; float64
below 2**40, Python ints past that). The searches score candidates by its
maximum; the evaluator reports its argmax, with the value recomputed at
that pair from single-source sweeps of the input trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bridge import _backend_of, _reported, _resolve_mode, _tree_is_exact
from .geometry import (
    WeightedTree,
    build_distance_table,
    euclidean_distance,
    path_vertices,
    segments_properly_cross,
    single_source_tree_distances,
    walk_parents,
)
from .numerics import Number


@dataclass(frozen=True)
class TwinEvaluation:
    value: Number
    witness: tuple[int, int]
    witness_kind: str        # "cross" | "t1" | "t2"
    dominant_case: int       # 1..4


@dataclass(frozen=True)
class TwinBridgeSolution:
    bridge1: tuple[int, int]  # (p1 in T1, q1 in T2)
    bridge2: tuple[int, int]  # (p2, q2)
    value: Number
    dominant_case: int
    witness: tuple[int, int]
    intersecting: bool
    backend: str

    @property
    def tuple4(self) -> tuple[int, int, int, int]:
        return (*self.bridge1, *self.bridge2)


def _check_bridges(t1: WeightedTree, t2: WeightedTree, b1, b2):
    for p, q in (b1, b2):
        if not (0 <= p < t1.n and 0 <= q < t2.n):
            raise ValueError(
                f"bridge {(p, q)} needs 0 <= p < {t1.n} and 0 <= q < {t2.n}"
            )
    if b1[0] == b2[0] or b1[1] == b2[1]:
        raise ValueError(f"bridges must be vertex-disjoint, got {b1} and {b2}")


def _sweep_distances(t: WeightedTree):
    """d(x, y) in t's own number types, read from the single-source sweep
    of min(x, y) as build_distance_table's mirrored entry is, so float
    sums match the table to the last ulp; each sweep is made once."""
    sweeps = {}

    def d(x, y):
        x, y = min(x, y), max(x, y)
        if x not in sweeps:
            sweeps[x] = single_source_tree_distances(t, x)
        return sweeps[x][y]

    return d


def _detour(d, a, b, u, v, thr):
    """In-tree pair (a, b) routed out at u or v and back in at the other."""
    return min(d(a, u) + thr + d(v, b), d(a, v) + thr + d(u, b))


def evaluate_constrained_diameter(
    t1: WeightedTree,
    t2: WeightedTree,
    b1: tuple[int, int],
    b2: tuple[int, int],
    *,
    _ctx=None,
) -> TwinEvaluation:
    """Constrained diameter of T1 u T2 u {b1, b2} with its witness pair.

    Witness reporting is deterministic: cross pairs first, then T1 pairs,
    then T2 pairs; lex-min within each group. The dominant case is 1 or 2
    for a cross witness (by which bridge carries its shortest route, ties
    to bridge 1), 3 for a T1 witness, 4 for a T2 witness. The value follows
    BRIDGEWORKS_BACKEND as the solvers' values do.
    """
    _check_bridges(t1, t2, b1, b2)
    arr = _ctx if _ctx is not None else _Arrays(t1, t2)
    (p1, q1), (p2, q2) = b1, b2
    cross, in1, in2 = (x[0] for x in _terms(arr, [p1], [q1], [p2], [q2]))
    a, b = divmod(int(cross.argmax()), t2.n)
    kind, top = "cross", cross[a, b]
    for name, terms, (rows, cols) in (("t1", in1, arr.upper1), ("t2", in2, arr.upper2)):
        vals = terms[rows, cols]
        i = int(vals.argmax())
        if vals[i] > top:
            kind, top, a, b = name, vals[i], int(rows[i]), int(cols[i])

    # the value again, at the witness, from sweeps of the input trees: exact
    # values keep their type (5 vs Fraction(5)), floats their last ulp
    d1, d2 = _sweep_distances(t1), _sweep_distances(t2)
    w1 = euclidean_distance(t1.points[p1], t2.points[q1])
    w2 = euclidean_distance(t1.points[p2], t2.points[q2])
    if kind == "cross":
        via1 = d1(a, p1) + w1 + d2(q1, b)
        via2 = d1(a, p2) + w2 + d2(q2, b)
        return TwinEvaluation(_reported(min(via1, via2)), (a, b), kind, 1 if via1 <= via2 else 2)
    if kind == "t1":
        value = _detour(d1, a, b, p1, p2, w1 + d2(q1, q2) + w2)
        return TwinEvaluation(_reported(value), (a, b), kind, 3)
    value = _detour(d2, a, b, q1, q2, w1 + d1(p1, p2) + w2)
    return TwinEvaluation(_reported(value), (a, b), kind, 4)


# ---------------------------------------------------------------------------
# Shared numeric scaffolding


def _scaled_cross_distances(t1: WeightedTree, t2: WeightedTree):
    """(c, R) for trees with exact coordinates: R[p][q] = c * |pq| as an int
    for p in t1 and q in t2, c the lcm of every coordinate's denominator,
    from the coordinates lifted to ints and isqrt. None when some |pq| is
    not rational, where euclidean_distance gives a float."""
    pts = (*t1.points, *t2.points)
    c = math.lcm(*{v.denominator for p in pts for v in p})
    X1, X2 = (
        [(x.numerator * (c // x.denominator), y.numerator * (c // y.denominator))
         for x, y in t.points]
        for t in (t1, t2)
    )
    R = []
    for px, py in X1:
        row = []
        for qx, qy in X2:
            dx, dy = abs(px - qx), abs(py - qy)
            if dx and dy:
                sq = dx * dx + dy * dy
                r = math.isqrt(sq)
                if r * r != sq:
                    return None
            else:
                r = dx + dy
            row.append(r)
        R.append(row)
    return c, R


class _Arrays:
    """The search context: as numpy arrays of one type, both trees' distance
    tables and the cross distances (D1, D2, W), plus each tree's lex-min
    diameter pair (diameter_pairs). Trees under 2 vertices raise ValueError.

    Exact input (every edge weight and every cross distance an int or
    Fraction) is multiplied by `scale`, the lcm of their denominators: the
    edge weights are lifted to ints first, so the tables are int sums, and
    the cross distances come from integer coordinates. The arrays hold
    those integers as float64 while the scaled magnitudes stay below 2**40
    (sums of up to five, the most the searches form, are then exact
    integers below 2**53), Python ints in an object array past that; they
    order exactly as the exact values do, and v stands for
    Fraction(v, scale). Under BRIDGEWORKS_BACKEND=double each integer v
    becomes the float v / scale, the correctly rounded exact value. Inexact
    input (any float weight or cross distance) gives float64 tables built
    in the input's own arithmetic; as for the single bridge,
    BRIDGEWORKS_BACKEND=rational on inexact trees raises ValueError.
    `scale` is None on float64 values. upper1 and upper2 index the vertex
    pairs a < b of each tree, row by row.
    """

    def __init__(self, t1: WeightedTree, t2: WeightedTree):
        if t1.n < 2 or t2.n < 2:
            raise ValueError("twin bridges need at least 2 vertices in each tree")
        double = _resolve_mode(t1, t2) == "double"
        cross = None
        if _tree_is_exact(t1) and _tree_is_exact(t2):
            cross = _scaled_cross_distances(t1, t2)
        self.scale = conv = None
        dtype = np.float64
        if cross is not None:
            c, R = cross
            scale = math.lcm(
                *{w.denominator for t in (t1, t2) for _, _, w in t.edges},
                *{c // math.gcd(r, c) for row in R for r in row},
            )
            tabs = [
                build_distance_table(WeightedTree(
                    t.points,
                    [(u, v, w.numerator * (scale // w.denominator)) for u, v, w in t.edges],
                    explicit_weights=True,
                ))
                for t in (t1, t2)
            ]
            W = [[r * scale // c for r in row] for row in R]
            if double:
                conv = lambda v: v / scale  # noqa: E731
            else:
                self.scale = scale
                top = max(tabs[0].diameter, tabs[1].diameter, max(map(max, W)))
                dtype = np.float64 if top < 2**40 else object
        else:
            W = [[euclidean_distance(p, q) for q in t2.points] for p in t1.points]
            tabs = [build_distance_table(t1), build_distance_table(t2)]
        tables = (tabs[0].dist, tabs[1].dist, W)
        if conv is not None:
            tables = ([[conv(x) for x in row] for row in m] for m in tables)
        self.D1, self.D2, self.W = (np.array(m, dtype=dtype) for m in tables)
        self.diameter_pairs = (tabs[0].diameter_pair, tabs[1].diameter_pair)
        self.upper1 = np.triu_indices(t1.n, 1)
        self.upper2 = np.triu_indices(t2.n, 1)


def _detours(D, Ru, Rv, thr):
    """[k, a, b]: in-tree pair (a, b) routed out at u or v and back in at the
    other, -inf where that does not beat the in-tree route; Ru, Rv are the
    table rows of u and v (the tables are symmetric)."""
    alt = np.minimum(Ru[:, :, None] + thr[:, None, None] + Rv[:, None, :],
                     Rv[:, :, None] + thr[:, None, None] + Ru[:, None, :])
    return np.where(alt < D[None, :, :], alt, -np.inf)


def _terms(arr: _Arrays, P1, Q1, P2, Q2):
    """The three groups of pair distances in T'' for a batch of candidate
    bridge pairs: cross[k, a, b] for a in T1 and b in T2, then the T1 and
    the T2 detours of _detours."""
    D1, D2 = arr.D1, arr.D2
    w1, w2 = arr.W[P1, Q1], arr.W[P2, Q2]
    R1, R2, S1, S2 = D1[P1], D1[P2], D2[Q1], D2[Q2]
    cross = np.minimum(R1[:, :, None] + w1[:, None, None] + S1[:, None, :],
                       R2[:, :, None] + w2[:, None, None] + S2[:, None, :])
    t1 = _detours(D1, R1, R2, w1 + D2[Q1, Q2] + w2)
    t2 = _detours(D2, S1, S2, w1 + D1[P1, P2] + w2)
    return cross, t1, t2


def _batched_values(arr: _Arrays, P1, Q1, P2, Q2) -> np.ndarray:
    """Constrained-diameter values for a batch of candidate bridge pairs."""
    cross, t1, t2 = (x.max(axis=(1, 2)) for x in _terms(arr, P1, Q1, P2, Q2))
    return np.maximum(cross, np.maximum(t1, t2))


def _lexmin(arr: _Arrays, cands, best=None):
    """Lex-min (value, p1, q1, p2, q2) over `best` and the scored candidates."""
    cands = sorted(cands)
    vals = _batched_values(arr, *np.array(cands).T)
    i = int(np.argmin(vals))
    key = (vals[i], *cands[i])
    return key if best is None or key < best else best


def _normalize(b1: tuple[int, int], b2: tuple[int, int]) -> tuple[int, int, int, int]:
    if b1[0] < b2[0]:
        return (*b1, *b2)
    return (*b2, *b1)


def _finish(t1, t2, arr: _Arrays, cand: tuple[int, int, int, int]) -> TwinBridgeSolution:
    p1, q1, p2, q2 = cand
    ev = evaluate_constrained_diameter(t1, t2, (p1, q1), (p2, q2), _ctx=arr)
    crossing = segments_properly_cross(
        t1.points[p1], t2.points[q1], t1.points[p2], t2.points[q2]
    )
    return TwinBridgeSolution(
        bridge1=(p1, q1),
        bridge2=(p2, q2),
        value=ev.value,
        dominant_case=ev.dominant_case,
        witness=ev.witness,
        intersecting=crossing,
        backend=_backend_of(ev.value),
    )


# ---------------------------------------------------------------------------
# Case 1-2 search: edge-pair deletion


def _split_eccentricities(t: WeightedTree, D: np.ndarray) -> np.ndarray:
    """E[e, s, a]: a's eccentricity inside side s of the split at edge e
    (s = 0 the component of edges[e][0], s = 1 the rest), inf where a lies
    on the other side. One edge at a time, O(n^2) each."""
    E = np.empty((len(t.edges), 2, t.n), dtype=D.dtype)
    for e, (u, v, _) in enumerate(t.edges):
        # in a tree, the walk from u that never enters v is u's side of (u, v)
        mask = np.array([p is not None for p in walk_parents(t.adjacency, u, (v,))])
        for s, side in enumerate((mask, ~mask)):
            E[e, s] = np.where(side, D[:, side].max(axis=1), np.inf)
    return E


def solve_cases_12(
    t1: WeightedTree,
    t2: WeightedTree,
    *,
    _ctx=None,
) -> TwinBridgeSolution:
    """Best twin bridges whose constrained diameter is cross-pair dominated.

    For every edge pair (e1 in T1, e2 in T2), deleting them splits the trees
    into (T1a, T1b) and (T2a, T2b). Both pairings (T1a-T2a with T1b-T2b, and
    T1a-T2b with T1b-T2a) are tried; each side pair contributes its lex-min
    single bridge by ecc_side(p) + w(p, q) + ecc_side(q), and the combined
    pair is re-scored with the full constrained-diameter expressions before
    comparison.

    Cost: the split-eccentricity tables take O(m1*n1^2 + m2*n2^2) time and
    O(m1*n1 + m2*n2) memory, once per tree; the edge-pair loop adds
    O(m1*m2*n1*n2) bridge selection plus one scoring of two candidates per
    edge pair.
    """
    arr = _ctx if _ctx is not None else _Arrays(t1, t2)
    E1 = _split_eccentricities(t1, arr.D1)
    E2 = _split_eccentricities(t2, arr.D2)
    n2 = t2.n
    best = None
    for i in range(len(t1.edges)):
        # [s1, 1, a, b]; (ecc + w) + ecc is the pairwise reference's float
        # summation order, so float ties break the same way
        head = E1[i][:, None, :, None] + arr.W
        for j in range(len(t2.edges)):
            V = (head + E2[j][None, :, None, :]).reshape(4, -1)
            # row s1*2 + s2: first-occurrence argmin, so lex-min (a, b)
            (a00, b00), (a01, b01), (a10, b10), (a11, b11) = (
                divmod(int(f), n2) for f in V.argmin(axis=1)
            )
            cands = [
                _normalize((a00, b00), (a11, b11)),
                _normalize((a01, b01), (a10, b10)),
            ]
            best = _lexmin(arr, cands, best)
    return _finish(t1, t2, arr, best[1:])


# ---------------------------------------------------------------------------
# Case 3-4 search: cycle savings along a diameter path


# entries of G scored at once: every pair with n <= 16 takes one chunk
_G_CHUNK = 2**16


def _g_argmax(
    arr: _Arrays,
    path: Sequence[int],
    *,
    swap: bool,
) -> tuple[int, int, int, int]:
    """Maximize g = D_same[p1,p2] - (w(p1,q1) + D_other[q1,q2] + w(q2,p2))
    over p1, p2 on the given path and q1, q2 in the other tree.

    swap=False searches T1's diameter path (case 3); swap=True searches
    T2's (case 4). Returns the winning candidate as (p1, q1, p2, q2) in
    T1-first order, the first maximum in (p1, q1, p2, q2) index order.
    The k x n x k x n tensor of g is scored in chunks of p1 rows of at
    most _G_CHUNK entries (one row if a row is larger); a later chunk
    wins only when strictly greater, as a single argmax would decide.
    """
    Dsame = arr.D1 if not swap else arr.D2
    Dother = arr.D2 if not swap else arr.D1
    W = arr.W if not swap else arr.W.T  # W[p, q] with p on the path side
    path = list(path)
    k, n_other = len(path), len(Dother)
    Dp = Dsame[np.ix_(path, path)]
    Wp = W[path, :]
    eye_p = np.eye(k, dtype=bool)
    eye_q = np.eye(n_other, dtype=bool)[None, :, None, :]
    rows = max(1, _G_CHUNK // (n_other * k * n_other))
    best = None
    for lo in range(0, k, rows):
        G = (
            Dp[lo:lo + rows, None, :, None]
            - Wp[lo:lo + rows, :, None, None]
            - Dother[None, :, None, :]
            - Wp[None, None, :, :]
        )
        G = np.where(eye_p[lo:lo + rows, None, :, None] | eye_q, -np.inf, G)
        flat = int(np.argmax(G))
        if best is None or G.flat[flat] > best[0]:
            best = (G.flat[flat], lo, np.unravel_index(flat, G.shape))
    _, lo, (i, a, j, b) = best
    p1, q1, p2, q2 = path[lo + int(i)], int(a), path[int(j)], int(b)
    if swap:
        p1, q1, p2, q2 = q1, p1, q2, p2
    return p1, q1, p2, q2


def solve_cases_34(
    t1: WeightedTree,
    t2: WeightedTree,
    *,
    _ctx=None,
) -> TwinBridgeSolution:
    """Best twin bridges found by maximizing the cycle-saving objective g.

    Case 3 places p1, p2 on T1's diameter path (the bridges form a cycle
    shortening T1's long pairs); case 4 is symmetric for T2. Each case's
    g-argmax is re-scored with the full constrained-diameter expressions.
    """
    arr = _ctx if _ctx is not None else _Arrays(t1, t2)
    cands = []
    for t, pair, swap in zip((t1, t2), arr.diameter_pairs, (False, True)):
        path = path_vertices(t, *pair)
        if len(path) < 2:
            continue
        p1, q1, p2, q2 = _g_argmax(arr, path, swap=swap)
        cands.append(_normalize((p1, q1), (p2, q2)))
    if not cands:
        raise ValueError("degenerate trees: no diameter path of length >= 2")
    return _finish(t1, t2, arr, _lexmin(arr, cands)[1:])


def solve_twin(t1: WeightedTree, t2: WeightedTree) -> TwinBridgeSolution:
    """Optimal twin bridges: min over the case 1-2 and case 3-4 searches,
    each reported solution scored by the shared evaluator, lexicographic
    tie-break.
    """
    arr = _Arrays(t1, t2)
    s12 = solve_cases_12(t1, t2, _ctx=arr)
    if all(x == z for x, z in arr.diameter_pairs):
        return s12  # no diameter path of >= 2 vertices: cases 3-4 are empty
    s34 = solve_cases_34(t1, t2, _ctx=arr)
    return min(s12, s34, key=lambda s: (s.value, *s.tuple4))  # s12 on ties


def brute_force_twin(
    t1: WeightedTree,
    t2: WeightedTree,
    force: bool = False,
) -> TwinBridgeSolution:
    """Exhaustive oracle over every vertex-disjoint bridge pair.

    Guarded to n1*n2 <= 400 unless force=True. Candidates are enumerated in
    lexicographic (p1, q1, p2, q2) order with p1 < p2, so the first minimum
    is the lex-min optimum.
    """
    n1, n2 = t1.n, t2.n
    # a tree under 2 vertices gets _Arrays' size error instead
    if n1 * n2 > 400 and min(n1, n2) > 1 and not force:
        raise ValueError(f"instance too large for brute force ({n1}*{n2} > 400); pass force=True")
    arr = _Arrays(t1, t2)
    cands = [
        (p1, q1, p2, q2)
        for p1 in range(n1)
        for q1 in range(n2)
        for p2 in range(p1 + 1, n1)
        for q2 in range(n2)
        if q2 != q1
    ]
    # each batch builds B x n x n blocks; bound them to ~2**20 entries
    step = max(1, 2**20 // max(n1, n2) ** 2)
    best = None
    for s in range(0, len(cands), step):
        best = _lexmin(arr, cands[s:s + step], best)
    sol = _finish(t1, t2, arr, best[1:])
    if arr.scale is None:
        assert math.isclose(float(best[0]), float(sol.value), rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert Fraction(int(best[0]), arr.scale) == sol.value
    return sol


# ---------------------------------------------------------------------------
# Instance where the optimal twin bridges must cross


def crossing_optimum_instance(
    eps: Number = Fraction(1, 100),
) -> tuple[WeightedTree, WeightedTree]:
    """Two 4-vertex paths whose optimal twin bridges intersect.

    T1 is the path x-a-b-y, T2 the path z-c-d-w, with tiny end segments of
    weight eps. Key distances: |bc| = |cd| = |ad| = 25 and |bd| = 30, all
    exact; T1's middle edge carries explicit weight 0 while a and b stay
    geometrically apart, so the crossing bridges (a,d) and (b,c) realize
    value 25 + 2*eps while the best non-crossing alternative pays 30 + 2*eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = eps
    t1 = WeightedTree(
        [(18, -1), (0, 0), (18, -1 - e), (-e, 0)],
        [(2, 0, e), (0, 1, 0), (1, 3, e)],
        labels=("a", "b", "x", "y"),
        explicit_weights=True,
    )
    t2 = WeightedTree(
        [(25, 0), (18, 24), (25 + e, 0), (18, 24 + e)],
        [(2, 0, e), (0, 1, 25), (1, 3, e)],
        labels=("c", "d", "z", "w"),
    )
    return t1, t2
