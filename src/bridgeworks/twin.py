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
input, integers scaled by one common denominator for exact input. The
searches score candidates by its maximum; the evaluator reports its
argmax, with the value recomputed from the tables at that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bridge import _backend_of, _reported, _resolve_mode
from .geometry import (
    DistanceTable,
    WeightedTree,
    build_distance_table,
    euclidean_distance,
    path_vertices,
    segments_properly_cross,
)
from .numerics import Number, is_exact


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


def _detour(D, a, b, u, v, thr):
    """In-tree pair (a, b) routed out at u or v and back in at the other."""
    return min(D[a][u] + thr + D[v][b], D[a][v] + thr + D[u][b])


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
    tab1, tab2, arr = _ctx if _ctx is not None else _context(t1, t2)
    (p1, q1), (p2, q2) = b1, b2
    cross, in1, in2 = (x[0] for x in _terms(arr, [p1], [q1], [p2], [q2]))
    a, b = divmod(int(cross.argmax()), t2.n)
    kind, top = "cross", cross[a, b]
    for name, terms, (rows, cols) in (("t1", in1, arr.upper1), ("t2", in2, arr.upper2)):
        vals = terms[rows, cols]
        i = int(vals.argmax())
        if vals[i] > top:
            kind, top, a, b = name, vals[i], int(rows[i]), int(cols[i])

    # the value again, from the tables at the witness: exact values keep
    # their type (5 vs Fraction(5))
    D1, D2 = tab1.dist, tab2.dist
    w1 = euclidean_distance(t1.points[p1], t2.points[q1])
    w2 = euclidean_distance(t1.points[p2], t2.points[q2])
    if kind == "cross":
        via1 = D1[a][p1] + w1 + D2[q1][b]
        via2 = D1[a][p2] + w2 + D2[q2][b]
        return TwinEvaluation(_reported(min(via1, via2)), (a, b), kind, 1 if via1 <= via2 else 2)
    if kind == "t1":
        value = _detour(D1, a, b, p1, p2, w1 + D2[q1][q2] + w2)
        return TwinEvaluation(_reported(value), (a, b), kind, 3)
    value = _detour(D2, a, b, q1, q2, w1 + D1[p1][p2] + w2)
    return TwinEvaluation(_reported(value), (a, b), kind, 4)


# ---------------------------------------------------------------------------
# Shared numeric scaffolding


class _Arrays:
    """Distance tables and cross distances as numpy arrays of one type.

    Inexact input (any float among D1, D2 and W), or
    BRIDGEWORKS_BACKEND=double, gives float64; as for the single bridge,
    BRIDGEWORKS_BACKEND=rational on inexact trees raises ValueError. Exact input is multiplied by
    `scale`, the lcm of every denominator, and stored as integers: int64
    while the scaled magnitudes stay below 2**40 (so sums of four terms
    cannot overflow), an object array of Python ints past that. Scaled
    integers order exactly as the exact values do; v stands for
    Fraction(v, scale). `scale` is None on float64. upper1 and upper2 index
    the vertex pairs a < b of each tree, row by row.
    """

    def __init__(self, t1: WeightedTree, t2: WeightedTree,
                 tab1: DistanceTable, tab2: DistanceTable):
        W = [
            [euclidean_distance(p, q) for q in t2.points]
            for p in t1.points
        ]
        tables = (tab1.dist, tab2.dist, W)
        flat = [x for m in tables for row in m for x in row]
        if _resolve_mode(t1, t2) == "double" or not all(is_exact(x) for x in flat):
            self.scale = None
            dtype, self.neg, lift = np.float64, -np.inf, float
        else:
            scale = self.scale = math.lcm(*{x.denominator for x in flat})
            lift = lambda x: x.numerator * (scale // x.denominator)  # noqa: E731
            if max(abs(x) for x in flat) * scale < 2**40:
                dtype, self.neg = np.int64, np.iinfo(np.int64).min // 4
            else:
                dtype, self.neg = object, -math.inf
        self.D1, self.D2, self.W = (
            np.array([[lift(x) for x in row] for row in m], dtype=dtype)
            for m in tables
        )
        self.upper1 = np.triu_indices(t1.n, 1)
        self.upper2 = np.triu_indices(t2.n, 1)


def _detours(D, Ru, Rv, thr, neg):
    """[k, a, b]: in-tree pair (a, b) routed out at u or v and back in at the
    other, neg where that does not beat the in-tree route; Ru, Rv are the
    table rows of u and v (the tables are symmetric)."""
    alt = np.minimum(Ru[:, :, None] + thr[:, None, None] + Rv[:, None, :],
                     Rv[:, :, None] + thr[:, None, None] + Ru[:, None, :])
    return np.where(alt < D[None, :, :], alt, neg)


def _terms(arr: _Arrays, P1, Q1, P2, Q2):
    """The three groups of pair distances in T'' for a batch of candidate
    bridge pairs: cross[k, a, b] for a in T1 and b in T2, then the T1 and
    the T2 detours of _detours."""
    D1, D2 = arr.D1, arr.D2
    w1, w2 = arr.W[P1, Q1], arr.W[P2, Q2]
    R1, R2, S1, S2 = D1[P1], D1[P2], D2[Q1], D2[Q2]
    cross = np.minimum(R1[:, :, None] + w1[:, None, None] + S1[:, None, :],
                       R2[:, :, None] + w2[:, None, None] + S2[:, None, :])
    t1 = _detours(D1, R1, R2, w1 + D2[Q1, Q2] + w2, arr.neg)
    t2 = _detours(D2, S1, S2, w1 + D1[P1, P2] + w2, arr.neg)
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


def _finish(t1, t2, ctx, cand: tuple[int, int, int, int]) -> TwinBridgeSolution:
    p1, q1, p2, q2 = cand
    ev = evaluate_constrained_diameter(t1, t2, (p1, q1), (p2, q2), _ctx=ctx)
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


def _require_sizes(t1: WeightedTree, t2: WeightedTree):
    if t1.n < 2 or t2.n < 2:
        raise ValueError("twin bridges need at least 2 vertices in each tree")


# ---------------------------------------------------------------------------
# Case 1-2 search: edge-pair deletion


def _component_masks(t: WeightedTree, edge_index: int) -> np.ndarray:
    """Boolean mask of the component containing edges[edge_index][0]."""
    u0, v0, _ = t.edges[edge_index]
    mask = np.zeros(t.n, dtype=bool)
    mask[u0] = True
    stack = [u0]
    adj = t.adjacency
    skip = {(u0, v0), (v0, u0)}
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if (u, v) in skip or mask[v]:
                continue
            mask[v] = True
            stack.append(v)
    return mask


def _split_eccentricities(t: WeightedTree, D: np.ndarray, off) -> np.ndarray:
    """E[e, s, a]: a's eccentricity inside side s of the split at edge e
    (s = 0 the component of edges[e][0], s = 1 the rest), `off` where a
    lies on the other side. One edge at a time, O(n^2) each."""
    E = np.empty((len(t.edges), 2, t.n), dtype=D.dtype)
    for e in range(len(t.edges)):
        mask = _component_masks(t, e)
        for s, side in enumerate((mask, ~mask)):
            E[e, s] = np.where(side, D[:, side].max(axis=1), off)
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
    _require_sizes(t1, t2)
    ctx = _ctx if _ctx is not None else _context(t1, t2)
    arr = ctx[2]
    # off-side sentinel: above every on-side sum (int64 entries stay below
    # 2**40), and two of them plus a weight still fit in int64
    off = 2**61 if arr.D1.dtype == np.int64 else math.inf
    E1 = _split_eccentricities(t1, arr.D1, off)
    E2 = _split_eccentricities(t2, arr.D2, off)
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
    return _finish(t1, t2, ctx, best[1:])


# ---------------------------------------------------------------------------
# Case 3-4 search: cycle savings along a diameter path


# entries of G scored at once: every pair with n <= 16 takes one chunk
_G_CHUNK = 2**16


def _g_argmax(
    arr: _Arrays,
    path: Sequence[int],
    n_other: int,
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
    k = len(path)
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
        G = np.where(eye_p[lo:lo + rows, None, :, None] | eye_q, arr.neg, G)
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
    _require_sizes(t1, t2)
    ctx = _ctx if _ctx is not None else _context(t1, t2)
    tab1, tab2, arr = ctx
    x, z = tab1.diameter_pair
    path1 = path_vertices(t1, x, z)
    x2, z2 = tab2.diameter_pair
    path2 = path_vertices(t2, x2, z2)
    cands = []
    for path, swap, no in ((path1, False, t2.n), (path2, True, t1.n)):
        if len(path) < 2:
            continue
        p1, q1, p2, q2 = _g_argmax(arr, path, no, swap=swap)
        cands.append(_normalize((p1, q1), (p2, q2)))
    if not cands:
        raise ValueError("degenerate trees: no diameter path of length >= 2")
    return _finish(t1, t2, ctx, _lexmin(arr, cands)[1:])


def _context(t1: WeightedTree, t2: WeightedTree):
    tab1 = build_distance_table(t1)
    tab2 = build_distance_table(t2)
    return tab1, tab2, _Arrays(t1, t2, tab1, tab2)


def solve_twin(t1: WeightedTree, t2: WeightedTree) -> TwinBridgeSolution:
    """Optimal twin bridges: min over the case 1-2 and case 3-4 searches,
    each reported solution scored by the shared evaluator, lexicographic
    tie-break.
    """
    _require_sizes(t1, t2)
    ctx = _context(t1, t2)
    s12 = solve_cases_12(t1, t2, _ctx=ctx)
    if all(x == z for x, z in (ctx[0].diameter_pair, ctx[1].diameter_pair)):
        return s12  # no diameter path of >= 2 vertices: cases 3-4 are empty
    s34 = solve_cases_34(t1, t2, _ctx=ctx)
    k12 = (s12.value, *s12.tuple4)
    k34 = (s34.value, *s34.tuple4)
    return s12 if k12 <= k34 else s34


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
    _require_sizes(t1, t2)
    n1, n2 = t1.n, t2.n
    if n1 * n2 > 400 and not force:
        raise ValueError(f"instance too large for brute force ({n1}*{n2} > 400); pass force=True")
    ctx = _context(t1, t2)
    arr = ctx[2]
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
    sol = _finish(t1, t2, ctx, best[1:])
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
