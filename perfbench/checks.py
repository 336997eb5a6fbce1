"""Per-report checks against the oracles.

Each check returns a list of problems; an empty list means the report
passed. Exact values compare exactly, floats within oracles.TOL. A twin answer above the brute-force optimum is recorded as not
optimal (opt_frac), never as a failure: that gap is the solver's known
limitation, and the benchmark reports it rather than hiding it.
"""

from __future__ import annotations

from fractions import Fraction

import oracles
from workloads import Number, Tree, segment_length


def encode(x):
    """JSON form for oracle caches: Fractions become 'F:p/q' strings."""
    if isinstance(x, Fraction):
        return f"F:{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    return x


def decode(x):
    if isinstance(x, str) and x.startswith("F:"):
        return Fraction(x[2:])
    if isinstance(x, dict):
        return {k: decode(v) for k, v in x.items()}
    if isinstance(x, list):
        return [decode(v) for v in x]
    return x


def number(v) -> Number:
    """A number as the CLI reports it: int, 'p/q' string or float."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"not a number: {v!r}")
    return Fraction(v) if isinstance(v, str) else v


def compute_oracle(workload_name: str, pool) -> list[dict]:
    if workload_name.startswith("bridge"):
        return [oracles.bridge_oracle(t1, t2) for t1, t2 in pool]
    return [{"opt": oracles.twin_brute_force(t1, t2)} for t1, t2 in pool]


class Instance:
    """One pool slot: its trees, its cached oracle, and memoised sweeps."""

    def __init__(self, t1: Tree, t2: Tree, oracle: dict):
        self.t1, self.t2, self.oracle = t1, t2, oracle
        self._dist: dict = {}

    def dist_from(self, side: int, v: int) -> list[Number]:
        key = (side, v)
        if key not in self._dist:
            t = self.t1 if side == 1 else self.t2
            self._dist[key] = oracles.distances_from(t.adjacency(), v)
        return self._dist[key]


def _vertex(v, n: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _witness_ok(inst: Instance, side: int, src: int, x, ecc: Number) -> bool:
    t = inst.t1 if side == 1 else inst.t2
    return _vertex(x, t.n) and oracles.close(inst.dist_from(side, src)[x], ecc)


def check_bridge(inst: Instance, res: dict, method: str) -> list[str]:
    o = inst.oracle
    p, q = res["p"], res["q"]
    if not (_vertex(p, inst.t1.n) and _vertex(q, inst.t2.n)):
        return [f"bridge endpoints out of range: ({p}, {q})"]
    probs = []
    blen, value = number(res["bridge_length"]), number(res["value"])
    merged = number(res["merged_diameter"])
    if res["method"] != method:
        probs.append(f"method {res['method']!r}, expected {method!r}")
    if not oracles.close(blen, segment_length(inst.t1.points[p], inst.t2.points[q])):
        probs.append(f"bridge_length {blen} is not |pq|")
    if not oracles.close(value, o["ecc1"][p] + blen + o["ecc2"][q]):
        probs.append(f"value {value} is not ecc1(p) + |pq| + ecc2(q)")
    if not oracles.close(merged, max(o["diam1"], o["diam2"], value)):
        probs.append(f"merged_diameter {merged} is not max(diam1, diam2, value)")
    wx, wy = res["witness"]
    if not (_witness_ok(inst, 1, p, wx, o["ecc1"][p]) and _witness_ok(inst, 2, q, wy, o["ecc2"][q])):
        probs.append(f"witness {res['witness']} is not a farthest pair for ({p}, {q})")
    if method == "exact":
        if [p, q] not in o["near_opt"]:
            probs.append(f"bridge ({p}, {q}) is not an optimum {o['near_opt'][:3]}")
        if not oracles.close(value, o["opt"]):
            probs.append(f"value {value} != optimum {o['opt']}")
    else:
        if [p, q] not in o["closest_pair"] or not oracles.close(blen, o["closest"]):
            probs.append(f"greedy bridge ({p}, {q}) is not the closest pair {o['closest_pair'][:3]}")
        if not (oracles.at_most(o["opt"], value) and oracles.at_most(value, 2 * o["opt"])):
            probs.append(f"greedy value {value} outside [opt, 2 opt] for opt {o['opt']}")
    return probs


def check_forest(inst: Instance, res: dict) -> list[str]:
    bridges = res["bridges"]
    if res["hub"] not in (0, 1) or len(bridges) != 1:
        return [f"forest of two trees needs hub 0/1 and one bridge, got {res}"]
    i, u, j, v = bridges[0]
    trees = [inst.t1, inst.t2]
    if {i, j} != {0, 1} or not (_vertex(u, trees[i].n) and _vertex(v, trees[j].n)):
        return [f"forest bridge {bridges[0]} out of range"]
    diam = number(res["diameter"])
    want = oracles.tree_diameter(oracles.merged_adjacency(trees, bridges))
    if not oracles.close(diam, want):
        return [f"forest diameter {diam} != re-scored {want}"]
    return []


def check_twin(inst: Instance, res: dict) -> tuple[list[str], bool | None]:
    """Problems, and whether the value equals the brute-force optimum
    (None when the bridges are malformed)."""
    b1, b2 = res["bridge1"], res["bridge2"]
    n1, n2 = inst.t1.n, inst.t2.n
    if not all(_vertex(p, n1) and _vertex(q, n2) for p, q in (b1, b2)):
        return [f"twin bridges out of range: {b1}, {b2}"], None
    if b1[0] == b2[0] or b1[1] == b2[1]:
        return [f"twin bridges share an endpoint: {b1}, {b2}"], None
    probs = []
    value = number(res["value"])
    if res["dominant_case"] not in (1, 2, 3, 4):
        probs.append(f"dominant_case {res['dominant_case']}")
    rescored = oracles.twin_rescore(inst.t1, inst.t2, b1, b2)
    if not oracles.close(value, rescored):
        probs.append(f"twin value {value} != merged-graph re-score {rescored}")
    opt = inst.oracle["opt"]
    if value < opt:
        probs.append(f"twin value {value} below the brute-force optimum {opt}")
    return probs, value == opt


def check_report(inst: Instance, argv: list[str], rep: dict, backend: str):
    """Problems with one schema-valid CLI report's result, and twin
    optimality (None if not twin)."""
    probs = []
    res = rep["result"]
    sizes = [i.get("vertices") for i in rep["instances"]]
    if sizes != [inst.t1.n, inst.t2.n]:
        probs.append(f"instance sizes {sizes} != {[inst.t1.n, inst.t2.n]}")
    optimal = None
    try:
        if argv[0] == "forest":
            probs += check_forest(inst, res)
        else:
            if res.get("backend") != backend:
                probs.append(f"backend {res.get('backend')!r}, workload requires {backend!r}")
            if argv[0] == "bridge":
                probs += check_bridge(inst, res, "exact" if argv[1] == "exact" else "greedy")
            else:
                twin_probs, optimal = check_twin(inst, res)
                probs += twin_probs
    except (KeyError, TypeError, ValueError) as exc:
        probs.append(f"malformed result {res!r}: {exc!r}")
    return [f"{' '.join(argv[:2])}: {p}" for p in probs], optimal
