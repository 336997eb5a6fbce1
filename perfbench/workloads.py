"""Seeded instance generation and the workload table.

Everything here is the benchmark's own code: trees are generated from the
seed with `random.Random`, written in the tree text format the CLI reads,
and the program only ever sees those files. This module imports neither
numpy nor bridgeworks, so the set-up timing in run.py starts cold.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Number = int | float | Fraction

BRIDGE_COMMANDS = (("bridge", "exact", "--threads", "1"), ("bridge", "approx"), ("forest", "connect"))
TWIN_COMMANDS = (("twin", "solve"),)


@dataclass(frozen=True)
class Tree:
    points: tuple[tuple[Number, Number], ...]
    edges: tuple[tuple[int, int, Number], ...]   # weight is the tree's own edge length
    explicit: bool                               # write the weight column

    @property
    def n(self) -> int:
        return len(self.points)

    def adjacency(self) -> list[list[tuple[int, Number]]]:
        adj: list[list[tuple[int, Number]]] = [[] for _ in self.points]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def text(self) -> str:
        out = [f"{self.n} {len(self.edges)}"]
        out += [f"{i} {fmt(x)} {fmt(y)}" for i, (x, y) in enumerate(self.points)]
        for u, v, w in self.edges:
            out.append(f"{u} {v} {fmt(w)}" if self.explicit else f"{u} {v}")
        return "\n".join(out) + "\n"


def fmt(x: Number) -> str:
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def segment_length(a, b) -> Number:
    """Exact for exact axis-aligned segments (all exact instances here are
    collinear on a horizontal line), IEEE hypot otherwise, as the CLI does."""
    dx, dy = a[0] - b[0], a[1] - b[1]
    if isinstance(dx, (int, Fraction)) and isinstance(dy, (int, Fraction)):
        if dy == 0:
            return abs(dx)
        if dx == 0:
            return abs(dy)
    return math.hypot(float(dx), float(dy))


def _geometric(points, parents) -> Tree:
    edges = tuple((p, i, segment_length(points[p], points[i])) for i, p in parents)
    return Tree(tuple(points), edges, explicit=False)


def _uniform_parents(rng: random.Random, n: int):
    return [(i, rng.randrange(i)) for i in range(1, n)]


def float_uniform(rng: random.Random, n: int, x0: float) -> Tree:
    """Uniform-attachment tree on uniform float points in [x0, x0+100] x [0, 100]."""
    pts = [(rng.uniform(x0, x0 + 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]
    return _geometric(pts, _uniform_parents(rng, n))


def exact_collinear(rng: random.Random, n: int, x0: int, *, explicit: bool) -> Tree:
    """Uniform-attachment tree on the line y = 1/3 with x = k/d, d in {3,4,6,12}
    and never integral. explicit=True draws Fraction edge weights with
    denominators 5 and 7 instead of the segment lengths."""
    xs: set[Fraction] = set()
    while len(xs) < n:
        d = rng.choice((3, 4, 6, 12))
        k = rng.randrange(x0 * d, (x0 + 100) * d)
        if k % d:
            xs.add(Fraction(k, d))
    pts = [(x, Fraction(1, 3)) for x in sorted(xs)]
    rng.shuffle(pts)
    parents = _uniform_parents(rng, n)
    if not explicit:
        return _geometric(pts, parents)
    edges = tuple((p, i, Fraction(rng.randrange(1, 400), rng.choice((5, 7)))) for i, p in parents)
    return Tree(tuple(pts), edges, explicit=True)


# ---------------------------------------------------------------------------
# Workloads


def _bridge_float(rng, i, n1, n2):
    return float_uniform(rng, n1, 0.0), float_uniform(rng, n2, 150.0)


def _twin_exact(rng, i, n1, n2):
    explicit = i % 2 == 1
    return (
        exact_collinear(rng, n1, 0, explicit=explicit),
        exact_collinear(rng, n2, 150, explicit=explicit),
    )


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json and README.md."""

    name: str
    commands: tuple[tuple[str, ...], ...]
    backend: str                           # every result must report this backend
    sizes: tuple[tuple[int, int], ...]     # (n1, n2) cycle; slot i has sizes[i % len]
    pool: int                              # distinct instances per seed
    make: Callable[[random.Random, int, int, int], tuple[Tree, Tree]]

    def size(self, slot: int) -> tuple[int, int]:
        return self.sizes[slot % len(self.sizes)]


def _grid(ns) -> tuple[tuple[int, int], ...]:
    return tuple((n1, n2) for n2 in ns for n1 in ns)


# Every (n1, n2) pair of a size ladder, a few instances per size: few
# enough for several whole passes over the pool in one run, enough that
# the median over them hardly depends on the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bridge-float", BRIDGE_COMMANDS, "double",
                 _grid((150, 200, 250, 300, 350)), 50, _bridge_float),
        Workload("twin-exact", TWIN_COMMANDS, "rational", _grid(range(5, 10)), 100, _twin_exact),
    )
}


def generate(workload: Workload, seed: int) -> list[tuple[Tree, Tree]]:
    """The instance pool for one seed; the same seed gives the same pool."""
    pool = []
    for i in range(workload.pool):
        rng = random.Random(f"{workload.name}/{seed}/{i}")
        pool.append(workload.make(rng, i, *workload.size(i)))
    return pool


def instance_paths(workdir: str, i: int) -> tuple[str, str]:
    return f"{workdir}/i{i:02d}-t1.txt", f"{workdir}/i{i:02d}-t2.txt"


def pool_texts(pool) -> list[str]:
    return [t.text() for pair in pool for t in pair]


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()
