"""Text formats for trees, graphs, SAT instances, and integer sets.

Tree text format:
    n m            <- vertex and edge counts (m = n-1)
    id x y         <- n rows, ids must cover 0..n-1 in any order
    u v [weight]   <- m rows; a weight column makes the tree explicit
Blank lines and '#' comments are skipped. Numeric literals take their type
from the token's shape: a token with '/' is an exact rational, one with '.',
'e' or 'E' a float, any other an int if int() accepts it and else a float;
non-finite values are rejected. Geometric trees serialize without the
weight column; explicit trees keep it.

Tree and graph text is read from one flat token list: each content line
is split once and its token count checked (header 2, vertex rows 3, edge
rows all 2 or all 3), then every id, coordinate, endpoint and weight
column is a strided slice of that list, converted in one pass. The row
loop that checks one row at a time only locates errors: it runs when the
flat pass declines a text, and it alone writes the error message with its
line and column.

SAT instances use the DIMACS-like form 'p cnf <vars> <clauses>' with three
literals and a terminating 0 per clause line; 'c' lines are comments.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

from .geometry import Point, WeightedTree
from .numerics import Number

if TYPE_CHECKING:
    from .reductions.sat import OneInThreeSatInstance


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


def parse_number(token: str, line: int | None = None, column: int | None = None) -> Number:
    # The token's shape picks the type: '/' means a rational, and a token
    # holding '.', 'e' or 'E' goes straight to float(), as int() accepts none
    # of them. Values and errors are those of trying int, Fraction, float in
    # that order.
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational literal {token!r}", line, column) from None
    if "." not in token and "e" not in token and "E" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad numeric literal {token!r}", line, column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite literal {token!r}", line, column)
    return value


def format_number(x: Number) -> str:
    if isinstance(x, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _content_lines(text: str) -> list[tuple[int, list[str], str]]:
    """(line_number, tokens, raw) for each non-blank, non-comment line."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            out.append((i, tokens, raw))
    return out


def _token_column(raw: str, tokens: list[str], idx: int) -> int:
    pos = 0
    for j, tok in enumerate(tokens):
        found = raw.find(tok, pos)
        if found < 0:
            return 1
        if j == idx:
            return found + 1
        pos = found + len(tok)
    return 1


def _parse_cell(raw: str, tokens: list[str], idx: int, line: int) -> Number:
    return parse_number(tokens[idx], line, _token_column(raw, tokens, idx))


def _parse_rows(text: str, *, weights_allowed: bool):
    """The row loop behind _parse_points_edges: checks one row at a time and
    raises the ParseError, with its line and column, for the first fault."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    ln, toks, raw = lines[0]
    if len(toks) != 2:
        raise ParseError("header must be 'n m'", ln, 1)
    try:
        n, m = int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError("header must hold two integers", ln, 1) from None
    if n < 1 or m < 0:
        raise ParseError("header counts out of range", ln, 1)
    if len(lines) != 1 + n + m:
        raise ParseError(
            f"expected {1 + n + m} content lines for n={n}, m={m}, got {len(lines)}",
            lines[-1][0],
        )
    points: list = [None] * n
    for ln, toks, raw in lines[1 : 1 + n]:
        if len(toks) != 3:
            raise ParseError("vertex row must be 'id x y'", ln, 1)
        try:
            vid = int(toks[0])
        except ValueError:
            raise ParseError(f"bad vertex id {toks[0]!r}", ln, 1) from None
        if not 0 <= vid < n:
            raise ParseError(f"vertex id {vid} out of range 0..{n - 1}", ln, 1)
        if points[vid] is not None:
            raise ParseError(f"duplicate vertex id {vid}", ln, 1)
        points[vid] = (_parse_cell(raw, toks, 1, ln), _parse_cell(raw, toks, 2, ln))
    edges = []
    saw_weight = False
    saw_bare = False
    for ln, toks, raw in lines[1 + n :]:
        if len(toks) not in (2, 3) or (len(toks) == 3 and not weights_allowed):
            raise ParseError("edge row must be 'u v' or 'u v weight'", ln, 1)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", ln, 1) from None
        for e in (u, v):
            if not 0 <= e < n:
                raise ParseError(f"edge endpoint {e} out of range", ln, 1)
        if len(toks) == 3:
            saw_weight = True
            edges.append((u, v, _parse_cell(raw, toks, 2, ln)))
        else:
            saw_bare = True
            edges.append((u, v))
    if saw_weight and saw_bare:
        raise ParseError("mixed weighted and unweighted edge rows", lines[-1][0])
    return points, edges, saw_weight


def _parse_column(tokens: Sequence[str]) -> list[Number]:
    """parse_number of every token. A column whose tokens all hold a '.'
    and no '/' is converted by one float() pass, where parse_number would
    send each token; any token it cannot take raises ValueError."""
    joined = "".join(tokens)
    # float() takes at most one '.', so once it converts every token this
    # count puts exactly one in each
    if "/" not in joined and joined.count(".") == len(tokens):
        values = list(map(float, tokens))
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite value")
        return values
    return list(map(parse_number, tokens))


def _parse_columns(text: str, *, weights_allowed: bool):
    """_parse_rows' result from one flat token list, or None where the text
    breaks a rule; a token no conversion takes raises ValueError.

    Each content line is split once; its token count goes to a width list
    and its tokens onto the flat list, so no row list outlives its line.
    The widths are checked line by line (header 2, vertex rows 3, edge rows
    all 2 or all 3), and then every column is a strided slice of the flat
    list."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    tokens: list[str] = []
    widths: list[int] = []
    for row in map(str.split, lines):
        if row:
            widths.append(len(row))
            tokens += row
    if not widths or widths[0] != 2:
        return None
    n, m = int(tokens[0]), int(tokens[1])
    if n < 1 or m < 0 or len(widths) != 1 + n + m or widths[1 : 1 + n].count(3) != n:
        return None
    end = 2 + 3 * n
    ids = list(map(int, tokens[2:end:3]))
    xs, ys = tokens[3:end:3], tokens[4:end:3]
    order = list(range(n))
    if ids != order:
        if sorted(ids) != order:
            return None
        by_id = sorted(order, key=ids.__getitem__)
        xs, ys = list(map(xs.__getitem__, by_id)), list(map(ys.__getitem__, by_id))
    # tuple.__new__ builds each Point in C, where Point(x, y) runs Python code
    points = list(map(tuple.__new__, repeat(Point), zip(_parse_column(xs), _parse_column(ys))))
    if not m:
        return points, [], False
    width = widths[-1]
    if widths[1 + n :].count(width) != m or not (width == 2 or (weights_allowed and width == 3)):
        return None
    us = list(map(int, tokens[end::width]))
    vs = list(map(int, tokens[end + 1 :: width]))
    if min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= n:
        return None
    if width == 3:
        return points, list(zip(us, vs, _parse_column(tokens[end + 2 :: 3]))), True
    return points, list(zip(us, vs)), False


def _parse_points_edges(text: str, *, weights_allowed: bool):
    """(points, edges, explicit weights) of tree or graph text, from the
    flat token pass. Any text that pass declines goes to the row loop, which
    raises its error at the line it finds or, were the text valid, returns
    the same result."""
    try:
        parsed = _parse_columns(text, weights_allowed=weights_allowed)
    except ValueError:
        parsed = None
    return parsed or _parse_rows(text, weights_allowed=weights_allowed)


def parse_tree(text: str) -> WeightedTree:
    points, edges, explicit = _parse_points_edges(text, weights_allowed=True)
    try:
        return WeightedTree(points, edges, explicit_weights=explicit)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_tree(tree: WeightedTree) -> str:
    out = [f"{tree.n} {len(tree.edges)}"]
    for i, (x, y) in enumerate(tree.points):
        out.append(f"{i} {format_number(x)} {format_number(y)}")
    for u, v, w in tree.edges:
        if tree.explicit_weights:
            out.append(f"{u} {v} {format_number(w)}")
        else:
            out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def parse_graph(text: str):
    """Unweighted geometric graph: same layout, bare edge rows."""
    points, edges, _ = _parse_points_edges(text, weights_allowed=False)
    return points, edges


def serialize_graph(points, edges) -> str:
    out = [f"{len(points)} {len(edges)}"]
    for i, (x, y) in enumerate(points):
        out.append(f"{i} {format_number(x)} {format_number(y)}")
    for u, v in edges:
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def serialize_pairs(pairs) -> str:
    return "".join(f"{a} {b}\n" for a, b in pairs)


# ---------------------------------------------------------------------------
# Report numbers


def number_to_json(x: Number):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return format_number(x)
    return float(x)


# ---------------------------------------------------------------------------
# SAT and integer lists


def parse_sat(text: str) -> OneInThreeSatInstance:
    from .reductions.sat import OneInThreeSatInstance

    n_vars = None
    n_clauses = None
    clauses = []
    for ln, toks, _ in _content_lines(text):
        if toks[0] == "c":
            continue
        if toks[0] == "p":
            if n_vars is not None:
                raise ParseError("duplicate problem line", ln, 1)
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError("problem line must be 'p cnf <vars> <clauses>'", ln, 1)
            try:
                n_vars, n_clauses = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("problem line counts must be integers", ln, 1) from None
            continue
        if n_vars is None:
            raise ParseError("clause before problem line", ln, 1)
        try:
            lits = [int(t) for t in toks]
        except ValueError:
            raise ParseError("clause literals must be integers", ln, 1) from None
        if len(lits) != 4 or lits[3] != 0:
            raise ParseError("clause line must hold 3 literals and a trailing 0", ln, 1)
        clauses.append(tuple(lits[:3]))
    if n_vars is None:
        raise ParseError("missing problem line")
    if n_clauses is not None and n_clauses != len(clauses):
        raise ParseError(f"problem line promises {n_clauses} clauses, found {len(clauses)}")
    try:
        return OneInThreeSatInstance(n_vars, tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_sat(inst: OneInThreeSatInstance) -> str:
    out = [f"p cnf {inst.n_vars} {inst.m}"]
    for c in inst.clauses:
        out.append(f"{c[0]} {c[1]} {c[2]} 0")
    return "\n".join(out) + "\n"


def serialize_integers(values) -> str:
    return "".join(f"{v}\n" for v in values)


# ---------------------------------------------------------------------------
# Seeded random trees


def gen_random_tree(
    n: int,
    seed: int,
    *,
    bbox: tuple[Number, Number, Number, Number] = (0, 0, 100, 100),
    grid: bool = False,
    explicit_weight_range: tuple[int, int] | None = None,
) -> WeightedTree:
    """Random tree by uniform parent attachment: vertex i >= 1 attaches to a
    uniform parent among 0..i-1. grid=True samples distinct integer lattice
    points inside bbox (a zero-height bbox gives exact collinear instances);
    otherwise coordinates are uniform floats. explicit_weight_range=(lo, hi)
    assigns integer edge weights instead of geometric lengths.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    x0, y0, x1, y1 = bbox
    if x1 < x0 or y1 < y0:
        raise ValueError("bbox must satisfy x0 <= x1 and y0 <= y1")
    rng = random.Random(seed)
    if grid:
        xs = range(math.ceil(x0), math.floor(x1) + 1)
        ys = range(math.ceil(y0), math.floor(y1) + 1)
        capacity = len(xs) * len(ys)
        if capacity < n:
            raise ValueError(f"grid bbox holds {capacity} lattice points, need {n}")
        if capacity <= 4 * n * n or capacity <= 4096:
            population = [(x, y) for x in xs for y in ys]
            points = rng.sample(population, n)
        else:
            chosen: set[tuple[int, int]] = set()
            while len(chosen) < n:
                chosen.add((rng.randrange(xs.start, xs.stop),
                            rng.randrange(ys.start, ys.stop)))
            points = sorted(chosen)
            rng.shuffle(points)
    else:
        seen: set[tuple[float, float]] = set()
        points = []
        while len(points) < n:
            p = (rng.uniform(float(x0), float(x1)), rng.uniform(float(y0), float(y1)))
            if p not in seen:
                seen.add(p)
                points.append(p)
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        if explicit_weight_range is not None:
            lo, hi = explicit_weight_range
            edges.append((parent, i, rng.randint(lo, hi)))
        else:
            edges.append((parent, i))
    return WeightedTree(
        points,
        edges,
        explicit_weights=explicit_weight_range is not None,
    )
