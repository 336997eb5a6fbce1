"""File formats and the command-line driver.

Round-trips must be byte-identical after one serialize/parse cycle, and the
--json run reports must validate against the bundled schema and reproduce
exactly apart from duration_ms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from importlib import resources

import jsonschema
import pytest

from bridgeworks import (
    WeightedTree,
    approx_greedy,
    brute_force_twin,
    connect_forest,
    crossing_optimum_instance,
    greedy_tightness_instance,
    solve_exact,
    solve_twin,
)
from bridgeworks.cli import main
from bridgeworks.geometry import Point
from bridgeworks.io import (
    ParseError,
    _parse_columns,
    _parse_rows,
    format_number,
    gen_random_tree,
    number_to_json,
    parse_graph,
    parse_number,
    parse_sat,
    parse_tree,
    serialize_graph,
    serialize_pairs,
    serialize_sat,
    serialize_tree,
)
from bridgeworks.reductions import (
    OneInThreeSatInstance,
    k4_embedding,
    vc_to_rdbp,
    verify_ksum_iff,
    verify_one_bridge_iff,
    verify_rdbp_iff,
)


def geometric_tree():
    return WeightedTree([(0, 0), (3, 4), (Fraction(1, 2), 2)], [(0, 1), (1, 2)])


def explicit_tree():
    return WeightedTree(
        [(0, 0), (10, 0), (20, 0)],
        [(0, 1, Fraction(7, 3)), (1, 2, 4)],
        explicit_weights=True,
    )


# ------------------------------------------------------------------- numbers

def test_number_round_trip():
    for x in (0, -17, Fraction(7, 3), Fraction(-1, 2), 2.5, 1e-9):
        back = parse_number(format_number(x))
        assert back == x
        assert type(back) is type(x)
    assert format_number(Fraction(6, 3)) == "2"  # whole rationals print as ints


def test_parse_number_errors_carry_location():
    with pytest.raises(ParseError) as ei:
        parse_number("3/0", line=4, column=9)
    assert ei.value.line == 4 and ei.value.column == 9
    with pytest.raises(ParseError):
        parse_number("inf")
    with pytest.raises(ParseError):
        parse_number("abc")


# Value and type, or the exact error, of each token; recorded from the
# parser that tried int, Fraction and float in that order for every token.
PARSE_NUMBER_PINS = [
    ("1", 1),
    ("-0", 0),
    ("007", 7),
    ("1_000", 1000),
    ("1.5", 1.5),
    ("-.5", -0.5),
    ("-0.0", -0.0),
    ("1_0.5", 10.5),
    ("1e3", 1000.0),
    ("1E-3", 0.001),
    ("1e999", "non-finite literal '1e999'"),
    ("inf", "non-finite literal 'inf'"),
    ("nan", "non-finite literal 'nan'"),
    ("1e", "bad numeric literal '1e'"),
    ("0x10", "bad numeric literal '0x10'"),
    ("abc", "bad numeric literal 'abc'"),
    ("1/2", Fraction(1, 2)),
    ("-3/6", Fraction(-1, 2)),
    ("1.5/2", "bad rational literal '1.5/2'"),
    ("3/0", "bad rational literal '3/0'"),
]


@pytest.mark.parametrize("token,want", PARSE_NUMBER_PINS)
def test_parse_number_pinned_values_and_errors(token, want):
    if isinstance(want, str):
        with pytest.raises(ParseError) as ei:
            parse_number(token, line=4, column=7)
        assert str(ei.value) == f"{want} (line 4, column 7)"
        assert (ei.value.line, ei.value.column) == (4, 7)
    else:
        got = parse_number(token)
        # repr tells 1000 from 1000.0 and -0.0 from 0.0
        assert type(got) is type(want) and repr(got) == repr(want)


# --------------------------------------------------------------------- trees

def test_tree_text_round_trip_is_byte_stable():
    trees = [
        geometric_tree(),
        explicit_tree(),
        gen_random_tree(300, 11),
        gen_random_tree(120, 12, bbox=(-5, -5, 5, 5)),
        gen_random_tree(200, 13, grid=True, bbox=(0, 0, 30, 30)),
        gen_random_tree(150, 14, grid=True, bbox=(0, 0, 400, 0)),
        gen_random_tree(250, 15, grid=True, bbox=(0, 0, 30, 30), explicit_weight_range=(0, 3)),
    ]
    for t in trees:
        text = serialize_tree(t)
        back = parse_tree(text)
        assert serialize_tree(back) == text
        assert back.explicit_weights == t.explicit_weights
        assert back.points == t.points and back.edges == t.edges
        for got, want in ((back.points, t.points), (back.edges, t.edges)):
            assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]
    assert "7/3" in serialize_tree(explicit_tree())
    assert serialize_tree(geometric_tree()).count("\n") == 1 + 3 + 2


def test_tree_text_comments_and_blank_lines():
    text = "# header\n3 2\n\n0 0 0\n1 3 4  # hyp 5\n2 1/2 2\n0 1\n1 2\n"
    t = parse_tree(text)
    assert t.n == 3
    assert t.points[2] == (Fraction(1, 2), 2)
    assert not t.explicit_weights


def test_tree_text_line_ends_comments_and_id_order():
    lf = "3 2\n0 0 0\n1 3 4\n2 1/2 2\n0 1\n1 2 \n"
    variants = [
        lf.replace("\n", "\r\n"),
        lf.replace("\n", "\r"),
        "3 2\n# vertices\n0 0 0\n1 3 4\n#\n2 1/2 2\n# edges\n0 1\n  # last\n1 2\n",
        "3 2\n2 1/2 2\n1 3 4\n0 0 0\n0 1\n1 2\n",  # ids in reverse order
    ]
    want = parse_tree(lf)
    for text in variants:
        got = parse_tree(text)
        assert got.points == want.points and got.edges == want.edges
    single = parse_tree("1 0\n0 -0.0 7\n")
    assert single.n == 1 and single.edges == ()
    assert repr(single.points[0]) == "Point(x=-0.0, y=7)"


# (text, line of the error or None, the whole message)
TREE_PARSE_ERRORS = [
    ("", None, "empty input"),
    ("3\n", 1, "header must be 'n m' (line 1, column 1)"),
    ("2 1\n0 0 0\n1 1 1\n0 1\n0 1\n", 5,  # extra content line
     "expected 4 content lines for n=2, m=1, got 5 (line 5)"),
    ("2 1\n0 0 0\n0 1 1\n0 1\n", 3, "duplicate vertex id 0 (line 3, column 1)"),
    ("2 1\n0 0 0\n5 1 1\n0 1\n", 3, "vertex id 5 out of range 0..1 (line 3, column 1)"),
    ("3 2\n0 0 0\n1 1 0\n2 2 0\n0 1 5\n1 2\n", 6, "mixed weighted and unweighted edge rows (line 6)"),
    ("2 1\n0 0 0\n1 1 1\n0 9\n", 4, "edge endpoint 9 out of range (line 4, column 1)"),
    ("2 1\r\n0 0 0\r\n1 1 1\r\n0 9\r\n", 4, "edge endpoint 9 out of range (line 4, column 1)"),
    ("2 1\r0 0 0\r\r1 1 x\r0 1\r", 4, "bad numeric literal 'x' (line 4, column 5)"),
    ("3 2\n# vertices\n0 0 0\n# middle\n1 1 0\n2 2 0\n# edges\n0 1\n# more\n1 x\n", 10,
     "edge endpoints must be integers (line 10, column 1)"),
    ("3 2\n2 2 0\n1 1 0\n1 0 0\n0 1\n1 2\n", 4,  # reverse order, 1 twice
     "duplicate vertex id 1 (line 4, column 1)"),
    ("1 0\n0 0 0\n0 0\n", 3, "expected 2 content lines for n=1, m=0, got 3 (line 3)"),
    ("2 1\n0 0.5 0.5\n1 inf 1.5\n0 1\n", 3, "non-finite literal 'inf' (line 3, column 3)"),
    ("2 1\n0 0.5 0.5\n1 1.5 1.5\n0 1 1.5e999\n", 4, "non-finite literal '1.5e999' (line 4, column 5)"),
    ("2 1\n0 0 0\n1 1 1\n0 1 -0.5\n", None, "edge (0,1) weight -0.5 is negative or NaN"),
    ("2 1\n0 0 0\n1 1 1" + "0" * 400 + "\n0 1\n", None,
     "edge (0,1) embedded length is too large for a float"),
]


@pytest.mark.parametrize(
    "text,line,message", [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in TREE_PARSE_ERRORS]
)
def test_tree_parse_errors_point_at_the_line(text, line, message):
    with pytest.raises(ParseError) as ei:
        parse_tree(text)
    assert ei.value.line == line
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("2 1\n0 0 0\n  1   1   1/0\n0 1\n", 3, 11),  # y repeats x's text
        ("2 1\n0 0 0\n1 abc 1  # note\n0 1\n", 3, 3),  # x coordinate
        ("2 1\n0 0 0\n1 1 1\n0  1    inf\n", 4, 9),  # non-finite weight
        ("3 2\n0 0 0\n1 1 0\n2 2 0\n0 1 1\n1 2 2/0\n", 6, 5),  # weight
    ],
)
def test_tree_parse_errors_point_at_the_bad_number(text, line, column):
    with pytest.raises(ParseError) as ei:
        parse_tree(text)
    assert (ei.value.line, ei.value.column) == (line, column)
    assert f"(line {line}, column {column})" in str(ei.value)


def _float_weight_tree(n, seed):
    rng = random.Random(seed)
    points = gen_random_tree(n, seed).points
    edges = [(rng.randrange(i), i, rng.uniform(0.0, 10.0)) for i in range(1, n)]
    return WeightedTree(points, edges, explicit_weights=True)


def _shuffled_vertex_rows(text, seed):
    lines = text.splitlines(keepends=True)
    n = int(lines[0].split()[0])
    rows = lines[1 : 1 + n]
    random.Random(seed).shuffle(rows)
    return "".join([lines[0], *rows, *lines[1 + n :]])


def _typed(parsed):
    points, edges, explicit = parsed
    return (
        [(type(x), repr(x)) for p in points for x in p],
        [(type(x), repr(x)) for e in edges for x in e],
        explicit,
    )


@pytest.mark.parametrize(
    "text",
    [
        *(
            serialize_tree(t)
            for t in (
                gen_random_tree(300, 11),
                gen_random_tree(120, 12, bbox=(-5, -5, 5, 5)),
                gen_random_tree(200, 13, grid=True, bbox=(0, 0, 30, 30)),
                gen_random_tree(150, 14, grid=True, bbox=(0, 0, 400, 0)),
                gen_random_tree(250, 15, grid=True, bbox=(0, 0, 30, 30), explicit_weight_range=(0, 3)),
                gen_random_tree(350, 16, bbox=(400.0, 0.0, 500.0, 100.0)),  # bridge-float's shape
                gen_random_tree(150, 17, bbox=(0.0, 0.0, 100.0, 100.0)),
                explicit_tree(),
            )
        ),
        "3 2\n0 0.5 1.5\n1 1e3 2.5\n2 3.5 4.5\n0 1\n1 2\n",  # one 1e3 in a float column
        "3 2\n2 7 -3\n0 0 0\n1 12 5\n0 1\n1 2\n",  # int columns, ids out of order
        "3 2\n0 1/2 0\n1 7/3 0\n2 -5/4 0\n0 1 2/3\n1 2 5/6\n",  # Fraction columns
        "3 2\n0 -0.0 0.5\n1 1/2 2\n2 3.0 7\n0 1 -0.0\n1 2 2.5\n",  # -0.0 and mixed columns
        "1 0\n0 1.5 -0.0\n",
        "# tree\n3 2  # n m\n0 0.5 1.5 # first\n# middle\n1 2.5 3.5\n2 4.5 5.5\n0 1 #\n1 2\n# end",
        serialize_tree(gen_random_tree(40, 21)).replace("\n", "\r\n"),
        serialize_tree(gen_random_tree(40, 22, grid=True, bbox=(0, 0, 30, 30))).replace("\n", "\r"),
        "3 2\r\n# c\r\n0 0 0 # x\r\n1 3 4\r\n2 1/2 2\r\n0 1\r\n1 2 # y",  # CRLF and comments
        "3 2\n0\t0.5\t 1.5\n1    2.5\t\t3.5\n 2 4.5   5.5  \n0\t1\n1  2\n",  # tabs, space runs
        "\n\n3 2\n\n0 1 2\n\n\n1 3 4\n2 5 6\n\n0 1\n\n1 2\n\n",  # blank lines
        _shuffled_vertex_rows(serialize_tree(_float_weight_tree(30, 24)), 25),
        _shuffled_vertex_rows(serialize_tree(gen_random_tree(50, 26)), 27),
        serialize_graph([(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ],
)
def test_columnar_parse_equals_the_row_loop(text):
    columns = _parse_columns(text, weights_allowed=True)
    assert columns is not None
    assert _typed(columns) == _typed(_parse_rows(text, weights_allowed=True))
    assert all(type(p) is Point for p in columns[0])  # WeightedTree keeps them as they are
    if not columns[2]:  # bare edge rows: parse_graph's pass gives the same
        graph = _parse_columns(text, weights_allowed=False)
        assert _typed(graph) == _typed(_parse_rows(text, weights_allowed=False)) == _typed(columns)


# (text, weights allowed, line, column, the whole message): texts the flat
# pass declines, each left to the row loop's error
DECLINED_TEXTS = [
    # a 4-token vertex row balanced by a 2-token one: the token count fits
    ("3 2\n0 0 0 9\n1 1\n2 2 0\n0 1\n1 2\n", True, 2, 1, "vertex row must be 'id x y' (line 2, column 1)"),
    ("3 2\n0 0 0\n1 1\n2 2 0 9\n0 1\n1 2\n", True, 3, 1, "vertex row must be 'id x y' (line 3, column 1)"),
    # edge rows of 4 and 1 tokens, and of 3 and 2
    ("3 2\n0 0 0\n1 1 0\n2 2 0\n0 1 2 3\n1\n", True, 5, 1,
     "edge row must be 'u v' or 'u v weight' (line 5, column 1)"),
    ("3 2\n0 0 0\n1 1 0\n2 2 0\n0 1 1\n1 2\n", True, 6, None, "mixed weighted and unweighted edge rows (line 6)"),
    ("3 2\n0 0 0\n1 1 0\n2 2 0\n0 1\n1 2 1\n", True, 6, None, "mixed weighted and unweighted edge rows (line 6)"),
    # a weighted edge row in graph text
    ("2 1\n0 0 0\n1 1 1\n0 1 5\n", False, 4, 1, "edge row must be 'u v' or 'u v weight' (line 4, column 1)"),
]


@pytest.mark.parametrize("text,weights_allowed,line,column,message", DECLINED_TEXTS)
def test_flat_parse_declines_bad_row_shapes(text, weights_allowed, line, column, message):
    assert _parse_columns(text, weights_allowed=weights_allowed) is None
    with pytest.raises(ParseError) as ei:
        (parse_tree if weights_allowed else parse_graph)(text)
    assert (ei.value.line, ei.value.column, str(ei.value)) == (line, column, message)


# -------------------------------------------------------------- graphs, sat

def test_graph_round_trip_and_weight_rejection():
    pts = [(0, 0), (4, 0), (2, 3)]
    edges = [(0, 1), (1, 2), (2, 0)]
    text = serialize_graph(pts, edges)
    p2, e2 = parse_graph(text)
    assert p2 == pts and e2 == edges
    with pytest.raises(ParseError) as ei:
        parse_graph("2 1\n0 0 0\n1 1 1\n0 1 5\n")
    assert str(ei.value) == "edge row must be 'u v' or 'u v weight' (line 4, column 1)"


def test_sat_round_trip_and_errors():
    inst = OneInThreeSatInstance(4, ((1, -2, 3), (-1, 2, 4)))
    text = serialize_sat(inst)
    back = parse_sat("c comment\n" + text)
    assert back.n_vars == 4 and back.clauses == inst.clauses
    assert serialize_sat(back) == text
    with pytest.raises(ParseError):
        parse_sat("1 2 3 0\n")  # clause before problem line
    with pytest.raises(ParseError):
        parse_sat("p cnf 3 2\n1 2 3 0\n")  # promised 2 clauses
    with pytest.raises(ParseError):
        parse_sat("p cnf 3 1\n1 2 0\n")  # not three literals


def test_gen_random_tree_properties():
    a = gen_random_tree(12, seed=7)
    b = gen_random_tree(12, seed=7)
    assert a.points == b.points and a.edges == b.edges
    g = gen_random_tree(10, seed=3, bbox=(0, 0, 30, 0), grid=True)
    assert len(set(g.points)) == 10
    assert all(y == 0 for _, y in g.points)
    w = gen_random_tree(8, seed=5, explicit_weight_range=(2, 9))
    assert w.explicit_weights
    assert all(2 <= e[2] <= 9 for e in w.edges)
    with pytest.raises(ValueError):
        gen_random_tree(0, seed=1)
    with pytest.raises(ValueError):
        gen_random_tree(50, seed=1, bbox=(0, 0, 6, 0), grid=True)


# ----------------------------------------------------------------------- CLI

SCHEMA = json.loads(
    resources.files("bridgeworks").joinpath("schemas/run_report.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    rep = json.loads(out)
    jsonschema.validate(rep, SCHEMA)
    assert rep["exit_code"] == code
    return code, rep


def write_tree(tmp_path, name, tree):
    p = tmp_path / name
    p.write_text(serialize_tree(tree))
    return str(p)


@pytest.fixture
def tree_files(tmp_path):
    t1 = WeightedTree([(0, 0), (4, 0), (4, 3)], [(0, 1), (1, 2)])
    t2 = WeightedTree([(10, 0), (14, 0)], [(0, 1)])
    return write_tree(tmp_path, "t1.txt", t1), write_tree(tmp_path, "t2.txt", t2), t1, t2


def test_cli_bridge_exact_matches_library(tree_files, capsys):
    p1, p2, t1, t2 = tree_files
    code, rep = report_of(capsys, "bridge", "exact", p1, p2, "--json")
    assert code == 0
    sol = solve_exact(t1, t2)
    assert rep["result"]["p"] == sol.p and rep["result"]["q"] == sol.q
    assert rep["result"]["value"] == pytest.approx(float(sol.value))
    assert rep["result"]["backend"] == sol.backend
    assert [i["kind"] for i in rep["instances"]] == ["tree", "tree"]


def test_cli_reports_reproduce_modulo_duration(tree_files, capsys):
    p1, p2, _, _ = tree_files
    _, rep_a = report_of(capsys, "twin", "solve", p1, p2, "--json")
    _, rep_b = report_of(capsys, "twin", "solve", p1, p2, "--json")
    rep_a.pop("duration_ms")
    rep_b.pop("duration_ms")
    assert rep_a == rep_b


def test_cli_decide_exit_codes(tree_files, capsys):
    p1, p2, t1, t2 = tree_files
    # leaves 0 in t1 and 1 in t2 through bridge (1, 0): 4 + 6 + 4
    code, rep = report_of(capsys, "bridge", "decide", p1, p2, "--c1", "6", "--c2", "14", "--json")
    assert code == 0
    assert rep["result"]["witness"] is not None
    code, rep = report_of(capsys, "bridge", "decide", p1, p2, "--c1", "6", "--c2", "1", "--json")
    assert code == 1
    assert rep["result"]["witness"] is None


def test_cli_bridge_human_output(tree_files, capsys):
    p1, p2, _, _ = tree_files
    code, out, _ = run_cli(capsys, "bridge", "exact", p1, p2)
    assert code == 0
    assert out.startswith("bridge (")
    assert "merged diameter" in out


def test_cli_bridge_approx_runs_without_dot_option(tree_files, capsys):
    p1, p2, _, _ = tree_files
    code, rep = report_of(capsys, "bridge", "approx", p1, p2, "--json")
    assert code == 0
    assert rep["result"]["method"] == "greedy"


def test_cli_emit_dot(tree_files, tmp_path, capsys):
    p1, p2, _, _ = tree_files
    dot = tmp_path / "merged.dot"
    code, _, _ = run_cli(capsys, "bridge", "exact", p1, p2, "--emit-dot", str(dot))
    assert code == 0
    body = dot.read_text()
    assert body.startswith("graph merged {")
    assert "a0 -- a1" in body and "[style=dashed]" in body


def test_cli_forest_connect(tmp_path, capsys):
    paths = []
    for i, x0 in enumerate((0, 50, 100)):
        t = WeightedTree([(x0, 0), (x0 + 3, 0)], [(0, 1)])
        paths.append(write_tree(tmp_path, f"f{i}.txt", t))
    code, rep = report_of(capsys, "forest", "connect", *paths, "--json")
    assert code == 0
    assert len(rep["result"]["bridges"]) == 2
    assert 0 <= rep["result"]["hub"] < 3


def test_cli_gen_round_trips(tmp_path, capsys):
    out2 = tmp_path / "fig2"
    code, rep = report_of(capsys, "gen", "fig2", "--n", "5", "--eps", "1/100",
                          "--out-dir", str(out2), "--json")
    assert code == 0
    for p in rep["result"]["written"]:
        parse_tree(Path(p).read_text())
    out3 = tmp_path / "fig3"
    code, rep = report_of(capsys, "gen", "fig3", "--eps", "1/100",
                          "--out-dir", str(out3), "--json")
    assert code == 0
    for p in rep["result"]["written"]:
        parse_tree(Path(p).read_text())
    assert rep["result"]["vertices"] == [4, 4]
    # the written bytes are the library instances, serialized
    for out, (t1, t2) in ((out2, greedy_tightness_instance(n=5, eps=Fraction(1, 100))),
                          (out3, crossing_optimum_instance(eps=Fraction(1, 100)))):
        assert (out / "t1.txt").read_text() == serialize_tree(t1)
        assert (out / "t2.txt").read_text() == serialize_tree(t2)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_reduce_sat_to_onebridge(tmp_path, capsys):
    sat = tmp_path / "f.cnf"
    sat.write_text("p cnf 4 2\n1 2 3 0\n-1 2 4 0\n")
    out = tmp_path / "red"
    code, rep = report_of(capsys, "reduce", "sat-to-onebridge", "--sat", str(sat),
                          "--out-dir", str(out), "--json")
    assert code == 0
    t1 = parse_tree((out / "t1.txt").read_text())
    t2 = parse_tree((out / "t2.txt").read_text())
    assert t1.explicit_weights and t2.explicit_weights
    params = json.loads((out / "params.json").read_text())
    # terminals coincide, so the bridge width is zero
    assert parse_number(params["c1"]) == 0
    assert parse_number(params["c2"]) > parse_number(params["c"]) > 0
    assert rep["instances"][0]["kind"] == "sat"
    # the written bytes are pinned
    assert {name: sha256_of(out / name) for name in ("t1.txt", "t2.txt", "params.json")} == {
        "t1.txt": "9d8b9a0be94b19d8291b115c8430cbaa38386c624e83519869e7a173ef76a3e2",
        "t2.txt": "786e216046676a37c7b814da968f18f4dc96112bff99b0bdbd8776b7d62666fd",
        "params.json": "4c4937bb706a616d051ad4b938b85d179ce390ba04b9e103ab3dd71603d8c4e6",
    }


def test_cli_reduce_sat_to_3sum(tmp_path, capsys):
    sat = tmp_path / "f.cnf"
    sat.write_text("p cnf 4 1\n1 -2 4 0\n")
    out = tmp_path / "s.txt"
    code, rep = report_of(capsys, "reduce", "sat-to-3sum", "--sat", str(sat),
                          "--out", str(out), "--json")
    assert code == 0
    vals = [int(line) for line in out.read_text().splitlines()]
    assert len(vals) == 2 ** (4 // 2 + 1) + 1 == rep["result"]["count"]
    assert min(vals) < 0  # the target element
    assert sha256_of(out) == "feff4372b55e716a701839bea4c347334a047f65d7e9f799eb6b78607b187b13"

    code, rep = report_of(capsys, "reduce", "sat-to-3sum", "--sat", str(sat),
                          "--k", "4", "--out", str(out), "--json")
    assert code == 0 and rep["result"]["k"] == 4
    vals = [int(line) for line in out.read_text().splitlines()]
    assert len(vals) == rep["result"]["count"]
    assert sha256_of(out) == "ba92109a9422d1f618016effc56a069d8b2847b2d868e5cd023e9646fab4f422"


def test_cli_reduce_vc_to_rdbp(tmp_path, capsys):
    pts, edges = k4_embedding()
    g = tmp_path / "k4.txt"
    g.write_text(serialize_graph(pts, edges))
    out = tmp_path / "rdbp"
    code, rep = report_of(capsys, "reduce", "vc-to-rdbp", "--graph", str(g),
                          "--k", "3", "--out-dir", str(out), "--json")
    assert code == 0
    gp, ge = parse_graph((out / "graph.txt").read_text())
    assert len(gp) == rep["result"]["vertices"]
    assert len((out / "pairs.txt").read_text().splitlines()) == len(edges)
    assert len((out / "candidates.txt").read_text().splitlines()) == 4
    assert json.loads((out / "params.json").read_text())["budget"] == 3
    # the written bytes are the library instance, serialized (the gadget
    # coordinates come from trig, so no digest is pinned)
    inst = vc_to_rdbp(pts, edges, 3)
    assert (out / "graph.txt").read_text() == serialize_graph(inst.graph.points, inst.graph.edges)
    assert (out / "pairs.txt").read_text() == serialize_pairs(inst.pairs)
    assert (out / "candidates.txt").read_text() == serialize_pairs(inst.candidates)
    assert (out / "params.json").read_text() == json.dumps(
        {"budget": inst.budget, "epsilon": inst.epsilon}, sort_keys=True, indent=2) + "\n"


def test_cli_verify_commands(tmp_path, capsys):
    sat = tmp_path / "f.cnf"
    sat.write_text("p cnf 3 1\n1 2 3 0\n")
    code, rep = report_of(capsys, "verify", "iff-onebridge", "--sat", str(sat), "--json")
    assert code == 0 and rep["result"]["consistent"]
    assert rep["result"]["sat"] is True

    code, rep = report_of(capsys, "verify", "iff-3sum", "--sat", str(sat), "--json")
    assert code == 0 and rep["result"]["consistent"]

    pts, edges = k4_embedding()
    g = tmp_path / "k4.txt"
    g.write_text(serialize_graph(pts, edges))
    code, rep = report_of(capsys, "verify", "iff-rdbp", "--graph", str(g), "--json")
    assert code == 0 and rep["result"]["consistent"]
    assert rep["result"]["cover_size"] == rep["result"]["budget_size"] == 3


def test_cli_backend_env_is_recorded(tree_files, capsys, monkeypatch):
    p1, p2, _, _ = tree_files
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "double")
    for cmd in (("bridge", "exact"), ("twin", "solve")):
        code, rep = report_of(capsys, *cmd, p1, p2, "--json")
        assert code == 0
        assert rep["backend_env"] == "double"
        assert rep["result"]["backend"] == "double"
        assert isinstance(rep["result"]["value"], float)


def test_cli_rational_backend_rejects_float_trees(tmp_path, capsys, monkeypatch):
    p1 = write_tree(tmp_path, "f1.txt", WeightedTree([(0.5, 0), (3, 1)], [(0, 1)]))
    p2 = write_tree(tmp_path, "f2.txt", WeightedTree([(3, 1), (3, 4.5)], [(0, 1)]))
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "rational")
    for cmd in (("bridge", "exact"), ("bridge", "decide", "--c1", "0", "--c2", "7"),
                ("twin", "solve")):
        code, out, err = run_cli(capsys, *cmd, p1, p2)
        assert code == 2
        assert "requires exact coordinates/weights" in err


def test_cli_rational_backend_names_the_inexact_file(tmp_path, capsys, monkeypatch):
    ex = write_tree(tmp_path, "exact.txt", WeightedTree([(0, 0), (3, 4)], [(0, 1)]))
    fl = write_tree(tmp_path, "float.txt", WeightedTree([(10, 0), (11, 1)], [(0, 1)]))
    monkeypatch.setenv("BRIDGEWORKS_BACKEND", "rational")
    for argv in (("bridge", "exact", ex, fl), ("forest", "connect", ex, fl, ex),
                 ("twin", "solve", fl, ex)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {fl}: ") and "requires exact coordinates/weights" in err
    code, _, _ = run_cli(capsys, "forest", "connect", ex, ex)
    assert code == 0


def test_cli_twin_solve_on_zero_diameter_trees(tmp_path, capsys):
    # two single edges of explicit weight 0
    p1 = write_tree(tmp_path, "z1.txt", WeightedTree(
        [(0, 0), (1, 0)], [(0, 1, 0)], explicit_weights=True))
    p2 = write_tree(tmp_path, "z2.txt", WeightedTree(
        [(10, 0), (11, 0)], [(0, 1, 0)], explicit_weights=True))
    reps = [report_of(capsys, "twin", mode, p1, p2, "--json") for mode in ("solve", "brute")]
    assert [code for code, _ in reps] == [0, 0]
    (_, solve), (_, brute) = reps
    assert solve["result"] == brute["result"]
    assert solve["result"]["value"] == 9


def test_cli_twin_solve_rejects_a_single_vertex_tree(tmp_path, capsys):
    p1 = write_tree(tmp_path, "one.txt", WeightedTree([(0, 0)], []))
    p2 = write_tree(tmp_path, "two.txt", WeightedTree([(10, 0), (11, 0)], [(0, 1)]))
    code, out, err = run_cli(capsys, "twin", "solve", p1, p2)
    assert code == 2 and out == ""
    assert "twin bridges need at least 2 vertices in each tree" in err


def test_cli_usage_and_input_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["bridge", "exact", "/nope/a.txt", "/nope/b.txt"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n")
    good = tmp_path / "g.txt"
    good.write_text(serialize_tree(WeightedTree([(0, 0), (1, 0)], [(0, 1)])))
    code = main(["bridge", "exact", str(bad), str(good)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # n - 1 edge rows, one of them repeated backwards: vertex 2 is unreached
    bad.write_text("3 2\n0 0 0\n1 1 0\n2 2 0\n0 1\n1 0\n")
    assert main(["bridge", "exact", str(bad), str(good)]) == 2
    assert "edges do not form a connected tree" in capsys.readouterr().err


@pytest.mark.parametrize("text,start", [
    (b"2 1\n0 0 0\n1 x 0\n0 1\n", "bad numeric literal 'x' (line 3, column 3)"),
    (b"2 1\n0 0 0\n1 1 0 # caf\xe9\n0 1\n", "'utf-8' codec can't decode byte 0xe9"),
])
def test_cli_input_errors_name_the_file(tmp_path, capsys, text, start):
    with pytest.raises(ValueError) as exc:
        parse_tree(text.decode("utf-8"))
    message = str(exc.value)
    assert message.startswith(start)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text)
    good = [write_tree(tmp_path, f"g{i}.txt", WeightedTree([(10 * i, 0), (10 * i + 1, 0)], [(0, 1)]))
            for i in range(3)]
    for k in range(3):
        files = good[:k] + [str(bad)] + good[k + 1:]
        for argv in (("forest", "connect", *files), ("bridge", "exact", *files[:2])):
            if str(bad) in argv:
                assert run_cli(capsys, *argv) == (2, "", f"error: {bad}: {message}\n")
    sat = tmp_path / "bad.cnf"
    sat.write_text("p cnf 3 1\n1 2 x 0\n")
    code, out, err = run_cli(capsys, "verify", "iff-onebridge", "--sat", str(sat))
    assert code == 2 and out == "" and err.startswith(f"error: {sat}: ")
    graph = tmp_path / "bad-graph.txt"
    graph.write_bytes(text)
    code, out, err = run_cli(capsys, "verify", "iff-rdbp", "--graph", str(graph))
    assert code == 2 and out == "" and err.startswith(f"error: {graph}: ")


def test_cli_reads_each_input_once(tree_files, tmp_path, capsys, monkeypatch):
    import builtins

    p1, p2, _, _ = tree_files
    sat = tmp_path / "f.cnf"
    sat.write_text("p cnf 4 2\n1 2 3 0\n-1 2 4 0\n")
    graph = tmp_path / "k4.txt"
    graph.write_text(serialize_graph(*k4_embedding()))
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    for argv, paths in (
        (("bridge", "exact", p1, p2), [p1, p2]),
        (("verify", "iff-onebridge", "--sat", str(sat)), [str(sat)]),
        (("reduce", "vc-to-rdbp", "--graph", str(graph), "--k", "3",
          "--out-dir", str(tmp_path / "out")), [str(graph)]),
    ):
        opened.clear()
        code, rep = report_of(capsys, *argv, "--json")
        assert code == 0
        assert [opened.count(path) for path in paths] == [1] * len(paths)
        # the digest is still the sha256 of the file's bytes
        assert [i["digest"] for i in rep["instances"]] == [sha256_of(Path(p)) for p in paths]


def test_cli_crlf_input_parses_as_lf_and_digests_its_bytes(tree_files, tmp_path, capsys):
    p1, p2, _, _ = tree_files
    crlf = tmp_path / "t1-crlf.txt"
    crlf.write_bytes(Path(p1).read_bytes().replace(b"\n", b"\r\n"))
    _, want = report_of(capsys, "bridge", "exact", p1, p2, "--json")
    _, got = report_of(capsys, "bridge", "exact", str(crlf), p2, "--json")
    assert got["result"] == want["result"]
    assert got["instances"][0]["digest"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
    assert got["instances"][0]["digest"] != want["instances"][0]["digest"]
    # invalid UTF-8 is an input error, like a missing file
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"2 1\n0 0 0\n1 1 0 # caf\xe9\n0 1\n")
    code, out, err = run_cli(capsys, "bridge", "exact", str(bad), p2)
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("threads", ["0", "-3", "2"])
def test_cli_rejects_thread_counts_below_one(tree_files, capsys, threads):
    # --threads stays for old command lines, which pass 1; any other count is a usage error
    p1, p2, _, _ = tree_files
    code, out, err = run_cli(capsys, "bridge", "exact", p1, p2, "--threads", threads)
    assert code == 2 and out == ""
    assert "--threads" in err and "invalid choice" in err
    _, flagless = report_of(capsys, "bridge", "exact", p1, p2, "--json")
    _, one = report_of(capsys, "bridge", "exact", p1, p2, "--threads", "1", "--json")
    for rep in (flagless, one):
        del rep["command"], rep["duration_ms"]
    assert one == flagless


@pytest.mark.parametrize("argv", [("bridge", "exact"), ("bridge", "approx"),
                                  ("bridge", "decide", "--c1", "1.5", "--c2", "2"),
                                  ("twin", "solve"), ("forest", "connect")])
def test_cli_arithmetic_overflow_is_an_input_error(tree_files, tmp_path, capsys, argv):
    # |pq| from (4, 3) to a point 10**400 away on a diagonal overflows a float
    p1, _, _, _ = tree_files
    big = 10**400
    p2 = write_tree(tmp_path, "huge.txt", WeightedTree([(big, big), (big, big + 1)], [(0, 1)]))
    code, out, err = run_cli(capsys, *argv[:2], p1, p2, *argv[2:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv,where", [
    (("bridge", "exact"), "t1 vertex 1 to t2 vertex 0"),
    (("bridge", "approx"), "pts1 vertex 2 to pts2 vertex 0"),
    (("bridge", "decide", "--c1", "1.5", "--c2", "2"), "t1 vertex 0 to t2 vertex 0"),
    (("twin", "solve"), "t1 vertex 0 to t2 vertex 0"),
    (("forest", "connect"), "trees[1] vertex 0 to trees[0] vertex 1"),
])
def test_cli_overflow_names_the_input_files(tree_files, tmp_path, capsys, argv, where):
    # the overflow lies between the trees, so every input path goes in front
    p1, _, _, _ = tree_files
    big = 10**400
    p2 = write_tree(tmp_path, "huge.txt", WeightedTree([(big, big), (big, big + 1)], [(0, 1)]))
    code, out, err = run_cli(capsys, *argv[:2], p1, p2, *argv[2:])
    assert code == 2 and out == ""
    assert err == f"error: {p1}, {p2}: distance from {where} is too large for a float\n"


def test_cli_exact_decide_needs_no_float_distance(tree_files, tmp_path, capsys):
    # an exact c1 is matched by squared length, so the 10**400 tree does not overflow
    p1, _, _, _ = tree_files
    big = 10**400
    p2 = write_tree(tmp_path, "huge.txt", WeightedTree([(big, big), (big, big + 1)], [(0, 1)]))
    code, out, err = run_cli(capsys, "bridge", "decide", p1, p2, "--c1", "1", "--c2", "2")
    assert code == 1 and out.strip() == "no witness" and err == ""


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["bridgeworks", "bridgeworks.cli"])
def test_python_dash_m_runs_main(module, tree_files, capsys):
    # `python -m` from a source checkout, not an installed script
    p1, p2, _, _ = tree_files
    argv = ["twin", "solve", p1, p2, "--json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, want = report_of(capsys, *argv)
    assert proc.returncode == code == 0, proc.stderr
    got = json.loads(proc.stdout)
    got.pop("duration_ms")
    want.pop("duration_ms")
    assert got == want
    # and the exit code is main's, not 0
    proc = subprocess.run([sys.executable, "-m", module, "bridge", "exact", p1, "/nope.txt"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "error:" in proc.stderr


def test_cli_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # set or dict order in a solver or in tree rooting would show up as
    # reports that differ between hash seeds
    floats = [write_tree(tmp_path, f"f{k}.txt", gen_random_tree(n, k))
              for k, n in enumerate((40, 33, 25))]
    ints = [write_tree(tmp_path, f"i{k}.txt",
                       gen_random_tree(n, k, grid=True, bbox=(30 * k, 0, 30 * k + 20, 20)))
            for k, n in enumerate((7, 6))]
    commands = [("bridge", "exact", *floats[:2]), ("bridge", "approx", *ints),
                ("forest", "connect", *floats), ("twin", "solve", *ints)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    reports = {}
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "bridgeworks", *argv, "--json"], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            rep = json.loads(proc.stdout)
            del rep["duration_ms"]
            reports.setdefault(argv, []).append(rep)
    for argv, (rep0, rep1) in reports.items():
        assert rep0 == rep1, argv


# Collinear exact trees: every distance is rational and the optimum values
# (11/4 for the bridges, 35/12 for the forest) are not integers.
FRACTION_PAIR = (
    WeightedTree([(0, 0), (Fraction(1, 3), 0), (Fraction(5, 6), 0)], [(0, 1), (1, 2)]),
    WeightedTree([(2, 0), (Fraction(7, 3), 0), (Fraction(11, 4), 0)], [(0, 1), (1, 2)]),
)
CONTRACT_SAT = OneInThreeSatInstance(3, ((1, 2, 3),))

# subcommand -> (argv after the subcommand, library call it reports)
RESULT_CONTRACT = {
    "bridge exact": (["t1", "t2"], lambda: solve_exact(*FRACTION_PAIR)),
    "bridge approx": (["t1", "t2"], lambda: approx_greedy(*FRACTION_PAIR)),
    "twin solve": (["t1", "t2"], lambda: solve_twin(*FRACTION_PAIR)),
    "twin brute": (["t1", "t2"], lambda: brute_force_twin(*FRACTION_PAIR)),
    "forest connect": (["t1", "t2"], lambda: connect_forest(FRACTION_PAIR)),
    "verify iff-onebridge": (["--sat", "sat"], lambda: verify_one_bridge_iff(CONTRACT_SAT)),
    "verify iff-3sum": (["--sat", "sat"], lambda: verify_ksum_iff(CONTRACT_SAT, 3)),
    "verify iff-rdbp": (["--graph", "graph"], lambda: verify_rdbp_iff(*k4_embedding())),
}


def encode_field(value):
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return [encode_field(v) for v in value]
    return number_to_json(value)


@pytest.mark.parametrize("command", sorted(RESULT_CONTRACT))
def test_cli_result_is_the_returned_dataclass(command, tmp_path, capsys):
    t1, t2 = FRACTION_PAIR
    inputs = {
        "t1": write_tree(tmp_path, "t1.txt", t1),
        "t2": write_tree(tmp_path, "t2.txt", t2),
        "sat": str(tmp_path / "f.cnf"),
        "graph": str(tmp_path / "k4.txt"),
    }
    (tmp_path / "f.cnf").write_text(serialize_sat(CONTRACT_SAT))
    (tmp_path / "k4.txt").write_text(serialize_graph(*k4_embedding()))
    args, call = RESULT_CONTRACT[command]
    code, rep = report_of(capsys, *command.split(), *[inputs.get(a, a) for a in args], "--json")
    assert code == 0
    obj = call()
    want = {f.name: encode_field(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if command.startswith("verify"):
        want["consistent"] = obj.consistent
    assert rep["result"] == want
    if not command.startswith("verify"):
        # exact non-integral values print in their "p/q" form
        value = rep["result"]["diameter" if command == "forest connect" else "value"]
        assert value == format_number(Fraction(value)) and "/" in value
