"""Command-line interface.

Subcommands:
    bridge exact|approx|decide   single-bridge solvers and the decision form
    twin solve|brute             two vertex-disjoint bridges
    forest connect               connect a forest of trees through a hub
    gen fig2|fig3                named example instances
    reduce sat-to-onebridge | sat-to-3sum | vc-to-rdbp
    verify iff-onebridge | iff-3sum | iff-rdbp

reduce sat-to-3sum and verify iff-3sum take --k (default 3) for k-SUM;
bridge exact and twin solve|brute take --emit-dot.
The run report's result for the solver and verify commands is the returned
dataclass: its fields under the same names, plus consistent on verify.
Every solver follows BRIDGEWORKS_BACKEND (rational or double) as the
library does. Scaling measurements live in the perfbench/ harness.

Exit codes: 0 solved / verified true, 1 decision false or verification
disagreement, 2 input or usage error. --json prints a run report whose
bytes are reproducible except for duration_ms.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .bridge import (
    approx_greedy,
    connect_forest,
    greedy_tightness_instance,
    one_bridge_decide,
    solve_exact,
)
from .geometry import WeightedTree
from .io import (
    ParseError,
    format_number,
    number_to_json,
    parse_graph,
    parse_number,
    parse_sat,
    parse_tree,
    serialize_integers,
    serialize_pairs,
    serialize_graph,
    serialize_tree,
)
from .twin import brute_force_twin, crossing_optimum_instance, solve_twin

# the reductions load only in the commands that use them
if TYPE_CHECKING:
    from .reductions import OneInThreeSatInstance


def _read(path: str) -> tuple[str, str]:
    """The file's text, decoded as UTF-8, and the sha256 of its bytes, from
    one read. Line ends stay as written: the parsers split lines with
    str.splitlines, which takes CRLF and a lone CR as line ends."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_files(out_dir: str, files: dict[str, str]) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    for path, text in zip(paths, files.values()):
        _write(path, text)
    return paths


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _load_tree(run: _Run, path: str) -> WeightedTree:
    text, digest = _read(path)
    tree = parse_tree(text)
    run.add_instance(path, "tree", digest, vertices=tree.n, edges=len(tree.edges))
    return tree


def _load_sat(run: _Run, path: str) -> OneInThreeSatInstance:
    text, digest = _read(path)
    sat = parse_sat(text)
    run.add_instance(path, "sat", digest, variables=sat.n_vars, clauses=sat.m)
    return sat


def _load_graph(run: _Run, path: str):
    text, digest = _read(path)
    points, edges = parse_graph(text)
    run.add_instance(path, "graph", digest, vertices=len(points), edges=len(edges))
    return points, edges


class _Run:
    """Collects the run report; human output goes to stdout unless --json."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.perf_counter()
        self.report = {
            "command": list(args._argv),
            "instances": [],
            "result": {},
            "seed": None,
            "backend_env": os.environ.get("BRIDGEWORKS_BACKEND"),
        }

    def add_instance(self, path: str, kind: str, digest: str, **extra):
        entry = {"path": path, "kind": kind, "digest": digest}
        entry.update(extra)
        self.report["instances"].append(entry)

    def finish(self, result: dict, human_lines: list[str], exit_code: int) -> int:
        self.report["result"] = result
        self.report["exit_code"] = exit_code
        self.report["duration_ms"] = (time.perf_counter() - self.t0) * 1000.0
        if self.args.json:
            sys.stdout.write(_json_text(self.report))
        else:
            for line in human_lines:
                print(line)
        return exit_code


def _json_field(value):
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return [_json_field(v) for v in value]
    return number_to_json(value)


def _result(obj) -> dict:
    """The report result of a solver or verifier: the returned dataclass's
    fields under their own names, plus `consistent` on verify reports."""
    result = {f.name: _json_field(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if hasattr(obj, "consistent"):
        result["consistent"] = obj.consistent
    return result


def _emit_dot(path: str, t1: WeightedTree, t2: WeightedTree, bridges):
    lines = ["graph merged {", "  node [shape=point];"]
    for prefix, t in (("a", t1), ("b", t2)):
        for i, (x, y) in enumerate(t.points):
            lines.append(f'  {prefix}{i} [pos="{float(x)},{float(y)}!"];')
        for u, v, _ in t.edges:
            lines.append(f"  {prefix}{u} -- {prefix}{v};")
    for p, q in bridges:
        lines.append(f"  a{p} -- b{q} [style=dashed];")
    lines.append("}")
    _write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_bridge(args) -> int:
    run = _Run(args)
    t1 = _load_tree(run, args.t1)
    t2 = _load_tree(run, args.t2)
    if args.mode == "decide":
        c1 = parse_number(args.c1)
        c2 = parse_number(args.c2)
        witness = one_bridge_decide(t1, t2, c1, c2)
        result = {
            "c1": number_to_json(c1),
            "c2": number_to_json(c2),
            "witness": None if witness is None else witness._asdict(),
        }
        if witness is None:
            return run.finish(result, ["no witness"], 1)
        return run.finish(
            result,
            [f"witness bridge ({witness.p}, {witness.q}) leaves ({witness.x}, {witness.y})"],
            0,
        )
    if args.mode == "exact":
        sol = solve_exact(t1, t2, threads=args.threads)
    else:
        sol = approx_greedy(t1, t2)
    if args.emit_dot:
        _emit_dot(args.emit_dot, t1, t2, [(sol.p, sol.q)])
    human = [
        f"bridge ({sol.p}, {sol.q}) length {format_number(sol.bridge_length)}",
        f"value {format_number(sol.value)}",
        f"merged diameter {format_number(sol.merged_diameter)}",
        f"witness pair {sol.witness}",
    ]
    return run.finish(_result(sol), human, 0)


def _cmd_twin(args) -> int:
    run = _Run(args)
    t1 = _load_tree(run, args.t1)
    t2 = _load_tree(run, args.t2)
    if args.mode == "solve":
        sol = solve_twin(t1, t2)
    else:
        sol = brute_force_twin(t1, t2, force=args.force)
    if args.emit_dot:
        _emit_dot(args.emit_dot, t1, t2, [sol.bridge1, sol.bridge2])
    human = [
        f"bridges {sol.bridge1} and {sol.bridge2}",
        f"value {format_number(sol.value)}",
        f"dominant case {sol.dominant_case}, witness {sol.witness}",
        f"intersecting {str(sol.intersecting).lower()}",
    ]
    return run.finish(_result(sol), human, 0)


def _cmd_forest(args) -> int:
    run = _Run(args)
    conn = connect_forest([_load_tree(run, path) for path in args.forests])
    human = [f"hub tree {conn.hub}", f"diameter {format_number(conn.diameter)}"]
    human += [f"bridge tree{i} v{u} -- tree{j} v{v}" for i, u, j, v in conn.bridges]
    return run.finish(_result(conn), human, 0)


def _cmd_gen(args) -> int:
    run = _Run(args)
    eps = parse_number(args.eps)
    if args.which == "fig2":
        t1, t2 = greedy_tightness_instance(n=args.n, eps=eps)
    else:
        t1, t2 = crossing_optimum_instance(eps=eps)
    if args.out_dir:
        paths = _write_files(args.out_dir, {"t1.txt": serialize_tree(t1), "t2.txt": serialize_tree(t2)})
    else:
        paths = []
        sys.stdout.write(serialize_tree(t1))
        sys.stdout.write(serialize_tree(t2))
    result = {
        "which": args.which,
        "eps": number_to_json(eps),
        "written": paths,
        "vertices": [t1.n, t2.n],
    }
    if args.which == "fig2":
        result["n"] = args.n
    return run.finish(result, [f"wrote {p}" for p in paths], 0)


def _cmd_reduce(args) -> int:
    from .reductions import cov_to_one_bridge, sat_to_cov, sat_to_ksum, vc_to_rdbp

    run = _Run(args)
    if args.which == "sat-to-onebridge":
        cov = sat_to_cov(_load_sat(run, args.sat))
        t1, t2, params = cov_to_one_bridge(cov)
        params_json = {
            "m": params.m,
            "c": format_number(params.c),
            "c1": format_number(params.c1),
            "c2": format_number(params.c2),
        }
        paths = _write_files(args.out_dir, {
            "t1.txt": serialize_tree(t1),
            "t2.txt": serialize_tree(t2),
            "params.json": _json_text(params_json),
        })
        result = {"written": paths, "params": params_json, "vertices": [t1.n, t2.n]}
    elif args.which == "sat-to-3sum":
        inst = sat_to_ksum(_load_sat(run, args.sat), args.k)
        text = serialize_integers(inst.integers)
        paths = []
        if args.out:
            _write(args.out, text)
            paths.append(args.out)
        else:
            sys.stdout.write(text)
        result = {"count": len(inst.integers), "written": paths,
                  "k": args.k, "digits": inst.n_digits}
    else:  # vc-to-rdbp
        inst = vc_to_rdbp(*_load_graph(run, args.graph), args.k)
        paths = _write_files(args.out_dir, {
            "graph.txt": serialize_graph(inst.graph.points, inst.graph.edges),
            "pairs.txt": serialize_pairs(inst.pairs),
            "candidates.txt": serialize_pairs(inst.candidates),
            "params.json": _json_text({"budget": inst.budget, "epsilon": inst.epsilon}),
        })
        result = {
            "written": paths,
            "vertices": len(inst.graph.points),
            "edges": len(inst.graph.edges),
            "pairs": len(inst.pairs),
            "candidates": len(inst.candidates),
            "budget": inst.budget,
            "epsilon": inst.epsilon,
        }
    return run.finish(result, [f"wrote {p}" for p in paths], 0)


def _cmd_verify(args) -> int:
    from .reductions import verify_ksum_iff, verify_one_bridge_iff, verify_rdbp_iff

    run = _Run(args)
    if args.which == "iff-onebridge":
        rep = verify_one_bridge_iff(_load_sat(run, args.sat))
        line = (f"sat {str(rep.sat).lower()} / vectors {str(rep.cov).lower()} / "
                f"bridge {str(rep.bridge).lower()}")
    elif args.which == "iff-3sum":
        rep = verify_ksum_iff(_load_sat(run, args.sat), args.k)
        line = f"sat {str(rep.sat).lower()} / sum {str(rep.sum_hit).lower()}"
    else:  # iff-rdbp
        rep = verify_rdbp_iff(*_load_graph(run, args.graph))
        line = (f"cover {rep.cover_size} / budget {rep.budget_size} / "
                f"subsets match {str(rep.subsets_match_covers).lower()}")
    lines = [line, "consistent" if rep.consistent else "INCONSISTENT"]
    return run.finish(_result(rep), lines, 0 if rep.consistent else 1)


# ---------------------------------------------------------------------------
# Parser


# one parser per process: each build leaves thousands of cyclic objects for
# the garbage collector, which piles up when main() runs many times in-process
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bridgeworks", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print a run report")

    p = sub.add_parser("bridge", help="single bridge insertion")
    bsub = p.add_subparsers(dest="mode", required=True)
    for mode in ("exact", "approx", "decide"):
        bp = bsub.add_parser(mode)
        bp.add_argument("t1")
        bp.add_argument("t2")
        common(bp)
        if mode == "exact":
            bp.add_argument("--threads", type=int, default=1,
                            help="worker threads for the float scan, >= 1 (default 1), "
                                 "started only when the pairs left to score fill two or "
                                 "more chunks; the scan scores only the pairs that can still "
                                 "win, O(n1*n2) in the worst case (trees far apart); on 2 vCPUs "
                                 "a second thread pays only from n of about 2000 up")
            bp.add_argument("--emit-dot", metavar="PATH")
        if mode == "decide":
            bp.add_argument("--c1", required=True)
            bp.add_argument("--c2", required=True)
        bp.set_defaults(func=_cmd_bridge, emit_dot=None)

    p = sub.add_parser("twin", help="two vertex-disjoint bridges")
    tsub = p.add_subparsers(dest="mode", required=True)
    for mode in ("solve", "brute"):
        tp = tsub.add_parser(mode)
        tp.add_argument("t1")
        tp.add_argument("t2")
        common(tp)
        tp.add_argument("--emit-dot", metavar="PATH")
        if mode == "brute":
            tp.add_argument("--force", action="store_true")
        tp.set_defaults(func=_cmd_twin, force=False)

    p = sub.add_parser("forest", help="connect a forest through a hub tree")
    fsub = p.add_subparsers(dest="mode", required=True)
    fp = fsub.add_parser("connect")
    fp.add_argument("forests", nargs="+")
    common(fp)
    fp.set_defaults(func=_cmd_forest)

    p = sub.add_parser("gen", help="named example instances")
    gsub = p.add_subparsers(dest="which", required=True)
    gp = gsub.add_parser("fig2")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--eps", required=True)
    gp.add_argument("--out-dir")
    common(gp)
    gp.set_defaults(func=_cmd_gen)
    gp = gsub.add_parser("fig3")
    gp.add_argument("--eps", required=True)
    gp.add_argument("--out-dir")
    common(gp)
    gp.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="hardness reductions")
    rsub = p.add_subparsers(dest="which", required=True)
    rp = rsub.add_parser("sat-to-onebridge")
    rp.add_argument("--sat", required=True)
    rp.add_argument("--out-dir", required=True)
    common(rp)
    rp.set_defaults(func=_cmd_reduce)
    rp = rsub.add_parser("sat-to-3sum")
    rp.add_argument("--sat", required=True)
    rp.add_argument("--k", type=int, default=3)
    rp.add_argument("--out")
    common(rp)
    rp.set_defaults(func=_cmd_reduce)
    rp = rsub.add_parser("vc-to-rdbp")
    rp.add_argument("--graph", required=True)
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--out-dir", required=True)
    common(rp)
    rp.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="reduction equivalence checks")
    vsub = p.add_subparsers(dest="which", required=True)
    vp = vsub.add_parser("iff-onebridge")
    vp.add_argument("--sat", required=True)
    common(vp)
    vp.set_defaults(func=_cmd_verify)
    vp = vsub.add_parser("iff-3sum")
    vp.add_argument("--sat", required=True)
    vp.add_argument("--k", type=int, default=3)
    common(vp)
    vp.set_defaults(func=_cmd_verify)
    vp = vsub.add_parser("iff-rdbp")
    vp.add_argument("--graph", required=True)
    common(vp)
    vp.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    args._argv = argv
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
