"""The repository's scripts keep running against the library: every site
the benchmark's span tracer patches (`perfbench/run.py --trace 1`) and every
console script in pyproject.toml names a library callable, every command
line the benchmark sends runs, every exported name resolves, importing the
CLI loads no code its solver commands do not run, every demo script exits 0,
and README's library example runs."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

ROOT = Path(__file__).resolve().parent.parent


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def test_tracing_sites_name_library_callables():
    sites = perfbench_module("tracing").SITES
    assert sites
    for module, attr, span in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, span)


def test_benchmark_command_lines_run(tmp_path, capsys):
    # the benchmark sends these argv to the CLI as written (`bridge exact --threads 1`
    # among them), so an option they use must not leave before they stop sending it
    from bridgeworks.cli import main
    from bridgeworks.geometry import WeightedTree
    from bridgeworks.io import serialize_tree

    schema = json.loads(resources.files("bridgeworks").joinpath("schemas/run_report.schema.json").read_text())
    pair = []
    for name, tree in (("t1.txt", WeightedTree([(0, 0), (4, 0), (4, 3)], [(0, 1), (1, 2)])),
                       ("t2.txt", WeightedTree([(10.5, 0.0), (14.0, 1.0)], [(0, 1)]))):
        (tmp_path / name).write_text(serialize_tree(tree))
        pair.append(str(tmp_path / name))
    workloads = perfbench_module("workloads")
    for cmd in (*workloads.BRIDGE_COMMANDS, *workloads.TWIN_COMMANDS):
        code = main([*cmd, *pair, "--json"])
        out = capsys.readouterr()
        assert code == 0, (cmd, out.err)
        jsonschema.validate(json.loads(out.out), schema)


def test_project_scripts_name_library_callables():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), (name, target)


@pytest.mark.parametrize("package", ["bridgeworks", "bridgeworks.reductions"])
def test_exported_names_resolve(package):
    mod = importlib.import_module(package)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, (package, missing)


def test_verify_report_types_are_exported():
    # a caller that builds or type-checks a verify report imports its type from the package
    reductions = importlib.import_module("bridgeworks.reductions")
    returned = {getattr(reductions, name).__annotations__["return"]
                for name in reductions.__all__ if name.startswith("verify_")}
    assert returned == {"IffReport", "SumIffReport", "RdbpIffReport"}
    assert returned <= set(reductions.__all__)


def test_solver_commands_do_not_import_reductions_or_thread_pools():
    # the reductions load only in the commands that use them, and no thread pool loads
    env = {k: v for k, v in os.environ.items() if k != "BRIDGEWORKS_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = ("import sys, bridgeworks.cli; "
            "print(sorted(m for m in ('bridgeworks.reductions', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_script_exits_zero(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "BRIDGEWORKS_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert code.strip()
    exec(compile(code, "README.md", "exec"), {})
