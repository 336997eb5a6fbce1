"""The repository's scripts keep running against the library: every site
the benchmark's span tracer patches (`perfbench/run.py --trace 1`) and every
console script in pyproject.toml names a library callable, every exported
name resolves, importing the CLI loads no code its solver commands do not
run, and every demo script exits 0."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tracing_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SITES


def test_tracing_sites_name_library_callables():
    sites = tracing_sites()
    assert sites
    for module, attr, span in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, span)


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


def test_solver_commands_do_not_import_reductions_or_thread_pools():
    # the reductions and concurrent.futures load only in the code that uses them
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
