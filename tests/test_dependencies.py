"""The package needs nothing at run time beyond the standard library and numpy,
and runs numpy's BLAS on one thread unless the user chose a count."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "promptlab"
THIRD_PARTY = {"numpy"}


def imported_roots(path):
    """Top-level names of every absolute import in a module, function-level ones included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = sorted(
        f"{path.relative_to(PACKAGE)}: {root}"
        for path in modules
        for root in imported_roots(path)
        if root not in sys.stdlib_module_names and root not in THIRD_PARTY | {"promptlab"}
    )
    assert not foreign, foreign


def test_the_only_declared_runtime_dependency_is_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
             for dep in project["dependencies"]}
    assert names == THIRD_PARTY


def test_importing_the_cli_leaves_scipy_unloaded():
    # numpy alone runs the package: neither the import nor a plain or fused GELU loads scipy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "\n".join([
        "import sys, numpy as np, promptlab.cli",
        "from promptlab import tensor as T",
        "x = T.Tensor(np.linspace(-3.0, 3.0, 8).reshape(2, 4))",
        "T.gelu(x)",
        "T.mlp_sublayer(x, *map(T.Tensor, (np.ones(4), np.zeros(4), np.ones((4, 3)), np.zeros(3),",
        "                                  np.ones((3, 4)), np.zeros(4))))",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


# imports, preset variables -> the variables after the imports
BLAS_THREAD_POLICY = {
    "one_thread_by_default": ("promptlab, numpy", {}, {"OPENBLAS_NUM_THREADS": "1"}),
    "user_openblas_count_wins": ("promptlab, numpy", {"OPENBLAS_NUM_THREADS": "2"},
                                 {"OPENBLAS_NUM_THREADS": "2"}),
    "user_goto_count_wins": ("promptlab, numpy", {"GOTO_NUM_THREADS": "2"},
                             {"GOTO_NUM_THREADS": "2"}),
    "user_omp_count_wins": ("promptlab, numpy", {"OMP_NUM_THREADS": "2"},
                            {"OMP_NUM_THREADS": "2"}),
    "numpy_imported_first": ("numpy, promptlab", {}, {}),
}


@pytest.mark.parametrize("case", sorted(BLAS_THREAD_POLICY))
def test_blas_thread_policy(case):
    imports, preset, expected = BLAS_THREAD_POLICY[case]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "\n".join([
        f"import {imports}",
        "import json, os",
        "tasks = '/proc/self/task'",
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None",
        "print(json.dumps([dict(os.environ), threads]))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    environ, threads = json.loads(out.stdout)
    assert {k: environ[k] for k in BLAS_THREAD_VARS if k in environ} == expected
    if case == "one_thread_by_default" and threads is not None:
        assert threads == 1  # OpenBLAS started no worker thread
