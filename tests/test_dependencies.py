"""The package needs nothing at run time beyond the standard library and numpy."""

import ast
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
