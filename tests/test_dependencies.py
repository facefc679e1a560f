"""The package needs nothing at run time beyond the standard library and numpy,
runs numpy's BLAS on one thread unless the user chose a count, and loads in
each CLI command only the modules that command runs."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from promptlab.cli import main

from test_cli import BAD_RECORD_EDITS, _report_with_bad_records, write_config

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
        "T.mlp_sublayer(x, T.Tensor(np.ones((4, 3))), T.Tensor(np.ones((3, 4))))",
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


def run_child(code, *args):
    """``python -c code args`` with the package's source first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_importing_the_cli_leaves_numpy_unloaded():
    out = run_child("import sys, promptlab.cli; print('numpy' in sys.modules)")
    assert out.stdout.strip() == "False", out.stderr


# the modules that run the encoder, the prompts, the search and the training
ENCODER_MODULES = ("tensor", "encoders", "prompts", "search", "training", "optim", "attributes")


def test_gen_data_loads_none_of_the_encoder_modules(tmp_path):
    cfg, _ = write_config(tmp_path)
    code = "\n".join([
        "import json, sys",
        "from promptlab.cli import main",
        "code = main(sys.argv[1:])",
        f"loaded = [m for m in {ENCODER_MODULES!r} if 'promptlab.' + m in sys.modules]",
        "print(json.dumps([code, loaded]))",
    ])
    out = run_child(code, "gen-data", "--config", cfg)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []], out.stderr


# a child in which any import of numpy fails, and which fails if the command
# loaded OpenSSL (hashlib's _hashlib maps libcrypto, a few MB)
REPORT_WITHOUT_NUMPY = "\n".join([
    "import sys",
    "sys.modules['numpy'] = None",
    "from promptlab.cli import main",
    "code = main(sys.argv[1:])",
    "assert '_hashlib' not in sys.modules, 'report loaded _hashlib'",
    "sys.exit(code)",
])


def report_both_ways(cfg, capsys):
    """(exit code, stdout, last stderr line) of ``report`` in-process and in a numpy-free child."""
    capsys.readouterr()
    code = main(["report", "--config", cfg])
    captured = capsys.readouterr()
    child = run_child(REPORT_WITHOUT_NUMPY, "report", "--config", cfg)
    return [(code, captured.out, captured.err.strip().splitlines()[-1:]),
            (child.returncode, child.stdout, child.stderr.strip().splitlines()[-1:])]


def test_report_on_a_finished_pipeline_needs_no_numpy(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    for command in (["gen-data"], ["search-attrs"], ["train"], ["train", "--classic"], ["eval"]):
        assert main([*command, "--config", cfg]) == 0, command
    in_process, child = report_both_ways(cfg, capsys)
    assert in_process[0] == 0
    assert child == in_process


@pytest.mark.parametrize("edit, message", BAD_RECORD_EDITS)
def test_report_on_bad_records_needs_no_numpy(tmp_path, capsys, edit, message):
    cfg, path = _report_with_bad_records(tmp_path, edit)
    in_process, child = report_both_ways(cfg, capsys)
    assert in_process[2][0].startswith(f"error: {message.format(path=path)}")
    assert child == in_process
