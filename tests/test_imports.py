"""Source hygiene: every name a package module, test or demo imports is
used there, every name a package module exports exists, no package
module imports another one's private (underscore) names, and the model
runs without loading a second FFT library.

pyflakes and ruff are not dependencies, so the check parses the modules with
``ast``: an imported name counts as used when it appears as a name in the
module's code, or, for re-exports, in its ``__all__``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "elastic_ssm"
#: Checked files, by id: package modules by name, tests and demos by path.
SOURCES = {p.name: p for p in PACKAGE.glob("*.py")} | {
    p.relative_to(ROOT).as_posix(): p
    for folder in ("tests", "demos") for p in (ROOT / folder).glob("*.py")
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a package module, relatively or by name."""
    return sorted(
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "elastic_ssm")
        for alias in node.names if alias.name.startswith("_")
    )


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport math\nprint(math.pi)\n") == ["line 1: os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_the_check_sees_a_private_import():
    assert private_imports("from .layer import _x, y\n") == ["line 1: _x"]
    assert private_imports("from elastic_ssm.layer import _x\n") == ["line 1: _x"]
    assert private_imports("from .layer import x\nfrom os import _exit\n") == []


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_private_cross_module_imports(name):
    assert private_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    assert unused_imports(SOURCES[module].read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_export_exists(name):
    # nothing runs `import *`, so a stale ``__all__`` entry would go unnoticed
    module = importlib.import_module(f"elastic_ssm.{name}" if name != "__init__"
                                     else "elastic_ssm")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_forward_and_backward_leave_scipy_fft_unloaded():
    # the FFTs are numpy.fft's; SciPy is there for scipy.special.erf alone
    script = """
import sys
import numpy as np
from elastic_ssm import (ModelConfig, build_basis, init_model_params,
                         model_backward, model_forward)
config = ModelConfig(seq_len=16, width=8, gate_hidden=4, capacity=4, depth=1,
                     input_kind="real", in_dim=1, out_dim=1, budget_set=(2, 4))
out, cache = model_forward(np.ones((2, 16, 1)), init_model_params(config), config,
                           build_basis(16, 4), 2)
model_backward(np.ones_like(out), cache)
print("scipy.fft" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
