"""Package-level contracts: the README example runs and documents the
public API, the oracle shares no code path with a library eigensolver, and
every top-level name under src/ is used or exported."""

import ast
import re
from pathlib import Path

import pytest

import eigbounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eigbounds"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_matrix_file_blocks_parse():
    blocks = re.findall(r"```\n(format .*?)```", (ROOT / "README.md").read_text(),
                        re.DOTALL)
    tags = [block.split("\n", 1)[0].split()[1] for block in blocks]
    assert sorted(tags) == ["dense-hermitian", "generator", "tridiagonal"]
    for block in blocks:
        assert eigbounds.parse_matrix(block).n > 0


def _undocumented(names, readme: str) -> list[str]:
    return [name for name in names
            if not re.search(rf"`{re.escape(name)}`", readme)]


def test_public_api_is_documented():
    for name in eigbounds.__all__:
        assert getattr(eigbounds, name) is not None
    assert _undocumented(eigbounds.__all__, (ROOT / "README.md").read_text()) == []


def test_guard_catches_undocumented_name():
    readme = (ROOT / "README.md").read_text()
    assert _undocumented(["aed_window_bounds", "planted_name"], readme) == ["planted_name"]
    assert _undocumented(["aed_window"], readme) == ["aed_window"]


# packages with eigensolvers of their own: none may be imported under src/
_FOREIGN = {"scipy", "mpmath", "sympy"}


def _linalg_uses(tree):
    """(line, what) for every scipy, mpmath or sympy import and numpy.linalg
    use but norm."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _FOREIGN or alias.name == "numpy.linalg":
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if (module.split(".")[0] in _FOREIGN
                    or (module == "numpy" and "linalg" in names)
                    or (module == "numpy.linalg" and names != {"norm"})):
                found.append((node.lineno, f"from {module} import {sorted(names)}"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg"
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id in ("np", "numpy")
              and node.attr != "norm"):
            found.append((node.lineno, f"{node.value.value.id}.linalg.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_library_eigensolver_under_src(path):
    assert _linalg_uses(ast.parse(path.read_text())) == []


def test_guard_catches_library_eigensolvers():
    tree = ast.parse("import numpy as np\nimport scipy.linalg\n"
                     "from numpy.linalg import eigh\nx = np.linalg.eigvalsh(a)\n"
                     "y = np.linalg.norm(a)\nimport mpmath\n"
                     "from mpmath import eigsy\nimport sympy.matrices as sm\n"
                     "from sympy import Matrix\nimport math, sys\n")
    assert sorted(line for line, _ in _linalg_uses(tree)) == [2, 3, 4, 6, 7, 8, 9]


def _references(trees) -> set[str]:
    """Every name the trees read: Name loads, attribute names and imported
    names.  Strings, such as docstrings and __all__ entries, do not count."""
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
    return refs


def _unreferenced(tree, refs, exported) -> list[str]:
    """The functions, classes and constants defined at the top level of tree
    that are neither in refs nor in exported (dunder names aside)."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    return [name for name in defined
            if not (name.startswith("__") and name.endswith("__"))
            and name not in refs and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_name_under_src(path):
    refs = _references(ast.parse(p.read_text()) for p in SRC.glob("*.py"))
    assert _unreferenced(ast.parse(path.read_text()), refs,
                         set(eigbounds.__all__)) == []


def test_guard_catches_unused_name():
    module = ast.parse(
        "import math\n"
        "LIMIT = 3\n"
        "_ORDER: int = 2\n"
        "__all__ = ['planted']\n"
        "def helper():\n"
        "    return math.pi * LIMIT\n"
        "def planted():\n"
        "    'Not helper: a docstring names it.'\n"
        "class Exported:\n"
        "    pass\n")
    user = ast.parse("from .module import helper as h\nimport module\n"
                     "x = module._ORDER + h()\n")
    assert _unreferenced(module, _references([module, user]),
                         {"Exported"}) == ["planted"]
    assert _unreferenced(module, _references([module]), set()) == [
        "_ORDER", "helper", "planted", "Exported"]
