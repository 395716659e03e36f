import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "ehz"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports of tree, with their line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.AST) -> set[str]:
    """Names tree reads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def _local_sibling_imports(tree: ast.Module) -> dict[str, int]:
    """Names that functions in tree import from sibling modules, with their line.

    A sibling import inside a function hides a dependency from the module's
    header; lazy imports of third-party packages stay allowed.
    """
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    for alias in node.names:
                        found[alias.asname or alias.name] = node.lineno
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items() if name not in _read(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_scan_sees_string_annotations_and_flags_dead_imports():
    tree = ast.parse("import csv\nfrom .a import B, C\ndef f(x: 'B') -> None: pass\n")
    assert {n for n in _imported(tree) if n not in _read(tree)} == {"csv", "C"}


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_local_sibling_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = _local_sibling_imports(tree)
    assert not local, f"{path.name} imports sibling names inside functions: {local}"


def test_the_scan_flags_sibling_imports_inside_functions_only():
    tree = ast.parse("from .a import B\n"
                     "def f():\n    from .c import D\n    from scipy import linalg\n"
                     "class K:\n    def g(self):\n        from . import e as E\n")
    assert _local_sibling_imports(tree) == {"D": 3, "E": 7}


# scipy subpackages that no cold path of ehz calls: a smooth or intersection
# solve needs scipy.linalg only
COLD = {"optimize", "spatial", "sparse", "special"}
COLD_PATHS = {
    "import": "import ehz",
    "smooth_capacity": "from ehz import Ellipsoid, capacity\n"
                       "from ehz.suite import FAST8\n"
                       "capacity(Ellipsoid([1.0, 2.0]), FAST8)",
    "intersection_support": "import numpy as np\n"
                            "from ehz.bodies import Ball, Intersection, Translate\n"
                            "from ehz.randbodies import random_general_ellipsoid\n"
                            "body = Intersection(random_general_ellipsoid(4, 900, cond_max=4.0),\n"
                            "                    Translate([0.3, 0, 0, 0], Ball(1.0, 4)))\n"
                            "body.support_batch(np.eye(4))",
}


def _scipy_subpackages_after(code: str) -> set[str]:
    """The scipy subpackages loaded once `code` has run in a fresh interpreter."""
    probe = code + ("\nimport sys\n"
                    "print(' '.join({m.split('.')[1] for m in sys.modules"
                    " if m.startswith('scipy.')}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_the_probe_sees_a_loaded_subpackage():
    assert "optimize" in _scipy_subpackages_after("import scipy.optimize")


@pytest.fixture(scope="module")
def linalg_loads():
    """What `import scipy.linalg` loads on its own, which ehz cannot defer;
    older scipy releases may load scipy.sparse with it."""
    return _scipy_subpackages_after("import scipy.linalg")


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_cold_paths_load_no_scipy_subpackage_beyond_linalg(path, linalg_loads):
    # the pytest process has loaded scipy.optimize already, so each path runs
    # in a fresh interpreter
    loaded = _scipy_subpackages_after(COLD_PATHS[path]) - linalg_loads
    assert not loaded & COLD, f"{path} loads scipy.{sorted(loaded & COLD)}"


# paths that build a polytope, whose constructor makes one Qhull call: they
# may load what `import scipy.spatial` loads, but not scipy.optimize, which
# only the polish (`sharpness_extrapolate`) and the phase fit of the harness
# call
SPATIAL_PATHS = {
    "polytope_build": "from ehz import Polytope\n"
                      "Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]])",
    "raw_polytope_capacity": "from ehz import Polytope, capacity\n"
                             "from ehz.suite import FAST8\n"
                             "capacity(Polytope([[1, 1], [-1, 1], [-1, -1], [1, -1]]), FAST8)",
}


@pytest.fixture(scope="module")
def spatial_loads():
    """What `import scipy.spatial` loads on its own."""
    return _scipy_subpackages_after("import scipy.spatial")


@pytest.mark.parametrize("path", sorted(SPATIAL_PATHS))
def test_polytope_paths_load_no_scipy_subpackage_beyond_spatial(path, spatial_loads,
                                                                linalg_loads):
    loaded = _scipy_subpackages_after(SPATIAL_PATHS[path])
    assert "optimize" not in loaded
    assert not loaded - spatial_loads - linalg_loads, \
        f"{path} loads scipy.{sorted(loaded - spatial_loads - linalg_loads)}"
