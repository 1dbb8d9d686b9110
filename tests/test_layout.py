"""Names used from outside the package: exports, benchmark hooks and
demos; and no private name that the package itself does not use.

``perfbench/layertrace.py`` wraps the functions it names wherever they
are bound, and the demos import from the public modules; both break
silently when a name moves.  A private helper that only tests read is
code the package keeps for no caller of its own.
"""

import ast
import glob
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import edgewise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for mod_name, attr, _ in _layertrace().LAYERS:
        owner = importlib.import_module(f"edgewise.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"


def test_rebound_names_are_the_originals():
    from edgewise import checks, delta, groupoid, sset
    assert checks.act is sset.act
    assert checks.strict_pullback is sset.strict_pullback
    assert checks.edgewise is sset.edgewise
    assert groupoid.epi_mono_factorize is delta.epi_mono_factorize


@pytest.mark.parametrize("module", ["edgewise"] + sorted(
    f"edgewise.{m.name}" for m in pkgutil.iter_modules(edgewise.__path__)))
def test_every_exported_name_resolves(module):
    owner = importlib.import_module(module)
    assert [name for name in getattr(owner, "__all__", ())
            if not hasattr(owner, name)] == []


def test_every_private_definition_is_used_in_the_package():
    """Each module-level private function or class of ``src/edgewise``
    is named, as a name or an attribute, in some other top-level
    statement of the package."""
    trees = [ast.parse(open(path).read()) for path in
             sorted(glob.glob(os.path.join(ROOT, "src", "edgewise", "*.py")))]
    statements = [stmt for tree in trees for stmt in tree.body]
    named = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(stmt)
              if isinstance(node, (ast.Name, ast.Attribute))}
             for stmt in statements]
    unused = [stmt.name for stmt in statements
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and stmt.name.startswith("_")
              and not stmt.name.startswith("__")
              and not any(stmt.name in names
                          for other, names in zip(statements, named)
                          if other is not stmt)]
    assert unused == []


@pytest.mark.parametrize(
    "demo", sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))),
    ids=os.path.basename)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, demo], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
