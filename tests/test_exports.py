"""Every function a module of the package exports, and every function, class and
method it defines, has a reader in the program."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "metricbundle").glob("*.py")
                 if p.stem != "__init__")


def _names_read() -> set[str]:
    """Each name read as a variable or an attribute in src, scripts or perfbench,
    as the AST has it: a name inside a string or a comment is not read."""
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


NAMES_READ = _names_read()


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_function_is_read(module):
    # An exported function that nothing in the program reads is an alias or
    # dead code; tests alone do not keep it.
    mod = importlib.import_module(f"metricbundle.{module}")
    exported = [name for name in getattr(mod, "__all__", ())
                if inspect.isfunction(getattr(mod, name))]
    assert sorted(set(exported) - NAMES_READ) == []


def _definitions(module: str) -> list[str]:
    """Each module-level function and class of the module, private ones too, and
    each of their methods that is not a dunder, as the AST has them."""
    tree = ast.parse((ROOT / "src" / "metricbundle" / f"{module}.py").read_text())
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            defined += [f"{node.name}.{method.name}" for method in node.body
                        if isinstance(method, ast.FunctionDef)
                        and not (method.name.startswith("__") and method.name.endswith("__"))]
    return defined


@pytest.mark.parametrize("module", MODULES)
def test_every_function_class_and_method_is_read(module):
    # A helper or method that nothing reads, such as a cursor method left behind
    # by a rewrite, is dead code even when it is private.
    unread = [name for name in _definitions(module) if name.rsplit(".", 1)[-1] not in NAMES_READ]
    assert unread == []
