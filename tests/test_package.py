"""The package's public surface."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import olmcheck
from olmcheck.verify import CHECK_NAMES

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

REMOVED = ["s_polynomial", "is_regular_element", "DivisionResult",
           "multivariate_division"]


def test_every_public_name_imports():
    # a name in __all__ that the package lacks fails the star import
    namespace = {}
    exec("from olmcheck import *", namespace)
    assert set(olmcheck.__all__) <= set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_do_not_import(name):
    assert name not in olmcheck.__all__
    with pytest.raises(ImportError):
        exec("from olmcheck import %s" % name, {})


def test_readme_lists_every_check_in_order():
    text = README.read_text(encoding="utf-8")
    listing = text.split("Check names:", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listing)) == CHECK_NAMES


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text.split("## Layout", 1)[1].split("src/olmcheck/\n", 1)[1]
    listed = re.findall(r"^  (\w+\.py) ", layout.split("\ntests/", 1)[0],
                        re.MULTILINE)
    package = pathlib.Path(olmcheck.__file__).parent
    modules = sorted(p.name for p in package.glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert sorted(listed) == modules


def _docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield ast.get_docstring(node) or ""


def test_docstring_references_resolve():
    # a dotted ``a.b`` reference starts at an olmcheck module or a class
    # defined in one, and every further part is an attribute of the last
    package = pathlib.Path(olmcheck.__file__).parent
    paths = sorted(package.glob("*.py"))
    modules = {p.stem: importlib.import_module("olmcheck." + p.stem)
               for p in paths if p.stem not in ("__init__", "__main__")}
    classes = {name: cls for mod in modules.values()
               for name, cls in inspect.getmembers(mod, inspect.isclass)
               if cls.__module__ == mod.__name__}
    refs = [(p.name, ref) for p in paths for doc in _docstrings(p)
            for ref in re.findall(r"``(\w+(?:\.\w+)+)``", doc)]
    assert refs
    stale = []
    for where, ref in refs:
        first, *rest = ref.split(".")
        obj = modules.get(first) or classes.get(first)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            stale.append((where, ref))
    assert not stale
