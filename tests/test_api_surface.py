"""The package's settable surface, counted so that growing it is a
deliberate change of this test.

A settable value is a defaulted parameter (of a function, method or
lambda) or a defaulted dataclass field anywhere under src/dualporo.
"""
import ast
import pathlib
import re

import dualporo

MAX_SETTABLE = 65
MAX_EXPORTS = 52


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
    return count


def test_counter_sees_parameters_and_dataclass_fields():
    source = ("from dataclasses import dataclass\n"
              "def f(a, b=1, *, c=2, d): pass\n"
              "g = lambda x, y=0: x\n"
              "@dataclass(frozen=True)\n"
              "class C:\n"
              "    u: int\n"
              "    v: int = 3\n"
              "class D:\n"
              "    w: int = 4\n")
    assert settable_values(source) == 4         # b, c, y and v


def test_settable_values_do_not_grow():
    package_dir = pathlib.Path(dualporo.__file__).parent
    total = sum(settable_values(path.read_text(encoding="utf-8"))
                for path in sorted(package_dir.glob("*.py")))
    assert total <= MAX_SETTABLE


def test_only_blockmesh_chooses_an_lu_ordering():
    # every factorization goes through blockmesh.FixedPattern, whose
    # ordering is computed once per pattern
    package_dir = pathlib.Path(dualporo.__file__).parent
    for path in sorted(package_dir.glob("*.py")):
        if path.name != "blockmesh.py":
            source = path.read_text(encoding="utf-8")
            assert not re.search(r"\b(permc_spec|LU_OPTIONS)\b", source), \
                path.name


def test_exported_names_do_not_grow():
    assert len(dualporo.__all__) <= MAX_EXPORTS
