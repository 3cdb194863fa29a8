"""The package's settable surface, counted so that growing it is a
deliberate change of this test.

A settable value is a defaulted parameter (of a function, method or
lambda) or a defaulted dataclass field anywhere under src/dualporo.
The test-only references of oracles.py stay out of the package.
"""
import ast
import importlib
import pathlib
import pkgutil
import re

import dualporo

MAX_SETTABLE = 56
MAX_EXPORTS = 45


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
    # ordering and route (SuperLU or LAPACK's band LU) are chosen once per
    # pattern
    package_dir = pathlib.Path(dualporo.__file__).parent
    for path in sorted(package_dir.glob("*.py")):
        if path.name != "blockmesh.py":
            source = path.read_text(encoding="utf-8")
            assert not re.search(
                r"\b(permc_spec|LU_OPTIONS|lapack)\b|gbtr[fs]", source), \
                path.name


# the names through which code runs a Krylov iteration: blockmesh's own
# GMRES and its constants, and scipy.sparse.linalg's iterative solvers
KRYLOV_NAMES = {"krylov_solve", "KRYLOV_ITER", "KRYLOV_RTOL", "gmres",
                "lgmres", "gcrotmk", "bicg", "bicgstab", "cg", "cgs",
                "minres", "qmr", "tfqmr"}


def code_names(source: str) -> set:
    """The identifiers the code of a module uses (names, attributes and
    imported names), not the words of its docstrings or comments."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_blockmesh_runs_a_krylov_iteration():
    # a Newton solve's later corrections are solved by GMRES on its kept
    # LU inside blockmesh.FixedPattern's solver; no other module names a
    # Krylov solver or its settings, and blockmesh uses none of scipy's
    package_dir = pathlib.Path(dualporo.__file__).parent
    for path in sorted(package_dir.glob("*.py")):
        used = code_names(path.read_text(encoding="utf-8")) & KRYLOV_NAMES
        if path.name == "blockmesh.py":
            assert used == {"krylov_solve", "KRYLOV_ITER", "KRYLOV_RTOL"}
        else:
            assert not used, path.name


def test_only_blockmesh_reads_the_stored_order():
    # a FixedPattern stores its matrix and LU in the order of its LU route;
    # its solver takes and returns the unknowns' own order, so no other
    # module's code reads a pattern's order
    package_dir = pathlib.Path(dualporo.__file__).parent
    readers = {path.name for path in sorted(package_dir.glob("*.py"))
               if "order" in code_names(path.read_text(encoding="utf-8"))}
    assert readers == {"blockmesh.py"}


def test_only_imbibition_sets_the_newton_damping_cap():
    # the block and the flood damp their Newton corrections by one rule,
    # imbibition.damping, whose cap MAX_DS is set in one place
    package_dir = pathlib.Path(dualporo.__file__).parent
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        sets_cap = re.search(r"^\s*MAX_DS\s*[:=]", source, re.MULTILINE)
        assert bool(sets_cap) == (path.name == "imbibition.py"), path.name


def test_only_the_two_drivers_commit_a_memory():
    # effective.exchange_series drives every memory through a wall series,
    # and the flood's _try_step commits its memory once Newton converges;
    # no other code calls a memory's commit
    package_dir = pathlib.Path(dualporo.__file__).parent
    callers = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers |= {(path.name, func.name) for node in ast.walk(func)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "commit"}
    assert callers == {("effective.py", "exchange_series"),
                       ("fvsolver.py", "_try_step")}


def test_only_the_nonlinear_run_builds_a_block_solution():
    # a BlockSolution is the record of a Newton run (means, wall-flux
    # integrals, final field, Newton and step counts); the linear runs
    # return their exchange series, so run_trajectory alone builds one
    def builds(node):
        return isinstance(node, ast.Call) and "BlockSolution" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    package_dir = pathlib.Path(dualporo.__file__).parent
    found, in_run = set(), set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, node.lineno) for node in ast.walk(tree)
                  if builds(node)}
        in_run |= {(path.name, node.lineno) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and func.name == "run_trajectory"
                   for node in ast.walk(func) if builds(node)}
    assert found and found == in_run
    assert {name for name, _ in found} == {"imbibition.py"}


def self_bindings(func: ast.AST) -> list:
    """The attributes of self that func binds, in its nested functions
    and lambdas too: assignment targets self.<attr>, alone or inside a
    tuple or list; a write into self.<attr>[...] binds nothing."""
    def leaves(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from leaves(elt)
        else:
            yield target

    found = []
    for node in ast.walk(func):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(
                       node, (ast.AugAssign, ast.AnnAssign)) else [])
        found += [leaf.attr for target in targets for leaf in leaves(target)
                  if isinstance(leaf, ast.Attribute)
                  and isinstance(leaf.value, ast.Name)
                  and leaf.value.id == "self"]
    return found


def test_binding_counter_sees_only_attribute_bindings():
    source = ("def f(self, x):\n"
              "    self.a, (self.b[0], y) = x\n"
              "    self.c[1, :2] = x\n"
              "    self.d += 1\n")
    assert self_bindings(ast.parse(source)) == ["a", "d"]


def test_a_newton_iterate_leaves_no_state_behind():
    # an iterate's arrays are held only by the Jacobian callable that its
    # linearize returns to newton_solve, and die with the Newton solve:
    # the flood's residual and Jacobian builder and the block's Newton
    # step bind no attribute of self (they write in place into buffers
    # preallocated once, self._pres[1, :m] = pn), and nothing calls a
    # release
    watched = {("fvsolver.py", "_Assembler", "assemble"),
               ("fvsolver.py", "_Assembler", "jacobian"),
               ("imbibition.py", "BlockStepper", "newton_step")}
    package_dir = pathlib.Path(dualporo.__file__).parent
    seen = {}
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert not re.search(r"\brelease\(", source), path.name
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef):
                seen |= {(path.name, cls.name, func.name): self_bindings(func)
                         for func in cls.body
                         if isinstance(func, ast.FunctionDef)
                         and (path.name, cls.name, func.name) in watched}
    assert seen == {key: [] for key in watched}


def test_cli_loads_configs_through_the_public_loaders():
    # harness.load_config and load_flood_config are the one way into a
    # configuration, so the CLI reaches no private harness name
    package_dir = pathlib.Path(dualporo.__file__).parent
    source = (package_dir / "cli.py").read_text(encoding="utf-8")
    assert not re.search(r"\bhz\._", source)


def test_exported_names_do_not_grow():
    assert len(dualporo.__all__) <= MAX_EXPORTS


def test_oracles_stay_out_of_the_package():
    source = (pathlib.Path(__file__).parent / "oracles.py").read_text(
        encoding="utf-8")
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"DiffusionKernel", "sqrt_kernel_step"} <= defined
    modules = [dualporo] + [
        importlib.import_module(f"dualporo.{info.name}")
        for info in pkgutil.iter_modules(dualporo.__path__)]
    found = [(module.__name__, name) for module in modules
             for name in defined if hasattr(module, name)]
    assert found == []
