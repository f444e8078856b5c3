import ast
import functools
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import biheun
from biheun.oracle import _MESH_BASE
from biheun.verify import ALL_CRITERIA

PUBLIC = {
    "PhysicalSystem", "QuasiExactSolution", "RadialGrid", "TurningPointSet", "confirm",
    "node_count", "run_acceptance", "solve_family", "turning_points", "wavefunction",
}


def test_all_is_the_public_surface():
    assert set(biheun.__all__) == PUBLIC
    assert len(biheun.__all__) == len(PUBLIC)
    for name in PUBLIC:
        doc = getattr(biheun, name).__doc__
        assert doc and not doc.startswith(f"{name}("), name  # not a dataclass signature


@pytest.mark.parametrize(
    "name",
    ["closed_form_n0", "closed_form_n1", "coefficient_sequence", "ode_residual",
     "recurrence_rows", "to_heun_params", "HeunParameters", "vieta_residuals"],
)
def test_internal_names_stay_in_their_modules(name):
    with pytest.raises(ImportError):
        exec(f"from biheun import {name}", {})


@pytest.mark.parametrize(
    "path",
    sorted(Path(biheun.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # a name counts as used when it is read, listed in __all__, or is the
    # __future__ feature ``annotations``
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert imported - used - {"annotations"} == set()


@pytest.mark.parametrize("path", sorted(Path(biheun.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_does_not_name_the_benchmark(path):
    # the benchmark reads the package, never the reverse: code kept alive only because
    # the benchmark's tracer wraps it by name is dead code
    assert re.findall(r"perfbench|tracer", path.read_text()) == []


def test_cli_imports_no_private_name():
    # the front end reads the library through its public names, so it cannot
    # grow a second path to a quantity
    tree = ast.parse((Path(biheun.__file__).parent / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               if node.level or (node.module or "").startswith("biheun")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_unreferenced_private_definitions():
    # a module-level private function or class that nothing in the package reads is
    # dead code; a use in the tests does not keep it alive
    trees = [ast.parse(path.read_text()) for path in Path(biheun.__file__).parent.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    referenced = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced |= {alias.name for alias in node.names}
    assert defined - referenced == set()


@pytest.mark.parametrize("name", ["_hamiltonians", "_inverse_iteration"])
def test_one_call_site(name):
    # H is built in one function and solved in one: a second caller of either is a
    # second mesh solve
    calls = [call for path in Path(biheun.__file__).parent.glob("*.py")
             for call in _calls(path, name)]
    assert len(calls) == 1


def _calls(path, name):
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_one_quartic_solver():
    # the turning points, the mesh sizing and the certificate read one stacked solve, at
    # one accuracy: the companion eigensolve and its small-pair retake live only there
    owners = sorted((f"{path.stem}.{getattr(top, 'name', '')}", ast.unparse(node.func))
                    for path in Path(biheun.__file__).parent.glob("*.py")
                    for top in ast.parse(path.read_text()).body
                    for node in ast.walk(top) if isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("np.linalg.eigvals", "cmath.sqrt"))
    assert owners == [("model.quartic_roots", "cmath.sqrt"),
                      ("model.quartic_roots", "np.linalg.eigvals")]


def test_cli_reads_the_node_count_from_the_verdict():
    # the refusal and the diagnostic print Confirmation.nodes, the count that was judged
    assert _calls(Path(biheun.__file__).parent / "cli.py", "node_count") == []


def test_solutions_reach_the_oracle_through_confirm_solutions():
    # verify.confirm_solutions builds confirm_all's states from solutions; confirm is the
    # batch of one, and criterion 5 passes bare systems
    callers = sorted(f"{path.stem}.{top.name}"
                     for path in Path(biheun.__file__).parent.glob("*.py")
                     for top in ast.parse(path.read_text()).body
                     if isinstance(top, ast.FunctionDef)
                     for node in ast.walk(top) if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "confirm_all")
    assert callers == ["oracle.confirm", "verify.confirm_solutions", "verify.criterion_5"]


def test_verdicts_come_from_the_record():
    # a criterion returns its figures; verify.Figure holds the one verdict and NaN rule,
    # so no criterion compares a figure with its bound itself
    tree = ast.parse((Path(biheun.__file__).parent / "verify.py").read_text())
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    criteria = {name for name in functions if re.fullmatch(r"criterion_\d+", name)}
    assert criteria == {fn.__name__ for fn in ALL_CRITERIA}
    assert "_worst" not in functions
    ordered = [name for name in sorted(criteria) for node in ast.walk(functions[name])
               if isinstance(node, ast.Compare)
               and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)]
    assert ordered == []


def test_readme_quotes_the_mesh_rule():
    # the README states the oracle's N = base + 3n + l with the code's base and no
    # other: the two drifted apart before, so a changed base must change both
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bases = re.findall(r"\b(\d+) \+ 3n\b", readme)
    assert bases and set(bases) == {str(_MESH_BASE)}
    # the row and node counts it quotes for n <= 12, l <= 3 follow from the base
    spans = re.findall(r"\b(\d+) to (\d+) (?:rows|uneven nodes)", readme)
    assert spans and set(spans) == {(str(_MESH_BASE), str(_MESH_BASE + 39))}


def test_one_label():
    # a solution names itself (n, l, branch) in QuasiExactSolution.label; solve_family
    # raises before its solutions exist
    owners = []
    for path in Path(biheun.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            units = ([(f"{top.name}.{getattr(m, 'name', '')}", m) for m in top.body]
                     if isinstance(top, ast.ClassDef) else [(getattr(top, "name", ""), top)])
            owners += [name for name, unit in units for node in ast.walk(unit)
                       if isinstance(node, ast.JoinedStr)
                       and any(isinstance(v, ast.Constant) and "branch=" in v.value
                               for v in node.values)]
    assert sorted(owners) == ["QuasiExactSolution.label", "solve_family"]


# every array cache in the package, with a sample call; the parser caches of the
# front end hold one argparse object or key set per command, not arrays
ARRAY_CACHES = {"oracle._mesh": (40,)}
OTHER_CACHES = {"cli.build_parser", "cli._config_keys"}


def _caches():
    # module-level functions with cache_info, and per-instance memos
    # (functools.cached_property) of the classes a module defines
    found = {}
    for path in Path(biheun.__file__).parent.glob("[!_]*.py"):  # __init__ only re-exports
        module = importlib.import_module(f"biheun.{path.stem}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if hasattr(value, "cache_info"):
                found[f"{path.stem}.{name}"] = value
            elif isinstance(value, type):
                found |= {f"{path.stem}.{name}.{attr}": memo for attr, memo in vars(value).items()
                          if isinstance(memo, functools.cached_property)}
    return found


def test_every_cache_is_listed():
    assert set(_caches()) == set(ARRAY_CACHES) | OTHER_CACHES


@pytest.mark.parametrize("name", sorted(ARRAY_CACHES))
def test_array_caches_are_bounded_and_read_only(name):
    # a cached array is shared by every later caller, so a write would change
    # their figures; an unbounded cache of arrays grows with every new argument
    fn = _caches()[name]
    assert fn.cache_info().maxsize is not None
    arrays = fn(*ARRAY_CACHES[name])
    for a in arrays if isinstance(arrays, tuple) else (arrays,):
        assert isinstance(a, np.ndarray) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
