"""Every name in an ``__all__`` of the package resolves, what the
benchmark reads of the package is still there, and no two modules of the
package import each other.

Tools that walk ``__all__`` (star imports, the benchmark's per-layer
tracer) fail on a name that was deleted but is still exported.  The
benchmark is not part of this suite, so a module or trace attribute it
reads is checked here, before a benchmark run would fail on it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import splinegauss

MODULES = ["splinegauss"] + [
    f"splinegauss.{info.name}" for info in pkgutil.iter_modules(splinegauss.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _traced_layers():
    """The layer names of the benchmark's per-layer tracer, read from its
    source so that this list cannot drift from the one the tracer uses."""
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            layers = ast.literal_eval(node.value)
            return [layer for layer in layers if layer != "linalg"]
    raise AssertionError("perfbench/spans.py defines no LAYERS")


@pytest.mark.parametrize("layer", _traced_layers())
def test_every_traced_layer_imports(layer):
    importlib.import_module(f"splinegauss.{layer}")


def test_trace_result_reads_its_record_from_the_rule():
    # the benchmark reads these attributes of every trace
    res = splinegauss.trace(splinegauss.uniform_space(5, 1, 4))
    meta = res.rule.meta
    assert (res.status, res.t_reached) == (meta["status"], meta["t_reached"])
    assert (res.steps_taken, res.newton_failures) == (
        meta["steps"],
        meta["newton_failures"],
    )
    assert res.converged == (meta["status"] == "converged")


def _imported_modules(module: str) -> set[str]:
    """Names after ``splinegauss.`` of every import in ``module``, function
    bodies included, read from its source."""
    path = Path(splinegauss.__file__).with_name(f"{module}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import starts at the package: ``from . import basis``
            package = "splinegauss" if node.level else None
            base = ".".join(filter(None, [package, node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            package, _, rest = name.partition(".")
            if package == "splinegauss" and rest:
                found.add(rest.partition(".")[0])
    return found - {module}


def test_no_two_package_modules_import_each_other():
    names = [info.name for info in pkgutil.iter_modules(splinegauss.__path__)]
    graph = {name: _imported_modules(name) & set(names) for name in names}
    mutual = sorted(
        (a, b) for a in graph for b in graph[a] if a < b and a in graph[b]
    )
    assert mutual == []
