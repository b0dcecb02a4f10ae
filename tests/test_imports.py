"""qcorr's modules import one another in one direction.

The source is read with `ast`, not imported. No function body and no
`if TYPE_CHECKING:` block imports a qcorr module; the only import left in a
function body is the lazy stdlib `ThreadPoolExecutor` of the engine's pool;
and the graph of every import between qcorr's modules, wherever it is
written, has no cycle. No test module imports another: what tests share
lives in `helpers.py` and `conftest.py`.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import qcorr

SRC = Path(qcorr.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
TESTS = Path(__file__).resolve().parent


def _imported(node) -> list[str]:
    """The modules each import statement below `node` names; a qcorr module
    by its bare name, as `states` for `from .states import ...`."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            module = sub.module or ""
            if sub.level or module.startswith("qcorr"):
                module = module.removeprefix("qcorr").lstrip(".")
                out += [module] if module else [alias.name for alias in sub.names]
            else:
                out.append(module)
        elif isinstance(sub, ast.Import):
            out += [alias.name.removeprefix("qcorr.") for alias in sub.names]
    return out


def _blocks(tree, kind):
    return [node for node in ast.walk(tree) if isinstance(node, kind)]


def test_no_function_body_imports_but_the_lazy_thread_pool():
    found = {
        (name, module)
        for name, tree in TREES.items()
        for fn in _blocks(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for module in _imported(fn)
    }
    assert found == {("correlation", "concurrent.futures")}


def test_nothing_is_imported_for_type_checking_only():
    guarded = [
        (name, _imported(block))
        for name, tree in TREES.items()
        for block in _blocks(tree, ast.If)
        if "TYPE_CHECKING" in ast.unparse(block.test)
    ]
    assert guarded == []


def test_the_import_graph_has_no_cycle():
    graph = {
        name: {module for module in _imported(tree) if module in TREES}
        for name, tree in TREES.items()
    }
    assert graph["correlation"] >= {"states", "linalg"}
    assert "correlation" in graph["partitions"]
    order = list(TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert sorted(order) == sorted(TREES)


def test_no_test_module_imports_another():
    shared = {path.stem for path in TESTS.glob("test_*.py")} | {"conftest"}
    found = {
        (path.stem, module)
        for path in sorted(TESTS.rglob("*.py"))
        for module in _imported(ast.parse(path.read_text()))
        if module in shared
    }
    assert found == set()
