import ast
import inspect
import pickle
import pydoc
import subprocess
import sys
from pathlib import Path

import pytest

import jaco
from jaco import analysis, export, graph, paths, sequences

SRC = Path(jaco.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in jaco.__all__ if not hasattr(jaco, name)]
    assert missing == []
    assert len(set(jaco.__all__)) == len(jaco.__all__)


# the modules whose __all__ make up jaco.__all__, in that order
PUBLIC_MODULES = (sequences, graph, analysis, paths, export)


def test_each_module_declares_its_public_names_once():
    # a module's __all__ names every public function, record and exception
    # it defines and nothing it only binds, such as analysis's copy of
    # edge_count_direct; the argument guard sequences.check_order is the
    # one public def left out.  The package re-exports the lists as they are
    for module in PUBLIC_MODULES:
        declared = module.__all__
        defined = {
            name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and getattr(value, "__module__", None) == module.__name__
        }
        assert len(set(declared)) == len(declared), module.__name__
        assert set(declared) <= defined, module.__name__
        assert defined - set(declared) == ({"check_order"} if module is sequences else set())
        for name in declared:
            assert getattr(jaco, name) is getattr(module, name), name
    assert jaco.__all__ == [name for module in PUBLIC_MODULES for name in module.__all__]


def test_routes_keep_their_defining_function_metadata():
    # every public route, the memoized zeck_encode too, sits on its defining
    # module under its own name and shows that def's name, docstring and
    # parameters, so help() and a tool that derives the routes from the
    # package find it; such a tool must test callable(), since the memo's
    # wrapper is no function
    routes = {
        name: getattr(jaco, name) for name in jaco.__all__
        if callable(getattr(jaco, name)) and not isinstance(getattr(jaco, name), type)
    }
    assert "zeck_encode" in routes and not inspect.isfunction(routes["zeck_encode"])
    defs = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"jaco.{path.stem}", node.name] = node
    for name, route in routes.items():
        node = defs[route.__module__, route.__name__]
        assert getattr(sys.modules[route.__module__], name) is route
        assert (route.__name__, route.__qualname__) == (name, name)
        assert inspect.isfunction(inspect.unwrap(route))
        assert inspect.cleandoc(route.__doc__) == ast.get_docstring(node), name
        params = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                      *node.args.kwonlyargs)]
        assert list(inspect.signature(route).parameters) == params, name
    text = pydoc.render_doc(jaco.zeck_encode, renderer=pydoc.plaintext)
    assert "zeck_encode(a: 'int', n: 'int')" in text
    assert "Greedy constrained digit expansion" in text


def _imported_modules(tree: ast.Module) -> set[str]:
    """Package modules a source file imports, by bare name ("oracles")."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("jaco").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x, from jaco import x
                found.update(alias.name for alias in node.names)
    return found


def _names_bound_from_package(tree: ast.Module) -> set[str]:
    """Names a source file binds from a package module by `from .x import
    name` (or `from jaco.x import name`), not counting modules."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.level or node.module.startswith("jaco.")
        ):
            found.update(alias.asname or alias.name for alias in node.names)
    return found


def test_modules_read_each_other_through_the_module():
    # a route has one binding, on its defining module, so a fault planted
    # there reaches every reader; __init__ re-exports the public names, and
    # analysis.edge_count_direct is kept for perfbench, which reads it there
    bound = {
        (path.stem, name)
        for path in SRC.glob("*.py") if path.stem != "__init__"
        for name in _names_bound_from_package(ast.parse(path.read_text()))
    }
    assert bound == {("analysis", "edge_count_direct")}
    assert not hasattr(analysis, "graph_mod") and not hasattr(analysis, "paths_mod")


def test_slow_second_routes_are_reached_only_through_the_claim_suite():
    # oracles holds the deliberately slow reference routes; in the library
    # only the verification suite in analysis may call them
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    importers = {name for name, tree in trees.items() if "oracles" in _imported_modules(tree)}
    assert importers == {"analysis"}
    defined = {
        node.name for node in trees["paths"].body if isinstance(node, ast.FunctionDef)
    }
    assert "psi_recursive" not in defined
    assert "psi_recursive" not in jaco.__all__


def test_order_one_only_path_names_are_gone():
    # the level theorem and the Beatty form hold at every order, so no
    # order guard, order-1-only helper or claim skipped off the grid is
    # left in the package
    for name in ("UnsupportedOrderError", "distance_roots", "order1", "skipped: outside grid"):
        assert name not in jaco.__all__
        assert not hasattr(jaco, name)
        for path in SRC.glob("*.py"):
            assert name not in path.read_text(), f"{name} in {path.name}"


def test_retired_wrappers_are_gone():
    # the Lucas basis and the Liz numbers come from recurrence_terms, and the
    # complete-prefix edge total m(m-1)/2 is checked against edge_count_direct
    for name in ("lucas_terms", "liz_terms", "complete_prefix_count"):
        assert name not in jaco.__all__
        for module in (jaco, jaco.sequences, jaco.analysis):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


# modules that importing jaco.cli once loaded and startup does not need:
# dataclasses (with inspect behind it), typing, tempfile and json
STARTUP_ONLY = ("dataclasses", "inspect", "typing", "tempfile", "json")


def test_cli_import_loads_no_startup_only_module():
    # -S skips site, so sys.modules holds only what importing jaco.cli loads
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import jaco.cli; "
        "print(jaco.__file__); print(' '.join(sorted(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    where, modules = run.stdout.splitlines()
    assert Path(where).parent == SRC
    assert sorted(set(modules.split()) & set(STARTUP_ONLY)) == []


def _records():
    g = graph.build(2, 30)
    report = analysis.verify_suite(1, 1, 10)
    return {
        "SequenceTable": g.seq,
        "JacoGraph": g,
        "DegreeProfile": graph.degree_profile(g),
        "JaconianInfo": graph.jaconian(g),
        "PathTable": paths.path_table(g),
        "UniquenessReport": paths.uniqueness_check(g),
        "ConjectureReport": paths.conjecture_scan(30),
        "ClaimResult": report.claims[0],
        "VerificationReport": report,
        "_Claim": analysis._CLAIMS[0],
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_immutable(name):
    record = _records()[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    # a fresh build is equal, and a pickled copy too
    assert record == _records()[name]
    assert pickle.loads(pickle.dumps(record)) == record


def test_graph_outside_its_table_is_refused():
    seq = sequences.c_series(1, 5)
    g = graph.JacoGraph(seq, 5)
    rebuild, args = g.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[:2]
    for outside in (
        lambda: graph.JacoGraph(seq, 6),
        lambda: g._replace(n=len(g.seq.c)),
        lambda: graph.JacoGraph._make((seq, 0)),
        # pickle and copy rebuild through the same constructor call
        lambda: rebuild(*args[:-1], 0),
    ):
        with pytest.raises(ValueError):
            outside()
    assert rebuild(*args) == g and type(rebuild(*args)) is graph.JacoGraph
