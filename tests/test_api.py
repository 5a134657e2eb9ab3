"""The public surface is what the modules say it is.

Every name in a module's ``__all__`` must exist, and every name that
``fjcert/__init__.py`` imports must be in its module's ``__all__``, so a
deletion that leaves a stale entry behind fails here.  Every name that a
module imports must be used in it, exported by its ``__all__``, or be one
that bench/spans.py rebinds there, so a deletion that leaves an import
behind fails here too.
"""

import ast
import importlib
import importlib.util
import os

import fjcert

PACKAGE = os.path.dirname(fjcert.__file__)
MODULES = ["cli", "convergence", "core", "fjseries", "jacobi", "reduction"]
SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def test_every_all_entry_resolves():
    for name in MODULES:
        module = importlib.import_module("fjcert." + name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)


def test_package_imports_only_public_names():
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        public = importlib.import_module("fjcert." + node.module).__all__
        private = [alias.name for alias in node.names if alias.name not in public]
        assert not private, (node.module, private)


def test_modules_use_every_name_they_import():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # the tracer rebinds these names in their module, so they are imported there unused
    traced = {(module, attr) for module, attr, *_ in spans.BOUNDARIES}
    for name in MODULES:
        with open(os.path.join(PACKAGE, name + ".py")) as fh:
            tree = ast.parse(fh.read())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(vars(importlib.import_module("fjcert." + name)).get("__all__", ()))  # re-exports
        unused = sorted(n for n in imported - used if (name, n) not in traced)
        assert not unused, (name, unused)
