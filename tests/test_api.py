"""The public surface is what the modules say it is.

Every name in a module's ``__all__`` must exist, and every name that
``fjcert/__init__.py`` imports must be in its module's ``__all__``, so a
deletion that leaves a stale entry behind fails here.
"""

import ast
import importlib
import os

import fjcert

PACKAGE = os.path.dirname(fjcert.__file__)
MODULES = ["cli", "convergence", "core", "fjseries", "jacobi", "reduction"]


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
