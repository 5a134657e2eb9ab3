"""The names bench/spans.py rebinds must exist in fjcert.

The traced benchmark run replaces module attributes and class methods by
name, so a refactor that renames one of them makes ``bench/run.py
--trace 1`` fail.  This reads the lists from bench/spans.py without
changing them.
"""

import importlib
import importlib.util
import inspect
import os

from fjcert import fjseries, jacobi

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_boundaries_exist():
    spans = _spans()
    for module, attr, _, _ in spans.BOUNDARIES:
        assert callable(getattr(importlib.import_module("fjcert." + module), attr)), (module, attr)
    for cls_name, attr, _ in spans.METHODS:
        assert attr in getattr(fjseries, cls_name).__dict__, (cls_name, attr)


def test_counted_boundaries_keep_their_arguments():
    # the work counters unpack these argument tuples positionally
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(jacobi._dict_mul) == ["a", "b", "emax"]
    assert params(jacobi._dict_div) == ["num", "den", "emax"]
    assert params(fjseries.multiply) == ["a", "b"]
