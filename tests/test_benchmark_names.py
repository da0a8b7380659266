"""The benchmark names only layers and functions that exist in the package.

``perfbench/spans.py`` wraps package functions by module and attribute name,
and ``perfbench/workloads.py`` calls them (private ones included) as module
attributes; a renamed or deleted name would otherwise surface only when the
benchmark runs.  ``spans.py`` is loaded by path without writing bytecode;
``workloads.py`` is parsed, not executed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import pytest

from nelsonlab.spectral import SpectralCalculus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
PACKAGE_MODULES = ("algebra", "dynamics", "fock", "model", "mourre", "spectral")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(spans):
    for name, modname, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_traced_methods_resolve(spans):
    for name, attr in spans.METHODS:
        assert callable(SpectralCalculus.__dict__.get(attr)), name


def test_workload_references_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    refs = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in PACKAGE_MODULES}
    assert ("dynamics", "_track_snapshots") in refs
    missing = [f"{mod}.{attr}" for mod, attr in sorted(refs)
               if not hasattr(importlib.import_module(f"nelsonlab.{mod}"), attr)]
    assert not missing


def test_workload_calls_bind_to_signatures():
    """Every call ``workloads.py`` makes into the package passes arguments its
    callee accepts: as many positional ones and only keyword names it takes."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in PACKAGE_MODULES]
    assert len(calls) >= 40
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        module = importlib.import_module(f"nelsonlab.{call.func.value.id}")
        callee = getattr(module, call.func.attr)
        try:
            inspect.signature(callee).bind_partial(*call.args,
                                                   **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {call.func.value.id}.{call.func.attr}: {exc}")
    assert not unbound
