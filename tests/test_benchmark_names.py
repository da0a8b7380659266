"""The benchmark names only layers and functions that exist in the package.

``perfbench/spans.py`` wraps package functions by module and attribute name,
and ``perfbench/workloads.py`` calls them (private ones included) as module
attributes; a renamed or deleted name would otherwise surface only when the
benchmark runs.  ``spans.py`` is loaded by path without writing bytecode;
``workloads.py`` is parsed, and loaded the same way only to check the
layer map.  ``CALL_MAP`` is read from ``run.py``'s source, since importing
``run.py`` sets the thread variables of the process.
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
PACKAGE_MODULES = ("algebra", "dynamics", "fock", "model", "mourre", "spectral")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def _call_map() -> dict:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CALL_MAP"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py defines no CALL_MAP")


@pytest.fixture(scope="module")
def spans():
    return _load("perfbench_spans", PERFBENCH / "spans.py")


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", PERFBENCH / "workloads.py")


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


@pytest.mark.parametrize("workload", ["algebra", "chain", "fiber"])
def test_call_map_holds(spans, workloads, workload):
    """One run of each workload at seed 2024 calls every span the layer map
    predicts on it and none it predicts off it."""
    call_map = _call_map()
    assert set(call_map) <= set(spans.SPAN_NAMES)
    with spans.Tracer() as tracer:
        workloads.RUNNERS[workload](2024, lambda: None)
    calls = tracer.counts()["calls"]
    missing = [span for span, (on, _) in call_map.items()
               if workload in on.split() and calls[span] == 0]
    unexpected = [f"{span}: {calls[span]}" for span, (_, off) in call_map.items()
                  if workload in off.split() and calls[span] != 0]
    assert not missing and not unexpected


def test_warm_up_runs_under_the_tracer(spans, workloads):
    """``warm_up`` opens every benchmark run and every setup sample: it builds
    one fiber H (15 states) and reads ``H.mat``, ``SpectralCalculus(H)`` and
    ``ground_state(H).ground_vector.amps``."""
    with spans.Tracer() as tracer:
        workloads.warm_up()
    counts = tracer.counts()
    [(dim, nnz)] = counts["hamiltonians"]
    assert dim == 15 and nnz > dim
    assert counts["ground_state"] == [["dense", 0]]
