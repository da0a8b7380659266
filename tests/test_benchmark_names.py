"""The benchmark's span table names layers that exist in the package.

``perfbench/spans.py`` wraps package functions by module and attribute name;
a renamed or deleted layer would otherwise surface only when the benchmark
runs with tracing on.  The file is loaded by path without writing bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from nelsonlab.spectral import SpectralCalculus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
