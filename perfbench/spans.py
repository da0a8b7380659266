"""Span tracing around calls into the package's public functions.

Spans are recorded from the benchmark's side: each layer function is
replaced, in every ``nelsonlab`` module namespace that binds it, by a
wrapper that records ``[name, start, end, parent]``.  Modules import each
other's names by value (``dynamics`` binds ``fock.dGamma``), so patching only
the defining module would miss those calls.  ``SpectralCalculus`` keeps its
class; its ``__init__`` and ``fn`` are wrapped in place.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute); every name is reported per workload.
FUNCTIONS = (
    ("fock.creation_op", "nelsonlab.fock", "creation_op"),
    ("fock.field_op", "nelsonlab.fock", "field_op"),
    ("fock.dGamma", "nelsonlab.fock", "dGamma"),
    ("fock.Gamma", "nelsonlab.fock", "Gamma"),
    ("fock.dGamma2", "nelsonlab.fock", "dGamma2"),
    ("fock.build_basis", "nelsonlab.fock", "build_basis"),
    ("split.tensor_factor_ops", "nelsonlab.split", "tensor_factor_ops"),
    ("split.breve_gamma", "nelsonlab.split", "breve_gamma"),
    ("split.dbreve_gamma2", "nelsonlab.split", "dbreve_gamma2"),
    ("split.tensor_iso_U", "nelsonlab.split", "tensor_iso_U"),
    ("split.scattering_ident", "nelsonlab.split", "scattering_ident"),
    ("algebra.run_algebra_suite", "nelsonlab.algebra", "run_algebra_suite"),
    ("model.build_fiber_H", "nelsonlab.model", "build_fiber_H"),
    ("model.build_full_H", "nelsonlab.model", "build_full_H"),
    ("spectral.ground_state", "nelsonlab.spectral", "ground_state"),
    ("spectral.lanczos_lowest", "nelsonlab.spectral", "lanczos_lowest"),
    ("spectral.dispersion_scan", "nelsonlab.spectral", "dispersion_scan"),
    ("dynamics.krylov_expm_apply", "nelsonlab.dynamics", "krylov_expm_apply"),
    ("dynamics.filtered_packet", "nelsonlab.dynamics", "filtered_packet"),
    ("dynamics.electron_velocity_probe", "nelsonlab.dynamics", "electron_velocity_probe"),
    ("dynamics.W_estimate", "nelsonlab.dynamics", "W_estimate"),
    ("mourre.mourre_sweep", "nelsonlab.mourre", "mourre_sweep"),
    ("mourre.mourre_scan", "nelsonlab.mourre", "mourre_scan"),
    ("mourre.build_conjugate", "nelsonlab.mourre", "build_conjugate"),
    ("mourre.commutator_iHA", "nelsonlab.mourre", "commutator_iHA"),
)
METHODS = (
    ("spectral.SpectralCalculus.init", "__init__"),
    ("spectral.SpectralCalculus.fn", "fn"),
)
SPAN_NAMES = tuple(name for name, _, _ in FUNCTIONS) + tuple(name for name, _ in METHODS)


class Tracer:
    """In-memory spans plus exact counts read from returned objects."""

    def __init__(self):
        self.spans: list[list] = []
        self.hamiltonians: list[tuple[int, int]] = []
        self.solves: list[tuple[str, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        if name in ("model.build_fiber_H", "model.build_full_H"):
            def on_result(H):
                self.hamiltonians.append((int(H.shape[0]), int(H.mat.nnz)))
        elif name == "spectral.ground_state":
            def on_result(res):
                self.solves.append((res.meta["method"], int(res.meta["iterations"])))
        else:
            on_result = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def install(self):
        """Replace every binding of each layer function in the package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "nelsonlab" or key.startswith("nelsonlab.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        cls = sys.modules["nelsonlab.spectral"].SpectralCalculus
        for name, attr in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def counts(self) -> dict:
        """Exact counts; they repeat for equal inputs."""
        calls = Counter(name for name, _, _, _ in self.spans)
        return {
            "calls": {name: calls[name] for name in SPAN_NAMES},
            "hamiltonians": [list(h) for h in self.hamiltonians],
            "ground_state": [list(s) for s in self.solves],
        }
