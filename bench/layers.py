"""Per-layer tracing of one twistsense job, installed from outside the program.

``Tracer.install`` replaces the public entry points of each layer with a
timing wrapper, in the module that defines the name and in every
``twistsense`` module that imported it by name (``propagate`` lives in
``protocols`` and ``bosonic_limit`` too). A name that no longer exists is
skipped and reports zero calls. The benchmark installs a tracer only in a
forked job process, so patching never leaks into other jobs.

A layer's self time is its span time minus the time of the traced spans it
called. Spans and counts stay in memory; ``report`` returns them once, when
the job ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np


def _dim(args, kwargs) -> int:
    a = args[0] if args else next(iter(kwargs.values()))
    return int(np.shape(a)[-1])


def _eigh_work(work: Counter, args, kwargs, result) -> None:
    work["spin_core.eigh.dim3"] += _dim(args, kwargs) ** 3
    if isinstance(result, tuple) and len(result) == 2:
        work["spin_core.eigvec_bytes"] += result[1].nbytes


def _expm_work(work: Counter, args, kwargs, result) -> None:
    work["spin_core.expm.dim3"] += _dim(args, kwargs) ** 3


def _count_eval(work: Counter, args, kwargs, result) -> None:
    work["sweep_optimize.evals"] += 1


# (layer, module, name, work counter). Entries sharing a layer add up.
WRAPPED = (
    ("spin_core.eigh", "numpy.linalg", "eigh", _eigh_work),
    ("spin_core.eigh", "scipy.linalg", "eigh", _eigh_work),
    ("spin_core.eigh", "scipy.linalg", "eigh_tridiagonal", _eigh_work),
    ("spin_core.expm", "scipy.linalg", "expm", _expm_work),
    ("spin_core.propagate_with_derivative", "twistsense.spin_core",
     "propagate_with_derivative", None),
    ("spin_core.propagate", "twistsense.spin_core", "propagate", None),
    ("spin_core.collective_operators", "twistsense.spin_core",
     "collective_operators", None),
    ("protocols.hamiltonian", "twistsense.protocols", "hamiltonian", None),
    ("protocols.final_state", "twistsense.protocols", "final_state", None),
    ("metrology.readout", "twistsense.metrology", "qfi_sensitivity", None),
    ("metrology.readout", "twistsense.metrology", "echo_sensitivity", None),
    ("bosonic_limit.fock_simulate", "twistsense.bosonic_limit",
     "fock_simulate", None),
    ("bosonic_limit.fock_hamiltonian", "twistsense.bosonic_limit",
     "fock_hamiltonian", None),
    ("sweep_optimize", "twistsense.sweep_optimize", "evaluate_point", _count_eval),
    ("sweep_optimize", "twistsense.sweep_optimize", "sweep_curve", None),
    ("sweep_optimize", "twistsense.sweep_optimize", "optimize_t", None),
    ("sweep_optimize", "twistsense.sweep_optimize", "find_threshold", None),
    ("cli", "twistsense.cli", "main", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in WRAPPED))


class Tracer:
    """Calls, self time and work counts per layer for the current process."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.work: Counter = Counter()
        self._open: list[float] = []  # child span time of each open span
        self._caches: dict = {}

    def _wrap(self, layer: str, fn, measure):
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self.self_s[layer] += span - open_spans.pop()
                self.calls[layer] += 1
                if open_spans:
                    open_spans[-1] += span
            if measure is not None:
                measure(self.work, args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every name in ``WRAPPED`` that exists in this process."""
        for layer, module_name, name, measure in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, name, None)
            if fn is None:
                continue
            if hasattr(fn, "cache_info"):
                self._caches[layer] = fn
            traced = self._wrap(layer, fn, measure)
            setattr(module, name, traced)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "twistsense":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def report(self) -> dict:
        """Per-layer calls and self time, work counts and cache statistics."""
        out = dict(self.work)
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.self_s[layer]
        for layer, fn in self._caches.items():
            info = fn.cache_info()
            out[f"{layer}.hits"] = info.hits
            out[f"{layer}.misses"] = info.misses
        return out
