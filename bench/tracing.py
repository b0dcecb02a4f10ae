"""Spans around calls into qcorr's public functions, and per-layer metrics.

qcorr has no tracing of its own. The tracer wraps each public function
named in TARGETS and puts the wrapper on every qcorr module attribute that
holds the function: the modules bind imported functions by name, so
`qcorr.correlation.partial_trace` and `qcorr.purification.partial_trace`
each need the wrapper, not only `qcorr.linalg.partial_trace`. The numpy
eigen-solvers and SVD are wrapped on `numpy.linalg` and count only when
called from inside a qcorr span, so the benchmark's own checks never show.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MB = float(1 << 20)


def _dense_mb(args, result):
    return 16.0 * 4 ** args[0].n_qubits / MB


def _array_mb(args, result):
    return 16.0 * np.size(args[0]) / MB


def _cuts(args, result):
    return len(result.entries)


def _ancillas(args, result):
    return result.ancilla_qubits


def _dim(args, result):
    return np.shape(args[0])[-1]


#: span name, defining module, function, computed size of one call
TARGETS = (
    ("cli.main", "qcorr.cli", "main", None),
    ("states.build", "qcorr.report", "parse_state_spec", None),
    ("states.build", "qcorr.report", "build_state", None),
    ("states.to_density", "qcorr.states", "to_density", _dense_mb),
    ("states.validate", "qcorr.states", "validate_density", None),
    ("linalg.partial_trace", "qcorr.linalg", "partial_trace", _array_mb),
    ("linalg.kron", "qcorr.linalg", "kron", None),
    ("linalg.permute", "qcorr.linalg", "permute_matrix_qubits", None),
    ("correlation.von_neumann", "qcorr.correlation", "von_neumann_entropy", None),
    ("correlation.total_correlation", "qcorr.correlation", "total_correlation", None),
    ("correlation.index_of_correlation", "qcorr.correlation", "index_of_correlation", None),
    ("correlation.araki_lieb", "qcorr.correlation", "araki_lieb_check", None),
    ("partitions.decompose", "qcorr.partitions", "decompose", None),
    ("partitions.is_product_across", "qcorr.partitions", "is_product_across", None),
    ("partitions.enumerate", "qcorr.partitions", "enumerate_bipartitions", None),
    ("purification.purify", "qcorr.purification", "purify", _ancillas),
    ("purification.maxcorr", "qcorr.purification", "is_maximally_correlated_purification", None),
    ("report.analyze", "qcorr.report", "analyze", _cuts),
    ("report.analyze", "qcorr.report", "sweep", _cuts),
    ("report.render", "qcorr.report", "report_to_dict", None),
    ("report.render", "qcorr.report", "render_table", None),
    ("report.reduce", "qcorr.report", "reduced_operator", None),
)

#: span name, numpy.linalg function, computed size of one call
KERNELS = (
    ("numpy.eigvalsh", "eigvalsh", _dim),
    ("numpy.eigh", "eigh", _dim),
    ("numpy.svd", "svd", None),
)


def _self_s(name):
    return lambda t: t.self_s[name], "s"


def _calls(name):
    return lambda t: t.calls[name], "count"


#: per-layer metric name -> (value from LayerTotals, unit); all lower-is-better
PER_LAYER = {
    "cli.main_s": _self_s("cli.main"),
    "cli.commands": _calls("cli.main"),
    "states.build_s": _self_s("states.build"),
    "states.to_density_s": _self_s("states.to_density"),
    "states.to_density_calls": _calls("states.to_density"),
    "states.to_density_mb": (lambda t: t.size_sum["states.to_density"], "MB"),
    "states.validate_s": _self_s("states.validate"),
    "linalg.partial_trace_s": _self_s("linalg.partial_trace"),
    "linalg.partial_trace_calls": _calls("linalg.partial_trace"),
    "linalg.partial_trace_in_mb": (lambda t: t.size_sum["linalg.partial_trace"], "MB"),
    "linalg.kron_s": _self_s("linalg.kron"),
    "linalg.permute_s": _self_s("linalg.permute"),
    "correlation.von_neumann_s": _self_s("correlation.von_neumann"),
    "correlation.von_neumann_calls": _calls("correlation.von_neumann"),
    "correlation.total_correlation_s": _self_s("correlation.total_correlation"),
    "correlation.total_correlation_calls": _calls("correlation.total_correlation"),
    "correlation.index_of_correlation_s": _self_s("correlation.index_of_correlation"),
    "correlation.index_of_correlation_calls": _calls("correlation.index_of_correlation"),
    "correlation.araki_lieb_s": _self_s("correlation.araki_lieb"),
    "correlation.araki_lieb_calls": _calls("correlation.araki_lieb"),
    "partitions.decompose_s": _self_s("partitions.decompose"),
    "partitions.decompose_calls": _calls("partitions.decompose"),
    "partitions.is_product_across_s": _self_s("partitions.is_product_across"),
    "partitions.is_product_across_calls": _calls("partitions.is_product_across"),
    "partitions.enumerate_s": _self_s("partitions.enumerate"),
    "purification.purify_s": _self_s("purification.purify"),
    "purification.maxcorr_s": _self_s("purification.maxcorr"),
    "purification.ancilla_qubits": (lambda t: t.size_sum["purification.purify"], "count"),
    "report.analyze_s": _self_s("report.analyze"),
    "report.cuts": (lambda t: t.size_sum["report.analyze"], "count"),
    "report.render_s": _self_s("report.render"),
    "report.reduce_s": _self_s("report.reduce"),
    "numpy.eigvalsh_calls": _calls("numpy.eigvalsh"),
    "numpy.eigvalsh_s": _self_s("numpy.eigvalsh"),
    "numpy.eigvalsh_dim_max": (lambda t: t.size_max["numpy.eigvalsh"], "dim"),
    "numpy.eigvalsh_d3_e9": (lambda t: t.cube_sum["numpy.eigvalsh"] / 1e9, "d3/1e9"),
    "numpy.eigh_calls": _calls("numpy.eigh"),
    "numpy.eigh_s": _self_s("numpy.eigh"),
    "numpy.svd_calls": _calls("numpy.svd"),
    "numpy.svd_s": _self_s("numpy.svd"),
}


class Tracer:
    """Records spans [name, start, end, parent index, operation, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size=None, nested_only=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if nested_only and not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import qcorr.cli  # noqa: F401  (loads every qcorr module)

        modules = [m for k, m in sys.modules.items() if k == "qcorr" or k.startswith("qcorr.")]
        for name, module, fn_name, size in TARGETS:
            original = getattr(sys.modules[module], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, size)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for name, fn_name, size in KERNELS:
            original = getattr(np.linalg, fn_name)
            self._replace(np.linalg, fn_name, self._wrap(name, original, size, nested_only=True))
        # The CLI's JSON text is rendering too.
        cli = sys.modules["qcorr.cli"]
        if isinstance(getattr(cli, "json", None), types.ModuleType):
            shim = types.SimpleNamespace(**vars(json))
            shim.dumps = self._wrap("report.render", json.dumps)
            self._replace(cli, "json", shim)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def merge(self, spans: list[list]) -> None:
        """Append spans recorded in a child process."""
        base = len(self.spans)
        for name, start, end, parent, _, size in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, self.op, size]
            )


class LayerTotals:
    """Self time, call count and computed sizes per span name."""

    def __init__(self, spans: list[list]):
        child = defaultdict(float)
        for _, start, end, parent, _, _ in spans:
            if parent is not None:
                child[parent] += end - start
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.size_sum = defaultdict(float)
        self.size_max = defaultdict(float)
        self.cube_sum = defaultdict(float)
        for i, (name, start, end, _, _, size) in enumerate(spans):
            self.self_s[name] += end - start - child[i]
            self.calls[name] += 1
            if size is not None:
                self.size_sum[name] += size
                self.size_max[name] = max(self.size_max[name], size)
                self.cube_sum[name] += float(size) ** 3


def layer_metrics(rounds: list[list[list]]) -> dict[str, tuple[float, str]]:
    """Median over traced rounds of each per-layer metric of one round."""
    totals = [LayerTotals(spans) for spans in rounds]
    return {
        name: (statistics.median(float(get(t)) for t in totals), unit)
        for name, (get, unit) in PER_LAYER.items()
    }
