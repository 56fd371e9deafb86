"""Outside-in tracing of coaldef's layers.

Spans are recorded by wrapping the package's functions at run time from
the benchmark's own code; no file of the package changes.  Each span
keeps its name, start, end and the span that was open when it began
(its parent).  A span's self time is its duration minus the time its
child spans cover, and a layer's self time is the sum over its spans.

Three details of the package shape the wrapping:

* ``coaldef.cohomology`` is the function the package re-exports, not
  the submodule, so modules are fetched through ``importlib``;
* names bound with ``from .x import f`` live on in the importing
  module, so every module attribute that is the wrapped function is
  rebound too;
* arithmetic goes through ``_backend.kernel()``, so the object it
  returns is replaced by a proxy whose functions are wrapped.

The package is single-threaded and has no queues, so no layer waits on
a shared resource; waiting time is not applicable and not reported.
"""

import importlib
import os
import sys
import time
from collections import Counter

# Per-layer metrics in output order, with their units.  "count" metrics
# repeat exactly from run to run; "_s" metrics are seconds.
LAYER_METRICS = {
    "cohomology.self_s": "s",
    "cohomology.assemble_s": "s",
    "cohomology.assemble_calls": "count",
    "cohomology.differential_calls": "count",
    "cohomology.dmat_cache_hits": "count",
    "cohomology.dmat_cells": "count",
    "cohomology.dmat_nnz": "count",
    "exactlinalg.self_s": "s",
    "exactlinalg.rref_s": "s",
    "exactlinalg.rref_calls": "count",
    "exactlinalg.rref_cache_hits": "count",
    "exactlinalg.rref_cells": "count",
    "exactlinalg.kernel_s": "s",
    "exactlinalg.image_s": "s",
    "exactlinalg.quotient_s": "s",
    "exactlinalg.solve_s": "s",
    "exactlinalg.solve_calls": "count",
    "exactlinalg.max_entry_bits": "bit",
    "kernels.self_s": "s",
    "kernels.q_matmul_s": "s",
    "kernels.q_matmul_calls": "count",
    "kernels.q_kron_s": "s",
    "kernels.q_kron_calls": "count",
    "kernels.q_addsub_s": "s",
    "kernels.q_addsub_calls": "count",
    "kernels.q_rref_s": "s",
    "kernels.p_matmul_s": "s",
    "kernels.p_kron_s": "s",
    "kernels.p_rref_s": "s",
    "kernels.matmul_dense_madds": "count",
    "deformation.self_s": "s",
    "deformation.verify_s": "s",
    "deformation.obstruction_s": "s",
    "deformation.extend_calls": "count",
    "deformation.transport_s": "s",
    "deformation.trivialize_steps": "count",
    "deformation.max_coeff_bits": "bit",
    "problemfile.self_s": "s",
    "problemfile.load_s": "s",
    "problemfile.write_s": "s",
    "problemfile.bytes_read": "byte",
    "problemfile.bytes_written": "byte",
    "coalgebra.self_s": "s",
    "coalgebra.check_s": "s",
    "cli.self_s": "s",
    "cli.commands": "count",
    "cli.unexpected_exit": "count",
    "cli.cohomology_s": "s",
    "cli.integrate_s": "s",
    "cli.check_s": "s",
    "cli.obstruct_s": "s",
    "cli.trivialize_s": "s",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("cohomology", "exactlinalg", "kernels", "deformation",
          "problemfile", "coalgebra", "cli")

# metric -> span name whose total (inclusive) time it reports
_SPAN_TOTALS = {
    "cohomology.assemble_s": "cohomology.assemble",
    "exactlinalg.rref_s": "exactlinalg.rref",
    "exactlinalg.kernel_s": "exactlinalg.kernel_basis",
    "exactlinalg.image_s": "exactlinalg.image_basis",
    "exactlinalg.quotient_s": "exactlinalg.quotient_data",
    "exactlinalg.solve_s": "exactlinalg.solve",
    "kernels.q_matmul_s": "kernels.q_matmul",
    "kernels.q_kron_s": "kernels.q_kron",
    "kernels.q_addsub_s": "kernels.q_addsub",
    "kernels.q_rref_s": "kernels.q_rref",
    "kernels.p_matmul_s": "kernels.p_matmul",
    "kernels.p_kron_s": "kernels.p_kron",
    "kernels.p_rref_s": "kernels.p_rref",
    "deformation.verify_s": "deformation.verify_deformation",
    "deformation.obstruction_s": "deformation.obstruction_cochain",
    "deformation.transport_s": "deformation.apply_equivalence",
    "problemfile.load_s": "problemfile.load_problem",
    "problemfile.write_s": "problemfile.write_problem",
    "coalgebra.check_s": "coalgebra.check",
    "cli.cohomology_s": "cli.cohomology",
    "cli.integrate_s": "cli.integrate",
    "cli.check_s": "cli.check",
    "cli.obstruct_s": "cli.obstruct",
    "cli.trivialize_s": "cli.trivialize",
}

# metric -> span name whose number of calls it reports
_SPAN_CALLS = {
    "cohomology.assemble_calls": "cohomology.assemble",
    "exactlinalg.rref_calls": "exactlinalg.rref",
    "exactlinalg.solve_calls": "exactlinalg.solve",
    "kernels.q_matmul_calls": "kernels.q_matmul",
    "kernels.q_kron_calls": "kernels.q_kron",
    "kernels.q_addsub_calls": "kernels.q_addsub",
    "deformation.extend_calls": "deformation.extend",
}

_CLI_COMMANDS = ("cohomology", "integrate", "check", "obstruct",
                 "trivialize")


def entry_bits(matrix):
    """Largest bit length of a numerator or denominator of a Matrix."""
    bits = 0
    for values in (getattr(matrix, "_num", None), getattr(matrix, "_den", None)):
        if values:
            bits = max(bits, max(values).bit_length(),
                       (-min(values)).bit_length())
    return bits


class Tracer:
    """Records spans and counters in memory while ``recording`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.recording = True
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []         # indices of the open spans
        self._open = Counter()   # name -> number of open spans

    def parent_name(self):
        """Name of the span that was open when the innermost one began."""
        parent = self.spans[self._stack[-1]][3] if self._stack else -1
        return self.spans[parent][0] if parent >= 0 else None

    def inside(self, name):
        return self._open[name] > 0

    def wrap(self, name, fn, after=None, cached=None, hits=None):
        """``fn`` recorded as span ``name``.

        ``cached(*args)`` true marks a call served from the package's own
        cache: it is counted under the counter ``hits`` and gets no span.
        ``after(result, *args)`` runs once the call returned, inside the
        span, to update counters.
        """
        spans = self.spans
        stack = self._stack
        opened = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if cached is not None and cached(*args):
                self.counts[hits] += 1
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            finally:
                spans[index][2] = clock()
                stack.pop()
                opened[name] -= 1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def summary(self):
        """Per-span totals: name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def layer_metrics(self):
        """Every per-layer metric that the spans and counters give."""
        summary = self.summary()
        metrics = dict.fromkeys(LAYER_METRICS, 0)
        for layer in LAYERS:
            metrics[layer + ".self_s"] = sum(
                row[2] for span, row in summary.items()
                if span.split(".", 1)[0] == layer)
        for metric, span in _SPAN_TOTALS.items():
            metrics[metric] = summary.get(span, (0, 0.0))[1]
        for metric, span in _SPAN_CALLS.items():
            metrics[metric] = summary.get(span, (0,))[0]
        metrics["cli.commands"] = sum(
            summary.get("cli." + c, (0,))[0] for c in _CLI_COMMANDS)
        for key, value in self.counts.items():
            if key in metrics:
                metrics[key] = value
        for key, value in self.maxima.items():
            metrics[key] = value
        metrics["trace.spans"] = len(self.spans)
        return metrics


class _KernelProxy:
    """Stands in for the active kernel module; unwrapped names pass through."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


def _rebind(original, wrapped):
    """Point every coaldef module attribute bound to ``original`` at ``wrapped``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "coaldef"
                                  or modname.startswith("coaldef.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer):
    """Wrap coaldef's layer boundaries so that ``tracer`` records them.

    Names a later version of the package no longer has are skipped, so
    their metrics read zero instead of the run failing.
    """
    mod = {name: importlib.import_module("coaldef." + name)
           for name in ("_backend", "cohomology", "exactlinalg",
                        "deformation", "problemfile", "coalgebra", "cli")}
    counts, maxima = tracer.counts, tracer.maxima

    def function(module, attr, span, after=None):
        original = getattr(mod[module], attr, None)
        if original is None:
            return
        wrapped = tracer.wrap(span, original, after=after)
        setattr(mod[module], attr, wrapped)
        _rebind(original, wrapped)

    def method(cls, attr, span, after=None, cached=None, hits=None):
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is not None:
            setattr(cls, attr, tracer.wrap(span, original, after=after,
                                           cached=cached, hits=hits))

    # kernels: the object _backend.kernel() hands to every Matrix operation
    backend = mod["_backend"]
    real = backend.kernel()
    proxy = _KernelProxy(real)
    groups = {"q_add": "q_addsub", "q_sub": "q_addsub",
              "p_add": "p_addsub", "p_sub": "p_addsub"}

    def madds(n, k, m):
        counts["kernels.matmul_dense_madds"] += n * k * m

    kernel_after = {
        "q_matmul": lambda r, *a: madds(a[4], a[5], a[6]),
        "p_matmul": lambda r, *a: madds(a[2], a[3], a[4]),
    }
    for attr in dir(real):
        if attr[:2] in ("q_", "p_") and callable(getattr(real, attr)):
            setattr(proxy, attr, tracer.wrap(
                "kernels." + groups.get(attr, attr), getattr(real, attr),
                after=kernel_after.get(attr)))
    backend._active = proxy

    # exactlinalg
    linalg = mod["exactlinalg"]

    def rref_done(result, matrix):
        counts["exactlinalg.rref_cells"] += matrix.rows * matrix.cols
        bits = entry_bits(result[0])
        if bits > maxima["exactlinalg.max_entry_bits"]:
            maxima["exactlinalg.max_entry_bits"] = bits

    method(getattr(linalg, "Matrix", None), "rref", "exactlinalg.rref",
           after=rref_done,
           cached=lambda m: getattr(m, "_rref", None) is not None,
           hits="exactlinalg.rref_cache_hits")
    for attr in ("kernel_basis", "image_basis", "quotient_data", "solve",
                 "rank"):
        function("exactlinalg", attr, "exactlinalg." + attr)

    # cohomology
    coh = mod["cohomology"]
    base = getattr(coh, "_ComplexBase", None)

    def assembled(result, complex_, n):
        cells = result.rows * result.cols
        counts["cohomology.dmat_cells"] += cells
        num = getattr(result, "_num", None)
        if num is not None:
            counts["cohomology.dmat_nnz"] += len(num) - num.count(0)

    def dmat_cached(complex_, n):
        return n in getattr(complex_, "_dmat_cache", ())

    method(base, "differential_matrix", "cohomology.assemble",
           after=assembled, cached=dmat_cached,
           hits="cohomology.dmat_cache_hits")
    for attr in ("cohomology", "class_coordinates", "is_coboundary",
                 "is_cocycle"):
        method(base, attr, "cohomology." + attr)

    def differential_done(result, complex_, w):
        # columns probed: differentials that assembly applies itself
        if tracer.parent_name() == "cohomology.assemble":
            counts["cohomology.differential_calls"] += 1

    for cls_name in ("HochschildComplex", "MorphismComplex"):
        cls = getattr(coh, cls_name, None)
        method(cls, "differential", "cohomology.differential",
               after=differential_done)
        method(cls, "__init__", "cohomology.build")

    # coalgebra
    for attr in ("check_coassociative", "check_morphism", "check_bicomodule"):
        function("coalgebra", attr, "coalgebra.check")
    for attr in ("bicomodule_via", "regular_bicomodule", "middle_insertion",
                 "tensor_power_map"):
        function("coalgebra", attr, "coalgebra.build")

    # deformation
    def coeff_bits(cochains):
        for c in cochains:
            for part in c.parts():
                bits = entry_bits(part.matrix)
                if bits > maxima["deformation.max_coeff_bits"]:
                    maxima["deformation.max_coeff_bits"] = bits

    def extended(result, *args):
        if hasattr(result, "coeffs"):
            coeff_bits(result.coeffs[-1:])

    def transported(result, *args):
        coeff_bits(result.coeffs[1:])
        if tracer.inside("deformation.trivialize"):
            counts["deformation.trivialize_steps"] += 1

    function("deformation", "verify_deformation",
             "deformation.verify_deformation")
    # the private step shared by obstruction() and extend()
    function("deformation", "_obstruction_cochain",
             "deformation.obstruction_cochain")
    function("deformation", "extend", "deformation.extend", after=extended)
    function("deformation", "apply_equivalence",
             "deformation.apply_equivalence", after=transported)
    for attr in ("obstruction", "integrate", "trivialize", "infinitesimal",
                 "invert_formal", "compose_isomorphisms"):
        function("deformation", attr, "deformation." + attr)

    # problemfile
    def loaded(result, path, *args):
        counts["problemfile.bytes_read"] += os.path.getsize(path)

    def written(result, pf, path):
        counts["problemfile.bytes_written"] += os.path.getsize(path)

    function("problemfile", "load_problem", "problemfile.load_problem",
             after=loaded)
    function("problemfile", "write_problem", "problemfile.write_problem",
             after=written)
    for attr in ("parse_problem", "serialize_problem"):
        function("problemfile", attr, "problemfile." + attr)

    # cli: the callbacks of the click commands
    group = getattr(mod["cli"], "main", None)
    for name, command in getattr(group, "commands", {}).items():
        if command.callback is not None:
            command.callback = tracer.wrap("cli." + name, command.callback)
