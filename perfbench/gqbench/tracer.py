"""Spans around calls into gaquot's public functions, recorded from outside.

The tracer wraps every public function of the layer modules by
rebinding each ``gaquot.*`` module attribute that holds it (modules
import ``extend``, ``apply``, ``solve`` and others by name, so every
binding site must be replaced), and wraps ``Poly`` methods on the class.
A wrapper records a span only while an op is open; spans live in flat
arrays and are written out when the run ends.  ``uninstall`` restores
every original binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("expr", "poly", "linalg", "derivations", "reps", "transfer", "classify", "cli")

POLY_METHODS = (
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__pow__", "pow"),
    ("substitute", "substitute"),
    ("evaluate", "evaluate"),
    ("partial", "partial"),
    ("coefficient", "coefficient"),
    ("extend_table", "extend_table"),
)

_MARK = "_perfbench_original"


def _observe_rref(tracer: "Tracer", args, result) -> None:
    rows, ncols = args[0], args[1]
    tracer.count("linalg.rref.cells", len(rows) * ncols)
    tracer.count("linalg.rref.rank", len(result))


def _observe_extend(tracer: "Tracer", args, result) -> None:
    tracer.count("transfer.extend.terms_out", len(result.extension.terms))


def _observe_power_in_image(tracer: "Tracer", args, result) -> None:
    tracer.count("derivations.power_in_image.found", int(result.found))


def _observe_slice_search(tracer: "Tracer", args, result) -> None:
    tracer.count("derivations.slice_search.found", int(result.found is not None))


OBSERVERS: Dict[str, Callable] = {
    "linalg.rref": _observe_rref,
    "transfer.extend": _observe_extend,
    "derivations.power_in_image": _observe_power_in_image,
    "derivations.slice_search": _observe_slice_search,
}


def _package_modules() -> List:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gaquot" or name.startswith("gaquot."))]


def public_functions(module) -> List[Tuple[str, Callable]]:
    """Public functions defined in ``module``, including cached ones."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a span would end before the generator does any work
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out.append((attr, obj))
    return out


def wrapped_sites() -> List[str]:
    """Every binding that still holds a tracer wrapper; empty when untraced."""
    sites = []
    for module in _package_modules():
        sites.extend(f"{module.__name__}.{attr}" for attr, obj in vars(module).items()
                     if hasattr(obj, _MARK))
    poly = sys.modules.get("gaquot.poly")
    if poly is not None:
        sites.extend(f"Poly.{attr}" for attr, obj in vars(poly.Poly).items() if hasattr(obj, _MARK))
    return sites


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Span duration minus the part of its interval that its child spans cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, p in enumerate(parent):
        if p >= 0:
            children[p].append(index)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_start: Optional[float] = None
        run_end = 0.0
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_start is None or s > run_end:
                if run_start is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_start is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder; one op at a time, one thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op_phase: List[str] = []
        self.counters: List[Dict[str, float]] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # ops and counters

    def begin_op(self, phase: str) -> int:
        if self._op is not None:
            raise RuntimeError("an op is already open")
        self.op_phase.append(phase)
        self.counters.append({})
        self._op = len(self.op_phase) - 1
        return self._op

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    def count(self, name: str, value: float, op: Optional[int] = None) -> None:
        op = self._op if op is None else op
        if op is not None:
            bucket = self.counters[op]
            bucket[name] = bucket.get(name, 0) + value

    # ------------------------------------------------------------------
    # wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sid = self._name_id(name)
        observe = OBSERVERS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.span_name)
            tracer.span_name.append(sid)
            tracer.span_op.append(op)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            misses = cache_info().misses if cache_info is not None else 0
            stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                stack.pop()
            if cache_info is not None and cache_info().misses > misses:
                tracer.count(name + ".builds", 1)
            if observe is not None:
                observe(tracer, args, result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, fn)
        return traced

    def install(self) -> None:
        """Wrap every public layer function at every binding site, and ``Poly`` methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"gaquot.{layer}"]
            for attr, fn in public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        poly = sys.modules["gaquot.poly"].Poly
        for attr, label in POLY_METHODS:
            original = vars(poly)[attr]
            self._patches.append((poly, attr, original))
            setattr(poly, attr, self._wrap(f"poly.{label}", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per phase: ``<span>.calls``, ``<span>.self_s`` and every counter, summed."""
        selfs = self_times(self.start, self.end, self.parent)
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, sid in enumerate(self.span_name):
            bucket = out[self.op_phase[self.span_op[index]]]
            name = self.names[sid]
            bucket[name + ".calls"] += 1
            bucket[name + ".self_s"] += selfs[index]
        for op, counters in enumerate(self.counters):
            bucket = out[self.op_phase[op]]
            for name, value in counters.items():
                bucket[name] += value
        return {phase: dict(values) for phase, values in out.items()}

    def write_spans(self, path: str) -> None:
        """One line per span: op, phase, span, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("op\tphase\tspan\tparent\tname\tstart_s\tend_s\n")
            for index, sid in enumerate(self.span_name):
                op = self.span_op[index]
                handle.write(
                    f"{op}\t{self.op_phase[op]}\t{index}\t{self.parent[index]}\t{self.names[sid]}"
                    f"\t{self.start[index]:.9f}\t{self.end[index]:.9f}\n"
                )
