"""Span tracer that instruments lowdin_kit from outside the package.

`Tracer.install` wraps every public function and class constructor of the
package's layer modules, and the LAPACK-backed `numpy.linalg` routines, at
every name they are looked up by: a module namespace, the package's
re-exports, or a module-level dict such as the CLI's method table. A
function bound under a second name (``states`` imports ``hermitian_eig``
directly, ``gram`` calls ``linalg.hermitian_eig``) therefore records a span
either way. Cached properties of the package's classes are replaced by a
data descriptor that counts cache hits and misses, which a plain
`functools.cached_property` hides once the value sits in the instance dict.

Spans are recorded only inside `begin_op`/`end_op`; outside an op the
wrappers pass straight through, so the benchmark's own reference maths is
never counted. `uninstall` restores every patched name.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from enum import Enum

import numpy as np

LAYERS = ("linalg", "gram", "ortho", "states", "measures", "fileformats", "cli", "checks")
LAPACK = ("eigh", "svd", "qr", "solve")

# Called once per element inside their own module (round_tree recurses
# through every list and number): only the names other modules call them by
# are wrapped, so one span covers the whole walk.
PER_ELEMENT = frozenset({"lowdin_kit.fileformats.round12", "lowdin_kit.fileformats.complex_to_pair",
                         "lowdin_kit.fileformats.round_tree"})
# Private helpers that are the only entry to a stage the metrics name.
PRIVATE_ENTRIES = frozenset({"lowdin_kit.cli._load_json"})

# Span record fields (plain lists keep the wrapper cheap).
NAME, LAYER, PARENT, OP, T0, T1, CHILD, ERROR, WORK = range(9)

_perf = time.perf_counter


def factor_work(args) -> int:
    """Sum-of-n^3 work of one factorization: n^3 for a square operand,
    max(m, n) * min(m, n)^2 for a rectangular one (computed, not timed)."""
    shape = np.shape(args[0])
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * max(m, n) * min(m, n) ** 2


class _CountedCache:
    """Data-descriptor stand-in for a cached_property that counts hits."""

    def __init__(self, tracer: "Tracer", prop: functools.cached_property, name: str, layer: str):
        self._prop = prop
        self._attr = prop.attrname
        self._name = name
        self._compute = tracer.wrap(lambda inst, owner: prop.__get__(inst, owner), name, layer)
        self._tracer = tracer

    def __get__(self, inst, owner=None):
        if inst is None:
            return self._prop
        cache = inst.__dict__
        if self._attr in cache:
            if self._tracer.op is not None:
                self._tracer.hits[self._name] += 1
            return cache[self._attr]
        if self._tracer.op is not None:
            self._tracer.misses[self._name] += 1
        return self._compute(inst, owner)

    def __set__(self, inst, value):
        raise AttributeError(f"can't set attribute {self._attr!r}")


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = None
        self._stack.clear()

    def wrap(self, fn, name: str, layer: str, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            rec = [name, layer, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0.0, None,
                   work(args) if work else 0]
            spans.append(rec)
            stack.append(sid)
            rec[T0] = _perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                t1 = rec[T1] = _perf()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += t1 - rec[T0]

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, ns: dict, key, value) -> None:
        self._undo.append((ns, key, ns[key]))
        ns[key] = value

    def _set_attr(self, cls, key, value) -> None:
        self._undo.append((cls, key, cls.__dict__[key]))
        setattr(cls, key, value)

    def _patch_class(self, cls, layer: str) -> None:
        label = f"{layer}.{cls.__name__}"
        for key, value in list(vars(cls).items()):
            if key == "__init__":
                self._set_attr(cls, key, self.wrap(value, label, layer))
            elif isinstance(value, functools.cached_property):
                self._set_attr(cls, key, _CountedCache(self, value, f"{label}.{key}", layer))
            elif isinstance(value, types.FunctionType) and not key.startswith("_"):
                self._set_attr(cls, key, self.wrap(value, f"{label}.{key}", layer))

    def install(self) -> None:
        """Wrap numpy.linalg and every layer of lowdin_kit."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("lowdin_kit")
        modules = {layer: importlib.import_module(f"lowdin_kit.{layer}") for layer in LAYERS}
        wrappers = {}
        per_element = set()
        for layer, mod in modules.items():
            for key, value in vars(mod).items():
                qualname = f"{mod.__name__}.{key}"
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    if key.startswith("_") and qualname not in PRIVATE_ENTRIES:
                        continue
                    wrappers[value] = self.wrap(value, f"{layer}.{key}", layer)
                    if qualname in PER_ELEMENT:
                        per_element.add(value)
                elif isinstance(value, type) and not issubclass(value, (Enum, BaseException)):
                    self._patch_class(value, layer)
        linalg_ns = vars(np.linalg)
        for key in LAPACK:
            self._set(linalg_ns, key, self.wrap(linalg_ns[key], f"lapack.{key}", "lapack", factor_work))
        for ns in [vars(package), *(vars(m) for m in modules.values())]:
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, types.FunctionType) and value in wrappers:
                    if not (value in per_element and value.__module__ == ns["__name__"]):
                        self._set(ns, key, wrappers[value])
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if isinstance(dvalue, types.FunctionType) and dvalue in wrappers:
                            self._set(value, dkey, wrappers[dvalue])

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.end_op()
        self.uninstall()
        return False
