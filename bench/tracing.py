"""Spans and counts for the traced run, recorded from outside the library.

`Tracer.install()` replaces every public function of the olk modules, in
every module namespace that holds it, by a wrapper that records a span
(id, parent, op id, name, start, end); the element methods `rearranged` and
`scaled` and the verify cases get the same treatment.  `counted()` clones
an Orlicz function or weight into a dynamic subclass whose value,
derivative, head and cumulative delegate to the real methods and add to
per-op counters, so the clone passes every isinstance check in the library
and computes bit-identical results.  Spans and counts stay in memory;
`write()` saves them when the run ends.  `uninstall()` restores the
library.
"""

import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "duality", "level", "norms", "orlicz", "rearrange",
           "solvers", "specio", "verify")
COUNTED_METHODS = ("value", "derivative", "head", "cumulative")
# oracles whose phi argument is swapped for a counted clone, by role
ORACLE_ROLES = {"duality.P_modular_oracle": "p_oracle",
                "norms.orlicz_norm_dual_sup_oracle": "dual_sup"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self._subclasses = {}

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def _object_call(self, role, name, fn, obj, args, kwargs):
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        start = time.perf_counter()
        try:
            return fn(obj, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._local.depth = depth
            with self._lock:
                counts = self.counts
                counts[(self.op, f"{role}.{name}")] += 1
                if name in ("value", "derivative") and args:
                    counts[(self.op, f"{role}.elems")] += np.size(args[0])
                if depth == 0:
                    counts[(self.op, f"{role}.busy_s")] += elapsed

    # -- counting clones ---------------------------------------------------

    def counted(self, obj, role):
        """A clone of obj in a counting subclass of its own class.

        A NumericConjugate passed as phi counts under the role "numeric".
        """
        cls = type(obj)
        if role == "phi" and cls.__name__ == "NumericConjugate":
            role = "numeric"
        sub = self._subclasses.get((cls, role))
        if sub is None:
            sub = self._subclasses[(cls, role)] = self._subclass(cls, role)
        clone = object.__new__(sub)
        clone.__dict__.update((k, v) for k, v in obj.__dict__.items()
                              if k != "_conjugate_cache")
        return clone

    def _subclass(self, cls, role):
        tracer = self
        namespace = {}
        for name in COUNTED_METHODS:
            real = getattr(cls, name, None)
            if real is not None:
                namespace[name] = _delegate(tracer, role, name, real)
        if hasattr(cls, "conjugate"):
            real_conjugate = cls.conjugate

            def conjugate(self):
                cached = self.__dict__.get("_bench_conjugate")
                if cached is None:
                    cached = tracer.counted(real_conjugate(self), role)
                    self.__dict__["_bench_conjugate"] = cached
                return cached
            namespace["conjugate"] = conjugate
        return type("Counted" + cls.__name__, (cls,), namespace)

    # -- patching the library ----------------------------------------------

    def install(self, olk):
        """Wrap the public functions of every olk module, in place."""
        import importlib
        modules = [importlib.import_module(f"olk.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", "") == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}",
                                                       fn))
        for ns in [vars(m) for m in modules] + [vars(olk)]:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, key, value))
                    ns[key] = hit[1]
        for cls in (olk.StepFunction, olk.FiniteSequence):
            for name in ("rearranged", "scaled"):
                real = cls.__dict__[name]
                self._restore.append((cls, name, real))
                setattr(cls, name, self._wrap(f"rearrange.{name}", real))
        verify = importlib.import_module("olk.verify")
        original = list(verify.CASES)
        self._restore.append((verify.CASES, None, original))
        verify.CASES[:] = [(cid, self._wrap(f"verify.case.{cid}", fn))
                           for cid, fn in original]

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            if key is None:
                target[:] = value
            elif isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self
        role = ORACLE_ROLES.get(name)

        def traced(*args, **kwargs):
            if role is not None and args:
                args = (tracer.counted(args[0], role),) + args[1:]
            return tracer.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
            fh.write(json.dumps({"counts": [[op, key, value] for (op, key),
                                            value in self.counts.items()]})
                     + "\n")


def _delegate(tracer, role, name, real):
    def method(self, *args, **kwargs):
        return tracer._object_call(role, name, real, self, args, kwargs)
    method.__name__ = name
    return method
