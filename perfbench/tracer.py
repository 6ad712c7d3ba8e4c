"""Traced mode: spans around the public functions of the library's layers.

:class:`Tracer` wraps every public function and every public method of the
public classes in the listed ``finhilbert`` modules, plus
``GridFunction.__init__``.  It also rebinds each name that another module
imported with ``from .x import f`` (and the function tuples of
``checks.SUITES``), since calls made inside the package would otherwise
reach the unwrapped originals.  Spans (name, start, end, parent, operation)
live in flat in-memory arrays until :meth:`Tracer.save` writes them out;
self time and the per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

SEARCHES = ("measure.optdomain_norm", "measure.semivariation")


def _span_name(module, qualname):
    return f"{module.rsplit('.', 1)[-1]}.{qualname}".replace(".__init__", ".init")


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules
        self.names = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self._undo = []

    # --------------------------------------------------------------- install
    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return wrapper

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def install(self):
        """Wrap, then rebind every alias of a wrapped function in the package."""
        replaced = {}
        for mod in self.modules:
            for key, obj in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(_span_name(mod.__name__, key), obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj)
        namespaces = [self.package] + list(self.modules)
        for ns in namespaces:
            for key, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    self._set(ns, key, replaced[id(obj)])
        suites = getattr(self.package.checks, "SUITES", {})
        for key, fns in list(suites.items()):
            self._undo.append((suites, key, fns))
            suites[key] = tuple(replaced.get(id(fn), fn) for fn in fns)

    def _wrap_methods(self, cls):
        for key, obj in list(vars(cls).items()):
            public = not key.startswith("_") or (key, cls.__name__) == ("__init__", "GridFunction")
            if public and inspect.isfunction(obj):
                self._set(cls, key, self._wrap(_span_name(cls.__module__, obj.__qualname__), obj))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # --------------------------------------------------------------- results
    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32))

    def save(self, path):
        name_id, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start_ns=start, end_ns=end, parent=parent, op=op)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds; plus the
        norm_info calls made under a search and the outermost search time."""
        name_id, start, end, parent, _ = self.arrays()
        k = len(self.names)
        dur = (end - start).astype(np.float64) * 1e-9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=dur - child, minlength=k)
        out = {name: (int(calls[i]), float(total[i]), float(self_s[i]))
               for i, name in enumerate(self.names)}

        search_ids = {i for i, n in enumerate(self.names) if n in SEARCHES}
        norm_id = self.names.index("spaces.norm_info") if "spaces.norm_info" in self.names else -1
        in_search = np.zeros(len(dur), dtype=bool)
        search_s, patterns = 0.0, 0
        for i in range(len(dur)):       # a parent's id is always below its children's
            p = parent[i]
            inside = p >= 0 and (in_search[p] or name_id[p] in search_ids)
            in_search[i] = inside
            if name_id[i] in search_ids and not inside:
                search_s += dur[i]
            elif inside and name_id[i] == norm_id:
                patterns += 1
        return out, patterns, search_s
