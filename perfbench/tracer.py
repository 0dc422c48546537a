"""In-memory span tracer that wraps functions of an already imported package.

A target names one function or method by module and attribute path.  A
module-level function is wrapped under every name that binds it in any
module of the package, because the package imports functions by name
(``from .skew_operators import matrix_invert``) and a call through such a
binding would otherwise bypass the wrapper.  A method is wrapped on the
class that defines it.  A target that does not exist is recorded in
``Tracer.absent`` instead of raising, so the benchmark keeps working when
a later version of the package removes or renames a function.

Spans are ``(id, name, start, end, parent, invocation)`` tuples kept in a
list; nothing is written until the caller asks for it.  The tracer is for a
single thread: the parent of a span is the innermost span open when it
started.
"""

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """Functions reported under one span name.

    ``attrs`` are attribute paths inside ``module`` such as
    ``"matrix_invert"`` or ``"TruncatedSeries.__mul__"``.  ``measure``, if
    given, is called as ``measure(args, result)`` after each successful
    call and returns ``(counts, maxima)``, two dicts (or ``None``) that the
    tracer adds to ``counts`` and folds into ``maxima`` under
    ``name + "." + key``.
    """

    name: str
    module: str
    attrs: tuple
    measure: object = None


class Tracer:
    def __init__(self, targets, package):
        self.targets = tuple(targets)
        self.package = package
        self.spans = []
        self.absent = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.invocation = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        for target in self.targets:
            for attr in target.attrs:
                self._install_one(target, attr)
        return self

    def remove(self):
        """Put back every original binding, newest first."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def _install_one(self, target, attr):
        where = "%s.%s" % (target.module, attr)
        module = sys.modules.get(target.module)
        if module is None:
            self.absent.append(where)
            return
        owner_path, _, key = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(where)
                return
        if owner is module:
            original = getattr(module, key, None)
        else:
            # only a method the class itself defines; an inherited one would
            # be wrapped for every sibling class too
            original = vars(owner).get(key)
        if not callable(original) or isinstance(original, type):
            self.absent.append(where)
            return
        wrapper = self._wrap(target, original)
        if owner is not module:
            self._bind(owner, key, original, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == self.package or name.startswith(self.package + ".")
            ):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, binding, original, wrapper)

    def _bind(self, owner, key, original, wrapper):
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, target, fn):
        name = target.name
        measure = target.measure
        stack = self._stack
        spans = self.spans.append
        counts = self.counts
        maxima = self.maxima
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans((sid, name, start, end, parent, self.invocation))
            if measure is not None:
                try:
                    found = measure(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    counts[name + ".measure_errors"] += 1
                    found = None
                if found is not None:
                    more, peaks = found
                    for key, value in (more or {}).items():
                        counts[name + "." + key] += value
                    for key, value in (peaks or {}).items():
                        full = name + "." + key
                        if value > maxima[full]:
                            maxima[full] = value
            return result

        traced.__wrapped_by_tracer__ = True
        return traced


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.  Children are clipped to the parent and
    overlapping children are counted once."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _inv in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _inv in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """Per span name: number of calls and summed self time."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for sid, name, *_ in spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
    return dict(calls), dict(self_s)


def find_wrappers(package):
    """Names in the package's modules and classes still bound to a wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            owners = [(key, value)]
            if isinstance(value, type) and value.__module__ == name:
                owners += [("%s.%s" % (key, k), v) for k, v in vars(value).items()]
            for where, obj in owners:
                if getattr(obj, "__wrapped_by_tracer__", False):
                    found.append("%s.%s" % (name, where))
    return found
