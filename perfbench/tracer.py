"""In-memory span tracer that wraps ncflow functions from outside the package.

A target is named by module and attribute path, e.g. ``("moebius",
"build_table")`` or ``("flows", "Flow.values")``.  A module-level function is
replaced wherever the same function object is bound in a loaded ``ncflow.*``
namespace, matched by identity, so ``from .flows import average_series`` in
another module is traced too.  A method is replaced on its class.  A target
that no longer exists is recorded in ``missing`` and otherwise ignored, so the
tracer keeps working when the package is refactored.

Spans are kept as ``[name, start, end, parent_index, work_items]`` and written
out by the caller when the run ends.  The tracer keeps one call stack, so it
must only see calls from one thread.
"""

import functools
import sys
import time


PACKAGE = "ncflow"


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []  # (owner, attribute, original) to restore

    def _namespaces(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self, targets):
        """targets: iterable of (module, attr_path, span_name, work) where
        span_name is a string or a callable of the call's arguments, and work
        maps (args, kwargs, result) to a work-item count or is None."""
        namespaces = self._namespaces()
        for module, attr_path, span_name, work in targets:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            owner = mod
            parts = attr_path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            original = None if owner is None else vars(owner).get(attr)
            if original is None or not callable(original):
                self.missing.append(f"{module}.{attr_path}")
                continue
            wrapper = self._wrap(original, span_name, work)
            if len(parts) > 1:
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, fn, span_name, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(args) if callable(span_name) else span_name
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if work is not None:
                span[4] = int(work(args, kwargs, result))
            return result

        return traced


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
