"""Span tracer for bcf, installed from outside the library.

``Tracer.install`` wraps the public functions of the traced modules, the
public methods and arithmetic operators of the classes they define, and
then rebinds every name in every loaded ``bcf`` module that still refers
to an original function.  That last pass catches from-import copies such
as ``bcf.cli.bcf_expand`` or ``bcf.expansion.rational_digits``; class
aliases such as ``__rmul__ = __mul__`` are rebound name by name.

Each wrapped call is one span: name, start, end, parent span and op id.
Spans nest strictly (one thread), so self time is aggregated as each span
closes: its duration minus the durations of its direct children.  The
first ``LOG_LIMIT`` spans are also kept in memory and written out by
``write_log`` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import types
from array import array

MODULES = (
    "cli", "polys", "fields", "expansion", "treeval", "_kernels",
    "validation", "recovery",
)

# Operator methods wrapped besides the public ones, and their span names.
# Reflected aliases share the name of the operator they alias.
OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub",
    "__rsub__": "rsub", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "truediv", "__rtruediv__": "rtruediv",
    "__neg__": "neg", "__pow__": "pow",
}

LOG_FIELDS = ("span", "parent", "name", "op", "start_ns", "end_ns")
LOG_LIMIT = 100_000


def _height_bits(value):
    coeffs = getattr(value, "coeffs", (value,))
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in coeffs
    )


def _label(module_name):
    return module_name.rpartition(".")[2].lstrip("_")


class Tracer:
    """Collects spans from wrapped bcf functions; one instance per process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.op = 0
        self.originals = {}
        self._bound = []
        # Open spans: [name id, start, child ns, span id, parent id, extra];
        # the bottom frame stands for time outside every span.
        self._stack = [[-1, 0, 0, -1, -1, None]]
        self._on_open = {}
        self._on_close = {}
        self.reset()
        self._install_hooks()

    def reset(self):
        """Forget every span so far (used after the warm-up ops)."""
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.spans = 0
        self.log = array("q")
        # Derived counts, filled by the hooks in _install_hooks.
        self.inverses_in_step = 0
        self.inverse_in_step_ns = 0
        self.refines_in_floor = 0
        self.gap_in_recover = 0
        self.rational_roots_in_recover_ns = 0
        self.height_bits_max = 0
        self.early_ns = []
        self.late_ns = []

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    # -- spans ----------------------------------------------------------

    def _wrap(self, func, name):
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close
        on_open = self._on_open.get(nid)

        @functools.wraps(func)
        def span(*args, **kwargs):
            frame = [nid, 0, 0, self.spans, stack[-1][3], None]
            self.spans += 1
            if on_open is not None:
                on_open(frame, args)
            stack.append(frame)
            frame[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        span.__traced__ = func
        return span

    def _close(self, frame, end):
        nid, start, child, span_id, parent_id, _ = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child
        self.total_ns[nid] += duration
        self._stack[-1][2] += duration
        on_close = self._on_close.get(nid)
        if on_close is not None:
            on_close(frame, duration)
        if len(self.log) < len(LOG_FIELDS) * LOG_LIMIT:
            self.log.extend((span_id, parent_id, nid, self.op, start, end))

    def _inside(self, ids):
        return any(f[0] in ids for f in self._stack)

    def _install_hooks(self):
        """Hooks that derive the ratio metrics while spans open and close."""
        step = self._intern("expansion.bcf_step")
        expand = self._intern("expansion.bcf_expand")
        floor = self._intern("fields.floor")
        recover = {
            self._intern("recovery.recover_cubic_pure"),
            self._intern("recovery.recover_cubic_eventual"),
        }
        clock = time.perf_counter_ns

        def step_open(frame, args):
            # Reading the state's height is charged to no span.
            t0 = clock()
            state = args[0]
            bits = max(_height_bits(state.alpha), _height_bits(state.beta))
            self.height_bits_max = max(self.height_bits_max, bits)
            self._stack[-1][2] += clock() - t0

        def step_close(frame, duration):
            parent = self._stack[-1]
            if parent[0] == expand:
                parent[5].append(duration)

        def expand_open(frame, args):
            frame[5] = []

        def expand_close(frame, duration):
            steps = frame[5]
            quarter = len(steps) // 4
            if quarter >= 4:
                self.early_ns.extend(steps[:quarter])
                self.late_ns.extend(steps[-quarter:])

        def inverse_open(frame, args):
            frame[5] = self._inside((step,))

        def inverse_close(frame, duration):
            if frame[5]:
                self.inverses_in_step += 1
                self.inverse_in_step_ns += duration

        def refine_close(frame, duration):
            if self._stack[-1][0] == floor:
                self.refines_in_floor += 1

        def gap_close(frame, duration):
            if self._inside(recover):
                self.gap_in_recover += 1

        def roots_open(frame, args):
            frame[5] = self._inside(recover)

        def roots_close(frame, duration):
            if frame[5]:
                self.rational_roots_in_recover_ns += duration

        for name, opener, closer in (
            ("expansion.bcf_step", step_open, step_close),
            ("expansion.bcf_expand", expand_open, expand_close),
            ("fields.inverse", inverse_open, inverse_close),
            ("fields.refine", None, refine_close),
            ("treeval.gap_diagnostics", None, gap_close),
            ("polys.rational_roots", roots_open, roots_close),
        ):
            nid = self._intern(name)
            if opener is not None:
                self._on_open[nid] = opener
            self._on_close[nid] = closer

    # -- patching -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, function, span name) for every traced binding."""
        for short in MODULES:
            module = sys.modules["bcf." + short]
            label = _label(module.__name__)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType):
                    # _kernels re-exports the kernel set it selected.
                    if value.__module__ == module.__name__ or short == "_kernels":
                        yield module, attr, value, f"{label}.{attr}"
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    yield from self._class_targets(value, label)

    @staticmethod
    def _class_targets(cls, label):
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue
                yield cls, attr, value, f"{label}.{cls.__name__}"
            elif attr in OPERATORS:
                yield cls, attr, value, f"{label}.{OPERATORS[attr]}"
            elif not attr.startswith("_"):
                yield cls, attr, value, f"{label}.{attr}"

    def install(self):
        """Wrap every traced function and rebind every name that refers to one."""
        import bcf.cli  # noqa: F401  (loads every traced module)

        wrappers = {}
        for owner, attr, func, name in self._targets():
            wrapper = wrappers.get(id(func))
            if wrapper is None:
                wrapper = wrappers[id(func)] = self._wrap(func, name)
                self.originals[id(func)] = func
            self._bind(owner, attr, func, wrapper)
        for module in self._bcf_modules():
            for attr, value in list(vars(module).items()):
                if self.originals.get(id(value)) is value:
                    self._bind(module, attr, value, wrappers[id(value)])

    def _bind(self, owner, attr, func, wrapper):
        setattr(owner, attr, wrapper)
        self._bound.append((owner, attr, func))

    def uninstall(self):
        """Restore every binding that install replaced."""
        for owner, attr, func in reversed(self._bound):
            setattr(owner, attr, func)
        self._bound.clear()

    @staticmethod
    def _bcf_modules():
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bcf" or n.startswith("bcf."))
        ]

    def unpatched(self):
        """Names in bcf modules or traced classes still bound to an original."""
        missed = []
        for module in self._bcf_modules():
            for attr, value in vars(module).items():
                if self.originals.get(id(value)) is value:
                    missed.append(f"{module.__name__}.{attr}")
                if isinstance(value, type) and value.__module__.startswith("bcf"):
                    for cattr, cvalue in vars(value).items():
                        if self.originals.get(id(cvalue)) is cvalue:
                            missed.append(f"{value.__qualname__}.{cattr}")
        return sorted(set(missed))

    # -- results --------------------------------------------------------

    def stat(self, name):
        """(calls, self ns, total ns) of one span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.self_ns[nid], self.total_ns[nid]

    def write_log(self, path):
        """Write the kept spans as JSON lines, the name table first."""
        with open(path, "w") as out:
            out.write(json.dumps({"fields": LOG_FIELDS, "names": self.names,
                                  "spans": self.spans}) + "\n")
            log = self.log
            width = len(LOG_FIELDS)
            for i in range(0, len(log), width):
                out.write(json.dumps(list(log[i:i + width])) + "\n")
