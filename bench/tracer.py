"""Span tracing of the package's public functions, installed from outside.

Each public function of the ten modules is rebound to a timing wrapper in
its defining module and in every package module that imported it by name;
``Kernel.__init__`` is wrapped as ``finstoch.kernel_init``.  The source is
never edited, and ``uninstall`` puts every original back.

A span is (name, start ns, end ns, parent span, op id), kept in one flat
``array`` while an op runs.  Self time is a span's duration minus the time
its child spans cover, so an op's self times sum to its root span.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "markov_bayes"
MODULES = (
    "finstoch", "conditioning", "ps", "paralens", "learning",
    "gauss", "sampling", "suites", "serialize", "cli",
)

#: Structural channels reported together as ``finstoch.structural``.
STRUCTURAL = (
    "identity", "copy", "swap", "left_unitor", "left_unitor_inv",
    "right_unitor", "right_unitor_inv", "associator", "associator_inv",
    "delta", "state",
)

ROOT = "op"
_FIELDS = 5  # name, start, end, parent, op


def public_functions(module):
    """``(attribute, function)`` for the callables a module defines."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


def span_name(module: str, attr: str) -> str:
    if module == "finstoch" and attr in STRUCTURAL:
        return "finstoch.structural"
    return f"{module}.{attr}"


class Tracer:
    """Records spans for calls made while an op is open."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.spans = array("q")
        self._stack = [-1]
        self.op = -1
        self.joint_channel_hits = 0
        self.den_bits_max = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in public_functions(mod):
                wrapped[id(fn)] = self._wrap(span_name(short, attr), self._hooked(short, attr, fn))
        kernel = mods["finstoch"].Kernel
        self._rebind(kernel, "__init__",
                     self._wrap("finstoch.kernel_init", kernel.__init__))
        package_mods = [importlib.import_module(PACKAGE), *mods.values()]
        for mod in package_mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not isinstance(obj, type):
                    self._rebind(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _hooked(self, module: str, attr: str, fn):
        """Add the counters a few functions feed, read from their results."""
        if module != "learning":
            return fn
        if attr == "joint_channel":
            def joint_channel(model):
                misses = fn.cache_info().misses
                result = fn(model)
                if self.op >= 0 and fn.cache_info().misses == misses:
                    self.joint_channel_hits += 1
                return result
            return joint_channel
        if attr == "sequential_update":
            return self._den_bits(fn, lambda trace: trace.final)
        if attr in ("batch_update_literal", "batch_update_factorized"):
            return self._den_bits(fn, lambda st: st)
        return fn

    def _den_bits(self, fn, posterior_of):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op >= 0:
                bits = max(p.denominator.bit_length() for p in posterior_of(result).probs)
                self.den_bits_max = max(self.den_bits_max, bits)
            return result
        return recorded

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.extend((name_id, 0, 0, stack[-1], self.op))
            stack.append(slot // _FIELDS)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[slot + 2] = clock()
                spans[slot + 1] = t0
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- recording -----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        slot = len(self.spans)
        self.spans.extend((0, 0, 0, -1, op_id))
        self._stack.append(slot // _FIELDS)
        self.spans[slot + 1] = time.perf_counter_ns()

    def end_op(self) -> None:
        slot = self._stack.pop() * _FIELDS
        self.spans[slot + 2] = time.perf_counter_ns()
        self.op = -1

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the wrappers."""
        del self.spans[:]
        self.joint_channel_hits = 0
        self.den_bits_max = 0

    # -- reading -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: ``calls``, ``self_ns`` and ``total_ns``; plus
        ``op_self_ns`` and ``op_total_ns`` keyed by op id."""
        s = self.spans
        names, starts, ends, parents, ops = (s[k::_FIELDS] for k in range(_FIELDS))
        child = [0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        op_self, op_total = Counter(), Counter()
        for i, nid in enumerate(names):
            name = self.names[nid]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_ns[name] += dur - child[i]
            total_ns[name] += dur
            op_self[ops[i]] += dur - child[i]
            if nid == 0:
                op_total[ops[i]] += dur
        return {"calls": calls, "self_ns": self_ns, "total_ns": total_ns,
                "op_self_ns": op_self, "op_total_ns": op_total}

    def write(self, path: Path) -> None:
        """Spans as JSON lines of ``[name, start_ns, end_ns, parent, op]``."""
        s = self.spans
        with path.open("w", encoding="utf-8") as fh:
            for k in range(0, len(s), _FIELDS):
                fh.write(json.dumps([self.names[s[k]], *s[k + 1:k + _FIELDS]]) + "\n")
