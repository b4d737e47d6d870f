"""Span tracing of the gge_thermo layers from outside the package.

``Tracer.install`` wraps every public function of the traced modules (and a
few named methods) and rebinds each wrapper wherever the original is bound:
module globals of every ``gge_thermo`` module, values of module-level dicts
such as ``cli.COMMANDS``, and the class attribute for methods.  ``restore``
puts every original back.  The package source is never edited.

Spans live in memory: one stack per thread, finished spans in one list,
each ``(sid, name, start, end, parent, op, thread, end_seq)``.  ``sid`` and
``end_seq`` come from one shared counter, so sorting events by
``(time, seq)`` reproduces each thread's call order exactly.  A span opened
on a thread with no open span (a scan cell on a pool thread) takes the main
thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

MODULES = ("hermitian", "fermions", "dense", "protocols", "cli")

# Methods traced besides each module's public functions: module -> {class: method}.
METHODS = {"fermions": {"QuadraticHamiltonian": "__init__"}, "protocols": {"Trajectory": "sample"}}

_MARK = "__perfbench_traced__"


def _csv_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# Extra counters measured at a span's end: span name -> (counter name, hook).
COUNTERS = {"cli.write_csv": ("cli.write_csv.bytes", _csv_bytes)}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._seq = itertools.count()
        self._local = threading.local()
        self._local.stack = self._main_stack = []
        self._patched: list[tuple] = []   # (setter, original)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, local, seq, main = self.spans, self._local, self._seq, self._main_stack
        clock, tracer = time.perf_counter, self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main[-1]
                except IndexError:
                    parent = -1
            sid = next(seq)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tracer.op,
                               threading.get_ident(), next(seq)))
                if counter is not None:
                    tracer.counters[counter[0]] += counter[1](args, kwargs)

        setattr(traced, _MARK, name)
        return traced

    def _targets(self):
        """(span name, original, owner, attribute) for everything traced."""
        package = sys.modules["gge_thermo"]
        for short in MODULES:
            mod = getattr(package, short)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == mod.__name__:
                    yield f"{short}.{attr}", fn, None, None
            for cls_name, meth in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    name = f"{short}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                    yield name, vars(cls)[meth], cls, meth

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "gge_thermo" or key.startswith("gge_thermo.")]
        for name, fn, owner, attr in self._targets():
            wrapper = self._wrap(name, fn)
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._patched.append((functools.partial(setattr, owner, attr), fn))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((functools.partial(setattr, mod, key), fn))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapper
                                self._patched.append((functools.partial(value.__setitem__, k), fn))

    def restore(self) -> None:
        for setter, original in reversed(self._patched):
            setter(original)
        self._patched.clear()


def leftover_wrappers() -> list[str]:
    """Locations in the package that still hold a tracing wrapper."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if not (key == "gge_thermo" or key.startswith("gge_thermo.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{key}.{attr}")
            elif isinstance(value, dict):
                found += [f"{key}.{attr}[{k!r}]" for k, v in value.items() if hasattr(v, _MARK)]
            elif isinstance(value, type):
                found += [f"{key}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, _MARK)]
    return found


def self_times(spans) -> dict[int, float]:
    """Self time per span id, as a share of wall-clock time.

    A span is self-active while it is the innermost open span of its thread
    and none of its children on other threads is open.  Each stretch of
    time is split evenly among the spans self-active during it, so the self
    times of all spans sum to at most the wall time they cover, however many
    threads run at once.
    """
    thread_of = {s[0]: s[6] for s in spans}
    events = []
    for s in spans:
        events.append((s[2], s[0], s))
        events.append((s[3], s[7], s))
    events.sort(key=lambda e: (e[0], e[1]))
    stacks: dict[int, list] = defaultdict(list)
    remote_open: Counter = Counter()
    own: dict[int, float] = defaultdict(float)
    active: list = []
    last = events[0][0] if events else 0.0
    for t, seq, s in events:
        if active:
            share = (t - last) / len(active)
            for sid in active:
                own[sid] += share
        last = t
        sid, parent, tid = s[0], s[4], s[6]
        remote = thread_of.get(parent, tid) != tid
        if seq == sid:
            stacks[tid].append(sid)
            remote_open[parent] += remote
        else:
            stacks[tid].pop()
            remote_open[parent] -= remote
        active = [st[-1] for st in stacks.values() if st and not remote_open[st[-1]]]
    return own


def summarize(spans, counters, workers: int) -> dict:
    """Per-name calls and self seconds, per-module self seconds, counters
    and the scan parallel efficiency of one traced pass."""
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s[1]] += 1
        self_s[s[1]] += own.get(s[0], 0.0)
    modules = {m: sum(v for k, v in self_s.items() if k.split(".", 1)[0] == m) for m in MODULES}

    # Scan cells are the spans opened on a pool thread under a min_work_scan span.
    by_id = {s[0]: s for s in spans}
    scans = {s[0]: s for s in spans if s[1] == "protocols.min_work_scan"}
    cell_time = sum(s[3] - s[2] for s in spans
                    if s[4] in scans and by_id[s[4]][6] != s[6])
    scan_time = sum(s[3] - s[2] for s in scans.values())
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "module_self_s": modules,
        "counters": dict(counters),
        "parallel_eff": cell_time / (workers * scan_time) if scan_time > 0 else 0.0,
    }


def write_spans(path, spans) -> None:
    """Gzipped tab-separated dump of one pass's spans, in start order."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("sid\tparent\top\tthread\tname\tstart\tend\n")
        for s in sorted(spans, key=lambda s: s[0]):
            fh.write(f"{s[0]}\t{s[4]}\t{s[5]}\t{s[6]}\t{s[1]}\t{s[2]:.9f}\t{s[3]:.9f}\n")
