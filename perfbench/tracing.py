"""Span tracing of the asymcodes layers, applied from outside the package.

`Tracer.install` replaces each traced public function with a wrapper in
every asymcodes module namespace that holds it, so calls one module makes
into another (``construct_even -> corrects_t_errors``,
``simulate_channel -> decode_asymmetric``, ``cli.main -> is_t_code``) are
recorded as well as the benchmark's own calls.  Spans are kept in memory,
written out once at the end, and reduced to per-function
``calls``/``busy_s``/``self_s``/``items`` by `derive`.

The package itself is not modified: `uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

_now = time.perf_counter_ns


def _size_in(args, out):
    return len(args[0])


def _size_out(args, out):
    return len(out)


def _one(args, out):
    return 1


def _rows(args, out):
    return len(out["rows"])


def _trials(args, out):
    return out.trials


def _simulate_name(args, kwargs):
    ch = args[1] if len(args) > 1 else kwargs["ch"]
    pure_z = all(g.q == 2 and g.edges == frozenset({(1, 0)}) for g in ch.coordinates)
    return "channels.simulate_channel_z" if pure_z else "channels.simulate_channel_q"


# (module, attribute, span name, items counter).  A callable span name picks
# the name from the call's arguments.
FUNCTIONS = (
    ("groups", "cr_code", "groups.cr_code", _size_out),
    ("linearq", "codewords_of", "linearq.codewords_of", _size_out),
    ("cyclic", "enumerate_orbits", "cyclic.enumerate_orbits", _size_out),
    ("words", "CodeBook.from_symbols", "words.CodeBook.from_symbols", _size_out),
    ("ternary", "construct_even", "ternary.construct_even", _size_out),
    ("ternary", "construct_extended", "ternary.construct_extended", _size_out),
    ("ternary", "construct_odd_mixed", "ternary.construct_odd_mixed", _size_out),
    ("ternary", "is_ternary_code", "ternary.is_ternary_code", _size_in),
    ("words", "is_t_code", "words.is_t_code", _size_in),
    ("words", "min_asym_distance", "words.min_asym_distance", _size_in),
    ("words", "is_lm_code", "words.is_lm_code", _size_in),
    ("channels", "corrects_t_errors", "channels.corrects_t_errors", _size_in),
    ("channels", "simulate_channel", _simulate_name, _trials),
    ("words", "decode_asymmetric", "words.decode_asymmetric", _one),
    ("linearq", "decode_concat", "linearq.decode_concat", _one),
    ("bounds", "table1_report", "bounds.table1_report", _rows),
    ("bounds", "table2_report", "bounds.table2_report", _rows),
    ("bounds", "is_perfect", "bounds.is_perfect", _size_in),
    ("io", "write_code_file", "io.write_code_file", _size_in),
    ("io", "parse_code_file", "io.parse_code_file", _size_out),
    ("cli", "main", "cli.main", _one),
)

# Span names the workloads open themselves around `search_cyclic` and
# `search_extended`, by the role of the instance.
SEARCH_SPANS = ("cyclic.search_greedy", "cyclic.search_exact", "cyclic.search_budgeted")

# Every span name reported as a per-layer metric, in report order.
LAYER_SPANS = (
    "groups.cr_code",
    "linearq.codewords_of",
    "cyclic.enumerate_orbits",
    "words.CodeBook.from_symbols",
    "ternary.construct_even",
    "ternary.construct_extended",
    "ternary.construct_odd_mixed",
    "ternary.is_ternary_code",
    "words.is_t_code",
    "words.min_asym_distance",
    "words.is_lm_code",
    "channels.corrects_t_errors",
    *SEARCH_SPANS,
    "channels.simulate_channel_z",
    "channels.simulate_channel_q",
    "words.decode_asymmetric",
    "linearq.decode_concat",
    "bounds.table1_report",
    "bounds.table2_report",
    "bounds.is_perfect",
    "io.write_code_file",
    "io.parse_code_file",
    "cli.main",
)

LAYER_FIELDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("items", "count"))


class NullTracer:
    """Stand-in used with tracing off: spans cost one no-op context manager."""

    @contextlib.contextmanager
    def span(self, name):
        yield None

    def add_items(self, span, n):
        pass


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index, items]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][1] = _now()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def add_items(self, span: int, n: int):
        self.spans[span][4] += n

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx)
            self.spans[idx][4] = count(args, out)
            return out

        return traced

    def install(self):
        """Swap every traced function for its wrapper in all asymcodes modules."""
        modules = [m for k, m in sys.modules.items() if k == "asymcodes" or k.startswith("asymcodes.")]
        for mod_name, attr, name, count in FUNCTIONS:
            mod = sys.modules[f"asymcodes.{mod_name}"]
            if attr == "CodeBook.from_symbols":
                cls = mod.CodeBook
                original = cls.__dict__["from_symbols"]
                cls.from_symbols = classmethod(self._wrap(original.__func__, name, count))
                self._undo.append((cls, "from_symbols", original))
                continue
            original = getattr(mod, attr)
            traced = self._wrap(original, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._undo.append((m, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_ns", "end_ns", "parent", "items"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def load(path: str) -> list[list]:
    with open(path) as f:
        doc = json.load(f)
    names = doc["names"]
    return [[names[s[0]], s[1], s[2], s[3], s[4]] for s in doc["spans"]]


def derive(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy_s (outermost spans of that name only, so
    recursion is not counted twice), self_s (duration minus the time its
    direct children cover) and items."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, items) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0})
        rec["calls"] += 1
        rec["items"] += items
        rec["self_s"] += (end - start - child_ns[i]) / 1e9
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["busy_s"] += (end - start) / 1e9
    return out
