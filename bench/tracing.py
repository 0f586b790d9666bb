"""Spans around the package's public calls, kept in memory.

Tracer.install() replaces each target function by a wrapper wherever a
module of the package binds it (the defining module and every module
that imported it), so calls made inside the package are seen as well as
the benchmark's own.  A span is (name, start_ns, end_ns, parent, op,
letters): parent is the index of the enclosing span or -1, op the
benchmark operation it belongs to, letters the input size where the
target has one.  Nothing is written until the run ends.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns


def _second_len(args, result):
    return len(args[1])


# span name, defining module, attribute, size of the work
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("group_core.GroupContext", "group_core", "GroupContext", None),
    ("group_core.parse_word", "group_core", "parse_word", lambda a, r: len(r)),
    ("group_core.format_word", "group_core", "format_word", lambda a, r: len(a[0])),
    ("rewrite.normalize", "rewrite", "normalize", _second_len),
    ("rewrite.nf", "rewrite", "nf", None),
    ("rewrite.is_cyclically_irreducible", "rewrite", "is_cyclically_irreducible", None),
    ("powers.power_decompose", "powers", "power_decompose", None),
    ("powers.nf_power", "powers", "nf_power", None),
    ("powers.translation_number", "powers", "translation_number", None),
    ("conjugacy.class_nf", "conjugacy", "class_nf", None),
    ("conjugacy.are_conjugate", "conjugacy", "are_conjugate", None),
    ("conjugacy.root", "conjugacy", "root", None),
    ("conjugacy.verify", "conjugacy", "_verify_conjugation", None),
    ("oracle.dehn_equal", "oracle", "dehn_equal", None),
    ("oracle.dehn_reduce", "oracle", "dehn_reduce", _second_len),
    ("presentations.translate", "presentations", "translate", _second_len),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._op = -1
        self._patched: list = []
        self.absent: list = []

    def _wrap(self, name, fn, size, root=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack[-1] < 0 and not root:  # outside any benchmark operation
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                n = size(args, result) if size and result is not None else 0
                spans[idx] = (name, t0, t1, parent, self._op, n)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args):
        """Run one benchmark operation as a root span."""
        self._op += 1
        return self._wrap(name, fn, None, root=True)(*args)

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == "surfgroup" or key.startswith("surfgroup.")]
        for name, home, attr, size in TARGETS:
            fn = getattr(sys.modules.get(f"surfgroup.{home}"), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, size)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tletters\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def _span_tree(spans):
    """Per span: the time its child spans cover, and whether no enclosing
    span has the same name."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    outermost = []
    for name, _t0, _t1, parent, *_ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        outermost.append(parent < 0)
    return child, outermost


def layer_totals(spans):
    """Per span name: calls, inclusive ns (outermost only), self ns, letters.

    Also returns the summed duration of the root spans, the operations.
    """
    child, outermost = _span_tree(spans)
    totals = defaultdict(lambda: [0, 0, 0, 0])
    root_ns = 0
    for i, (name, t0, t1, parent, _op, n) in enumerate(spans):
        dur = t1 - t0
        t = totals[name]
        t[0] += 1
        t[2] += dur - child[i]
        t[3] += n
        if outermost[i]:
            t[1] += dur
        if parent < 0:
            root_ns += dur
    return totals, root_ns


def per_op_ns(spans, name, self_time):
    """Time of `name` inside each operation: op -> ns (self, or inclusive of
    its outermost spans)."""
    child, outermost = _span_tree(spans)
    out = defaultdict(int)
    for i, (n, t0, t1, _parent, op, _) in enumerate(spans):
        if n == name and (self_time or outermost[i]):
            out[op] += t1 - t0 - (child[i] if self_time else 0)
    return out


def loglog_slope(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
