"""Doubling sweep over input sizes, run under the tracer.

For each layer the sweep times one entry point at four input sizes that
double, takes the median of a few calls per size, and fits the log-log
slope, so that a quadratic path reads as a slope near 2.  The sweep uses
genus 2 throughout and its own seeded inputs.
"""

from __future__ import annotations

import random
import statistics

import inputs
from tracing import Tracer, loglog_slope, per_op_ns

REPEATS = 3


def _random(rng, sg, ctx, n):
    return ctx, inputs.random_word(rng, 4, n)


def _type_a(rng, sg, ctx, n):
    return ctx, inputs.special(rng, ctx, sg.rewrite.nf, "A", n)


def _core(rng, sg, ctx, n):
    return ctx, inputs.random_word(rng, 4, n, cyclic=True)


def _with_relators(rng, sg, ctx, n):
    base = inputs.random_word(rng, 4, round(n / 1.1))
    return ctx, inputs.insert_relators(rng, base, ctx.relator_table)


# span measured, self time only, sizes, input builder, module, entry point
FAMILIES = (
    ("rewrite.normalize", False, (2000, 4000, 8000, 16000), _random, "rewrite", "nf"),
    ("powers.power_decompose", False, (150, 300, 600, 1200), _type_a,
     "powers", "power_decompose"),
    ("conjugacy.class_nf", True, (100, 200, 400, 800), _core, "conjugacy", "class_nf"),
    ("oracle.dehn_reduce", False, (1000, 2000, 4000, 8000), _with_relators,
     "oracle", "dehn_reduce"),
)


def run_sweep(sg, seed: int):
    """(slopes, per-size medians in ns)."""
    rng = random.Random(f"sweep:{seed}")
    ctx = sg.group_core.GroupContext(2)
    calls = []
    for span, _self, sizes, build, mod, attr in FAMILIES:
        module = getattr(sg, mod)
        if hasattr(module, attr):  # a family whose entry point is gone is left out
            calls += [(span, n, module, attr, build(rng, sg, ctx, n)) for n in sizes] * REPEATS
    tracer = Tracer()
    tracer.install()
    try:
        for span, _n, module, attr, args in calls:
            # looked up now, so that the call goes through the installed wrapper
            tracer.call(f"sweep.{span}", getattr(module, attr), *args)
    finally:
        tracer.uninstall()
    slopes, points = {}, {}
    for span, self_time, sizes, *_ in FAMILIES:
        times = per_op_ns(tracer.spans, span, self_time)
        by_size = {n: [] for n in sizes}
        for op, (name, n, *_) in enumerate(calls):
            if name == span:
                by_size[n].append(times.get(op, 0))
        if not all(by_size.values()):
            continue
        points[span] = {n: statistics.median(v) for n, v in by_size.items()}
        if all(points[span].values()):
            slopes[span] = loglog_slope(list(points[span].items()))
    return slopes, points
