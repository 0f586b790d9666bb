"""The four workloads: seeded inputs, the timed operations and their checks.

A workload holds a fixed cycle of operations.  The benchmark calls run()
on them in order, one at a time, and after the timed phase hands every
distinct result to check(), which returns the wrong units (batch lines)
and the group equalities the Dehn oracle must confirm.  Between them, the
oracle's own throughput is timed on oracle_items().  Inputs depend only
on the seed; their sizes are fixed by the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import NamedTuple

import inputs
from reference import (
    inverse,
    is_least_rotation,
    parse_output_word,
    power_certificate,
)


class Op(NamedTuple):
    kind: str
    genus: int
    args: tuple
    units: int = 1      # operations this call accounts for (batch lines)
    expect: object = None  # answer known from the construction, if any


class Workload:
    name = ""
    genera: tuple = ()
    trace_oracle = False  # the oracle is what the workload measures, so trace it too
    oracle_share = 0.2  # share of the measured time given to oracle decisions

    def __init__(self, sg, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        ctx = {g: sg.group_core.GroupContext(g) for g in self.genera}
        self.ops = self.generate(sg, ctx)
        self.oracle_pairs = [(g, x, inputs.insert_relators(self.rng, x, ctx[g].relator_table))
                             for g, x in self.oracle_words()]

    def setup(self, sg):
        """Bind the freshly imported package and build this workload's contexts."""
        self.sg = sg
        self.ctx = {g: sg.group_core.GroupContext(g) for g in self.genera}

    def generate(self, sg, ctx) -> list:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result):
        """(set of wrong line indices, [(line, u, v)] that must be equal)."""
        raise NotImplementedError

    def oracle_words(self):
        """(genus, word) of each distinct input word, for the oracle's pairs."""
        return list(dict.fromkeys((op.genus, op.args[0]) for op in self.ops))

    def oracle_items(self):
        """(argument, expected verdict) for the timed oracle decisions: each
        input word against itself with relator rotations inserted."""
        return [((g, u, v), True) for g, u, v in self.oracle_pairs]

    def decide(self, arg) -> bool:
        genus, u, v = arg
        return self.sg.oracle.dehn_equal(self.ctx[genus], u, v)

    def dnf(self, genus: int, w):
        return self.sg.rewrite.d_basis_normalize(self.ctx[genus], w)


class CliBatch(Workload):
    """Batch files of short words through surfgroup.cli.main, in-process."""

    name = "cli-batch"
    genera = (2, 4, 16)
    lines_per_file = 24
    files_per_kind = 8

    def generate(self, sg, ctx):
        ops = []
        for rep in range(self.files_per_kind):
            for g in self.genera:
                for cmd in ("nf", "class-nf", "conj"):
                    for fmt in ("text", "json"):
                        rows = [self._row(sg, ctx[g], g, cmd, i)
                                for i in range(self.lines_per_file)]
                        path = os.path.join(self.workdir, f"{cmd}-g{g}-{fmt}-{rep}.txt")
                        with open(path, "w", encoding="utf-8") as fh:
                            for words, _ in rows:
                                fh.write("\t".join(sg.group_core.format_word(w)
                                                   for w in words) + "\n")
                        ops.append(Op("cli", g, (cmd, fmt, path, [w for w, _ in rows]),
                                      self.lines_per_file, [e for _, e in rows]))
        return ops

    def oracle_words(self):
        # one word per batch file, its lines' first words in a row, so that an
        # oracle decision is not so short that timing it costs more than it
        return [(op.genus, inputs.free_reduce(sum((row[0] for row in op.args[3]), ())))
                for op in self.ops]

    def _nontrivial(self, sg, ctx, g2, lo, hi):
        while True:
            x = inputs.random_word(self.rng, g2, self.rng.randint(lo, hi))
            if sg.rewrite.nf(ctx, x):
                return x

    def _row(self, sg, ctx, g, cmd, i):
        g2 = 2 * g
        rng = self.rng
        if cmd == "nf":
            return (inputs.random_word(rng, g2, rng.randint(8, 24)),), None
        if cmd == "class-nf":
            return (self._nontrivial(sg, ctx, g2, 6, 16),), None
        z = inputs.random_word(rng, g2, rng.randint(2, 6))
        if i % 2 == 0:
            x = self._nontrivial(sg, ctx, g2, 6, 12)
            return (x, inputs.free_reduce(z + x + inverse(z))), True
        if i % 4 == 1:
            # a nontrivial commutator is never conjugate to its inverse
            while True:
                x = inputs.commutator(rng, ctx.relator_table, rng.randint(8, 12))
                if sg.rewrite.nf(ctx, x):
                    return (x, inputs.free_reduce(z + inverse(x) + inverse(z))), False
        x = self._nontrivial(sg, ctx, g2, 6, 12)
        while True:
            y = inputs.random_word(rng, g2, rng.randint(6, 12))
            if inputs.abelian(y, g2) != inputs.abelian(x, g2):
                return (x, y), False

    def run(self, op):
        cmd, fmt, path, _ = op.args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sg.cli.main([cmd, "-g", str(op.genus), "--format", fmt,
                                     "--file", path])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _answers(cmd, fmt, out, n):
        """Per-line answers, None for a line the CLI reported as an error."""
        if fmt == "json":
            answers = []
            for doc in json.loads(out):
                if "error" in doc:
                    answers.append(None)
                elif cmd == "nf":
                    answers.append((doc["result"], doc["length"]))
                elif cmd == "class-nf":
                    cert = doc["certificate"]
                    answers.append((cert["class_nf"], cert["conjugator"],
                                    cert["exceptional"]))
                else:
                    res = doc["result"]
                    answers.append((res["conjugate"], res.get("conjugator")))
            return answers
        lines = out.splitlines()
        if not lines or not lines[-1].startswith(f"processed {n} "):
            return [None] * n
        answers = []
        for line in lines[:-1]:
            parts = line.split("; ")
            if line.startswith("line ") and ": error: " in line:
                answers.append(None)
            elif cmd == "nf":
                answers.append((parts[0], int(parts[1].removeprefix("length "))))
            elif cmd == "class-nf":
                answers.append((parts[0], parts[1].removeprefix("conjugator "),
                                parts[2] == "exceptional yes"))
            else:
                yes = parts[0] == "conjugate: yes"
                answers.append((yes, parts[1].removeprefix("conjugator ") if yes else None))
        return answers

    def check(self, op, result):
        cmd, fmt, _, rows = op.args
        _code, out, _ = result
        n = len(rows)
        try:
            answers = self._answers(cmd, fmt, out, n)
        except (ValueError, KeyError, IndexError, TypeError):
            return set(range(n)), []
        if len(answers) != n:
            return set(range(n)), []
        bad, pairs = set(), []
        for i, (words, answer, expect) in enumerate(zip(rows, answers, op.expect)):
            try:
                ok, line_pairs = self._check_line(cmd, op.genus, words, answer, expect)
            except (ValueError, KeyError, IndexError, TypeError):
                ok, line_pairs = False, []
            if not ok:
                bad.add(i)
            pairs += [(i, u, v) for u, v in line_pairs]
        return bad, pairs

    def _check_line(self, cmd, g, words, answer, expect):
        if answer is None:
            return False, []
        x = words[0]
        if cmd == "nf":
            w = parse_output_word(answer[0])
            return w == self.dnf(g, x) and answer[1] == len(w), [(x, w)]
        if cmd == "class-nf":
            c, z = parse_output_word(answer[0]), parse_output_word(answer[1])
            conj = z + x + inverse(z)
            ok = bool(c) and self.dnf(g, conj) == c and is_least_rotation(2 * g, c, answer[2])
            return ok, [(conj, c)]
        y = words[1]
        if answer[0] != expect:
            return False, []
        if not answer[0]:
            return True, []
        z = parse_output_word(answer[1])
        conj = z + y + inverse(z)
        return self.dnf(g, conj) == self.dnf(g, x), [(conj, x)]


def _check_class(wl, g, x, cert, must_be_exceptional=False):
    c, z = cert.class_nf, cert.conjugator
    ok = (bool(c) and wl.dnf(g, c) == c
          and is_least_rotation(2 * g, c, cert.exceptional)
          and (cert.exceptional or not must_be_exceptional))
    return ok, [(z + x + inverse(z), c)]


class LongConjugacy(Workload):
    """class_nf and are_conjugate on long random elements and long conjugators."""

    name = "long-conjugacy"
    genera = (2, 3)
    sizes = (600, 1200, 800, 1000)

    def generate(self, sg, ctx):
        ops = []
        # each size appears at both genera and with both verdicts, and the
        # sizes and verdicts alternate, so that a run cut short mid-cycle
        # still sees a balanced mix
        for k in range(2 * len(self.sizes)):
            n = self.sizes[k % 4]
            g = self.genera[(k // 4 + k // 2) % 2]
            positive = (k + k // 4) % 2 == 0
            table = ctx[g].relator_table
            z = inputs.dehn_reduced_word(self.rng, table, n)
            if positive:
                x = inputs.dehn_reduced_word(self.rng, table, n, cyclic=True)
                y = z + x + inverse(z)
            else:
                # x in the commutator subgroup: same abelianization as
                # x^-1, which no nontrivial element is conjugate to
                x = inputs.commutator(self.rng, table, n)
                y = z + inverse(x) + inverse(z)
            ops.append(Op("class_nf", g, (x,)))
            ops.append(Op("conj", g, (x, y), 1, positive))
        return ops

    def run(self, op):
        ctx = self.ctx[op.genus]
        if op.kind == "class_nf":
            return self.sg.conjugacy.class_nf(ctx, op.args[0])
        return self.sg.conjugacy.are_conjugate(ctx, *op.args)

    def check(self, op, result):
        g = op.genus
        if op.kind == "class_nf":
            ok, pairs = _check_class(self, g, op.args[0], result)
            return set() if ok else {0}, [(0, u, v) for u, v in pairs]
        x, y = op.args
        if (result is not None) != op.expect:
            return {0}, []
        if result is None:
            return set(), []
        return set(), [(0, result + y + inverse(result), x)]


class PowersSpecial(Workload):
    """nf_power, tau, root and class_nf on the special shapes and exceptional cores."""

    name = "powers-special"
    genera = (2, 3)
    sizes = (150, 300, 600, 1200)
    shapes = ("A", "B", "C", "exceptional")
    power_letters = 120_000  # k is chosen so that |x^k| is about this long

    def generate(self, sg, ctx):
        ops = []
        n = len(self.shapes)
        for j in range(n):
            for i, shape in enumerate(self.shapes):
                size = self.sizes[(i + j) % n]
                g = self.genera[(i + j) % 2]
                x = inputs.special(self.rng, ctx[g], sg.rewrite.nf, shape, size)
                k = max(3, self.power_letters // len(x))
                r = 2 + j % 2
                ops += [Op("nf_power", g, (x, k)),
                        Op("tau", g, (x,)),
                        Op("root", g, (x * r, r, shape, x)),
                        Op("class_nf", g, (x, shape))]
        return ops

    def oracle_words(self):
        return [(op.genus, op.args[0]) for op in self.ops if op.kind == "tau"]

    def run(self, op):
        ctx = self.ctx[op.genus]
        x = op.args[0]
        if op.kind == "nf_power":
            return self.sg.powers.nf_power(ctx, x, op.args[1])
        if op.kind == "tau":
            return self.sg.powers.translation_number(ctx, x)
        if op.kind == "root":
            return self.sg.conjugacy.root(ctx, x)
        return self.sg.conjugacy.class_nf(ctx, x)

    def check(self, op, result):
        g = op.genus
        if op.kind == "nf_power":
            x, k = op.args
            pairs = power_certificate(result, x, k)
            ok = pairs is not None and self.dnf(g, x) == x and self.dnf(g, result) == result
        elif op.kind == "tau":
            # nf(x^2) is taken from the engine as a witness and certified here
            x = op.args[0]
            sq = self.sg.powers.nf_power(self.ctx[g], x, 2)
            ok = (self.dnf(g, x) == x and self.dnf(g, sq) == sq
                  and result == len(sq) - len(x))
            pairs = [(sq, x * 2)]
        elif op.kind == "root":
            xr, r, shape, x = op.args
            e = result.exponent
            ok = bool(result.root) and e % r == 0
            if shape == "exceptional":
                ok = ok and e == r * len(x) // (2 * g - 1)
            pairs = [(result.root * e, xr)]
        else:
            x, shape = op.args
            ok, pairs = _check_class(self, g, x, result, shape == "exceptional")
        return (set() if ok else {0}), [(0, u, v) for u, v in pairs or ()]


class WordProblem(Workload):
    """Equality of long words, decided by nf and by the Dehn oracle."""

    name = "word-problem"
    genera = (2, 8, 64)
    sizes = (4000, 8000)
    trace_oracle = True
    oracle_share = 1 / 2

    def setup(self, sg):
        super().setup(sg)
        self.canonical = {g: sg.presentations.canonical_descriptor(g) for g in self.genera}

    def generate(self, sg, ctx):
        ops = []
        idx = 0
        for rep in range(2):
            for equal in (True, False):
                for g in self.genera:
                    for n in self.sizes:
                        # half the equal pairs, a quarter of all, one per genus
                        # and size: translating a changed letter changes the
                        # whole rest of the word, which would make the oracle's
                        # work on an unequal pair swing with the draw
                        canonical = equal and (idx + idx // 2 + rep) % 2 == 1
                        idx += 1
                        g2 = 2 * g
                        rels = (inputs.canonical_relators(g) if canonical
                                else list(ctx[g].relator_table))
                        u = inputs.dehn_reduced_word(self.rng, ctx[g].relator_table,
                                                     round(n / 1.1))
                        v = inputs.insert_relators(self.rng, u, rels)
                        if not equal:
                            v = inputs.change_one_letter(self.rng, v, g2)
                        ops.append(Op("equal", g, (u, v, canonical), 1, equal))
        return ops

    def _translated(self, op):
        u, v, canonical = op.args
        if canonical:
            tr = self.sg.presentations.translate
            d = self.canonical[op.genus]
            return tr(d, u), tr(d, v)
        return u, v

    def run(self, op):
        ctx = self.ctx[op.genus]
        u, v = self._translated(op)
        nf = self.sg.rewrite.nf
        return nf(ctx, u) == nf(ctx, v)

    def oracle_words(self):
        return []

    def oracle_items(self):
        """The input pairs the engine decides."""
        return [(op, op.expect) for op in self.ops]

    def decide(self, op):
        return self.sg.oracle.dehn_equal(self.ctx[op.genus], *self._translated(op))

    def check(self, op, result):
        return (set() if result == op.expect else {0}), []


WORKLOADS = {cls.name: cls for cls in (CliBatch, LongConjugacy, PowersSpecial, WordProblem)}
