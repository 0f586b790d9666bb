"""Dehn-algorithm oracles and the exhaustive ball enumerator."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    _long_run_reference,
    all_words,
    chain_forward_reference,
    dehn_reduce_cyclic_reference,
    dehn_reduce_reference,
    entry_at,
    random_freely_reduced,
    random_nontrivial,
    random_relator_heavy,
)
from surfgroup import oracle
from surfgroup.conjugacy import are_conjugate
from surfgroup.group_core import DomainError, GroupContext, abelianize, free_reduce, invert_word
from surfgroup.oracle import (
    DehnForm,
    dehn_conjugate,
    dehn_equal,
    dehn_reduce,
    dehn_reduce_cyclic,
)
from surfgroup.rewrite import _ball_size_floor, enumerate_ball, is_irreducible, nf


def has_long_run(ctx, w):
    threshold = ctx.n_gens + 1
    return any(
        chain_forward_reference(ctx, w, p, ctx.alphabet_size)[0] >= threshold
        for p in range(len(w))
    )


def test_dehn_reduce_examples(ctx2):
    assert dehn_reduce(ctx2, ctx2.relator) == DehnForm((), True)
    assert dehn_reduce(ctx2, (1, 2, 3, 4, -1, -2)) == DehnForm((4, 3), True)
    assert dehn_reduce(ctx2, (4, 3, 2)) == DehnForm((4, 3, 2), True)
    assert dehn_reduce(ctx2, (1, 2, -1)) == DehnForm((1, 2, -1), False)


def test_dehn_reduce_structure(ctx2, ctx3):
    rng = random.Random(201)
    for ctx in (ctx2, ctx3):
        for _ in range(80):
            w = random_freely_reduced(ctx, rng.randrange(0, 20), rng)
            form = dehn_reduce(ctx, w)
            out = form.word
            assert free_reduce(out) == out
            assert not has_long_run(ctx, out)
            assert dehn_reduce(ctx, out).word == out
            assert abelianize(ctx, out) == abelianize(ctx, w)
            assert dehn_equal(ctx, w, out)


def test_dehn_reduce_cyclic(ctx2):
    rng = random.Random(203)
    for _ in range(80):
        w = random_freely_reduced(ctx2, rng.randrange(0, 16), rng)
        out = dehn_reduce_cyclic(ctx2, w)
        assert dehn_reduce(ctx2, out) == DehnForm(out, True)
        assert abelianize(ctx2, out) == abelianize(ctx2, w)
        assert dehn_conjugate(ctx2, w, out)


def test_dehn_equal_is_engine_equality(ctx2, ctx3):
    rng = random.Random(207)
    for ctx in (ctx2, ctx3):
        for _ in range(120):
            u = random_freely_reduced(ctx, rng.randrange(0, 12), rng)
            if rng.random() < 0.5:
                # equal pair: splice a whole relator rotation into u
                E = ctx.relator_table[rng.randrange(len(ctx.relator_table))]
                cut = rng.randrange(len(u) + 1)
                v = u[:cut] + E + u[cut:]
            else:
                v = random_freely_reduced(ctx, rng.randrange(0, 12), rng)
            assert dehn_equal(ctx, u, v) == (nf(ctx, u) == nf(ctx, v))


def test_dehn_conjugate_agrees_with_engine(ctx2):
    rng = random.Random(211)
    for _ in range(60):
        u = random_nontrivial(ctx2, 8, rng)
        if rng.random() < 0.5:
            w = random_nontrivial(ctx2, 5, rng)
            v = nf(ctx2, w + u + invert_word(w))
        else:
            v = random_nontrivial(ctx2, 8, rng)
        assert dehn_conjugate(ctx2, u, v) == (are_conjugate(ctx2, u, v) is not None)


def test_dehn_conjugate_edges(ctx2):
    assert dehn_conjugate(ctx2, (), ctx2.relator)
    assert not dehn_conjugate(ctx2, (), (1,))
    assert not dehn_conjugate(ctx2, (1,), (2,))
    assert dehn_conjugate(ctx2, (1, 2), (2, 1))  # rotation


def word_problem_word(ctx, n, rng, changed):
    """u.v^-1 with v = u plus relator-table entries inserted, and with one
    letter of v changed when `changed`, as a word-problem pair reaches
    dehn_equal."""
    u = random_freely_reduced(ctx, n, rng)
    v = list(u)
    for _ in range(1 + n // 20):
        cut = rng.randrange(len(v) + 1)
        v[cut:cut] = rng.choice(ctx.relator_table)
    if changed:
        i = rng.randrange(len(v))
        v[i] = rng.choice([a for a in ctx.letters if a != v[i]])
    return u + invert_word(tuple(v))


@pytest.mark.parametrize("genus", [2, 3, 5, 8, 16, 64])
def test_dehn_reduce_matches_the_rescanning_reference(genus, monkeypatch):
    """The resuming scan returns the reference's DehnForm, flag included,
    at the default window and at the narrowest, and dehn_reduce_cyclic
    returns the reference's word."""
    ctx = GroupContext(genus)
    rng = random.Random(800 + genus)
    n4 = ctx.alphabet_size
    # the reference is quadratic, so fewer and shorter words at high genus
    count = 150 if genus <= 3 else 25
    size = min(12 * n4, 600)
    words = [random_relator_heavy(ctx, rng.randrange(0, size), rng) for _ in range(count)]
    words += [E * k for E in rng.sample(ctx.relator_table, 4) for k in range(1, 5)]
    words += [word_problem_word(ctx, rng.randrange(1, size // 2), rng, changed)
              for changed in (False, True) for _ in range(count // 5)]
    # conjugates, whose cyclic reduction strips many inverse end pairs
    for _ in range(count // 5):
        z = random_freely_reduced(ctx, rng.randrange(1, size // 2), rng)
        words.append(z + random_relator_heavy(ctx, rng.randrange(1, size // 4), rng) + invert_word(z))
    got = [(dehn_reduce(ctx, w), dehn_reduce_cyclic(ctx, w)) for w in words]
    with monkeypatch.context() as m:
        # a one-letter window puts a window edge at every position a
        # replacement can reach, on words of any length
        m.setattr(oracle, "_WINDOW", 1)
        narrow = [(dehn_reduce(ctx, w), dehn_reduce_cyclic(ctx, w)) for w in words]
    want = [(dehn_reduce_reference(ctx, w), dehn_reduce_cyclic_reference(ctx, w)) for w in words]
    for w, a, b, c in zip(words, got, narrow, want):
        assert a == c, w
        assert b == c, w
    # the inputs do reach the replacement and the flag both ways
    assert any(len(f.word) < len(free_reduce(w)) for w, (f, _) in zip(words, got))
    assert {f.cyclically_reduced for f, _ in got} == {True, False}


@pytest.mark.parametrize("genus", [2, 3, 64])
def test_find_long_run_matches_the_chain_walk_on_every_window(genus):
    """The incremental _find_long_run returns what _long_run_reference,
    which walks the chain from every start, returns: the same start and
    capped length, and the row of the reference's ambient.  The answer
    from each start is the reference's on that one position, or else the
    answer from the next start; a window (start, stop) keeps it when it
    starts before stop.  Every window of relator-heavy words, whole
    relators, E^k and runs of chains of 2g-1 .. 2g+2 letters is checked
    at cap 4g, at g = 64 every start with the stops that bracket its
    answer and a seeded one: among them windows that start inside a
    chain and windows whose stop cuts a chain that only reaches 2g+1
    letters past stop.  So are the windows (start, stop <= n) of the
    w + w that _wrapped_long_run scans, at its cap min(4g, n), and
    _wrapped_long_run itself."""
    ctx = GroupContext(genus)
    rng = random.Random(1500 + genus)
    g2, n4 = ctx.n_gens, ctx.alphabet_size
    high = genus == 64
    rows = rng.sample(ctx.relator_table, 2 if high else 6)
    words = [E * k for E in rows for k in (1, 2) if not high or k == 1]
    words += [random_relator_heavy(ctx, rng.randrange(1, (2 if high else 5) * n4), rng)
              for _ in range(3 if high else 30)]
    # chains of every length around 2g+1, cut by single letters
    words += [sum((E[:c] + (rng.choice(ctx.letters),) for c in range(g2 - 1, g2 + 3)), ())
              for E in rows]
    seen = Counter()

    def check_windows(w, last, cap):
        hits = [None] * (last + 1)
        for p in range(last - 1, -1, -1):
            hits[p] = _long_run_reference(ctx, w, p, p + 1, cap) or hits[p + 1]
        for start in range(last + 1):
            hit = hits[start]
            stops = range(start, last + 1)
            if high:
                stops = {start, start + 1, last, rng.randrange(start, last + 1)}
                if hit is not None:
                    stops |= {hit[0], hit[0] + 1, hit[0] + g2}
                stops = [s for s in stops if s <= last]
            for stop in stops:
                got = oracle._find_long_run(ctx, w, start, stop, cap)
                if hit is None or hit[0] >= stop:
                    assert got is None, (w, start, stop, cap)
                    continue
                p, length, amb = hit
                assert got == (p, length, entry_at(ctx, w[p + 1], amb)), (w, start, stop, cap)
                seen["capped"] += length == cap < len(w) - p
                seen["cut"] += p + g2 >= stop
                seen["inside"] += p == start > 0 and chain_forward_reference(ctx, w, p - 1, n4)[0] > 2

    for w in words:
        n = len(w)
        check_windows(w, n, n4)
        if n > g2:
            cap = min(n4, n)
            check_windows(w + w, n, cap)
            got = oracle._wrapped_long_run(ctx, w)
            want = _long_run_reference(ctx, w + w, n - g2, n, cap)
            assert got == (want and want[:2] + (entry_at(ctx, w[(want[0] + 1) % n], want[2]),))
            seen["wrapped"] += want is not None
    assert all(seen[k] for k in ("capped", "cut", "inside", "wrapped")), seen


def test_ball_counts_match_brute_force(ctx2):
    counts = [len(enumerate_ball(ctx2, r)) for r in range(4)]
    assert counts == [1, 9, 65, 457]
    seen = {nf(ctx2, w) for w in all_words(ctx2, 3)}
    assert counts[3] == len(seen)
    ball3 = enumerate_ball(ctx2, 3)
    assert len(set(ball3)) == len(ball3)
    assert set(ball3) == seen
    for w in ball3:
        assert len(w) <= 3
        assert is_irreducible(ctx2, w)


def test_ball_is_nested_and_sorted_by_length(ctx2):
    b2 = enumerate_ball(ctx2, 2)
    b3 = enumerate_ball(ctx2, 3)
    assert set(b2) <= set(b3)
    lengths = [len(w) for w in b3]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("genus, radius", [(2, 6), (3, 5)])
def test_ball_size_floor_bounds_every_enumerable_ball(genus, radius):
    """Up to the largest radius the default cap admits, the floor is at
    most the ball size, and equal to it below radius 2g."""
    ctx = GroupContext(genus)
    lengths = [len(w) for w in enumerate_ball(ctx, radius)]
    for r in range(radius + 1):
        size = sum(1 for n in lengths if n <= r)
        floor = _ball_size_floor(ctx, r, 10**6)
        assert floor <= size
        if r < 2 * genus:
            assert floor == size


def test_ball_domain_errors(ctx2):
    with pytest.raises(DomainError):
        enumerate_ball(ctx2, -1)
    with pytest.raises(DomainError):
        enumerate_ball(ctx2, 3, cap=100)


def test_the_oracle_imports_nothing_from_the_engines():
    """Agreement with the oracle is evidence only while it shares no code
    with the rewriting engine or the power and conjugacy layers."""
    engines = {"rewrite", "powers", "conjugacy"}
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported += [base] + [f"{base}.{a.name}" for a in node.names]
    assert imported
    assert [m for m in imported if engines & set(m.split("."))] == []
