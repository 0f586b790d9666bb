"""Dehn-algorithm oracles and the exhaustive ball enumerator."""

import ast
import copy
import functools
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    DehnReference,
    _long_run_reference,
    all_words,
    chain_forward_reference,
    dehn_reduce_cyclic_reference,
    dehn_reduce_reference,
    entry_at,
    random_freely_reduced,
    random_nontrivial,
    random_relator_heavy,
    special_instances,
)
from surfgroup import oracle, rewrite
from surfgroup.conjugacy import are_conjugate
from surfgroup.group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    abelianize,
    free_reduce,
    invert_word,
)
from surfgroup.oracle import (
    dehn_conjugate,
    dehn_equal,
    dehn_reduce,
    dehn_reduce_cyclic,
)
from surfgroup.rewrite import enumerate_ball, is_irreducible, nf, sphere_sizes


def has_long_run(ctx, w):
    threshold = ctx.n_gens + 1
    return any(
        chain_forward_reference(ctx, w, p, ctx.alphabet_size)[0] >= threshold
        for p in range(len(w))
    )


def cyclically_dehn_reduced(ctx, w):
    """Every rotation of w is Dehn-reduced: dehn_reduce_cyclic leaves
    exactly such words unchanged, since each strip or rotation shortens."""
    return dehn_reduce_cyclic(ctx, w) == w


def test_dehn_reduce_examples(ctx2):
    for w, out, cyclic in (
        (ctx2.relator, (), True),
        ((1, 2, 3, 4, -1, -2), (4, 3), True),
        ((4, 3, 2), (4, 3, 2), True),
        ((1, 2, -1), (1, 2, -1), False),
    ):
        got = dehn_reduce(ctx2, w)
        assert isinstance(got, tuple) and got == out
        assert type(got.word) is tuple and got.word == out
        assert cyclically_dehn_reduced(ctx2, out) == cyclic


def test_dehn_reduce_structure(ctx2, ctx3):
    rng = random.Random(201)
    for ctx in (ctx2, ctx3):
        for _ in range(80):
            w = random_freely_reduced(ctx, rng.randrange(0, 20), rng)
            out = dehn_reduce(ctx, w)
            assert free_reduce(out) == out
            assert not has_long_run(ctx, out)
            assert dehn_reduce(ctx, out) == out
            assert abelianize(ctx, out) == abelianize(ctx, w)
            assert dehn_equal(ctx, w, out)


def test_dehn_reduce_cyclic():
    rng = random.Random(203)
    for genus in (2, 3, 5, 8, 64):
        ctx = GroupContext(genus)
        words = [random_freely_reduced(ctx, rng.randrange(0, 16), rng) for _ in range(80)]
        # conjugates of relator-heavy words, whose reduction strips end
        # pairs and rotates wrap-around runs at every genus
        for _ in range(20):
            z = random_freely_reduced(ctx, rng.randrange(1, 6), rng)
            u = random_relator_heavy(ctx, rng.randrange(1, 3 * ctx.alphabet_size), rng)
            words.append(z + u + invert_word(z))
        for w in words:
            out = dehn_reduce_cyclic(ctx, w)
            assert dehn_reduce(ctx, out) == out
            assert cyclically_dehn_reduced(ctx, out)
            assert dehn_reduce_reference(ctx, out) == DehnReference(out, True)
            assert abelianize(ctx, out) == abelianize(ctx, w)
            assert dehn_conjugate(ctx, w, out)


def test_dehn_equal_is_engine_equality():
    rng = random.Random(207)
    for genus in (2, 3, 5, 8, 16, 64):
        ctx = GroupContext(genus)
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


@pytest.mark.parametrize("genus", [2, 8, 64])
def test_dehn_equal_drops_the_common_ends(genus):
    """u = p.u'.s against v = p.v'.s with long shared p and s: equal
    pairs (v' is u' with relators inserted) and pairs that differ in one
    letter, and pairs whose ends overlap.  dehn_equal, which drops p and
    s, answers as the reduction of the whole of u.v^-1."""
    ctx = GroupContext(genus)
    rng = random.Random(223 + genus)
    pairs = []
    for _ in range(12):
        p = random_freely_reduced(ctx, rng.randrange(100, 400), rng)
        s = random_freely_reduced(ctx, rng.randrange(100, 400), rng)
        m = random_freely_reduced(ctx, rng.randrange(0, 40), rng)
        v = list(with_relators(ctx, m, rng.randrange(1, 3), rng))
        pairs.append((p + m + s, p + tuple(v) + s))
        i = rng.randrange(len(v))
        v[i] = rng.choice([a for a in ctx.letters if a != v[i]])
        pairs.append((p + m + s, p + tuple(v) + s))
        E = rng.choice(ctx.relator_table)
        pairs += [(p, p), (p, p + E), (E + p, p), (p + s, p + E + s), (p, p + (p[-1],))]
    verdicts = []
    for u, v in pairs:
        verdicts.append(dehn_equal(ctx, u, v))
        assert verdicts[-1] == (dehn_reduce(ctx, u + invert_word(v)) == ())
        assert dehn_equal(ctx, v, u) == dehn_equal(ctx, u, list(v)) == verdicts[-1]
    assert True in verdicts and False in verdicts
    # a letter outside the alphabet is refused, in the shared ends too,
    # and named at its position in u or v
    top = ctx.n_gens + 1
    for u, v, bad, position in (
            ((0,) + p, (0,) + p, 0, 1), (p + (0,), p + (0,), 0, len(p) + 1),
            (p + s, p + (1.0,) + s, 1.0, len(p) + 1), (p + (top,) + s, p + s, top, len(p) + 1),
            (p + (1,) + s, p + (True, "1") + s, "1", len(p) + 2), (p + (1,), p + (1.0,), 1.0, len(p) + 1)):
        with pytest.raises(ValueError) as exc:
            dehn_equal(ctx, u, v)
        assert str(exc.value) == (f"letter {bad!r} at position {position} "
                                  f"is outside the alphabet for genus {genus}")


def test_dehn_conjugate_agrees_with_engine():
    rng = random.Random(211)
    for genus in (2, 3, 5, 8, 64):
        ctx = GroupContext(genus)
        for _ in range(60):
            u = random_nontrivial(ctx, 8, rng)
            if rng.random() < 0.5:
                w = random_nontrivial(ctx, 5, rng)
                v = nf(ctx, w + u + invert_word(w))
            else:
                v = random_nontrivial(ctx, 8, rng)
            assert dehn_conjugate(ctx, u, v) == (are_conjugate(ctx, u, v) is not None)
        # the letters of u shuffled: the abelianizations agree, so the
        # rotation search runs, and it mostly finds no conjugate
        verdicts = []
        for _ in range(5):
            u = random_nontrivial(ctx, 8, rng)
            v = tuple(rng.sample(u, len(u)))
            verdicts.append(dehn_conjugate(ctx, u, v))
            assert verdicts[-1] == (are_conjugate(ctx, u, v) is not None)
        assert False in verdicts


def test_dehn_conjugate_edges(ctx2):
    assert dehn_conjugate(ctx2, (), ctx2.relator)
    assert not dehn_conjugate(ctx2, (), (1,))
    assert not dehn_conjugate(ctx2, (1,), (2,))
    assert dehn_conjugate(ctx2, (1, 2), (2, 1))  # rotation


def with_relators(ctx, w, k, rng):
    """w with k relator-table entries inserted at random cuts."""
    v = list(w)
    for _ in range(k):
        cut = rng.randrange(len(v) + 1)
        v[cut:cut] = rng.choice(ctx.relator_table)
    return tuple(v)


def word_problem_word(ctx, n, rng, changed):
    """u.v^-1 with v = u plus relator-table entries inserted, and with one
    letter of v changed when `changed`, as a word-problem pair reaches
    dehn_equal."""
    u = random_freely_reduced(ctx, n, rng)
    v = list(with_relators(ctx, u, 1 + n // 20, rng))
    if changed:
        i = rng.randrange(len(v))
        v[i] = rng.choice([a for a in ctx.letters if a != v[i]])
    return u + invert_word(tuple(v))


def block_run_words(ctx, count, rng):
    """count special words and count exceptional cores
    (b_{i+1}..b_{2g-1}b_1..b_i)^t, each bare and with relator rotations
    inserted.  Their sampled pairs lie on chains of 2g-1 letters, so
    _find_long_run's probes decide which of them it walks."""
    g2, blk = ctx.n_gens, ctx.n_gens - 1
    entries = None
    if ctx.genus > 3:
        entries = [rng.choice([e for e, E in enumerate(ctx.relator_table)
                               if ctx.greater(E[0], E[g2 - 1])])]
    words = [w for _, w in rng.sample(special_instances(ctx, entries=entries), count)]
    for E in rng.sample(ctx.relator_table, count):
        i = rng.randrange(1, blk + 1)
        words.append((E[i:blk] + E[:i]) * rng.randrange(1, 4))
    return words + [with_relators(ctx, w, rng.randrange(1, 4), rng) for w in words]


@pytest.mark.parametrize("genus", [2, 3, 5, 8, 16, 64])
def test_dehn_reduce_matches_the_rescanning_reference(genus, monkeypatch):
    """The resuming scan returns the reference's word at the default
    window and at the narrowest; dehn_reduce_cyclic leaves that word
    unchanged exactly when the reference's flag says every rotation of
    it is reduced, and returns the reference's cyclic word."""
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
    # block runs, where the scan's probes decide what it walks
    if genus in (2, 3, 64):
        words += block_run_words(ctx, 10 if genus <= 3 else 3, rng)

    def answers(w):
        out = dehn_reduce(ctx, w)
        return out, cyclically_dehn_reduced(ctx, out), dehn_reduce_cyclic(ctx, w)

    got = [answers(w) for w in words]
    with monkeypatch.context() as m:
        # a one-letter window puts a window edge at every position a
        # replacement can reach, on words of any length
        m.setattr(oracle, "_WINDOW", 1)
        narrow = [answers(w) for w in words]
    want = []
    for w in words:
        ref = dehn_reduce_reference(ctx, w)
        want.append((ref.word, ref.cyclically_reduced, dehn_reduce_cyclic_reference(ctx, w)))
    for w, a, b, c in zip(words, got, narrow, want):
        assert a == c, w
        assert b == c, w
    # the inputs do reach the replacement and the flag both ways
    assert any(len(out) < len(free_reduce(w)) for w, (out, _, _) in zip(words, got))
    assert {cyclic for _, cyclic, _ in got} == {True, False}


@pytest.mark.parametrize("genus", [2, 3, 64])
def test_find_long_run_matches_the_chain_walk_on_every_window(genus):
    """The sampling _find_long_run returns what _long_run_reference,
    which walks the chain from every start, returns: the same start and
    capped length, and the row of the reference's ambient.  The answer
    from each start is the reference's on that one position, or else the
    answer from the next start; a window (start, stop) keeps it when it
    starts before stop.  Every window of relator-heavy words, whole
    relators, E^k, runs of chains of 2g-1 .. 2g+2 letters and block-run
    words is checked at cap 4g, at g = 64 every start with the stops
    that bracket its answer and a seeded one: among them windows that
    start inside a chain and windows whose stop cuts a chain that only
    reaches 2g+1 letters past stop.  So are the windows (start, stop <=
    n) of the w + w that _wrapped_long_run scans, at its cap min(4g, n),
    and _wrapped_long_run itself."""
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
    words += block_run_words(ctx, 2 if high else 6, rng)
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


@pytest.mark.parametrize("genus", [2, 8, 64])
def test_find_long_run_samples_one_pair_in_2g(genus):
    """A scan over a Dehn-reduced word of n letters looks up at most n/g
    rows: one sampled successor pair in 2g, and one more row for each
    chain it walks."""
    ctx = GroupContext(genus)
    rng = random.Random(2400 + genus)
    w = dehn_reduce(ctx, random_freely_reduced(ctx, 3000, rng))
    lookups = Counter()

    class CountingRow(dict):
        def get(self, key, default=None):
            lookups["row"] += 1
            return super().get(key, default)

        def __getitem__(self, key):
            lookups["row"] += 1
            return super().__getitem__(key)

    counting = copy.copy(ctx)
    counting.follow = {a: CountingRow(row) for a, row in ctx.follow.items()}
    assert oracle._find_long_run(counting, w, 0, len(w), ctx.alphabet_size) is None
    assert 0 < lookups["row"] <= len(w) / genus, (len(w), lookups)


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


@functools.cache
def _sphere_counts(genus, radius):
    """The number of words of each length in enumerate_ball's list."""
    counts = Counter(len(w) for w in enumerate_ball(GroupContext(genus), radius))
    return [counts[r] for r in range(radius + 1)]


@pytest.mark.parametrize("genus, radius", [(2, 6), (3, 5)])
def test_ball_size_floor_bounds_every_enumerable_ball(genus, radius):
    """Up to the largest radius the default cap admits, the growth
    series gives the exact size of every ball."""
    ctx = GroupContext(genus)
    spheres = _sphere_counts(genus, radius)
    for r in range(radius + 1):
        assert sum(sphere_sizes(ctx, r, 10**6)) == sum(spheres[:r + 1])


@pytest.mark.parametrize("genus, radius", [(2, 6), (3, 5), (4, 4), (5, 4)])
def test_ball_spheres_match_the_growth_series(genus, radius):
    """Irreducible words of each length are as many as the elements of
    that length, sphere by sphere; only g = 2 gets past length 2g, where
    the rules beyond S1 start."""
    assert _sphere_counts(genus, radius) == sphere_sizes(GroupContext(genus), radius, 10**6)


def test_ball_domain_errors(ctx2):
    with pytest.raises(DomainError):
        enumerate_ball(ctx2, -1)
    with pytest.raises(DomainError):
        enumerate_ball(ctx2, 3, cap=100)


def test_ball_cap_is_checked_while_enumerating(ctx2, monkeypatch):
    """The exact size is refused up front, before any word is built: at
    g = 2 radius 4 has 3,193 elements, over a cap of 3,000.  A huge
    radius is refused as fast."""
    assert len(enumerate_ball(ctx2, 4)) == 3193

    def no_word(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(rewrite, "_nf_concat", no_word)
    with pytest.raises(DomainError, match="^a ball of radius 4 has at least 3193 elements, "
                                          "more than the cap of 3000$"):
        enumerate_ball(ctx2, 4, cap=3000)
    with pytest.raises(DomainError, match="^a ball of radius 7 has at least 1085905 elements"):
        enumerate_ball(ctx2, 7)
    with pytest.raises(DomainError, match="^a ball of radius 1000000000 has at least "):
        enumerate_ball(ctx2, 10**9)


def test_a_sphere_off_the_series_raises(ctx2, monkeypatch):
    """enumerate_ball checks every sphere it built against the series."""
    real = rewrite.sphere_sizes
    monkeypatch.setattr(rewrite, "sphere_sizes",
                        lambda ctx, radius, cap: real(ctx, radius, cap)[:3] + [391])
    assert len(enumerate_ball(ctx2, 2)) == 65
    with pytest.raises(VerificationError, match="^sphere 3 has 392 normal forms, "
                                                "the growth series 391$"):
        enumerate_ball(ctx2, 3)


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
