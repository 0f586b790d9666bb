"""Rewriting engines: agreement, confluence, traces, rule shapes."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CASE_OF_FAMILY,
    all_freely_reduced,
    all_words,
    append_letter_nf,
    apply_step,
    append_step_reference,
    chain_backward,
    entry_at,
    find_all_steps,
    find_reducible_reference,
    normalize_leftmost,
    normalize_random,
    pair_ambient,
    prepend_letter_nf,
    random_cyclic_core,
    random_freely_reduced,
    random_relator_heavy,
    replay,
    special_instances,
)
from surfgroup.oracle import dehn_equal
from surfgroup.group_core import GroupContext, compare_words, cyclic_rotations, invert_word
import surfgroup
from surfgroup import rewrite
from surfgroup.rewrite import (
    ReductionStep,
    _nf_concat,
    d_basis_normalize,
    is_cyclically_irreducible,
    is_irreducible,
    nf,
    normalize,
)

letters_g2 = st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4])
words_g2 = st.lists(letters_g2, max_size=20).map(tuple)


def test_relator_entries_are_trivial(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for E in ctx.relator_table:
            assert nf(ctx, E) == ()
            assert d_basis_normalize(ctx, E) == ()


def test_engines_agree_exhaustive_small(ctx2):
    """Incremental, leftmost and D-basis engines on every word of length <= 3."""
    for w in all_words(ctx2, 3):
        a = nf(ctx2, w)
        assert normalize_leftmost(ctx2, w)[0] == a
        assert d_basis_normalize(ctx2, w) == a
        assert is_irreducible(ctx2, a)
        assert nf(ctx2, a) == a  # idempotent


def test_engines_agree_random(ctx3, ctx4):
    rng = random.Random(11)
    for ctx in (ctx3, ctx4):
        for _ in range(150):
            w = random_freely_reduced(ctx, rng.randrange(0, 30), rng)
            a = nf(ctx, w)
            assert normalize_leftmost(ctx, w)[0] == a
            assert d_basis_normalize(ctx, w) == a
            assert is_irreducible(ctx, a)


def test_irreducible_agrees_with_fixpoints(ctx2):
    for w in all_words(ctx2, 3):
        irr = is_irreducible(ctx2, w)
        assert irr == (nf(ctx2, w) == w)
        assert irr == (d_basis_normalize(ctx2, w) == w)


@given(u=words_g2, v=words_g2)
@settings(max_examples=100, deadline=None)
def test_group_laws(u, v):
    ctx = GroupContext(2)
    assert nf(ctx, u + v) == nf(ctx, nf(ctx, u) + nf(ctx, v))
    assert nf(ctx, u + invert_word(u)) == ()
    assert nf(ctx, invert_word(u)) == nf(ctx, invert_word(nf(ctx, u)))


@given(w=words_g2)
@settings(max_examples=100, deadline=None)
def test_trace_replays_and_descends(w):
    ctx = GroupContext(2)
    final, steps = normalize(ctx, w)
    assert replay(w, steps) == final
    cur = w
    for step in steps:
        nxt = apply_step(cur, step)
        assert compare_words(ctx, nxt, cur) == -1
        cur = nxt
    assert cur == final


def test_a_trace_is_a_tuple_of_steps(ctx2, ctx3):
    """normalize returns its steps as a plain tuple of ReductionStep,
    which replays w into the normal form; untraced, it returns None."""
    rng = random.Random(2201)
    for ctx in (ctx2, ctx3):
        for _ in range(30):
            w = random_relator_heavy(ctx, rng.randrange(0, 40), rng)
            final, steps = normalize(ctx, w)
            assert type(steps) is tuple
            assert all(type(step) is ReductionStep for step in steps)
            assert replay(w, steps) == final == nf(ctx, w)
            assert normalize(ctx, w, trace=False) == (final, None)
    assert not hasattr(surfgroup, "ReductionTrace")
    assert not hasattr(rewrite, "apply_step")


def test_leftmost_steps_strictly_descend(ctx2):
    rng = random.Random(23)
    for _ in range(60):
        w = random_freely_reduced(ctx2, rng.randrange(0, 18), rng)
        cur = w
        final, steps = normalize_leftmost(ctx2, w)
        for step in steps:
            nxt = apply_step(cur, step)
            assert compare_words(ctx2, nxt, cur) == -1
            cur = nxt
        assert cur == final


def test_normalize_random_confluence(ctx2, ctx3):
    rng = random.Random(7)
    for ctx in (ctx2, ctx3):
        for _ in range(80):
            w = random_freely_reduced(ctx, rng.randrange(0, 24), rng)
            assert normalize_random(ctx, w, rng) == nf(ctx, w)


def test_append_letter_nf(ctx2):
    rng = random.Random(31)
    for _ in range(200):
        x = nf(ctx2, random_freely_reduced(ctx2, rng.randrange(0, 14), rng))
        a = rng.choice(ctx2.letters)
        out, case = append_letter_nf(ctx2, x, a)
        assert out == nf(ctx2, x + (a,))
        assert case in (1, 2, 3, 4, 5)
        assert (case == 5) == (out == x + (a,))
    # every letter after words that end in a relator prefix or a repeated
    # block, which random words seldom do: cases 2-4.  Each tag is the
    # family of the one reducing operation the reference scan finds
    for genus in (2, 3, 5):
        ctx = GroupContext(genus)
        g2 = ctx.n_gens
        seen = set()
        for _ in range(100):
            E = rng.choice(ctx.relator_table)
            t = rng.randrange(1, 4)
            tail = rng.choice((
                E[:rng.randrange(1, g2 + 1)],
                E[:g2 - 1] * t,
                (E[0],) + E[1:g2] * t,
            ))
            x = nf(ctx, random_relator_heavy(ctx, rng.randrange(0, 20), rng) + tail)
            for a in ctx.letters:
                out, case = append_letter_nf(ctx, x, a)
                assert out == nf(ctx, x + (a,)), (genus, x, a)
                step = find_reducible_reference(ctx, x + (a,))
                assert case == CASE_OF_FAMILY[step and step.rule.family], (genus, x, a)
                seen.add(case)
        assert seen == {1, 2, 3, 4, 5}


def test_prepend_letter_nf(ctx2):
    rng = random.Random(37)
    for _ in range(200):
        x = nf(ctx2, random_freely_reduced(ctx2, rng.randrange(0, 14), rng))
        a = rng.choice(ctx2.letters)
        out, case = prepend_letter_nf(ctx2, a, x)
        assert out == nf(ctx2, (a,) + x)
        assert case in (1, 2, 3, 4, 5)
        assert (case == 5) == (out == (a,) + x)
    # every letter before words that open with a long successor chain or
    # a repeated block, which random words seldom do: cases 2-4, and
    # chains that change ambient after the first letter
    for genus in (2, 3, 5):
        ctx = GroupContext(genus)
        g2 = ctx.n_gens
        seen = set()
        for _ in range(80):
            E = rng.choice(ctx.relator_table)
            head = rng.choice((
                E[:rng.randrange(1, g2 + 1)],
                E[1:g2] * rng.randrange(1, 4) + E[g2:g2 + rng.randrange(2)],
            ))
            x = nf(ctx, head + random_relator_heavy(ctx, rng.randrange(0, 20), rng))
            for a in ctx.letters:
                out, case = prepend_letter_nf(ctx, a, x)
                assert out == nf(ctx, (a,) + x), (genus, a, x)
                assert (case == 5) == (out == (a,) + x)
                seen.add(case)
        assert seen == {1, 2, 3, 4, 5}


def test_append_prepend_require_irreducible(ctx2):
    with pytest.raises(ValueError):
        append_letter_nf(ctx2, (1, -1), 2)
    with pytest.raises(ValueError):
        prepend_letter_nf(ctx2, 2, (1, -1))


def test_cyclically_irreducible(ctx2):
    assert is_cyclically_irreducible(ctx2, ())
    rng = random.Random(41)
    for _ in range(120):
        w = nf(ctx2, random_freely_reduced(ctx2, rng.randrange(0, 12), rng))
        if is_cyclically_irreducible(ctx2, w):
            for r in cyclic_rotations(w):
                assert is_irreducible(ctx2, r)


# per case: the genus whose every word up to a length is checked, and the
# genera of the random words, so that the three cases cover 2, 3, 5, 8, 16, 64
ONE_COPY_CASES = {2: ((2, 5), (2, 16)), 3: ((3, 4), (3, 64)), 8: (None, (5, 8))}


@pytest.mark.parametrize("case", sorted(ONE_COPY_CASES))
def test_cyclically_irreducible_from_one_copy(case):
    """Appending one copy of w to w decides what normalizing the whole
    square decides, on every word: irreducible or not, freely reduced or
    not.  Every word up to length 5 at g = 2 (37,449) and up to 4 at
    g = 3 (22,621); then random relator-heavy, unreduced, normalized and
    rotated words."""
    exhaustive, genera = ONE_COPY_CASES[case]
    with pytest.raises(ValueError, match="outside the alphabet"):
        is_cyclically_irreducible(GroupContext(2), (1, 5))
    if exhaustive is not None:
        ctx = GroupContext(exhaustive[0])
        for w in all_words(ctx, exhaustive[1]):
            assert is_cyclically_irreducible(ctx, w) == is_irreducible(ctx, w + w), w
    verdicts = set()
    for genus in genera:
        ctx = GroupContext(genus)
        rng = random.Random(genus)
        words = []
        for _ in range(150):
            heavy = random_relator_heavy(ctx, rng.randrange(1, 60), rng)
            unreduced = tuple(rng.choice(ctx.letters) for _ in range(rng.randrange(1, 16)))
            core = random_cyclic_core(ctx, rng.randrange(1, 20), rng)
            normal = nf(ctx, heavy)
            k = rng.randrange(len(normal) or 1)
            words += [heavy, unreduced, core, normal, normal[k:] + normal[:k]]
        for w in words:
            verdict = is_cyclically_irreducible(ctx, w)
            assert verdict == is_irreducible(ctx, w + w), (genus, w)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_find_all_steps_are_applicable(ctx2):
    rng = random.Random(43)
    for _ in range(80):
        w = random_freely_reduced(ctx2, rng.randrange(0, 16), rng)
        steps = find_all_steps(ctx2, w)
        starts = [s.start for s in steps]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        for s in steps:
            out = apply_step(w, s)
            assert nf(ctx2, out) == nf(ctx2, w)
    assert find_all_steps(ctx2, ()) == []


def test_s2_rule_shapes(ctx2, ctx3):
    """A fragment longer than half a relator rewrites to the complement."""
    for ctx in (ctx2, ctx3):
        g2, n4 = ctx.n_gens, ctx.alphabet_size
        for E in ctx.relator_table:
            for k in range(g2 + 1, n4):
                expect = invert_word(E[k:])
                assert nf(ctx, E[:k]) == expect
                assert d_basis_normalize(ctx, E[:k]) == expect


def test_s3_rule_shape(ctx2):
    g2 = ctx2.n_gens
    for E in ctx2.relator_table:
        blk = E[1:g2]
        for t in (2, 3):
            w = (E[0],) + blk * t + (E[g2],)
            assert nf(ctx2, w) == tuple(reversed(blk)) * t


def test_s4_rule_shapes(ctx2):
    g2 = ctx2.n_gens
    for E in ctx2.relator_table:
        blk_a = E[1:g2]
        blk_b = E[:g2 - 1]
        for t in (1, 2):
            wa = (E[0],) + blk_a * t
            wb = blk_b * t + (E[g2 - 1],)
            if ctx2.greater(E[0], E[g2 - 1]):
                assert nf(ctx2, wa) == tuple(reversed(blk_a)) * t + (E[0],)
                assert nf(ctx2, wb) == (E[g2 - 1],) + tuple(reversed(blk_b)) * t
            else:
                assert nf(ctx2, wa) == wa
                assert nf(ctx2, wb) == wb


def test_find_reducible_is_none_only_when_irreducible(ctx2):
    for w in all_words(ctx2, 3):
        step = find_reducible_reference(ctx2, w)
        assert is_irreducible(ctx2, w) == (step is None)
        if step is None:
            assert nf(ctx2, w) == w
        else:
            assert apply_step(w, step) != w


def test_find_reducible_matches_reference_exhaustive(ctx2):
    for w in all_freely_reduced(ctx2, 6):
        assert is_irreducible(ctx2, w) == (find_reducible_reference(ctx2, w) is None)


def test_find_reducible_matches_reference_on_special_shapes(ctx2, ctx3):
    """Type A/B/C words with long block runs, alone, squared and framed."""
    rng = random.Random(41)
    for ctx in (ctx2, ctx3):
        shapes = special_instances(ctx, t_values=(1, 4, 9), t_sums=(0, 3, 8))
        for _, w in rng.sample(shapes, 150):
            a = rng.choice(ctx.letters)
            for v in (w, w + w, (a,) + w, w + (a,) + w):
                assert is_irreducible(ctx, v) == (find_reducible_reference(ctx, v) is None)


def test_find_reducible_matches_reference_on_block_runs(ctx2, ctx3):
    """Random concatenations of relator-block powers reach S3/S4 with large t."""
    rng = random.Random(43)
    for ctx in (ctx2, ctx3):
        g2 = ctx.n_gens
        for _ in range(300):
            pieces = []
            for _ in range(rng.randrange(1, 5)):
                E = rng.choice(ctx.relator_table)
                t = rng.randrange(1, 8)
                pieces.append(rng.choice((
                    (E[0],) + E[1:g2] * t + (E[g2],),
                    (E[0],) + E[1:g2] * t,
                    E[:g2 - 1] * t + (E[g2 - 1],),
                    E[:g2 - 1] * t,
                    (rng.choice(ctx.letters),),
                )))
            w = sum(pieces, ())
            assert is_irreducible(ctx, w) == (find_reducible_reference(ctx, w) is None)


HIGH_GENERA = [5, 8, 16, 64]


def high_genus_words(ctx, rng, count, length):
    """Half relator-heavy words, half uniformly random freely reduced ones."""
    for k in range(count):
        n = rng.randrange(0, length + 1)
        if k % 2:
            yield random_freely_reduced(ctx, n, rng)
        else:
            yield random_relator_heavy(ctx, n, rng)


@pytest.mark.parametrize("genus", HIGH_GENERA)
def test_engines_and_oracle_agree_at_high_genus(genus):
    """S engine, D engine and the Dehn oracle over the genus range MAX_GENUS admits."""
    ctx = GroupContext(genus)
    rng = random.Random(800 + genus)
    fired = set()
    for w in high_genus_words(ctx, rng, 60, 6 * genus):
        final, steps = normalize(ctx, w)
        fired |= {step.rule.family for step in steps}
        assert d_basis_normalize(ctx, w) == nf(ctx, w) == final
        assert dehn_equal(ctx, w, final)
        assert is_irreducible(ctx, final)
        assert is_irreducible(ctx, w) == (find_reducible_reference(ctx, w) is None)
    assert fired >= {"S1", "S2", "S3", "S4b"}


@pytest.mark.parametrize("genus", HIGH_GENERA)
def test_untraced_normalize_and_prefix_extension_at_high_genus(genus):
    """normalize without a trace returns the traced final word, and
    extending an irreducible u by v gives nf(u + v)."""
    ctx = GroupContext(genus)
    rng = random.Random(900 + genus)
    words = list(high_genus_words(ctx, rng, 80, 12 * genus))
    for w, v in zip(words, reversed(words)):
        final, steps = normalize(ctx, w)
        assert normalize(ctx, w, trace=False) == (final, None)
        assert replay(w, steps) == final
        assert _nf_concat(ctx, final, v) == nf(ctx, final + v) == nf(ctx, w + v)
        assert _nf_concat(ctx, final, final) == nf(ctx, w + w)


@pytest.mark.parametrize("genus", [2, 3, 5, 16, 64])
def test_chain_probe_matches_the_chain_walk(genus):
    """Appending a successor gives what the chain walk that the probes
    replaced gives (append_step_reference in tests/helpers.py, its
    (rule, n_pop, tail) applied to the word).  For every entry E of the
    relator table, the letter E[0] is appended to irreducible words that
    end in a successor chain of E: of each length 2 .. 2g up to g = 16,
    and of 2g-1, 2g and four seeded lengths past that.  Before the chain
    come t = 0 .. 3 whole blocks E[2g+1:].  Only on a chain of 2g-1 does
    what precedes them decide the rule (S3, S4b or none); it is nothing,
    E[2g] or a seeded letter there, and a seeded letter on a chain of
    2g.  A shorter chain comes alone, which makes words shorter than
    2g-1 letters, after a seeded t and letter, and after a decoy: the
    block E[2g+1:] with a seeded letter in place of the one just before
    the chain, so that the far letter the probe reads matches.

    Every word is extended by _nf_concat, so the probes inline in
    _extend decide each chain length.  Where the word ends with
    E[2g+1:], the one case _extend hands on, _append_step is also
    called directly and must return the reference's triple."""
    ctx = GroupContext(genus)
    g2, n4 = ctx.n_gens, ctx.alphabet_size
    rng = random.Random(1400 + genus)
    chains = Counter()
    rules = Counter()
    for E in ctx.relator_table:
        letter, blk = E[0], E[g2 + 1:]
        lengths = range(2, g2 + 1) if genus <= 16 else \
            sorted(rng.sample(range(2, g2 - 1), 4)) + [g2 - 1, g2]
        for c in lengths:
            chain = E[n4 - c:]
            if c < g2 - 1:
                other = rng.choice([x for x in ctx.letters if x != E[n4 - c - 1]])
                accs = [chain,
                        (rng.choice(ctx.letters),) + blk * rng.randrange(4) + chain,
                        blk[:g2 - 2 - c] + (other,) + chain]
            elif c == g2 - 1:
                accs = [lead + blk * t + chain for t in range(4)
                        for lead in ((), (E[g2],), (rng.choice(ctx.letters),))]
            else:
                accs = [(rng.choice(ctx.letters),) + blk * t + chain for t in range(4)]
            for acc in accs:
                if nf(ctx, acc) != acc:
                    continue
                want = append_step_reference(ctx, list(acc), letter)
                rule, n_pop, tail = want
                assert _nf_concat(ctx, acc, (letter,)) == acc[:len(acc) - n_pop] + tail, (acc, letter)
                if acc[-(g2 - 1):] == blk:
                    plain = (rule.family, rule.param) if rule else (None, 0)
                    assert rewrite._append_step(ctx, list(acc), E) == plain + (n_pop, tail), \
                        (acc, letter)
                    chains["handed on"] += 1
                near = acc[-n4:] + (letter,)
                cl = chain_backward(ctx, near, len(near) - 1, n4)[0]
                chains[cl] += 1
                rules[rule.family if rule else None] += 1
                if len(acc) < g2 - 1:
                    chains["short"] += 1
                elif cl < g2 and acc[-(g2 - 1)] == blk[0]:
                    chains["decoy"] += 1
    assert set(range(3, g2 + 2)) | {"short", "handed on"} <= set(chains)
    assert genus == 2 or chains["decoy"]
    assert {"S2", "S3", "S4b", None} <= set(rules)


@pytest.mark.parametrize("genus", [2, 3, 5, 64])
def test_untraced_fast_path_agrees_and_leaves_only_long_chains(genus, monkeypatch):
    """_extend pops an inverse and appends a successor inline, for every
    caller, unless the successor's chain has at least 2g letters.  On
    z x z^-1 with long z and on relator-heavy words, nf and _nf_concat
    agree with the traced normalize and the D engine.  Under nf,
    _nf_concat, the traced normalize, append_letter_nf and
    enumerate_ball, every letter that still reaches _append_step ends a
    chain of at least 2g letters whose far letter, 2g-1 places back,
    matches the row, and every S1 step is a genuine cancellation that
    replays."""
    ctx = GroupContext(genus)
    rng = random.Random(1100 + genus)
    words = []
    for k in range(16):
        z = (random_relator_heavy if k % 2 else random_freely_reduced)(
            ctx, rng.randrange(64, 128), rng)
        x = random_relator_heavy(ctx, rng.randrange(0, 4 * genus), rng)
        words.append(z + x + invert_word(z))
        words.append(random_relator_heavy(ctx, rng.randrange(0, 12 * genus), rng))
    expected = {}
    for w in words:
        final, steps = normalize(ctx, w)
        assert replay(w, steps) == final
        assert d_basis_normalize(ctx, w) == final
        expected[w] = final

    reached = []
    append_step = rewrite._append_step

    def counted(ctx, acc, E):
        letter = E[0]
        g2 = ctx.n_gens
        inverse = bool(acc) and acc[-1] == -letter
        near = tuple(acc[-ctx.alphabet_size:]) + (letter,)
        chain = chain_backward(ctx, near, len(near) - 1, ctx.alphabet_size)[0]
        far = len(acc) >= g2 - 1 and acc[-(g2 - 1)] == E[g2 + 1]
        reached.append((inverse, chain, far))
        assert E == entry_at(ctx, letter, pair_ambient(ctx, acc[-1], letter))
        return append_step(ctx, acc, E)

    monkeypatch.setattr(rewrite, "_append_step", counted)
    cancellations = 0
    for w in words:
        assert nf(ctx, w) == expected[w]
        h = len(w) // 2
        assert _nf_concat(ctx, nf(ctx, w[:h]), w[h:]) == expected[w]
        final, steps = normalize(ctx, w)
        assert final == expected[w]
        assert replay(w, steps) == final
        for step in steps:
            if step.rule.family == "S1":
                a = step.matched[0]
                assert step.matched == (a, -a)
                cancellations += 1
        # the letters that can fire a rule after x: the inverse and the
        # two successors of its last letter
        x = expected[w]
        for a in ctx.letters:
            if x and (a == -x[-1] or pair_ambient(ctx, x[-1], a) is not None):
                assert append_letter_nf(ctx, x, a)[0] == nf(ctx, x + (a,))
    ball = rewrite.enumerate_ball(ctx, {2: 4, 3: 3}.get(genus, 2))
    assert len(set(ball)) == len(ball)
    assert cancellations, "no S1 step was traced"
    assert reached, "no letter reached _append_step"
    assert not [r for r in reached if r[0] or r[1] < 2 * genus or not r[2]]


def test_the_d_engine_uses_no_s_engine_name():
    """The D engine is a cross-check only while it shares no code with
    the S engine: its functions name neither the S rewriting nor the S
    trace types."""
    s_engine = {"_extend", "_append_step", "normalize", "nf", "_nf_concat",
                "RuleId", "ReductionStep", "apply_step"}
    tree = ast.parse(Path(rewrite.__file__).read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_d_rules", "_d_match", "d_basis_normalize"):
        used = {n.id for n in ast.walk(bodies[name]) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(bodies[name]) if isinstance(n, ast.Attribute)}
        assert used & s_engine == set(), name


@pytest.mark.parametrize("genus", [2, 3, 64])
def test_untraced_paths_build_no_rule_record(genus, monkeypatch):
    """nf and _nf_concat fire S2, S3 and S4 rules without building a
    RuleId or a ReductionStep: with both made to raise they still return
    the traced normalize's words."""
    ctx = GroupContext(genus)
    rng = random.Random(1800 + genus)
    words = [random_relator_heavy(ctx, rng.randrange(8 * genus, 24 * genus), rng)
             for _ in range(12)]
    expected = {}
    fired = set()
    for w in words:
        expected[w], steps = normalize(ctx, w)
        fired |= {step.rule.family for step in steps}
    assert {"S2", "S3", "S4b"} <= fired

    def refuse(*args, **kwargs):
        raise AssertionError("a rule record was built on an untraced path")

    monkeypatch.setattr(rewrite, "RuleId", refuse)
    monkeypatch.setattr(rewrite, "ReductionStep", refuse)
    for w in words:
        assert nf(ctx, w) == expected[w]
        h = len(w) // 2
        assert _nf_concat(ctx, nf(ctx, w[:h]), w[h:]) == expected[w]
