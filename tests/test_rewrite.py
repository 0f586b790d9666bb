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
    build_type_a,
    chain_backward,
    entry_at,
    find_all_steps,
    find_reducible_reference,
    is_cyclically_irreducible_reference,
    normalize_leftmost,
    normalize_random,
    pair_ambient,
    prepend_letter_nf,
    random_cyclic_core,
    random_freely_reduced,
    random_relator_heavy,
    record_extend,
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
    _nf_join,
    _power_lengths,
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


@pytest.mark.parametrize("genus", [2, 3, 8])
def test_power_lengths_are_the_lengths_of_the_powers(genus):
    """_power_lengths yields len(nf(T^m)) for m = 1 .. K and no more,
    for T irreducible or not, special shapes included."""
    ctx = GroupContext(genus)
    rng = random.Random(950 + genus)
    words = list(high_genus_words(ctx, rng, 60, 6 * genus)) + [(), (1, -1)]
    words += [w for _tag, w in special_instances(ctx, entries=(0,))][:20]
    for T in words:
        assert list(_power_lengths(ctx, T, 5)) == [len(nf(ctx, T * m)) for m in range(1, 6)], T


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
    s_engine = {"_extend", "_append_step", "normalize", "nf", "_nf_concat", "_nf_join",
                "RuleId", "ReductionStep", "apply_step"}
    tree = ast.parse(Path(rewrite.__file__).read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_d_rules", "_d_match", "d_basis_normalize"):
        used = {n.id for n in ast.walk(bodies[name]) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(bodies[name]) if isinstance(n, ast.Attribute)}
        assert used & s_engine == set(), name


def test_only_rewrite_names_the_append_protocol():
    """How letters are appended stays inside rewrite: no other module of
    the package names _extend, _append_step, _join_pieces, _cascade or
    _run_end, so a change to the append protocol touches rewrite alone.
    The others join words through _nf_concat, _nf_join and
    _power_lengths."""
    protocol = {"_extend", "_append_step", "_join_pieces", "_cascade", "_run_end"}
    others = [path for path in Path(rewrite.__file__).parent.glob("*.py")
              if path.name != "rewrite.py"]
    assert {"powers.py", "conjugacy.py", "presentations.py", "cli.py"} <= {p.name for p in others}
    for path in others:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named |= {node.name, node.asname}
        assert named & protocol == set(), path.name


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


def test_the_inverse_of_an_irreducible_word_is_irreducible():
    """Inversion maps each left side of S1, S2(2g+1), S3(t) and S4(1) to
    a left side of the same rule, read along the inverse row, and it
    reverses the generator order, so S4(1)'s condition b_1 > b_2g
    carries over: the inverse of a normal form is a normal form.  Every
    word of length <= 5 at g = 2, and random normal forms up to 600
    letters at g up to 64."""
    ctx = GroupContext(2)
    for w in all_freely_reduced(ctx, 5):
        assert is_irreducible(ctx, invert_word(w)) == is_irreducible(ctx, w)
    for genus in (2, 3, 5, 8, 16, 64):
        ctx = GroupContext(genus)
        rng = random.Random(2700 + genus)
        for _ in range(40):
            w = nf(ctx, random_relator_heavy(ctx, rng.randrange(1, 600), rng))
            assert is_irreducible(ctx, invert_word(w))


def join_cases(ctx, rng):
    """(family, u, v) with u and v irreducible, for _nf_join.

    random: normal forms of random and relator-heavy words up to six
    first pieces C long.  short: u = () or random, with v a cyclically
    irreducible word of C-1, C, C+1 and 2C letters.  conjugate: nf(y)
    joined to itself and nf(y^2) joined to nf(y), for y = z.x.z^-1,
    whose cancellation runs about |z| letters into v, with |z| up to
    five first pieces.  boundary: u joined to a v that begins with the
    inverse of the last c letters of u, so that v[c-1] still cancels,
    for c one letter either side of and on each check at C, 2C, 4C.
    s3: u ending with b_1 joined to (b_2..b_2g)^t b_2g+1, whose rule
    S3(t) fires at the last letter, after windows that are
    (2g-1)-periodic at every check.  periodic: powers of exceptional
    cores (fully periodic v) and of special shapes."""
    g2 = ctx.n_gens
    C = max(2 * g2, 32)  # the letters _nf_join reads before its first check
    for _ in range(6):
        u = nf(ctx, random_relator_heavy(ctx, rng.randrange(0, 6 * C), rng))
        v = nf(ctx, random_freely_reduced(ctx, rng.randrange(0, 6 * C), rng))
        yield "random", u, v
        yield "random", v, u
    for n in (C - 1, C, C + 1, 2 * C):
        v = random_cyclic_core(ctx, n, rng)
        yield "short", (), v
        yield "short", nf(ctx, random_freely_reduced(ctx, 3 * C, rng)), v
    for size in (C // 2, C, 2 * C, 5 * C):
        z = random_freely_reduced(ctx, size, rng)
        y = nf(ctx, z + random_cyclic_core(ctx, C, rng) + invert_word(z))
        yield "conjugate", y, y
        yield "conjugate", _nf_concat(ctx, y, y), y
    u = nf(ctx, random_freely_reduced(ctx, 10 * C, rng))
    for c in (C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, 4 * C - 1, 4 * C, 4 * C + 1):
        head = invert_word(u[-c:])
        for _ in range(20):
            v = nf(ctx, head + random_freely_reduced(ctx, 3 * C, rng))
            if v[:c] == head:
                yield "boundary", u, v
                break
    # the run b_1 b_2 ... b_2g fires S4(1) unless b_1 is below b_2g
    rows = [E for E in ctx.relator_table if not ctx.greater(E[0], E[g2 - 1])]
    for E in rng.sample(rows, 4):
        u = nf(ctx, random_freely_reduced(ctx, C, rng) + E[:1])
        for t in (C // (g2 - 1), 2 * C // (g2 - 1) + 1, 4 * C // (g2 - 1) + 2):
            v = E[1:g2] * t + E[g2:g2 + 1]
            if u[-1:] == E[:1] and is_irreducible(ctx, v):
                yield "s3", u, v
    blk = g2 - 1
    for E in rng.sample(ctx.relator_table, 4):
        i = rng.randrange(1, blk + 1)
        core = (E[i:blk] + E[:i]) * (3 * C // blk + 1)
        yield "periodic", core, core
        yield "periodic", nf(ctx, random_freely_reduced(ctx, C, rng) + core), core
    for _tag, w in rng.sample(special_instances(ctx, entries=(0,)), 4):
        k = 3 * C // len(w) + 2
        yield "periodic", nf(ctx, w * k), nf(ctx, w * k)
        yield "periodic", nf(ctx, w * (2 * k)), nf(ctx, w * k)


@pytest.mark.parametrize("genus", [2, 3, 5, 8, 16, 64])
def test_nf_join_matches_nf_concat(genus):
    """_nf_join(u, v) is _nf_concat(u, v) on irreducible pairs of every
    family of join_cases: around each piece boundary, inside long
    cancellations and rule runs, and on fully periodic words."""
    ctx = GroupContext(genus)
    rng = random.Random(2710 + genus)
    families = Counter()
    for family, u, v in join_cases(ctx, rng):
        assert is_irreducible(ctx, u) and is_irreducible(ctx, v), family
        assert _nf_join(ctx, u, v) == _nf_concat(ctx, u, v), (family, u, v)
        families[family] += 1
    assert set(families) == {"random", "short", "conjugate", "boundary", "s3", "periodic"}, families


def settle_point(ctx, u, v):
    """The least m at which acc, u with the letters of v[:m] appended one
    at a time, ends with the window v[m-4g:m] and that window is not
    (2g-1)-periodic: the first point at which _nf_join's settle test
    would pass if it were tried after every letter.  None if there is
    none."""
    K = 2 * ctx.n_gens
    L = ctx.n_gens - 1
    acc = list(u)
    for m in range(1, len(v) + 1):
        rewrite._extend(ctx, acc, v[m - 1:m], None)
        if m >= K and acc[-K:] == list(v[m - K:m]) and v[m - K:m - L] != v[m - K + L:m]:
            return m
    return None


@pytest.mark.parametrize("genus", [2, 8, 64])
def test_nf_join_reads_at_most_one_piece_past_the_settle_point(genus, monkeypatch):
    """On joins whose settle point s lies just past C, 2C+1 and 4C+1
    letters into v, where v begins with the inverse of the last
    c = s - 4g letters of u, _nf_join hands none of those c letters to
    _extend and at most s - c + C + 4g letters of v in all, and v is
    longer than that.  Appending the cancelled letters one at a time
    reads at least s letters and fails here."""
    ctx = GroupContext(genus)
    rng = random.Random(2800 + genus)
    K = 2 * ctx.n_gens
    C = max(K, 32)
    cases = []
    for s in (C + 1, 2 * C + 1, 4 * C + 1):
        c = s - K  # the letters of v that cancel against u
        for _ in range(50):
            u = nf(ctx, random_freely_reduced(ctx, c + 2 * C, rng))
            head = invert_word(u[-c:])
            v = nf(ctx, head + random_freely_reduced(ctx, 3 * C + 2 * K, rng))
            if (len(u) > c and v[:c] == head and len(v) > s + C + K
                    and settle_point(ctx, u, v) == s):
                cases.append((s, u, v, _nf_concat(ctx, u, v)))
                break
        else:
            pytest.fail(f"no join settles at {s} letters at genus {genus}")
    read = record_extend(monkeypatch)
    for s, u, v, expected in cases:
        read.clear()
        assert _nf_join(ctx, u, v) == expected
        c = s - K
        handed = sum(read, ())
        assert handed == v[c:c + len(handed)], (s, read)
        assert len(handed) <= s - c + C + K, (s, read)


def cancelled_len(u, v):
    """The number of letters v opens with that cancel the end of u, letter
    by letter."""
    k = 0
    while k < min(len(u), len(v)) and v[k] == -u[-1 - k]:
        k += 1
    return k


def cancelling_join(ctx, rng, left, right, k):
    """(u, v) = (left.w, w^-1.right), both irreducible, for a random w of
    k letters, with no letter of left cancelling against right, so that
    exactly the k letters of w cancel.  None if 100 tries find no w."""
    for _ in range(100):
        w = random_freely_reduced(ctx, k, rng)
        u, v = left + w, invert_word(w) + right
        if nf(ctx, u) == u and nf(ctx, v) == v and cancelled_len(u, v) == k:
            return u, v
    return None


def junction_rule_cases(ctx, rng):
    """(family, left, right): irreducible words whose join fires an S2(2g+1),
    S3(2) or S4b(2) rule with a left side that starts in left and ends in
    right.  Each left side is split at a random point of a random row."""
    g2 = ctx.n_gens
    found = {}
    for E in rng.sample(ctx.relator_table, len(ctx.relator_table)):
        sides = {"S2": E[:g2 + 1],
                 "S3": E[:1] + E[1:g2] * 2 + E[g2:g2 + 1],
                 "S4b": E[:g2 - 1] * 2 + E[g2 - 1:g2]}
        for family, side in sides.items():
            if family in found:
                continue
            j = rng.randrange(1, len(side))
            left, right = side[:j], side[j:]
            if nf(ctx, left) != left or nf(ctx, right) != right:
                continue
            steps = normalize(ctx, left + right)[1]
            if steps and steps[0].rule.family == family and steps[0].start < len(left):
                found[family] = (left, right)
        if len(found) == 3:
            break
    return [(family, *found[family]) for family in sorted(found)]


@pytest.mark.parametrize("genus", [2, 3, 8, 64])
def test_nf_join_cancels_the_junction_before_extend(genus, monkeypatch):
    """_nf_join(u, v) is _nf_concat(u, v) when v opens with the inverse of
    the last k letters of u: for k = 1, C-1, C and C+1; when all of u
    cancels, all of v, or both; and when an S2, S3 or S4b rule fires at
    the junction the cancellation leaves.  None of the k cancelled
    letters reaches _extend: the letters it is handed are those of v[k:],
    in order."""
    ctx = GroupContext(genus)
    rng = random.Random(3100 + genus)
    C = max(2 * ctx.n_gens, 32)
    cases = []  # (what, u, v, k)
    u = nf(ctx, random_freely_reduced(ctx, 6 * C, rng))
    for k in (1, C - 1, C, C + 1):
        for _ in range(20):
            v = invert_word(u[-k:]) + nf(ctx, random_freely_reduced(ctx, 2 * C, rng))
            if nf(ctx, v) == v and cancelled_len(u, v) == k:
                cases.append((f"k={k}", u, v, k))
                break
    head = nf(ctx, random_freely_reduced(ctx, 2 * C, rng))
    for right in (nf(ctx, random_freely_reduced(ctx, C, rng)) for _ in range(20)):
        v = invert_word(head) + right
        if nf(ctx, v) == v and cancelled_len(head, v) == len(head):
            cases.append(("all of u", head, v, len(head)))
            break
    cases.append(("all of v", u, invert_word(u[-2 * C:]), 2 * C))
    cases.append(("both", head, invert_word(head), len(head)))
    for family, left, right in junction_rule_cases(ctx, rng):
        pair = cancelling_join(ctx, rng, left, right, C + 1)
        assert pair is not None, family
        cases.append((family, *pair, C + 1))
    assert {what for what, *_ in cases} == {
        "k=1", f"k={C - 1}", f"k={C}", f"k={C + 1}", "all of u", "all of v", "both",
        "S2", "S3", "S4b"}, [what for what, *_ in cases]
    read = record_extend(monkeypatch)
    for what, u, v, k in cases:
        assert nf(ctx, u) == u and nf(ctx, v) == v and len(v) > C, what
        assert cancelled_len(u, v) == k, what
        expected = _nf_concat(ctx, u, v)
        read.clear()
        assert _nf_join(ctx, u, v) == expected, what
        handed = sum(read, ())
        assert handed == v[k:k + len(handed)], what


@pytest.mark.parametrize("genus", [2, 3, 8, 64])
def test_nf_join_with_an_empty_side_reads_nothing(genus, monkeypatch):
    """_nf_join with u or v empty returns the other word as a tuple,
    given as a tuple or as a list, and hands _extend no letter: so a
    root whose splice suffix is empty, as an exceptional core's often
    is, reads its core no more.  Reading v to join it to an empty u
    hands _extend all of v and fails here."""
    ctx = GroupContext(genus)
    rng = random.Random(3400 + genus)
    C = max(2 * ctx.n_gens, 32)
    blk = ctx.n_gens - 1
    E = rng.choice(ctx.relator_table)
    words = [nf(ctx, random_freely_reduced(ctx, n, rng)) for n in (0, 1, C, 3 * C)]
    words.append((E[1:blk] + E[:1]) * (3 * C // blk + 1))
    read = record_extend(monkeypatch)
    for w in words:
        for u, v in ((w, ()), ((), w), (list(w), []), ([], list(w))):
            out = _nf_join(ctx, u, v)
            assert type(out) is tuple and out == w, (u, v)
    assert read == []


# --- periodic runs copied unread ---------------------------------------------

RUN_GENERA = [2, 3, 8, 64]


def exceptional_blocks(ctx):
    """Every rotation of b_1...b_2g-1 over every row of the relator
    table: the blocks whose powers are the exceptional cores."""
    L = ctx.n_gens - 1
    return sorted({E[i:L] + E[:i] for E in ctx.relator_table for i in range(L)})


def random_blocks(ctx, rng, count, inverse_pair=False):
    """count random (2g-1)-letter blocks: freely reduced ones whose cube
    is irreducible, or, with inverse_pair, ones that open with a.a^-1."""
    L = ctx.n_gens - 1
    out = []
    while len(out) < count:
        if inverse_pair:
            a = rng.choice(ctx.letters)
            out.append((a, -a) + random_freely_reduced(ctx, L - 2, rng))
            continue
        blk = random_freely_reduced(ctx, L, rng)
        if is_irreducible(ctx, blk * 3):
            out.append(blk)
    return out


def letter_loop(ctx, acc, v):
    """acc with the letters of v appended one at a time by _extend."""
    acc = list(acc)
    rewrite._extend(ctx, acc, v, None)
    return acc


def pieces(ctx, acc, v, C, settle):
    """acc with v appended by _join_pieces."""
    acc = list(acc)
    rewrite._join_pieces(ctx, acc, v, C, settle)
    return acc


@pytest.mark.parametrize("genus", RUN_GENERA)
def test_nf_join_of_block_powers_matches_nf_concat(genus, monkeypatch):
    """_nf_join(u, v) is _nf_concat(u, v) for v = block^t, for every
    exceptional block (a sample of 48 at g = 64) and for random
    (2g-1)-letter blocks, with u the same power, the power of the next
    rotation of the block, or a random normal form.  Where u is v, the
    first piece is all that _extend is handed: the rest is one run."""
    ctx = GroupContext(genus)
    rng = random.Random(3500 + genus)
    C = max(2 * ctx.n_gens, 32)
    L = ctx.n_gens - 1
    blocks = exceptional_blocks(ctx)
    if genus == 64:
        blocks = rng.sample(blocks, 48)
    blocks += random_blocks(ctx, rng, 24)
    read = record_extend(monkeypatch)
    t = 4 * C // L + 1
    for blk in blocks:
        v = blk * t
        for u in (v, (blk[1:] + blk[:1]) * t, nf(ctx, random_freely_reduced(ctx, 2 * C, rng))):
            assert is_irreducible(ctx, u) and is_irreducible(ctx, v), (u, v)
            expected = _nf_concat(ctx, u, v)
            read.clear()
            assert _nf_join(ctx, u, v) == expected, (blk, u)
            if u == v:
                assert sum(map(len, read)) == C, (blk, read)


def s3_run(ctx, rng, t):
    """(u, v): u irreducible and ending with b_1, v = (b_2...b_2g)^t b_2g+1
    irreducible, so that joining them fires S3(t) at the last letter."""
    g2 = ctx.n_gens
    C = max(2 * g2, 32)
    for E in rng.sample(ctx.relator_table, len(ctx.relator_table)):
        v = E[1:g2] * t + E[g2:g2 + 1]
        u = nf(ctx, random_freely_reduced(ctx, C, rng) + E[:1])
        if u[-1:] == E[:1] and is_irreducible(ctx, v):
            return u, v
    raise AssertionError("no S3 run found")


def end_of_run_cases(ctx, rng):
    """(family, param, acc, v): appending v to acc copies a run of one
    (2g-1)-letter block and then fires a rule at the run's end.  S3(t)
    and S4b(t) take in the whole run; S2(2g+1) takes its last block.  u
    is irreducible; v is too for S3, and holds the left side for S4b
    and S2."""
    g2 = ctx.n_gens
    L = g2 - 1
    C = max(2 * g2, 32)
    out = []
    for t in (C // L + 1, 3 * C // L + 2):
        out.append(("S3", t, *s3_run(ctx, rng, t)))
        for E in ctx.relator_table:
            if ctx.greater(E[0], E[L]):
                out.append(("S4b", t, (), E[:L] * t + E[L:L + 1]))
                break
        for E in ctx.relator_table:
            v = E[:L] * t + E[L:L + 2]
            steps = normalize(ctx, v)[1]
            if steps and steps[0].rule.family == "S2":
                out.append(("S2", g2 + 1, (), v))
                break
    return out


@pytest.mark.parametrize("genus", RUN_GENERA)
def test_a_rule_at_the_end_of_a_run_sees_the_copied_run(genus, monkeypatch):
    """A run copied unread ends acc as the letter loop ends it: the
    letter after the run fires S3(t) or S4b(t) over the whole run, or
    S2(2g+1) on its last block, as the traced letter loop records, and
    _join_pieces and _nf_join give what the letter loop gives.  Fewer
    letters than v holds reach _extend, so the run was copied."""
    ctx = GroupContext(genus)
    rng = random.Random(3600 + genus)
    C = max(2 * ctx.n_gens, 32)
    cases = end_of_run_cases(ctx, rng)
    assert {family for family, *_ in cases} == {"S3", "S4b", "S2"}
    read = record_extend(monkeypatch)
    for family, param, u, v in cases:
        steps = normalize(ctx, u + v)[1]
        assert steps[-1].rule == rewrite.RuleId(family, param), (family, steps[-1])
        expected = letter_loop(ctx, u, v)
        read.clear()
        assert pieces(ctx, u, v, C, False) == expected, family
        assert sum(map(len, read)) < len(v), family
        if family == "S3":
            assert _nf_join(ctx, u, v) == tuple(expected)


@pytest.mark.parametrize("genus", RUN_GENERA)
def test_a_cascade_entered_at_the_junction_is_copied(genus, monkeypatch):
    """In the square of a type A word the junction fires S4b(t2+1), and
    then the letter loop fires one S4b(1) per block of the
    (b_2...b_2g)^t1 run that follows.  acc is never in step with that
    run, but _join_pieces applies the cascade as one S4(T) step: fewer
    letters than the run holds reach _extend, and _nf_join(x, x) is
    still _nf_concat(x, x)."""
    ctx = GroupContext(genus)
    rng = random.Random(3700 + genus)
    g2 = ctx.n_gens
    C = max(2 * g2, 32)
    t1 = 3 * C // (g2 - 1) + 1
    entries = [i for i, E in enumerate(ctx.relator_table) if ctx.greater(E[0], E[g2 - 1])]
    read = record_extend(monkeypatch)
    for entry in rng.sample(entries, 3):
        x = build_type_a(ctx, entry, rng.randrange(1, g2), t1, 2)
        assert is_irreducible(ctx, x)
        steps = normalize(ctx, x + x)[1]
        cascade = [s for s in steps if s.start >= len(x)]
        assert len(cascade) == t1 and {s.rule for s in cascade} == {rewrite.RuleId("S4b", 1)}
        expected = _nf_concat(ctx, x, x)
        read.clear()
        assert _nf_join(ctx, x, x) == expected
        assert sum(map(len, read)) < t1 * (g2 - 1), (entry, read)


def cascade_rows(ctx, rng, count, above=True):
    """count rows E of the relator table with b_1 = E[0] above
    b_2g = E[2g-1], or, with above False, not above it."""
    L = ctx.n_gens - 1
    rows = [E for E in ctx.relator_table if ctx.greater(E[0], E[L]) == above]
    return rng.sample(rows, count)


def cascade_cases(ctx, rng, E, m):
    """(kind, s, acc, v, e) for the cascade b_1 (b_2...b_2g)^T ->
    (b_2g...b_2)^T b_1 of row E, with a = E[0] and B = E[1:2g]: acc is
    a random word followed by rev(B).a.B[:s], the state s letters into a
    block, and v goes on with B[s:] and then B until its run ends at e,
    from a block before the piece boundary m to several blocks past it.
    Then v ends ("end"), or goes on with random letters ("random"), with b_4g
    ("S2"), with -a.a after a word that ends with b_2g+1 ("S3"), or with
    B[:-1] (a.B[:-1])^2 b_2g ("S4b").  Where the run ends on a block
    end, these fire S2(2g+1) on rev(B).a.b_4g, S3 over all of rev(B)^k
    once a is popped, and S4b(3) with the cascade's last a as its
    first letter: the kind names the rule."""
    g2 = ctx.n_gens
    L = g2 - 1
    C = max(2 * g2, 32)
    a, B = E[0], E[1:g2]
    phases = range(L) if L < 20 else sorted({0, 1, L - 1} | set(rng.sample(range(2, L - 1), 5)))
    out = []
    for s in phases:
        run = B[s:] + B * (m // L + 12)
        ends = range(m - L, m + 2 * L + 2) if L < 20 else sorted(
            {m - 1, m, m + 1, m + L - 1, m + L, m + L + 1, m + 2 * L + 1}
            | set(rng.sample(range(m - L, m + 2 * L), 6)))
        ends = list(ends) + [m + 7 * L + rng.randrange(L)]
        for e in ends:
            for kind, before, tail in (
                    ("end", (), ()),
                    ("random", (), random_freely_reduced(ctx, C, rng)),
                    ("S2", (), (E[-1],) + random_freely_reduced(ctx, 4, rng)),
                    ("S3", E[g2:g2 + 1], (-a, a)),
                    ("S4b", (), B[:-1] + E[:L] * 2 + B[-1:])):
                if kind in ("S2", "S3", "S4b") and (e - (L - s)) % L:
                    continue
                y = nf(ctx, random_freely_reduced(ctx, C, rng)) + before
                acc = y + rewrite._rev(B) + (a,) + B[:s]
                out.append((kind, s, acc, run[:e] + tail, e))
    return out


def near_miss_cases(ctx, rng, m):
    """(kind, acc, v) close to a cascade, where no S4(T) step is exact:
    b_1 not above b_2g ("below"); acc's tail rev(B).a.B[:s] with one
    letter changed ("tail"), among them b_4g before a, which makes
    S2(2g+1) fire, and a.B[:-1] before a, which makes it S4b(2), or
    that tail ending with a whole block a.B left unrewritten; and a
    block that holds an inverse pair ("inverse").  acc ends with the
    inverse of the first letters of v, so that the first piece cancels
    it down to that tail and reads r < 2g-1-s letters of the block
    after it: at the piece boundary m acc is in the block, as in a
    cascade, but the rule at the block's end is not S4b(1)."""
    g2 = ctx.n_gens
    L = g2 - 1
    C = max(2 * g2, 32)
    rows = [("below", E) for E in cascade_rows(ctx, rng, 2, above=False)]
    rows += [("tail", E) for E in cascade_rows(ctx, rng, 2)]
    for E in cascade_rows(ctx, rng, 2):
        i = rng.randrange(2, L)
        rows.append(("inverse", E[:i] + (-E[i - 1],) + E[i + 1:]))
    out = []
    for kind, E in rows:
        a, B = E[0], E[1:g2]
        for s in rng.sample(range(L), min(L, 4)):
            P = (B * (m // L + 2) + B[:s])[-(m - rng.randrange(L - s)):]
            v = P + B[s:] + B * (m // L + 4) + random_freely_reduced(ctx, C, rng)
            y = nf(ctx, random_freely_reduced(ctx, C, rng))
            tail = rewrite._rev(B) + (a,) + B[:s]
            tails = [tail]
            if kind == "tail":
                tails = [tail[:L - 1] + E[-1:] + tail[L:], E[:L] + tail[L:]]
                for _ in range(4):
                    j = rng.randrange(L + 1)
                    x = rng.choice([x for x in ctx.letters if x != tail[j]])
                    tails.append(tail[:j] + (x,) + tail[j + 1:])
            out += [(kind, y + t + invert_word(P), v) for t in tails]
        if kind == "tail":
            # a whole block a.B that acc holds unrewritten ends at m
            P = (B * (m // L + 2))[-m:]
            v = P + B * (m // L + 4) + random_freely_reduced(ctx, C, rng)
            out.append((kind, y + rewrite._rev(B) + (a,) + B + invert_word(P), v))
    return out


@pytest.mark.parametrize("genus", RUN_GENERA)
def test_join_pieces_applies_the_cascade_as_the_letter_loop_does(genus, monkeypatch):
    """_join_pieces gives what the letter loop gives where v carries acc
    through a cascade of S4b(1) steps, entered at every phase of the
    block relative to a piece boundary, with pieces of C and of 4g
    letters, without the settle test for any acc and with it where acc
    and v are irreducible (and then _nf_join does too).  The run ends a
    block before the boundary, at every letter of the two blocks past
    it, or several blocks later (T = 0, 1 and many whole blocks), and v
    then ends or goes on so that S2(2g+1), S3 or S4b(t) fires at the
    run's end, as the traced letter loop records.  Where v ends with
    the run or goes on at random, _extend is handed exactly the letters
    before the boundary and after the last whole block B: the block in
    progress and the T blocks after it went in as one step.  Near misses,
    where no S4(T) step is exact, also agree: b_1 not above b_2g, an
    acc tail one letter off and a block that holds an inverse pair."""
    ctx = GroupContext(genus)
    rng = random.Random(4000 + genus)
    g2 = ctx.n_gens
    K = 2 * g2
    C = max(K, 32)
    L = g2 - 1
    read = record_extend(monkeypatch)
    seen = Counter()
    for size in sorted({C, K}):
        for E in cascade_rows(ctx, rng, 2):
            for kind, s, acc, v, e in cascade_cases(ctx, rng, E, size):
                expected = letter_loop(ctx, acc, v)
                if kind not in ("end", "random"):
                    steps = []
                    rest = letter_loop(ctx, acc, v[:e])
                    rewrite._extend(ctx, rest, v[e:], steps)
                    # S3 fires once S1 has popped a
                    rule = steps[kind == "S3"].rule
                    assert rule.family == kind and (kind != "S4b" or rule.param == 3), steps
                    seen[kind] += 1
                read.clear()
                assert pieces(ctx, acc, v, size, False) == expected, (kind, e, size)
                # the block in progress at the boundary ends at j
                j = size + L - (s + size) % L
                if e >= j and kind in ("end", "random"):
                    while e < len(v) and v[e] == v[e - L]:
                        e += 1  # a random tail may go on with the run
                    T = (e - j) // L
                    assert sum(map(len, read)) == len(v) - (j + T * L - size), (kind, e, size)
                    seen["copied"] += 1
                if kind != "S3" and is_irreducible(ctx, acc) and is_irreducible(ctx, v):
                    seen["irreducible"] += 1
                    assert pieces(ctx, acc, v, size, True) == expected, (kind, e, size)
                    if size == C:
                        assert _nf_join(ctx, acc, v) == tuple(expected), (kind, e)
        for kind, acc, v in near_miss_cases(ctx, rng, size):
            expected = letter_loop(ctx, acc, v)
            assert pieces(ctx, acc, v, size, False) == expected, (kind, acc[-K:], size)
            seen[kind] += 1
    assert set(seen) == {"S2", "S3", "S4b", "copied", "irreducible",
                         "below", "tail", "inverse"}, seen


@pytest.mark.parametrize("genus", RUN_GENERA)
def test_join_pieces_matches_the_letter_loop_at_every_alignment(genus):
    """v = head.block^t.tail with the head one to C+1 letters long, so
    that the run starts and ends at every offset from a piece boundary,
    for runs shorter than one piece and runs of several.  _join_pieces
    gives what the letter loop gives, with pieces of C and of 4g
    letters: without the settle test for any acc and v, and with it
    where acc and v are irreducible, as _nf_join is.  Also for an acc
    that the first piece cancels down to a tail that is in step with a
    window holding an inverse pair, which the next letters cancel."""
    ctx = GroupContext(genus)
    rng = random.Random(3800 + genus)
    K = 2 * ctx.n_gens
    C = max(K, 32)
    L = ctx.n_gens - 1
    blocks = rng.sample(exceptional_blocks(ctx), 2) + random_blocks(ctx, rng, 1)
    heads = range(1, C + 2) if genus < 64 else sorted({1, 2, C - 1, C, C + 1}
                                                      | set(rng.sample(range(3, C - 1), 16)))
    irreducible = 0
    for blk in blocks:
        for t in (C // (2 * L) + 1, 2 * C // L + 1):
            for h in heads:
                v = (random_freely_reduced(ctx, h, rng) + blk * t
                     + random_freely_reduced(ctx, C, rng))
                u = nf(ctx, random_freely_reduced(ctx, C, rng))
                expected = letter_loop(ctx, u, v)
                for size in (C, K):
                    assert pieces(ctx, u, v, size, False) == expected, (blk, t, h, size)
                if is_irreducible(ctx, v):
                    irreducible += 1
                    assert pieces(ctx, u, v, C, True) == expected, (blk, t, h)
                    assert _nf_join(ctx, u, v) == tuple(expected)
    assert irreducible > 0
    for blk in random_blocks(ctx, rng, 3, inverse_pair=True):
        v = blk * (4 * C // L + 1)
        for size in (C, K):
            acc = nf(ctx, random_freely_reduced(ctx, C, rng)) + v[size - K:size]
            acc += invert_word(v[:size])
            expected = letter_loop(ctx, acc, v)
            assert pieces(ctx, acc, v, size, False) == expected, (blk, size)


@pytest.mark.parametrize("genus", RUN_GENERA)
def test_cyclic_check_on_periodic_words_matches_the_reference(genus):
    """is_cyclically_irreducible agrees with appending w to itself one
    letter at a time on words longer than its pieces that are powers of
    one (2g-1)-letter block, or nearly: blocks that hold an inverse pair,
    exceptional blocks, random blocks, a power cut inside a block, and
    the left sides S3(t) and S4b(t) around a run."""
    ctx = GroupContext(genus)
    rng = random.Random(3900 + genus)
    g2 = ctx.n_gens
    L = g2 - 1
    C = 4 * max(2 * g2, 32)
    t = 2 * C // L + 1
    words = []
    for blk in (random_blocks(ctx, rng, 4, inverse_pair=True)
                + rng.sample(exceptional_blocks(ctx), 4) + random_blocks(ctx, rng, 4)):
        words += [blk * t, blk * t + blk[:rng.randrange(1, L)], blk[1:] + blk * t]
    for E in rng.sample(ctx.relator_table, 4):
        words += [E[:1] + E[1:g2] * t + E[g2:g2 + 1], E[:L] * t + E[L:L + 1]]
    verdicts = Counter()
    for w in words:
        assert len(w) > C
        verdict = is_cyclically_irreducible(ctx, w)
        assert verdict == is_cyclically_irreducible_reference(ctx, w), w
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("L", [3, 5, 15, 127])
def test_run_end_matches_a_letter_loop(L):
    """_run_end(v, m, L) is where a letter loop stops, for runs that end
    0 to 400 letters past m and for runs that reach the end of v."""
    rng = random.Random(L)
    block = tuple(rng.sample(range(1, 2 * L + 1), L))
    for d in range(401):
        m = L + rng.randrange(0, 2 * L)
        run = (block * (1 + (m + d) // L))[:m + d]
        for v in (run, run + (-run[-L],) + block, run + (-run[-L],)):
            e = m
            while e < len(v) and v[e] == v[e - L]:
                e += 1
            assert e == m + d
            assert rewrite._run_end(v, m, L) == e, (d, len(v))
