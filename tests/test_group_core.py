"""Alphabet, word order, relator table and parsing."""

import ast
import copy
import itertools
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import surfgroup
from helpers import (
    chain_backward,
    chain_forward_reference,
    entry_at,
    free_reduce_reference,
    is_fractional_relator,
    letter_ranks,
    llfr_at,
    pair_ambient,
    parse_word_reference,
    pred_map,
    rank_list,
    reverse_word,
    succ_map,
    word_sort_key,
)
from surfgroup import group_core
from surfgroup.cli import main
from surfgroup.conjugacy import are_conjugate, class_nf, root
from surfgroup.group_core import (
    MAX_GENUS,
    GroupContext,
    WordParseError,
    abelianize,
    common_prefix_len,
    common_suffix_len,
    compare_words,
    cyclic_rotations,
    free_reduce,
    format_word,
    invert_word,
    parse_word,
)
from surfgroup.oracle import dehn_conjugate
from surfgroup.rewrite import d_basis_normalize, enumerate_ball, normalize

letters_g2 = st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4])
words_g2 = st.lists(letters_g2, max_size=24).map(tuple)


def test_genus_validation():
    for bad in (0, 1, 65, -3, 2.0, "2"):
        with pytest.raises(ValueError):
            GroupContext(bad)
    assert GroupContext(64).genus == 64


def test_alphabet_and_relator(ctx2):
    assert ctx2.n_gens == 4
    assert ctx2.alphabet_size == 8
    assert ctx2.letters == (1, 2, 3, 4, -1, -2, -3, -4)
    assert ctx2.relator == (1, 2, 3, 4, -1, -2, -3, -4)


def test_relator_table_is_all_rotations(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        n4 = ctx.alphabet_size
        assert len(ctx.relator_table) == 2 * n4
        for i in range(n4):
            d = ctx.relator
            assert ctx.relator_table[i] == d[i:] + d[:i]
            di = invert_word(d)
            assert ctx.relator_table[n4 + i] == di[i:] + di[:i]
        # every entry spells each signed letter exactly once
        full = set(ctx.letters)
        for E in ctx.relator_table:
            assert len(E) == n4
            assert set(E) == full


def test_entry_second_half_inverts_first(ctx2, ctx3):
    """Position k + 2g of any entry carries the inverse of position k."""
    for ctx in (ctx2, ctx3):
        g2 = ctx.n_gens
        for E in ctx.relator_table:
            for k in range(g2):
                assert E[k + g2] == -E[k]


def test_letter_order(ctx2):
    # ascending: c4 c3 c2 c1 c1^-1 c2^-1 c3^-1 c4^-1
    chain = [4, 3, 2, 1, -1, -2, -3, -4]
    assert rank_list(ctx2, chain) == list(range(8))
    for genus in range(2, MAX_GENUS + 1):
        ctx = GroupContext(genus)
        rank = letter_ranks(genus)
        assert sorted(rank) == sorted(ctx.letters)
        for a in ctx.letters:
            for b in ctx.letters:
                assert ctx.greater(a, b) == (rank[a] > rank[b])


def test_compare_words(ctx2):
    assert compare_words(ctx2, (), (4,)) == -1  # shorter first
    assert compare_words(ctx2, (4,), (3,)) == -1
    assert compare_words(ctx2, (1,), (-1,)) == -1
    assert compare_words(ctx2, (4, 4), (1,)) == 1
    assert compare_words(ctx2, (2, 3), (2, 3)) == 0


@given(data=st.data())
@settings(max_examples=240, deadline=None)
def test_sort_key_realises_compare(data):
    ctx = GroupContext(data.draw(st.sampled_from([2, 3, 8, 64])))
    letters = st.sampled_from(ctx.letters)
    u = data.draw(st.lists(letters, max_size=24).map(tuple))
    # half the pairs share u's length and a prefix of it, so a later letter decides
    k = data.draw(st.integers(0, len(u)))
    tail = st.lists(letters, min_size=len(u) - k, max_size=len(u) - k)
    v = data.draw(st.one_of(st.lists(letters, max_size=24).map(tuple),
                            tail.map(lambda t: u[:k] + tuple(t))))
    c = compare_words(ctx, u, v)
    ku, kv = word_sort_key(ctx, u), word_sort_key(ctx, v)
    assert c == (ku > kv) - (ku < kv)


def test_pair_ambient_unique(ctx2, ctx3):
    """A two-letter fractional word determines its cyclic word and position,
    and the two letters that follow a letter are the keys of its row map
    other than its inverse."""
    for ctx in (ctx2, ctx3):
        n4 = ctx.alphabet_size
        seen = {}
        for amb, cyc in enumerate((ctx.relator, invert_word(ctx.relator))):
            for i in range(n4):
                pair = (cyc[i], cyc[(i + 1) % n4])
                assert pair not in seen
                seen[pair] = (amb, i)
                assert pair_ambient(ctx, *pair) == amb
        assert len(seen) == 2 * n4
        # non-successor pairs report no ambient
        for a in ctx.letters:
            followers = {b for b in ctx.letters if pair_ambient(ctx, a, b) is not None}
            assert len(followers) == 2
            assert followers == set(ctx.follow[a]) - {-a}


def test_live_letters_name_the_letter_before(ctx2, ctx3):
    """follow[x] holds the three letters that can fire a rule after x: the
    inverse, mapped to None, and each successor, mapped to a row that ends
    at x with x's predecessor in that successor's ambient just before it;
    the empty word (key 0) has none."""
    for ctx in (ctx2, ctx3):
        assert ctx.follow[0] == {}
        assert set(ctx.follow) == set(ctx.letters) | {0}
        for x in ctx.letters:
            expected = {-x: None}
            for b in ctx.letters:
                amb = pair_ambient(ctx, x, b)
                if amb is not None:
                    expected[b] = pred_map(ctx, amb)[x]
            assert len(expected) == 3
            row_map = ctx.follow[x]
            assert set(row_map) == set(expected)
            assert row_map[-x] is None
            for b, before in expected.items():
                if before is not None:
                    assert row_map[b][-1] == x and row_map[b][-2] == before


def test_entry_lookup_round_trip(ctx2):
    """follow[a][b] starts at b, follows the ambient's successor map all
    the way round to a, and is a row of relator_table itself, not a copy."""
    rows = {id(E) for E in ctx2.relator_table}
    for amb in (0, 1):
        succ = succ_map(ctx2, amb)
        for a in ctx2.letters:
            letter = succ[a]
            E = ctx2.follow[a][letter]
            assert E[0] == letter
            assert all(succ[x] == y for x, y in zip(E, E[1:] + E[:1]))
            assert id(E) in rows
            assert E == entry_at(ctx2, letter, amb)


@pytest.mark.parametrize("genus", [2, 3, 64])
def test_row_map_names_the_row_of_every_successor_pair(genus):
    """Every row E of relator_table is follow[E[-1]][E[0]], and each
    letter a maps its inverse to None and the letter that follows it in
    the relator and in its inverse (walked in tests/helpers.py from
    ctx.relator alone) to the rotation of that cyclic word that starts
    there: a two-letter fractional word determines its row."""
    ctx = GroupContext(genus)
    follow = ctx.follow
    assert follow[0] == {}
    assert set(follow) == set(ctx.letters) | {0}
    for E in ctx.relator_table:
        assert follow[E[-1]][E[0]] is E
    for a in ctx.letters:
        assert len(follow[a]) == 3
        assert follow[a][-a] is None
        for amb in (0, 1):
            b = succ_map(ctx, amb)[a]
            assert follow[a][b] == entry_at(ctx, b, amb)


@pytest.mark.parametrize("genus", [2, 3])
def test_operations_leave_the_context_unchanged(genus):
    """A context holds only its tables: no operation writes to it."""
    ctx = GroupContext(genus)
    before = copy.deepcopy(vars(ctx))
    blk = ctx.n_gens - 1
    E = ctx.relator_table[1]
    core = (E[2:blk] + E[:2]) * 2
    z = (1, 2, -3)
    x = z + core + invert_word(z)
    normalize(ctx, x + E + x)
    assert class_nf(ctx, x).exceptional
    assert are_conjugate(ctx, x, core) is not None
    root(ctx, core)
    d_basis_normalize(ctx, x + E)
    enumerate_ball(ctx, 3)
    assert dehn_conjugate(ctx, x, core)
    assert vars(ctx) == before


def test_chain_forward_backward(ctx2):
    E = ctx2.relator_table[3]
    n4 = ctx2.alphabet_size
    length, amb = chain_forward_reference(ctx2, E, 0, n4)
    assert length == n4
    # the chain E[0]·row[:n4-1] is E, on the row that starts at E[1]
    row = entry_at(ctx2, E[1], amb)
    assert row == ctx2.follow[E[0]][E[1]]
    assert (E[0],) + row[:-1] == E
    assert chain_forward_reference(ctx2, E, 0, 3) == (3, amb)
    assert entry_at(ctx2, E[0], amb) == E
    assert chain_backward(ctx2, E, n4 - 1, n4) == (n4, amb)
    assert chain_forward_reference(ctx2, (1, 1), 0, n4) == (1, None)
    assert chain_backward(ctx2, (1, 1), 1, n4) == (1, None)


def test_fractional_relator_and_window(ctx2):
    E = ctx2.relator_table[5]
    for k in range(2, ctx2.alphabet_size + 1):
        assert is_fractional_relator(ctx2, E[:k])
    assert not is_fractional_relator(ctx2, (1, 1))
    with pytest.raises(ValueError):
        is_fractional_relator(ctx2, (1,))
    assert llfr_at(ctx2, E[:5], 2) == (0, 5)
    assert llfr_at(ctx2, (1, 1), 0) is None
    with pytest.raises(ValueError):
        llfr_at(ctx2, E[:5], 4)


@given(w=words_g2)
@settings(max_examples=120, deadline=None)
def test_free_reduce_properties(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))
    assert free_reduce(w + invert_word(w)) == ()
    ctx = GroupContext(2)
    assert abelianize(ctx, r) == abelianize(ctx, w)


@given(w=words_g2, pairs=st.lists(st.tuples(st.integers(0, 24), letters_g2), max_size=4))
@settings(max_examples=200, deadline=None)
def test_free_reduce_matches_the_loop(w, pairs):
    """w, and w with inverse pairs x x^-1 inserted: the one-pass test
    returns the loop's word, as a tuple, for a tuple or a list."""
    v = list(w)
    for cut, x in pairs:
        v[cut:cut] = [x, -x]
    for word in (w, tuple(v), v):
        r = free_reduce(word)
        assert type(r) is tuple
        assert r == free_reduce_reference(word)


@given(w=words_g2)
@settings(max_examples=80, deadline=None)
def test_invert_reverse_involutions(w):
    assert invert_word(invert_word(w)) == w
    assert reverse_word(reverse_word(w)) == w
    assert invert_word(w) == tuple(-x for x in reverse_word(w))


def test_invert_of_product():
    u, v = (1, 2, -3), (4, 4, -1)
    assert invert_word(u + v) == invert_word(v) + invert_word(u)


def test_cyclic_rotations():
    assert cyclic_rotations(()) == ((),)
    w = (1, 2, 3)
    rots = cyclic_rotations(w)
    assert rots == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    ctx = GroupContext(2)
    assert all(r in ctx.relator_table[:8] for r in cyclic_rotations(ctx.relator))


def test_common_prefix_suffix():
    assert common_prefix_len((1, 2, 3), (1, 2, 4)) == 2
    assert common_suffix_len((1, 2, 3), (4, 2, 3)) == 2
    assert common_prefix_len((), (1,)) == 0
    assert common_suffix_len((1,), (1,)) == 1


def test_abelianize(ctx2):
    assert abelianize(ctx2, ctx2.relator) == (0, 0, 0, 0)
    assert abelianize(ctx2, (1, 1, -2, 3)) == (2, -1, 1, 0)
    u, v = (1, 2, -3), (3, -1, 4)
    summed = tuple(a + b for a, b in zip(abelianize(ctx2, u), abelianize(ctx2, v)))
    assert abelianize(ctx2, u + v) == summed


def test_check_word(ctx2):
    ctx2.check_word((1, -4, 2))
    ctx2.check_word(())
    ctx2.check_word([4, -1])
    # bool is a subclass of int, so the letter loop has always taken True
    # for c1; the set test alone would too, since True == 1
    ctx2.check_word((2, True))
    top = 2 * ctx2.genus + 1
    for bad, letter, pos in (
        ((0,), "0", 1), ((5,), "5", 1), ((-5,), "-5", 1), ((1.5,), "1.5", 1),
        ((2, 1.0), "1.0", 2), ((1, -2, 0), "0", 3), ((3, top), str(top), 2),
        (("c1",), "'c1'", 1), ((1, [1]), "[1]", 2),
    ):
        with pytest.raises(ValueError) as exc:
            ctx2.check_word(bad)
        assert str(exc.value) == (
            f"letter {letter} at position {pos} is outside the alphabet for genus 2"
        )


class _Letter(int):
    """An int subclass, which check_word takes as a letter."""


@pytest.mark.parametrize("odd", [
    True, _Letter(1), 1.0, Decimal(1), Fraction(1), 1 + 0j, "1", None, [1], 0, 5, -5, 10**30,
], ids=repr)
@pytest.mark.parametrize("position", [0, 2, 4])
def test_check_word_fast_path_agrees_with_its_loop(ctx2, odd, position):
    """One odd letter first, in the middle or last: check_word and its
    letter loop accept alike or refuse with the same message."""
    w = [1, -2, 3, -4, 2]
    w[position] = odd
    for word in (w, tuple(w)):
        outcomes = []
        for check in (ctx2.check_word, ctx2._check_letters):
            try:
                check(word)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (type(odd) in (bool, _Letter))


def test_parse_word_basics():
    assert parse_word("c1 c2^-1", 2) == (1, -2)
    assert parse_word("C2", 2) == (-2,)
    assert parse_word("c1*c2", 2) == (1, 2)
    assert parse_word("  c3   c4 ", 2) == (3, 4)
    assert parse_word("e", 2) == ()
    assert parse_word("c1 e c2", 2) == (1, 2)
    assert parse_word("a1 A2", 2, base="a") == (1, -2)


def test_parse_word_errors():
    cases = [
        ("c0", 2, "c"),
        ("c9", 2, "c"),
        ("x1", 2, "c"),
        ("C1^-1", 2, "c"),
        ("c1^2", 2, "c"),
        ("c1", 2, "a"),
    ]
    for text, genus, base in cases:
        with pytest.raises(WordParseError) as e:
            parse_word(text, genus, base=base)
        assert e.value.token == text
        assert e.value.position == 1
    with pytest.raises(WordParseError) as e:
        parse_word("c1 c2 c99", 3)
    assert e.value.token == "c99"
    assert e.value.position == 3
    oversized = "c" + "9" * 5000
    messages = [
        ("c1^2", 2, "c", "bad token 'c1^2' at position 1"),
        ("c1 a1", 2, "c", "bad token 'a1' at position 2: expected letter 'c'"),
        ("c1", 2, "A", "bad token 'c1' at position 1: expected letter 'a'"),
        ("c1 e C1^-1", 2, "c",
         "bad token 'C1^-1' at position 3: uppercase already means inverse"),
        ("c9", 2, "c", "bad token 'c9' at position 1: index out of range for genus 2"),
        ("c0", 10**6, "c", "bad token 'c0' at position 1: index out of range for genus 1000000"),
        (oversized, 2, "c",
         f"bad token {oversized!r} at position 1: index out of range for genus 2"),
    ]
    for text, genus, base, message in messages:
        with pytest.raises(WordParseError) as e:
            parse_word(text, genus, base=base)
        assert str(e.value) == message


def test_format_word():
    assert format_word(()) == "e"
    assert format_word((1, -2, 4)) == "c1 c2^-1 c4"
    assert format_word((-3,), base="a") == "a3^-1"


@given(w=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6]),
                  max_size=16).map(tuple))
@settings(max_examples=100, deadline=None)
def test_parse_format_round_trip(w):
    assert parse_word(format_word(w), 3) == w


def test_str_split_separates_where_the_regex_does():
    """parse_word splits with str.split, the reference with [\\s*]+: the
    two whitespace classes agree on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert {ch for ch in every if ch.isspace()} == set(re.findall(r"\s", every))


def _outcome(parser, text, genus, base):
    try:
        return parser(text, genus, base=base)
    except WordParseError as exc:
        return str(exc), exc.token, exc.position


@given(text=st.text(st.sampled_from(list("cCaAeéİ019١^-*") + ["\t", " ", "\xa0", "\u3000", "\n"]),
                    max_size=30),
       genus=st.sampled_from([2, 3, 64, 65, 10**6]),
       base=st.sampled_from(["c", "a", "e", "é", "İ"]))
@settings(max_examples=1500, deadline=None)
def test_parse_word_agrees_with_the_regex_parser(text, genus, base):
    """The same tuple, or a WordParseError with the same text, token and
    position.  Tokens stay short: the reference's int raises ValueError
    past 4300 digits, which test_parse_word_errors covers."""
    assert _outcome(parse_word, text, genus, base) == _outcome(
        parse_word_reference, text, genus, base)


@given(text=st.lists(st.sampled_from(["c1", "c01", "C١", "c2^-1", "C12", "C1^-1", "e", "a3",
                                      "A3", "c0", "é1", "É1^-1", "İ2", "i̇2", "e1", "E1"]),
                     max_size=8).map(" ".join),
       genus=st.sampled_from([2, 3, 64, 65]),
       base=st.sampled_from(["c", "a", "e", "é", "İ"]))
@settings(max_examples=500, deadline=None)
def test_parse_word_agrees_on_token_shaped_text(text, genus, base):
    assert _outcome(parse_word, text, genus, base) == _outcome(
        parse_word_reference, text, genus, base)


@given(w=st.lists(st.one_of(st.integers(), st.sampled_from(
    [0, 2 * MAX_GENUS, -2 * MAX_GENUS, 2 * MAX_GENUS + 1, -2 * MAX_GENUS - 1])),
    min_size=1, max_size=12).map(tuple),
       base=st.sampled_from(["c", "a", "é", ""]))
@settings(max_examples=500, deadline=None)
def test_format_word_matches_the_f_string(w, base):
    assert format_word(w, base=base) == " ".join(
        f"{base}{x}" if x > 0 else f"{base}{-x}^-1" for x in w)


def test_a_huge_descriptor_genus_builds_no_table(tmp_path, monkeypatch, capsys):
    """load_descriptor parses the order line with the file's genus before
    that genus is refused; no token table is built for it."""
    genera = []
    table = group_core._token_letters

    def spy(genus, base):
        genera.append(genus)
        return table(genus, base)

    monkeypatch.setattr(group_core, "_token_letters", spy)
    pres = tmp_path / "P.pres"
    pres.write_text("genus 1000000\na1 a2 A1 A2 a3 a4 A3 A4\n", encoding="utf-8")
    size = table.cache_info().currsize
    assert main(["translate", "--presentation", f"file:{pres}", "a1"]) == 1
    assert capsys.readouterr().out == ""
    assert parse_word("c1 c2000000", 10**6) == (1, 2000000)
    assert table.cache_info().currsize == size
    assert all(g <= MAX_GENUS for g in genera)


def test_every_public_name_has_a_caller():
    """Each name in surfgroup.__all__ is loaded or imported by a package
    module other than __init__ (its own def or class statement is not a
    load), or named as a whole word in scripts/, bench/ or the README.
    Code that only the tests call lives in tests/helpers.py."""
    root = Path(__file__).resolve().parent.parent
    used = set()
    for path in (root / "src" / "surfgroup").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    texts = [root / "README.md"]
    texts += sorted((root / "scripts").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in texts)
    public = [name for name in surfgroup.__all__ if name != "__version__"]
    assert public
    uncalled = [
        name for name in public
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert uncalled == [], uncalled


def test_the_package_has_no_assert_and_no_bare_assertion_error():
    """assert statements vanish under python -O, and a bare AssertionError
    escapes the CLI's exit codes: every check raises VerificationError."""
    found = []
    sources = sorted(Path(surfgroup.__file__).parent.rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert found == []
