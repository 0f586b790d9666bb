"""Splice decomposition of powers, cores, translation numbers, special shapes."""

import random

import pytest

from helpers import (
    build_special,
    build_type_a,
    check_length_formula,
    classify_special,
    expected_core_of_fragment,
    random_nontrivial,
    random_relator_heavy,
    special_instances,
)
from surfgroup import powers
from surfgroup.group_core import (
    DomainError,
    VerificationError,
    cyclic_rotations,
    invert_word,
)
from surfgroup.powers import (
    MAX_POWER_LETTERS,
    PowerDecomposition,
    ci,
    nf_power,
    power_decompose,
    translation_number,
)
from surfgroup.rewrite import is_cyclically_irreducible, is_irreducible, nf


def test_translation_number_basics(ctx2):
    assert translation_number(ctx2, ()) == 0
    assert translation_number(ctx2, ctx2.relator) == 0
    assert translation_number(ctx2, (1,)) == 1
    assert translation_number(ctx2, (1, 2)) == 2


def test_power_decompose_requires_nontrivial(ctx2):
    """The trivial element decomposes (to the empty decomposition); ci,
    which asks for its core, refuses it, and so does nf_power for an
    exponent below 1."""
    for x in ((), ctx2.relator):
        with pytest.raises(DomainError, match="power decomposition of the trivial element"):
            ci(ctx2, x)
    with pytest.raises(DomainError):
        nf_power(ctx2, (1,), 0)


def test_trivial_element_has_the_empty_decomposition(ctx2, ctx3):
    """(), the relator and w w^-1 decompose to ((), (), (), ()), on which
    nf(e^k) = e and tau(e) = 0 hold as on every other decomposition."""
    rng = random.Random(19)
    for ctx in (ctx2, ctx3):
        words = [(), ctx.relator, ctx.relator[::-1]]
        words += [w + invert_word(w) for w in (random_nontrivial(ctx, 12, rng) for _ in range(20))]
        for x in words:
            pd = power_decompose(ctx, x)
            assert pd == PowerDecomposition((), (), (), ())
            assert all(pd.assemble(k) == () for k in (2, 3, 7))
            assert len(pd.core) == translation_number(ctx, x) == 0


def test_decomposition_carries_the_normal_form(ctx2, ctx3):
    """power_decompose normalizes raw input itself: its word is nf(x), and
    x and nf(x) decompose alike.  At g = 2, c1 c2 c3 c4 (nf c4 c3 c2 c1)
    decomposes through its normal form, with the prefix
    c4 c3 c2 c1 c4 c3 c2 c1; a raw word taken for normal gave
    c1 c2 c3 c4 c4 c3 c2 c1."""
    x = (1, 2, 3, 4)
    n1 = (4, 3, 2, 1)
    pd = power_decompose(ctx2, x)
    assert pd == power_decompose(ctx2, n1) == PowerDecomposition(n1 * 2, n1, (), n1)
    rng = random.Random(23)
    for ctx in (ctx2, ctx3):
        words = [random_relator_heavy(ctx, rng.randrange(1, 40), rng) for _ in range(60)]
        words += [tuple(rng.choice(ctx.letters) for _ in range(rng.randrange(1, 16))) for _ in range(60)]
        for x in words:
            pd = power_decompose(ctx, x)
            assert pd.word == nf(ctx, x)
            assert power_decompose(ctx, pd.word) == pd
            if pd.word:
                assert pd.assemble(2) == nf(ctx, x * 2)
                assert pd.assemble(3) == nf(ctx, x * 3)


def test_nf_power_refuses_an_oversized_power_before_building_it(ctx2, monkeypatch):
    # well above the benchmark's powers, the longest of about 10^5 letters
    assert MAX_POWER_LETTERS >= 10 * 800 * 1200
    # |(c1 c2)^k| = 2k
    with pytest.raises(DomainError, match="more than the limit"):
        nf_power(ctx2, (1, 2), MAX_POWER_LETTERS // 2 + 1)
    monkeypatch.setattr(powers, "MAX_POWER_LETTERS", 100)
    assert len(nf_power(ctx2, (1, 2), 50)) == 100
    with pytest.raises(DomainError):
        nf_power(ctx2, (1, 2), 51)


def test_assemble_builds_every_positive_power_and_refuses_the_rest(ctx2, ctx3, monkeypatch):
    """assemble(1) is nf(x), an exponent below 1 is refused, and a power
    past MAX_POWER_LETTERS is refused with its length, as nf_power
    refuses it."""
    rng = random.Random(2200)
    for ctx in (ctx2, ctx3):
        for x in [(), ctx.relator] + [random_nontrivial(ctx, 12, rng) for _ in range(20)]:
            pd = power_decompose(ctx, x)
            assert pd.assemble(1) == pd.word == nf(ctx, x)
            for k in (2, 3, 5):
                assert pd.assemble(k) == nf_power(ctx, x, k) == nf(ctx, x * k)
            for k in (0, -3):
                with pytest.raises(DomainError, match=f"^exponent must be >= 1, got {k}$"):
                    pd.assemble(k)
    monkeypatch.setattr(powers, "MAX_POWER_LETTERS", 100)
    pd = power_decompose(ctx2, (1, 2))  # |(c1 c2)^k| = 2k
    assert len(pd.assemble(50)) == 100
    with pytest.raises(DomainError, match="^x\\^51 has 102 letters, more than the limit of 100$"):
        pd.assemble(51)


# c3 c1 c2 c3^-1: nf(x^2) = c3 c1 c2 . c1 c2 . c3^-1 splices at p = 3, q = 2
SPLICED = (3, 1, 2, -3)


def test_assemble_copies_every_core_at_each_block_boundary(ctx2):
    """With a suffix, assemble copies the cores in blocks of whole cores
    of about 512 letters.  Around each block boundary, for cores of 1 to
    1,000 letters, it gives prefix + core * (k - 2) + suffix, and the
    powers of c3 c1 c2 c3^-1 are c3 (c1 c2)^k c3^-1 across the
    boundaries of its 2-letter core."""
    rng = random.Random(2300)
    for n in (1, 2, 3, 4, 5, 40, 255, 256, 257, 511, 512, 513, 1000):
        core = tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(n))
        pd = PowerDecomposition((4, 5), core, (6,), (7,))
        m = 1 + 512 // n
        for k in sorted({2, 3, m + 1, m + 2, m + 3, 2 * m + 1, 2 * m + 2, 2 * m + 3}):
            out = pd.assemble(k)
            assert type(out) is tuple and out == (4, 5) + core * (k - 2) + (6,), (n, k)
    for k in (256, 257, 258, 259, 260, 515, 516, 517):
        assert nf_power(ctx2, SPLICED, k) == (3,) + (1, 2) * k + (-3,), k


def _flip(w, i):
    """w with the letter at i inverted."""
    i %= len(w)
    return w[:i] + (-w[i],) + w[i + 1:]


@pytest.mark.parametrize("power, corrupt, message", [
    (3, lambda w: w + (1,), "growth formula"),
    (2, lambda w: _flip(w, -1), "splice ends"),
    (3, lambda w: _flip(w, -1), "splice ends"),
    (3, lambda w: _flip(w, 0), "splice ends"),
    (2, lambda w: _flip(w, 4), "does not splice"),
])
def test_each_splice_check_raises(ctx2, monkeypatch, power, corrupt, message):
    """A wrong nf(x^2) or nf(x^3) fails the check it breaks, with no
    fallback to another splice pair."""
    n2, n3 = nf(ctx2, SPLICED * 2), nf(ctx2, SPLICED * 3)
    assert power_decompose(ctx2, SPLICED) == PowerDecomposition((3, 1, 2, 1, 2), (1, 2), (-3,), SPLICED)
    given = iter([corrupt(n2) if power == 2 else n2, corrupt(n3) if power == 3 else n3])
    monkeypatch.setattr(powers, "_nf_join", lambda ctx, u, v: next(given))
    with pytest.raises(VerificationError, match=message):
        power_decompose(ctx2, SPLICED)


def test_a_core_that_is_not_cyclically_irreducible_raises(ctx2, monkeypatch):
    monkeypatch.setattr(powers, "is_cyclically_irreducible", lambda ctx, w: False)
    with pytest.raises(VerificationError, match="not cyclically irreducible"):
        power_decompose(ctx2, SPLICED)


def test_nf_power_matches_concatenation(ctx2, ctx3):
    rng = random.Random(3)
    for ctx in (ctx2, ctx3):
        for _ in range(60):
            x = random_nontrivial(ctx, 12, rng)
            for k in range(1, 7):
                assert nf_power(ctx, x, k) == nf(ctx, x * k)
    assert nf_power(ctx2, (1, -1), 5) == ()


def test_decomposition_identities(ctx2, ctx3):
    """prefix W^(k-2) suffix assembles nf(x^k); both seams conjugate W to x."""
    rng = random.Random(5)
    for ctx in (ctx2, ctx3):
        for _ in range(60):
            x = nf(ctx, random_nontrivial(ctx, 12, rng))
            pd = power_decompose(ctx, x)
            assert is_cyclically_irreducible(ctx, pd.core)
            assert len(pd.core) == translation_number(ctx, x)
            assert pd.assemble(2) == nf(ctx, x + x)
            for k in (3, 4, 5):
                assert pd.assemble(k) == nf(ctx, x * k)
            assert nf(ctx, pd.prefix + pd.core + invert_word(pd.prefix)) == x
            assert nf(ctx, invert_word(pd.suffix) + pd.core + pd.suffix) == x


def test_growth_and_core_length(ctx2, ctx3):
    rng = random.Random(9)
    for ctx in (ctx2, ctx3):
        for _ in range(80):
            x = nf(ctx, random_nontrivial(ctx, 14, rng))
            tau = translation_number(ctx, x)
            assert tau == len(nf(ctx, x + x)) - len(x)
            assert tau == len(ci(ctx, x))
            assert tau >= 1
            assert check_length_formula(ctx, x, 6)


def test_core_is_fixed_point(ctx2):
    rng = random.Random(13)
    for _ in range(60):
        w = ci(ctx2, random_nontrivial(ctx2, 12, rng))
        assert ci(ctx2, w) == w
        assert nf_power(ctx2, w, 3) == w * 3


def test_core_of_powers(ctx2):
    rng = random.Random(17)
    for _ in range(40):
        x = random_nontrivial(ctx2, 8, rng)
        base = ci(ctx2, x)
        for r in (2, 3, 4):
            core_r = ci(ctx2, x * r)
            assert len(core_r) == r * len(base)
            assert core_r in cyclic_rotations(base * r)


def test_tau_is_conjugation_invariant(ctx2):
    rng = random.Random(19)
    for _ in range(60):
        x = random_nontrivial(ctx2, 10, rng)
        w = random_nontrivial(ctx2, 6, rng)
        conj = nf(ctx2, w + x + invert_word(w))
        assert translation_number(ctx2, conj) == translation_number(ctx2, x)


def test_core_table_for_relator_fragments(ctx2, ctx3):
    """Cores of every proper prefix of every relator-table entry."""
    for ctx in (ctx2, ctx3):
        n4 = ctx.alphabet_size
        for eidx in range(len(ctx.relator_table)):
            E = ctx.relator_table[eidx]
            for k in range(1, n4):
                assert ci(ctx, E[:k]) == expected_core_of_fragment(ctx, eidx, k)


def test_special_builders_round_trip(ctx2):
    instances = special_instances(ctx2)
    seen = {tag.tag for tag, _ in instances}
    assert seen == {"TypeA", "TypeB", "TypeC"}
    for tag, x in instances:
        assert is_irreducible(ctx2, x)
        assert x[0] != -x[-1]
        assert not is_cyclically_irreducible(ctx2, x)
        got = classify_special(ctx2, x)
        assert got.tag == tag.tag
        assert build_special(ctx2, got) == x


def test_special_words_have_no_settled_rotation(ctx2):
    """No rotation of a special word normalizes to a cyclically irreducible
    word; that failure is exactly why they are singled out."""
    for _tag, x in special_instances(ctx2, t_values=(1,), t_sums=(0, 1)):
        for r in cyclic_rotations(x):
            assert not is_cyclically_irreducible(ctx2, nf(ctx2, r))


def test_plain_words_with_reducible_square_have_one(ctx2):
    rng = random.Random(29)
    found = 0
    while found < 60:
        w = nf(ctx2, random_nontrivial(ctx2, 14, rng))
        if not w or w[0] == -w[-1] or is_cyclically_irreducible(ctx2, w):
            continue
        if classify_special(ctx2, w).tag is not None:
            continue
        found += 1
        assert any(
            is_cyclically_irreducible(ctx2, nf(ctx2, r))
            for r in cyclic_rotations(w)
        )


def test_classifier_domain_and_negatives(ctx2):
    E = ctx2.relator_table[0]
    with pytest.raises(DomainError):
        classify_special(ctx2, E[:ctx2.n_gens + 1])  # reducible
    with pytest.raises(DomainError):
        classify_special(ctx2, (1, 2, -1))  # not cyclically freely reduced
    rng = random.Random(31)
    for _ in range(40):
        w = ci(ctx2, random_nontrivial(ctx2, 10, rng))
        assert classify_special(ctx2, w).tag is None


def test_build_type_a_validation(ctx2):
    g2 = ctx2.n_gens
    eidx = next(
        i for i, E in enumerate(ctx2.relator_table)
        if ctx2.greater(E[0], E[g2 - 1])
    )
    with pytest.raises(ValueError):
        build_type_a(ctx2, eidx, 0, 0, 0)
    with pytest.raises(ValueError):
        build_type_a(ctx2, eidx, g2, 0, 0)
    bad = next(
        i for i, E in enumerate(ctx2.relator_table)
        if not ctx2.greater(E[0], E[g2 - 1])
    )
    with pytest.raises(ValueError):
        build_type_a(ctx2, bad, 1, 0, 0)


def test_special_instances_exist_at_higher_genus(ctx3):
    instances = special_instances(ctx3, t_values=(1,), t_sums=(0,))
    assert {tag.tag for tag, _ in instances} == {"TypeA", "TypeB", "TypeC"}
    for tag, x in instances[:40]:
        got = classify_special(ctx3, x)
        assert got.tag == tag.tag
