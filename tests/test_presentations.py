"""Cyclic orders, the word bijection h, rotation bookkeeping, coarse formulae."""

import random

import pytest

from helpers import random_freely_reduced, translate_reference, untranslate_reference
from surfgroup.group_core import DomainError, GroupContext
from surfgroup.presentations import (
    PresentationDescriptor,
    canonical_descriptor,
    canonical_relator,
    check_coarse_formulae,
    length_in,
    load_descriptor,
    o_sequence,
    o_value,
    symmetric_descriptor,
    t_parameter,
    translate,
    untranslate,
)
from surfgroup.rewrite import nf


def test_symmetric_order_and_gap():
    sym = symmetric_descriptor(2)
    assert sym.cyclic_order == (1, -2, 3, -4, -1, 2, -3, 4)
    assert sym.label == "symmetric"
    for g in (2, 3, 4):
        s = symmetric_descriptor(g)
        for x in s.cyclic_order:
            # inverses sit diametrically: position gap is 2g for every letter
            assert o_value(s, x) == 2 * g


def test_canonical_order_and_relator():
    can = canonical_descriptor(2)
    assert can.cyclic_order == (1, -2, -1, 2, 3, -4, -3, 4)
    assert canonical_relator(2) == (1, 2, -1, -2, 3, 4, -3, -4)
    assert len(canonical_relator(3)) == 12


def test_canonical_relator_translates_to_identity():
    for g in (2, 3, 4):
        ctx = GroupContext(g)
        assert length_in(ctx, canonical_descriptor(g), canonical_relator(g)) == 0


def test_position_gaps_canonical():
    can = canonical_descriptor(2)
    assert o_value(can, 1) == 6
    assert o_value(can, 2) == 2
    assert o_value(can, 3) == 6
    assert o_value(can, 4) == 2
    assert o_sequence(can, (1, 2, -1)) == (6, 2, 2)
    # the gap of x^-1 complements the gap of x
    for x in can.cyclic_order:
        assert (o_value(can, x) + o_value(can, -x)) % 8 == 0


def test_translation_of_short_words():
    can = canonical_descriptor(2)
    assert translate(can, (1,)) == (1,)
    assert translate(can, (1, 1)) == (1, 3)
    assert translate(can, (1, -1)) == (1, -1)


def _orders(genus, rng):
    """The canonical and symmetric orders and two seeded shuffles of the
    4g signed letters."""
    letters = [x for i in range(1, 2 * genus + 1) for x in (i, -i)]
    yield canonical_descriptor(genus)
    yield symmetric_descriptor(genus)
    for k in range(2):
        yield PresentationDescriptor(genus, tuple(rng.sample(letters, len(letters))), f"shuffled{k}")


@pytest.mark.parametrize("genus", [2, 3, 8, 64])
def test_table_translation_matches_the_reference(genus):
    """translate and untranslate give the words the per-letter
    _position / o_value loops in tests/helpers.py give, on the empty
    word, short words and 8,000-letter words, not freely reduced."""
    rng = random.Random(900 + genus)
    letters = GroupContext(genus).letters
    for p in _orders(genus, rng):
        words = [()] + [tuple(rng.choices(letters, k=rng.randrange(1, 40))) for _ in range(30)]
        words.append(tuple(rng.choices(letters, k=8000)))
        for w in words:
            assert translate(p, w) == translate_reference(p, w)
            assert untranslate(p, w) == untranslate_reference(p, w)
            assert untranslate(p, translate(p, w)) == w


@pytest.mark.parametrize("genus", [2, 64])
def test_translation_names_the_first_foreign_letter(genus):
    """A foreign letter after good ones raises the DomainError the
    reference raises: it names the letter, and the presentation whose
    alphabet it is outside (the symmetric one for untranslate)."""
    can = canonical_descriptor(genus)
    bad = 2 * genus + 1
    for fn, ref, label in ((translate, translate_reference, "canonical"),
                           (untranslate, untranslate_reference, "symmetric")):
        for w, first in (((1, 2, bad, 0), bad), ((1, -2, 0, bad), 0), ((-bad,), -bad)):
            text = f"letter {first} is outside the alphabet of presentation {label!r}"
            with pytest.raises(DomainError) as got:
                fn(can, w)
            assert str(got.value) == text
            with pytest.raises(DomainError) as want:
                ref(can, w)
            assert str(want.value) == text


def test_symmetric_translation_is_identity():
    rng = random.Random(301)
    for g in (2, 3):
        sym = symmetric_descriptor(g)
        ctx = GroupContext(g)
        for _ in range(40):
            w = random_freely_reduced(ctx, rng.randrange(0, 12), rng)
            assert translate(sym, w) == w


def test_round_trips():
    rng = random.Random(303)
    for g in (2, 3):
        can = canonical_descriptor(g)
        ctx = GroupContext(g)
        for _ in range(60):
            w = random_freely_reduced(ctx, rng.randrange(0, 14), rng)
            s = translate(can, w)
            assert len(s) == len(w)
            assert untranslate(can, s) == w
            assert translate(can, untranslate(can, w)) == w


def test_relator_insertion_is_invisible():
    """Inserting the canonical relator anywhere keeps the translated element."""
    rng = random.Random(307)
    can = canonical_descriptor(2)
    ctx = GroupContext(2)
    rel = canonical_relator(2)
    for _ in range(50):
        u = random_freely_reduced(ctx, rng.randrange(0, 8), rng)
        v = random_freely_reduced(ctx, rng.randrange(0, 8), rng)
        with_rel = nf(ctx, translate(can, u + rel + v))
        without = nf(ctx, translate(can, u + v))
        assert with_rel == without


def test_t_parameter_values():
    assert t_parameter(canonical_descriptor(2)) == 4
    assert t_parameter(canonical_descriptor(3)) == 6
    for g in (2, 3, 4):
        assert t_parameter(symmetric_descriptor(g)) == 2


def test_aligned_gap_sums_commute_with_powers():
    """When the gaps of X sum to 2g|X| mod 4g, translation respects powers."""
    rng = random.Random(311)
    can = canonical_descriptor(2)
    ctx = GroupContext(2)
    hits = 0
    while hits < 30:
        w = random_freely_reduced(ctx, rng.randrange(1, 7), rng)
        if sum(o_sequence(can, w)) % 8 != (4 * len(w)) % 8:
            continue
        hits += 1
        image = translate(can, w)
        for m in (2, 3, 4):
            assert translate(can, w * m) == image * m


def test_check_coarse_formulae():
    can = canonical_descriptor(2)
    ctx = GroupContext(2)
    assert check_coarse_formulae(ctx, can, (1,), 3)
    assert check_coarse_formulae(ctx, symmetric_descriptor(2), (1,), 3)
    with pytest.raises(DomainError):
        check_coarse_formulae(ctx, can, canonical_relator(2), 3)
    rng = random.Random(313)
    checked = 0
    while checked < 10:
        w = random_freely_reduced(ctx, rng.randrange(1, 5), rng)
        if not nf(ctx, translate(can, w)):
            continue
        checked += 1
        assert check_coarse_formulae(ctx, can, w, 3)


def test_presentation_genus_must_match_the_context():
    ctx3 = GroupContext(3)
    for pres in (canonical_descriptor(2), symmetric_descriptor(2)):
        with pytest.raises(DomainError, match="genus 2, not 3"):
            length_in(ctx3, pres, (1,))
        with pytest.raises(DomainError, match="genus 2, not 3"):
            check_coarse_formulae(ctx3, pres, (1,), 3)


def test_check_coarse_formulae_refuses_too_many_letters_up_front():
    """t*|x|*K(K+1)/2 letters past MAX_POWER_LETTERS is refused before
    any power is built.  x is trivial, so a request under the limit gets
    as far as the nontriviality check instead."""
    ctx = GroupContext(2)
    can = canonical_descriptor(2)  # t = 4
    x = (1, -1)
    # 4 * 2 * 1581 * 1582 / 2 = 10,004,568 letters: past the limit
    with pytest.raises(DomainError, match="more than the limit"):
        check_coarse_formulae(ctx, can, x, 1581)
    # 4 * 2 * 1580 * 1581 / 2 = 9,991,920 letters: admitted
    with pytest.raises(DomainError, match="nontrivial"):
        check_coarse_formulae(ctx, can, x, 1580)


def test_descriptor_validation():
    with pytest.raises(DomainError):
        PresentationDescriptor(1, (1, -1), "tiny")
    with pytest.raises(DomainError):
        PresentationDescriptor(2, (1, -2, 3, -4, -1, 2, -3), "short")
    with pytest.raises(DomainError):
        PresentationDescriptor(2, (1, 1, 3, -4, -1, 2, -3, 4), "dup")


def test_o_value_rejects_foreign_letters():
    with pytest.raises(DomainError):
        o_value(symmetric_descriptor(2), 7)


def test_load_descriptor(tmp_path):
    path = tmp_path / "mixed.pres"
    path.write_text(
        "# a genus-2 order, canonical layout\n"
        "genus 2\n"
        "\n"
        "a1 A2 A1 a2 a3 A4 A3 a4\n"
    )
    p = load_descriptor(path)
    assert p.label == "mixed"
    assert p.cyclic_order == canonical_descriptor(2).cyclic_order
    assert t_parameter(p) == 4


def test_load_descriptor_rejects_malformed(tmp_path):
    cases = [
        "genus 2\n",  # order line missing
        "genus two\nc1 C2 C1 c2 c3 C4 C3 c4\n",
        "genus 2\nc1 C2 C1 c2 c3 C4 C3\n",  # not a full order
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.pres"
        path.write_text(text)
        with pytest.raises(DomainError):
            load_descriptor(path)
