"""Cyclic orders, the word bijection h, rotation bookkeeping, coarse formulae."""

import itertools
import math
import random
from collections import Counter

import pytest

from helpers import (
    Order,
    canonical_relator,
    check_coarse_formulae_reference,
    face_relators,
    length_in,
    o_sequence,
    o_value,
    random_freely_reduced,
    translate_reference,
    untranslate_reference,
)
from surfgroup import rewrite
from surfgroup.group_core import DomainError, GroupContext, format_word
from surfgroup.presentations import (
    PresentationDescriptor,
    canonical_descriptor,
    check_coarse_formulae,
    load_descriptor,
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


def _shuffles(genus, rng):
    """Seeded shuffles of the 4g signed letters, as Orders: one in 2g + 1
    has one face (Harer-Zagier), the rest no geometric presentation."""
    letters = [x for i in range(1, 2 * genus + 1) for x in (i, -i)]
    for k in itertools.count():
        yield Order(genus, tuple(rng.sample(letters, len(letters))), f"shuffled{k}")


def _orders(genus, rng, shuffles=2):
    """The canonical and symmetric descriptors, then descriptors of the
    first `shuffles` seeded shuffles with one face."""
    yield canonical_descriptor(genus)
    yield symmetric_descriptor(genus)
    one_face = (q for q in _shuffles(genus, rng) if len(face_relators(q)) == 1)
    for q in itertools.islice(one_face, shuffles):
        yield PresentationDescriptor(*q)


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


@pytest.mark.parametrize("genus", [2, 3, 5, 8, 16, 64])
def test_t_parameter_is_the_gap_formula(genus):
    """t_parameter reads its gcd off the rotation steps; it equals
    4g / gcd(2g, gcd of the gaps O(x)) on the canonical, the symmetric
    and 50 shuffled one-face orders (8 at g = 64, where one shuffle in
    129 has one face)."""
    rng = random.Random(1300 + genus)
    for p in _orders(genus, rng, shuffles=50 if genus < 64 else 8):
        gaps = math.gcd(*(o_value(p, d) for d in p.cyclic_order))
        assert t_parameter(p) == 4 * genus // math.gcd(2 * genus, gaps), p


@pytest.mark.parametrize("genus", [2, 3, 5, 8, 16, 64])
def test_powers_of_x_to_the_t_translate_to_powers(genus):
    """x^t accumulates no rotation, so translate(x^{tm}) is
    translate(x^t)^m: the identity check_coarse_formulae appends by."""
    rng = random.Random(1350 + genus)
    letters = GroupContext(genus).letters
    for p in _orders(genus, rng, shuffles=50 if genus < 64 else 8):
        t = t_parameter(p)
        for _ in range(3):
            x = tuple(rng.choices(letters, k=rng.randrange(1, 6)))
            image = translate(p, x * t)
            for m in (2, 3):
                assert translate(p, x * (t * m)) == image * m, (p, x)


def _verdict(check, ctx, p, x, k_max):
    try:
        return check(ctx, p, x, k_max)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("genus", [2, 3, 5])
def test_coarse_check_by_appending_matches_the_reference(genus):
    """check_coarse_formulae, which appends translate(x^t) once per
    power, gives the verdict or the DomainError text of the reference,
    which normalizes every x^{tm} from scratch, on random words (not
    freely reduced, trivial ones included) over the canonical, the
    symmetric and shuffled one-face orders.  The formulae hold for every
    nontrivial word there."""
    rng = random.Random(1400 + genus)
    ctx = GroupContext(genus)
    seen = Counter()
    for p in _orders(genus, rng, shuffles=2):
        words = [(), (1, -1), canonical_relator(genus)]
        words += [tuple(rng.choices(ctx.letters, k=rng.randrange(1, 7))) for _ in range(25)]
        for x in words:
            for k_max in (1, 2, 3, 8):
                got = _verdict(check_coarse_formulae, ctx, p, x, k_max)
                assert got == _verdict(check_coarse_formulae_reference, ctx, p, x, k_max), (p, x, k_max)
                seen[got] += 1
    assert seen[True] and seen["coarse formulae need a nontrivial element"]
    assert not seen[False]


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


def test_check_coarse_formulae_normalizes_no_word_from_scratch(monkeypatch):
    """The powers of T = translate(x^t) are appended one at a time, and
    an empty first one refuses the trivial element: rewrite.normalize is
    never called, for a verdict or for the refusal."""
    calls = []
    real = rewrite.normalize

    def counting(ctx, w, **kw):
        calls.append(w)
        return real(ctx, w, **kw)

    monkeypatch.setattr(rewrite, "normalize", counting)
    ctx = GroupContext(2)
    for p in (canonical_descriptor(2), symmetric_descriptor(2)):
        assert check_coarse_formulae(ctx, p, (1, 2, 3), 4)
        for trivial in ((), (1, -1), face_relators(p)[0]):
            with pytest.raises(DomainError, match="^coarse formulae need a nontrivial element$"):
                check_coarse_formulae(ctx, p, trivial, 3)
    assert calls == []


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
    with pytest.raises(DomainError) as exc:
        PresentationDescriptor(2, (-2, 2, 1, -3, 3, 4, -1, -4), "x")
    assert str(exc.value) == ("the cyclic order has 3 faces, not 1, so it is not "
                              "a one-vertex gluing of the 8-gon")


@pytest.mark.parametrize("genus, shuffles", [(2, 100), (3, 100), (5, 150), (64, 600)])
def test_descriptor_accepts_exactly_the_one_face_orders(genus, shuffles):
    """On seeded shuffles PresentationDescriptor accepts an order exactly
    when face_relators finds one face, and otherwise names the count."""
    rng = random.Random(1450 + genus)
    seen = Counter()
    for q in itertools.islice(_shuffles(genus, rng), shuffles):
        faces = len(face_relators(q))
        try:
            PresentationDescriptor(*q)
            accepted = True
        except DomainError as exc:
            assert str(exc) == (f"the cyclic order has {faces} faces, not 1, so it is "
                                f"not a one-vertex gluing of the {4 * genus}-gon")
            accepted = False
        assert accepted == (faces == 1), q
        seen[accepted] += 1
    assert seen[True] and seen[False]


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


def _write_descriptor(path, p):
    path.write_text(f"genus {p.genus}\n{format_word(p.cyclic_order, 'a')}\n")
    return path


def test_load_descriptor_refuses_an_order_with_three_faces(tmp_path):
    """The order C2 c2 c1 C3 c3 c4 C1 C4 has faces of 6, 1 and 1 letters;
    translate does not respect the group there (it sends c2 to a
    nontrivial word and c2^8 to a rotation of the relator)."""
    order = Order(2, (-2, 2, 1, -3, 3, 4, -1, -4), "three-faces")
    assert sorted(map(len, face_relators(order))) == [1, 1, 6]
    path = tmp_path / "three-faces.pres"
    path.write_text("genus 2\nC2 c2 c1 C3 c3 c4 C1 C4\n")
    with pytest.raises(DomainError, match="has 3 faces, not 1"):
        load_descriptor(path)
    for q in (canonical_descriptor(2), symmetric_descriptor(2)):
        assert load_descriptor(_write_descriptor(tmp_path / f"{q.label}.pres", q)).cyclic_order \
            == q.cyclic_order


@pytest.mark.parametrize("genus", [2, 3, 5])
def test_loader_accepts_exactly_the_orders_that_respect_the_relators(genus, tmp_path):
    """On seeded shuffled orders the loader accepts an order exactly when
    its translation sends every face relator, placed between random
    words, to the identity: u.r.v and u.v translate to equal elements.
    translate_reference translates by any order, geometric or not."""
    rng = random.Random(1500 + genus)
    ctx = GroupContext(genus)
    seen = Counter()
    geometric = (canonical_descriptor(genus), symmetric_descriptor(genus))
    shuffled = itertools.islice(_shuffles(genus, rng), 60)
    for k, p in enumerate(itertools.chain(geometric, shuffled)):
        respects = all(
            nf(ctx, translate_reference(p, u + r + v)) == nf(ctx, translate_reference(p, u + v))
            for r in face_relators(p)
            for u, v in [(random_freely_reduced(ctx, rng.randrange(0, 8), rng),
                          random_freely_reduced(ctx, rng.randrange(0, 8), rng))
                         for _ in range(3)]
        )
        try:
            load_descriptor(_write_descriptor(tmp_path / f"order{k}.pres", p))
            accepted = True
        except DomainError as exc:
            assert f"has {len(face_relators(p))} faces, not 1" in str(exc)
            accepted = False
        assert accepted == respects, p
        seen[accepted] += 1
    assert seen[True] > 2 and seen[False]


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


def test_load_descriptor_refuses_an_empty_name():
    """No file has the empty name, so it is refused before any open with
    a message that says so, as str or as a path-like object."""
    for name in ("", b""):
        with pytest.raises(DomainError, match="^descriptor file name is empty$"):
            load_descriptor(name)
