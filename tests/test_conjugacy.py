"""Class normal forms, roots, conjugate powers, reducing pairs."""

import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from helpers import (
    all_freely_reduced,
    conj_power_reference,
    exceptional_matches_reference,
    is_exceptional_reference,
    least_rotation_reference,
    power_decompose_reference,
    random_cyclic_core,
    random_freely_reduced,
    random_nontrivial,
    random_relator_heavy,
    rank_list,
    reversed_conjugators_reference,
    special_instances,
    verify_conjugation_reference,
    word_sort_key,
)
from helpers import reversed_conjugators_reference as _reversed_conjugators
from surfgroup import conjugacy, powers, rewrite
from surfgroup.conjugacy import (
    ConjPowerResult,
    RootResult,
    _exceptional_match,
    _least_rotations,
    _verify_conjugation,
    are_conjugate,
    class_nf,
    conj_power,
    reducing_pair,
    root,
)
from surfgroup.group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    abelianize,
    cyclic_rotations,
    invert_word,
)
from surfgroup.powers import ci, nf_power, power_decompose
from surfgroup.rewrite import is_irreducible, nf


def conjugates(ctx, z, y):
    return nf(ctx, z + nf(ctx, y) + invert_word(z))


def test_rotation_is_not_the_whole_story(ctx2):
    """c3 c4 c1^-1 and c4 c3 c1^-1 are conjugate but not cyclic rotations."""
    x = (3, 4, -1)
    y = (4, 3, -1)
    assert y not in cyclic_rotations(x)
    cx = class_nf(ctx2, x)
    cy = class_nf(ctx2, y)
    assert cx.class_nf == cy.class_nf == (4, 3, -1)
    assert cx.exceptional and cy.exceptional
    z = are_conjugate(ctx2, x, y)
    assert z is not None
    assert conjugates(ctx2, z, y) == nf(ctx2, x)


@pytest.mark.parametrize("x, reversed_family", [((1, 2), False), ((3, 4, -1), True)])
def test_a_failed_class_certificate_raises(ctx2, monkeypatch, x, reversed_family):
    """Either family's conjugator is verified, and a failure raises."""
    cert = class_nf(ctx2, x)
    assert (cert.class_nf not in cyclic_rotations(ci(ctx2, x))) == reversed_family
    monkeypatch.setattr(conjugacy, "_verify_conjugation", lambda *args: False)
    with pytest.raises(VerificationError, match="class certificate"):
        class_nf(ctx2, x)


def one_letter_changed(ctx, w, rng):
    """w with the letter at one random position replaced by another."""
    i = rng.randrange(len(w))
    return w[:i] + (rng.choice([a for a in ctx.letters if a != w[i]]),) + w[i + 1:]


def exceptional_word(ctx, rng, length=0):
    """A conjugate of a power of an exceptional block of a random entry;
    the power has at least `length` letters."""
    blk = ctx.n_gens - 1
    E = rng.choice(ctx.relator_table)
    i = rng.randrange(1, blk + 1)
    z = random_nontrivial(ctx, 5, rng)
    return z + (E[i:blk] + E[:i]) * (length // blk + rng.randrange(1, 4)) + invert_word(z)


def long_relator_heavy(ctx, length, rng):
    """A relator-heavy word whose normal form has at least `length` letters."""
    while True:
        x = random_relator_heavy(ctx, 2 * length + rng.randrange(100), rng)
        if len(nf(ctx, x)) >= length:
            return x


def recorded_certificates(ctx, rng, monkeypatch, length=0):
    """(family, z, x, target) for each check _verify_conjugation makes as
    class_nf answers on random words (rotation) and exceptional ones
    (reversed, when the reversed minimum wins), and as are_conjugate
    (conjugate) and conj_power (power) answer on conjugate pairs; the
    class checks these two make are in the certificates too.

    With length 0 the words have under 40 letters and the conjugating
    words at most 8, mostly within the first max(4g, 32) letters that
    the joins of _verify_conjugation read.
    Otherwise nf(x) and the conjugating word have at least `length`
    letters, the exceptional power too, and conj_power is also asked
    for a relation with n < 0 (power, with x^-1 in y)."""
    checks = []
    real = conjugacy._verify_conjugation

    def record(ctx, z, x, target):
        checks.append((z, x, target))
        return real(ctx, z, x, target)

    monkeypatch.setattr(conjugacy, "_verify_conjugation", record)
    out = []
    for _ in range(12):
        words = ((random_relator_heavy(ctx, rng.randrange(1, 40), rng), exceptional_word(ctx, rng))
                 if not length else
                 (long_relator_heavy(ctx, length, rng), exceptional_word(ctx, rng, length)))
        for x in words:
            if not nf(ctx, x):
                continue
            checks.clear()
            cert = class_nf(ctx, x)
            reversed_won = cert.class_nf not in cyclic_rotations(ci(ctx, x))
            out.append(("reversed" if reversed_won else "rotation", *checks[-1]))
            w = (random_nontrivial(ctx, 8, rng) if not length
                 else random_freely_reduced(ctx, length, rng))
            checks.clear()
            assert are_conjugate(ctx, x, w + x + invert_word(w)) is not None
            out += [("class", *c) for c in checks[:-1]] + [("conjugate", *checks[-1])]
            p, q = rng.randrange(1, 4), rng.randrange(1, 4)
            checks.clear()
            assert conj_power(ctx, x * p, w + x * q + invert_word(w)).found
            out += [("class", *c) for c in checks[:-1]] + [("power", *checks[-1])]
            if length:
                checks.clear()
                res = conj_power(ctx, x * p, w + invert_word(x) * q + invert_word(w))
                assert res.found and res.n < 0
                out += [("class", *c) for c in checks[:-1]] + [("power", *checks[-1])]
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("genus, length", [(2, 0), (3, 0), (64, 0), (2, 300), (3, 300), (64, 300)],
                         ids=["2", "3", "64", "2-long", "3-long", "64-long"])
def test_appended_check_agrees_with_the_reference(genus, length, monkeypatch):
    """The check z.x = target.z by two joins accepts exactly what
    normalizing all of z.x.z^-1 accepts: on every certificate of every
    family, and on each with one letter of x or of the target changed,
    or with z replaced by nf of z with one letter changed (an
    irreducible z, as every caller passes).  The long cases, with x of
    300 or more letters, are long enough for the joins to skip letters."""
    ctx = GroupContext(genus)
    rng = random.Random(900 + genus)
    families = {}
    rejected = 0
    for family, z, x, target in recorded_certificates(ctx, rng, monkeypatch, length):
        families[family] = families.get(family, 0) + 1
        assert is_irreducible(ctx, z)
        assert _verify_conjugation(ctx, z, x, target)
        assert verify_conjugation_reference(ctx, z, x, target)
        wrong = [(z, one_letter_changed(ctx, x, rng), target),
                 (z, x, one_letter_changed(ctx, target, rng))]
        if z:
            wrong.append((nf(ctx, one_letter_changed(ctx, z, rng)), x, target))
        for args in wrong:
            accepted = _verify_conjugation(ctx, *args)
            assert accepted == verify_conjugation_reference(ctx, *args), (family, args)
            rejected += not accepted
    assert set(families) == {"rotation", "reversed", "class", "conjugate", "power"}
    assert min(families.values()) >= 3, families
    assert rejected > 100


@pytest.mark.parametrize("genus, length", [(2, 0), (3, 0), (64, 0), (2, 300), (3, 300), (64, 300)],
                         ids=["2", "3", "64", "2-long", "3-long", "64-long"])
def test_appended_check_on_a_reducible_conjugator_is_sound(genus, length):
    """With a word equal to e spliced into a class conjugator (a relator
    rotation, a cancelling pair, or a rule's left side followed by the
    inverse of its normal form), z is no longer irreducible.  The check
    may then reject a true certificate, but it accepts only where
    normalizing all of z.x.z^-1 accepts too, also once one letter of
    that z is changed.  The pair x[0] x[0]^-1 at the end of z is popped
    by x's first letter in z.x, and read and cancelled in target.z when
    z is short enough for that join to read it whole, so that z is
    accepted.  The long cases, with x of 300 or more letters, reach the
    join; beside each x they take the rotation of its class word by
    fewer than C - 2 letters, whose class conjugator is those letters,
    so that the trailing pair is accepted there too."""
    ctx = GroupContext(genus)
    rng = random.Random(950 + genus)
    g2 = ctx.n_gens
    C = max(2 * g2, 32)
    accepted = rejected = 0
    for _ in range(60 if not length else 20):
        x = nf(ctx, random_relator_heavy(ctx, rng.randrange(1, 40), rng) if not length
               else long_relator_heavy(ctx, length, rng))
        if not x:
            continue
        xs = [x]
        c = class_nf(ctx, x).class_nf if length else ()
        if len(c) > 1:
            r = rng.randrange(1, min(len(c), C - 2))
            xs.append(c[r:] + c[:r])
        for x in xs:
            cert = class_nf(ctx, x)
            E = rng.choice(ctx.relator_table)
            a = rng.choice(ctx.letters)
            left = E[:rng.randrange(g2 + 1, 2 * g2 + 1)]
            n = len(cert.conjugator)
            for e, i in ((E, rng.randrange(n + 1)), (invert_word(E), rng.randrange(n + 1)),
                         ((a, -a), rng.randrange(n + 1)),
                         (left + invert_word(nf(ctx, left)), rng.randrange(n + 1)),
                         ((x[0], -x[0]), n)):
                z = cert.conjugator[:i] + e + cert.conjugator[i:]
                assert not is_irreducible(ctx, z)
                for cand in (z, one_letter_changed(ctx, z, rng)):
                    if _verify_conjugation(ctx, cand, x, cert.class_nf):
                        assert verify_conjugation_reference(ctx, cand, x, cert.class_nf)
                        accepted += 1
                    else:
                        rejected += 1
    assert accepted and rejected


@pytest.mark.parametrize("genus", [2, 3, 8, 64])
def test_appended_check_rejects_a_changed_conjugator_across_the_cancellation(genus):
    """On y = nf(z.x.z^-1) with |z| from one to four first pieces C, the
    join of y to z cancels about |z| letters before it reads any.  The
    check accepts z and rejects nf of z with any one letter changed, as
    normalizing all of z.x.z^-1 does."""
    ctx = GroupContext(genus)
    rng = random.Random(3150 + genus)
    C = max(2 * ctx.n_gens, 32)
    for size in (C, 2 * C + 1, 4 * C):
        x = random_cyclic_core(ctx, 2 * C, rng)
        z = nf(ctx, random_freely_reduced(ctx, size, rng))
        y = nf(ctx, z + x + invert_word(z))
        assert _verify_conjugation(ctx, z, x, y)
        for _ in range(10):
            wrong = nf(ctx, one_letter_changed(ctx, z, rng))
            assert not _verify_conjugation(ctx, wrong, x, y), wrong
            assert not verify_conjugation_reference(ctx, wrong, x, y), wrong


@pytest.mark.parametrize("genus", [2, 3])
def test_joins_bound_the_letters_appended(genus, monkeypatch):
    """On x and y = z.x.z^-1 with |x| = |z| = 600, power_decompose of both
    sends at most 1.7 letters per input letter through _extend, and
    are_conjugate at most 1.8.  This corpus measured 1.55 and 1.66 at
    both g = 2 and g = 3.  Handing the free cancellation at each join's
    junction to _extend, letter by letter, took 2.03 and 2.70 at g = 2,
    2.06 and 2.81 at g = 3.  Checking a certificate by appending
    the letters of z^-1 one at a time, building the conjugator by nf and
    trying the join's settle test only when the letters read had
    doubled took 2.38 and 4.35 at g = 2, 2.38 and 4.57 at g = 3;
    appending every letter of nf(x^2), nf(x^3) and the certificates one
    at a time, without the join, took 3.49 and 6.59 at g = 2, 3.50 and
    6.81 at g = 3."""
    ctx = GroupContext(genus)
    rng = random.Random(2700 + genus)
    real = rewrite._extend
    appended = Counter()

    def counting(ctx, acc, letters, steps):
        appended[phase] += len(letters)
        return real(ctx, acc, letters, steps)

    monkeypatch.setattr(rewrite, "_extend", counting)
    given = 0
    for _ in range(4):
        x = random_freely_reduced(ctx, 600, rng)
        z = random_freely_reduced(ctx, 600, rng)
        y = z + x + invert_word(z)
        given += len(x) + len(y)
        phase = "power_decompose"
        power_decompose(ctx, x)
        power_decompose(ctx, y)
        phase = "are_conjugate"
        assert are_conjugate(ctx, x, y) is not None
    assert appended["power_decompose"] <= 1.7 * given, appended
    assert appended["are_conjugate"] <= 1.8 * given, appended


@pytest.mark.parametrize("genus", [2, 3, 8])
def test_root_bounds_the_letters_appended(genus, monkeypatch):
    """On z.x^r.z^-1 with |x| = |z| = 600 and r = 2 and 3, root sends at
    most 1.8 letters per input letter through _extend.  This corpus
    measured 1.59 (r = 2) and 1.67 to 1.68 (r = 3) at g = 2, 3 and 8.
    Conjugating the period block back through the splice prefix, the
    long end, and checking Y^r = x by appending (r-1).|Y| letters one
    at a time took 3.52 to 4.22."""
    ctx = GroupContext(genus)
    rng = random.Random(3300 + genus)
    real = rewrite._extend
    appended = [0]

    def counting(ctx, acc, letters, steps):
        appended[0] += len(letters)
        return real(ctx, acc, letters, steps)

    monkeypatch.setattr(rewrite, "_extend", counting)
    given = 0
    for r in (2, 3):
        for _ in range(3):
            x = random_freely_reduced(ctx, 600, rng)
            z = random_freely_reduced(ctx, 600, rng)
            w = z + x * r + invert_word(z)
            given += len(w)
            assert root(ctx, w).exponent == r
    assert appended[0] <= 1.8 * given, (appended, given)


def change_first_result(ctx, monkeypatch, name, rng, changed, caller=None):
    """Patch conjugacy.<name> so that its first result, the conjugator
    under test, comes back with one letter changed; record that word.
    With a caller, only a call made from the function of that name
    counts."""
    real = getattr(conjugacy, name)

    def patched(ctx_, *args):
        out = real(ctx_, *args)
        if not changed and caller in (None, sys._getframe(1).f_code.co_name):
            assert out, "the conjugator under test is empty"
            out = one_letter_changed(ctx, out, rng)
            changed.append(out)
        return out

    monkeypatch.setattr(conjugacy, name, patched)


@pytest.mark.parametrize("x, reversed_family", [((2, 1, 3), False), ((3, 4, -1), True)])
def test_a_changed_class_conjugator_raises(ctx2, monkeypatch, x, reversed_family):
    """A one-letter change to the conjugator class_nf is about to return,
    in either family, is caught by its check."""
    cert = class_nf(ctx2, x)
    assert (cert.class_nf not in cyclic_rotations(ci(ctx2, x))) == reversed_family
    changed = []
    change_first_result(ctx2, monkeypatch, "nf" if reversed_family else "_nf_join",
                        random.Random(7), changed)
    with pytest.raises(VerificationError, match="class certificate"):
        class_nf(ctx2, x)
    assert changed[0] != cert.conjugator
    assert not verify_conjugation_reference(ctx2, changed[0], nf(ctx2, x), cert.class_nf)


def test_a_changed_conjugator_raises(ctx2, ctx3, monkeypatch):
    """A one-letter change to the conjugator are_conjugate is about to
    return, the join that _conjugator builds, is caught by its final
    check."""
    rng = random.Random(61)
    for ctx in (ctx2, ctx3):
        tested = 0
        while tested < 20:
            x, w = random_nontrivial(ctx, 10, rng), random_nontrivial(ctx, 6, rng)
            y = w + x + invert_word(w)
            z = are_conjugate(ctx, x, y)
            if not z or class_nf(ctx, x).exceptional:
                continue
            changed = []
            change_first_result(ctx, monkeypatch, "_nf_join", rng, changed, "_conjugator")
            with pytest.raises(VerificationError, match="^conjugator failed"):
                are_conjugate(ctx, x, y)
            monkeypatch.undo()
            assert not verify_conjugation_reference(ctx, changed[0], nf(ctx, y), nf(ctx, x))
            tested += 1


def test_class_nf_of_trivial_raises(ctx2):
    with pytest.raises(DomainError):
        class_nf(ctx2, ())
    with pytest.raises(DomainError):
        class_nf(ctx2, ctx2.relator)


def test_class_nf_certificates_and_invariance(ctx2, ctx3):
    rng = random.Random(101)
    for ctx in (ctx2, ctx3):
        for _ in range(80):
            x = random_nontrivial(ctx, 10, rng)
            w = random_nontrivial(ctx, 6, rng)
            cert = class_nf(ctx, x)
            assert conjugates(ctx, cert.conjugator, x) == cert.class_nf
            moved = nf(ctx, w + x + invert_word(w))
            again = class_nf(ctx, moved)
            assert again.class_nf == cert.class_nf
            assert conjugates(ctx, again.conjugator, moved) == cert.class_nf


def test_class_nf_minimal_over_core_rotations(ctx2):
    rng = random.Random(103)
    for _ in range(60):
        x = random_nontrivial(ctx2, 10, rng)
        cert = class_nf(ctx2, x)
        rotations = cyclic_rotations(ci(ctx2, x))
        candidates = set(rotations)
        if cert.exceptional:
            candidates |= {tuple(reversed(r)) for r in rotations}
        assert cert.class_nf in candidates
        best = min(candidates, key=lambda w: word_sort_key(ctx2, w))
        if cert.exceptional:
            assert cert.class_nf == best
        else:
            assert cert.class_nf == min(
                rotations, key=lambda w: word_sort_key(ctx2, w)
            )


def check_least_rotation(ctx, x):
    """class_nf and _least_rotations on x's core agree with the quadratic reference."""
    core = ci(ctx, x)
    exceptional = is_exceptional_reference(ctx, core)
    indices, word = least_rotation_reference(ctx, core, exceptional)
    assert list(_least_rotations(rank_list(ctx, core))) == indices
    cert = class_nf(ctx, x)
    assert cert.exceptional == exceptional
    assert cert.class_nf == word
    return indices, cert


@pytest.mark.parametrize("genus", [2, 3, 5, 8])
def test_least_rotation_matches_reference_on_random_cores(genus):
    ctx = GroupContext(genus)
    rng = random.Random(200 + genus)
    for _ in range(40):
        check_least_rotation(ctx, random_nontrivial(ctx, 40, rng))


@pytest.mark.parametrize("genus", [2, 3, 5, 8])
def test_least_rotation_matches_reference_on_powers(genus):
    """Powers u^k tie k or more rotations for least: the period is below |core|."""
    ctx = GroupContext(genus)
    rng = random.Random(300 + genus)
    for _ in range(25):
        k = rng.randrange(2, 6)
        x = random_nontrivial(ctx, 8, rng) * k
        indices, _ = check_least_rotation(ctx, x)
        assert len(indices) == root(ctx, x).exponent
        assert len(indices) % k == 0


@pytest.mark.parametrize("genus", [2, 3, 5, 8])
def test_least_rotation_matches_reference_on_exceptional_cores(genus):
    ctx = GroupContext(genus)
    rng = random.Random(400 + genus)
    blk = ctx.n_gens - 1
    reversed_won = 0
    for E in ctx.relator_table:
        i = rng.randrange(1, blk + 1)
        t = rng.randrange(1, 4)
        w = (E[i:blk] + E[:i]) * t
        z = random_nontrivial(ctx, 6, rng)
        for x in (w, z + w + invert_word(z)):
            _, cert = check_least_rotation(ctx, x)
            assert cert.exceptional
            reversed_won += cert.class_nf not in cyclic_rotations(ci(ctx, x))
    assert reversed_won


@pytest.mark.parametrize("genus", [2, 3])
def test_reversed_minimum_is_reached_by_the_table_formula(genus):
    """The first reversed-family candidate, the table formula at the first
    rotation whose reversal is the minimum, verifies on its own."""
    ctx = GroupContext(genus)
    rng = random.Random(500 + genus)
    blk = ctx.n_gens - 1
    for E in ctx.relator_table:
        for i in range(1, blk + 1):
            z = random_nontrivial(ctx, 5, rng)
            x = nf(ctx, z + (E[i:blk] + E[:i]) * rng.randrange(1, 4) + invert_word(z))
            pd = power_decompose(ctx, x)
            rev_rotations = _least_rotations(rank_list(ctx, pd.core[::-1]))
            alt = least_rotation_reference(ctx, pd.core[::-1], False)[1]
            first = next(_reversed_conjugators(
                ctx, pd.core, rev_rotations, pd.suffix,
                exceptional_matches_reference(ctx, pd.core)))
            assert _verify_conjugation(ctx, nf(ctx, first), x, alt)


@pytest.mark.parametrize("genus", [2, 3, 5])
def test_every_chained_reversed_conjugator_verifies(genus):
    """Run _reversed_conjugators to exhaustion: every candidate of the
    chained construction, which follows the table-formula ones, carries
    x onto the reversed minimum."""
    ctx = GroupContext(genus)
    rng = random.Random(600 + genus)
    blk = ctx.n_gens - 1
    chained = 0
    for E in ctx.relator_table:
        for framed in (False, True):
            i = rng.randrange(1, blk + 1)
            w = (E[i:blk] + E[:i]) * rng.randrange(1, 4)
            if framed:
                z = random_nontrivial(ctx, 6, rng)
                w = z + w + invert_word(z)
            x = nf(ctx, w)
            # the arguments class_nf derives from x
            pd = power_decompose(ctx, x)
            rw = pd.core[::-1]
            rev_rotations = _least_rotations(rank_list(ctx, rw))
            alt = rw[rev_rotations[0]:] + rw[:rev_rotations[0]]
            matches = exceptional_matches_reference(ctx, pd.core)
            assert matches
            candidates = list(_reversed_conjugators(
                ctx, pd.core, rev_rotations, pd.suffix, matches))
            n_table = len(matches) * len(rev_rotations)
            for cand in candidates[n_table:]:
                assert _verify_conjugation(ctx, nf(ctx, cand), x, alt)
            chained += len(candidates) - n_table
    assert chained


def differential_corpus(rng):
    """(ctx, word): every freely reduced word of length <= 5 at g = 2 and
    <= 4 at g = 3; the special shapes at g = 2 and 3, bare, squared and
    conjugated; relator-heavy words, bare and conjugated, up to g = 64."""
    for genus, max_len in ((2, 5), (3, 4)):
        ctx = GroupContext(genus)
        for w in all_freely_reduced(ctx, max_len):
            yield ctx, w
        for _tag, w in special_instances(ctx):
            z = random_nontrivial(ctx, 6, rng)
            yield from ((ctx, v) for v in (w, w * 2, z + w + invert_word(z)))
    for genus in (2, 3, 5, 8, 16, 64):
        ctx = GroupContext(genus)
        for _ in range(60):
            w = random_relator_heavy(ctx, rng.randrange(1, 80), rng)
            z = random_nontrivial(ctx, 6, rng)
            yield from ((ctx, v) for v in (w, z + w + invert_word(z)))


def test_direct_splice_and_conjugator_are_the_first_candidates():
    """power_decompose equals the two-loop splice scan field for field, nf(w)
    and the empty decomposition of the trivial element included, and
    class_nf's reversed-family conjugator is nf of the generator's first
    candidate, so neither search ever needed a later candidate."""
    rng = random.Random(800)
    decomposed = reversed_won = 0
    for ctx, w in differential_corpus(rng):
        pd = power_decompose_reference(ctx, w)
        assert power_decompose(ctx, w) == pd
        if not pd.word:
            continue
        decomposed += 1
        matches = exceptional_matches_reference(ctx, pd.core)
        if not matches:
            continue
        cert = class_nf(ctx, w)
        if cert.class_nf in cyclic_rotations(pd.core):
            continue
        rev_rotations = _least_rotations(rank_list(ctx, pd.core[::-1]))
        first = next(reversed_conjugators_reference(
            ctx, pd.core, rev_rotations, pd.suffix, matches))
        assert cert.conjugator == nf(ctx, first)
        reversed_won += 1
    assert decomposed > 30000
    assert reversed_won > 100


@pytest.mark.parametrize("genus", [2, 3, 5, 16, 64])
def test_exceptional_matches_agree_with_the_full_scan(genus):
    """The full scan never finds two matches, and the seam count returns
    its one match, or None, on exceptional cores, near misses and random
    periodic words."""
    ctx = GroupContext(genus)
    rng = random.Random(700 + genus)
    blk = ctx.n_gens - 1
    pairs = [(e, i) for e in range(len(ctx.relator_table)) for i in range(1, blk + 1)]
    # the reference is cubic in g, so fewer samples at the top genus
    pairs = rng.sample(pairs, min(len(pairs), 640 // genus))
    words = []
    for e, i in pairs:
        E = ctx.relator_table[e]
        head = E[i:blk] + E[:i]
        t = rng.randrange(1, 4)
        words.append(head * t)
        j = rng.randrange(2, blk)  # the same first two letters, one wrong later
        near = head[:j] + (rng.choice([a for a in ctx.letters if a != head[j]]),) + head[j + 1:]
        words.append(near * t)
        words.append(head * t + head[:1])
    for _ in range(10):
        words.append(random_cyclic_core(ctx, blk, rng) * rng.randrange(1, 3))
        words.append(random_nontrivial(ctx, 3 * blk, rng))
    found = 0
    for w in words:
        ref = exceptional_matches_reference(ctx, w)
        assert len(ref) <= 1
        got = _exceptional_match(ctx, w)
        assert got == (None if not ref else (ctx.relator_table[ref[0][0]], ref[0][1]))
        found += got is not None
    assert found >= len(pairs)


def test_class_nf_memory_is_linear(ctx2):
    """No table of rotations: a 3200-letter core stays far below n^2 words."""
    core = random_cyclic_core(ctx2, 3200, random.Random(3200))
    tracemalloc.start()
    try:
        cert = class_nf(ctx2, core)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cert.class_nf) == 3200
    assert peak < 8 * 2**20


def test_exceptional_blocks_conjugate_to_their_reversals(ctx2):
    g2 = ctx2.n_gens
    blk = g2 - 1
    for eidx in (0, 5, 9):
        E = ctx2.relator_table[eidx]
        for i in range(1, blk + 1):
            for t in (1, 2):
                w = (E[i:blk] + E[:i]) * t
                cert = class_nf(ctx2, w)
                assert cert.exceptional
                rev = tuple(reversed(w))
                z = are_conjugate(ctx2, w, rev)
                assert z is not None
                assert conjugates(ctx2, z, rev) == nf(ctx2, w)


def test_conjugate_fragments_are_equal_or_reversed(ctx2):
    """Half-relator fragments b_1..b_k meet in a class only by identity
    or reversal; checked as a biconditional over every pair of entries."""
    g2 = ctx2.n_gens
    for k in range(1, g2 + 1):
        fragments = {E[:k] for E in ctx2.relator_table}
        for u in fragments:
            for v in fragments:
                expected = u == v or u == tuple(reversed(v))
                assert (are_conjugate(ctx2, u, v) is not None) == expected


def test_are_conjugate_edges(ctx2):
    assert are_conjugate(ctx2, (), ctx2.relator) == ()
    assert are_conjugate(ctx2, (), (1,)) is None
    assert are_conjugate(ctx2, (1,), ()) is None
    assert are_conjugate(ctx2, (1,), (2,)) is None
    assert are_conjugate(ctx2, (1,), (-1,)) is None


def test_trivial_input(ctx2, ctx3):
    """Each public call on an input equal to e: nf_power gives e, ci,
    class_nf and root refuse it with their own messages, and are_conjugate
    gives the empty conjugator against e and None against anything else,
    a nontrivial word with zero exponent sums included."""
    rng = random.Random(113)
    for ctx in (ctx2, ctx3):
        w = random_nontrivial(ctx, 8, rng)
        for e in ((), ctx.relator, w + invert_word(w)):
            assert all(nf_power(ctx, e, k) == () for k in (1, 2, 5))
            for fn, message in ((ci, "power decomposition"), (class_nf, "class normal form"),
                                (root, "root")):
                with pytest.raises(DomainError, match=f"^{message} of the trivial element$"):
                    fn(ctx, e)
            assert are_conjugate(ctx, e, ctx.relator) == ()
            for x in (w, (1, 2, -1, -2)):
                assert are_conjugate(ctx, e, x) is None
                assert are_conjugate(ctx, x, e) is None


def test_each_input_is_normalized_once(ctx2, ctx3, monkeypatch):
    """nf_power, class_nf, root, are_conjugate and conj_power hand each
    input word to the normalizer exactly once and take nf(x) from the
    decomposition after that: no other word handed over equals nf(x)."""
    seen = []
    real = rewrite.normalize

    def counting(ctx, w, **kw):
        seen.append(w)
        return real(ctx, w, **kw)

    monkeypatch.setattr(rewrite, "normalize", counting)
    rng = random.Random(127)
    for ctx in (ctx2, ctx3):
        for _ in range(20):
            z = random_nontrivial(ctx, 8, rng)
            x = random_relator_heavy(ctx, rng.randrange(1, 30), rng)
            y = z + x + invert_word(z)
            calls = [(nf_power, (x, 1)), (nf_power, (x, rng.randrange(2, 6))),
                     (class_nf, (x,)), (root, (x,)), (are_conjugate, (x, y)),
                     (conj_power, (x, y))]
            for fn, args in calls:
                seen.clear()
                try:
                    fn(ctx, *args)
                except DomainError:  # x can be trivial
                    pass
                for arg in args:
                    if isinstance(arg, tuple):
                        assert sum(w is arg for w in seen) == 1, (fn.__name__, arg)
                        n = real(ctx, arg, trace=False)[0]
                        assert all(w is arg for w in seen if w == n), (fn.__name__, arg)


def test_are_conjugate_random_positives(ctx2, ctx3):
    rng = random.Random(107)
    for ctx in (ctx2, ctx3):
        for _ in range(50):
            x = random_nontrivial(ctx, 10, rng)
            w = random_nontrivial(ctx, 6, rng)
            y = nf(ctx, w + x + invert_word(w))
            z = are_conjugate(ctx, x, y)
            assert z is not None
            assert conjugates(ctx, z, y) == nf(ctx, x)


def test_root_examples(ctx2):
    assert root(ctx2, (1,)) == RootResult((1,), 1)
    res = root(ctx2, (1, 2) * 3)
    assert res.root == (1, 2)
    assert res.exponent == 3
    with pytest.raises(DomainError):
        root(ctx2, ())
    with pytest.raises(DomainError):
        root(ctx2, ctx2.relator)


def test_root_reassembles_and_is_primitive():
    """At the genera MAX_GENUS admits, from 2 up to 64."""
    rng = random.Random(109)
    for genus in (2, 3, 5, 16, 64):
        ctx = GroupContext(genus)
        for _ in range(40):
            y = ci(ctx, random_nontrivial(ctx, 8, rng))
            r = rng.randrange(1, 5)
            x = nf(ctx, y * r)
            res = root(ctx, x)
            assert nf(ctx, res.root * res.exponent) == x
            assert root(ctx, res.root).exponent == 1
            assert res.exponent % r == 0 or r % res.exponent == 0
            assert res.exponent == r * root(ctx, y).exponent


@pytest.mark.parametrize("genus", [2, 3, 8])
def test_a_changed_splice_suffix_fails_the_root_check(genus):
    """_root on a decomposition whose suffix has one letter changed
    raises VerificationError: the block, conjugated back through that
    suffix, is not a root of x.  Only the joins of S^-1, W and S
    against nf(x) catch it, since the core still is the block's power."""
    ctx = GroupContext(genus)
    rng = random.Random(3500 + genus)
    tested = 0
    while tested < 20:
        x = random_nontrivial(ctx, rng.randrange(4, 40), rng)
        z = random_freely_reduced(ctx, rng.randrange(1, 30), rng)
        pd = power_decompose(ctx, z + x * rng.randrange(1, 4) + invert_word(z))
        if not pd.suffix:
            continue
        res = root(ctx, pd.word)
        wrong = pd._replace(suffix=one_letter_changed(ctx, pd.suffix, rng))
        # a wrong suffix conjugates the core to another element
        assert nf(ctx, invert_word(wrong.suffix) + pd.core + wrong.suffix) != pd.word
        with pytest.raises(VerificationError, match="root reassembly"):
            conjugacy._root(ctx, wrong)
        assert conjugacy._root(ctx, pd) == res
        tested += 1


def test_a_block_that_is_not_a_period_fails_the_root_check(ctx2, ctx3, monkeypatch):
    """When the period found is a divisor d of |W| with W[:d] * (|W| // d)
    != W, _root raises VerificationError.  The joins of S^-1, W and S
    still give nf(x) there, so only the comparison of W with the block's
    power catches it."""
    rng = random.Random(3600)
    for ctx in (ctx2, ctx3):
        tested = 0
        while tested < 20:
            x = random_nontrivial(ctx, rng.randrange(4, 30), rng)
            pd = power_decompose(ctx, x * rng.randrange(1, 4))
            n = len(pd.core)
            wrong = [d for d in range(1, n) if n % d == 0 and pd.core[:d] * (n // d) != pd.core]
            if not wrong:
                continue
            d = rng.choice(wrong)
            monkeypatch.setattr(conjugacy, "_least_rotations", lambda w: range(0, n, d))
            with pytest.raises(VerificationError, match="root reassembly"):
                conjugacy._root(ctx, pd)
            monkeypatch.undo()
            tested += 1


@pytest.mark.parametrize("genus", [2, 3, 8])
def test_a_root_built_with_the_suffix_swapped_fails_the_root_check(genus, monkeypatch):
    """_root builds Y = nf(S^-1.B.S) by two joins.  Built as nf(S.B.S^-1)
    instead, with S and S^-1 swapped, Y is not a root of x, and _root
    raises VerificationError.  Only the check S^-1.B = Y.S^-1 catches
    it: the comparison of W with B * r and the joins of S^-1, W and S
    against nf(x) do not read Y."""
    ctx = GroupContext(genus)
    rng = random.Random(3700 + genus)
    real = conjugacy._nf_join
    tested = 0
    while tested < 20:
        x = random_nontrivial(ctx, rng.randrange(4, 40), rng)
        z = random_freely_reduced(ctx, rng.randrange(1, 30), rng)
        pd = power_decompose(ctx, z + x * rng.randrange(1, 4) + invert_word(z))
        res = conjugacy._root(ctx, pd)
        s = pd.suffix
        block = pd.core[:len(pd.core) // res.exponent]
        if nf(ctx, s + block + invert_word(s)) == res.root:
            continue
        calls = []

        def swapped(ctx_, u, v):
            # the first two joins _root makes build Y: S^-1 with B, then with S
            if sys._getframe(1).f_code.co_name == "_root" and len(calls) < 2:
                calls.append((u, v))
                u, v = (invert_word(u), v) if len(calls) == 1 else (u, invert_word(v))
            return real(ctx_, u, v)

        monkeypatch.setattr(conjugacy, "_nf_join", swapped)
        with pytest.raises(VerificationError, match="root reassembly"):
            conjugacy._root(ctx, pd)
        monkeypatch.undo()
        assert calls[0] == (invert_word(s), block) and calls[1][1] == s
        tested += 1


def test_least_rotations_exhaustive_small():
    """Every sequence over 2 symbols up to length 12 and over 3 up to
    length 8: the indices are the least rotations, and the step is the
    least period dividing the length."""
    count = 0
    for base, top in ((2, 12), (3, 8)):
        for n in range(1, top + 1):
            for s in itertools.product(range(base), repeat=n):
                rotations = [s[k:] + s[:k] for k in range(n)]
                least = min(rotations)
                got = _least_rotations(s)
                assert list(got) == [k for k in range(n) if rotations[k] == least], s
                assert got.step == next(p for p in range(1, n + 1)
                                        if n % p == 0 and s[p:] + s[:p] == s), s
                count += 1
    assert count == 2 ** 13 - 2 + (3 ** 9 - 3) // 2


def test_root_exponent_matches_divisor_scan(ctx2):
    rng = random.Random(113)
    for _ in range(40):
        x = random_nontrivial(ctx2, 10, rng)
        w = ci(ctx2, x)
        best = max(
            r for r in range(1, len(w) + 1)
            if len(w) % r == 0 and w == w[:len(w) // r] * r
        )
        assert root(ctx2, x).exponent == best


def test_conj_power_constructed_positives(ctx2):
    rng = random.Random(127)
    for _ in range(40):
        a = root(ctx2, ci(ctx2, random_nontrivial(ctx2, 6, rng))).root
        p = rng.randrange(1, 5)
        q = rng.randrange(1, 5)
        w = random_nontrivial(ctx2, 5, rng)
        x = nf_power(ctx2, a, p)
        y = nf(ctx2, w + nf_power(ctx2, a, q) + invert_word(w))
        res = conj_power(ctx2, x, y)
        d = math.gcd(p, q)
        assert res.found
        assert (res.m, abs(res.n)) == (q // d, p // d)
        lhs = nf_power(ctx2, x, res.m)
        rhs_core = nf_power(ctx2, y if res.n > 0 else invert_word(y), abs(res.n))
        assert lhs == nf(ctx2, res.conjugator + rhs_core + invert_word(res.conjugator))


def test_conj_power_inverse_orientation(ctx2):
    res = conj_power(ctx2, (1, 1), (-1, -1, -1))
    assert res.found
    assert (res.m, res.n) == (3, -2)


@pytest.mark.parametrize("x, y, m, n", [
    ((1, 2, 1, 2), (3, 1, 2, 1, 2, 1, 2, -3), 3, 2),
    ((1, 1), (-1, -1, -1), 3, -2),
])
def test_conj_power_checks_its_certificate_by_verify_conjugation(ctx2, monkeypatch,
                                                                 x, y, m, n):
    """conj_power's conjugator is checked by _verify_conjugation on the
    primitive roots, as the last check it makes: _conjugator's call on
    z with nf(y1) and target nf(x1^sign) for the sign of n.  No power of
    x or y is checked."""
    calls = []
    real = conjugacy._verify_conjugation

    def record(ctx, z, x, target):
        calls.append((z, x, target))
        return real(ctx, z, x, target)

    monkeypatch.setattr(conjugacy, "_verify_conjugation", record)
    res = conj_power(ctx2, x, y)
    last = calls[-1]
    assert (res.found, res.m, res.n) == (True, m, n)
    x1, y1 = root(ctx2, x).root, root(ctx2, y).root
    x1 = x1 if n > 0 else invert_word(x1)
    assert last == (res.conjugator, nf(ctx2, y1), nf(ctx2, x1))


def test_conj_power_answers_powers_past_the_power_limit(ctx2):
    """(c1 c2)^2499 against (c1 c2)^2500: y^2499 would have 12,495,000
    letters, more than MAX_POWER_LETTERS, but the answer is checked on
    the roots and no power is built."""
    assert conj_power(ctx2, (1, 2) * 2499, (1, 2) * 2500) == ConjPowerResult(True, 2500, 2499, ())


def test_conj_power_negative_and_domain(ctx2):
    assert conj_power(ctx2, (1,), (2,)) == ConjPowerResult(False, 0, 0, ())
    with pytest.raises(DomainError):
        conj_power(ctx2, (), (1,))
    with pytest.raises(DomainError):
        conj_power(ctx2, (1,), ctx2.relator)


def _conj_power_corpus(ctx, rng, per_family):
    """(family, x, y) with x, y nontrivial: y = z.x^-k.z^-1 (inverse),
    y = z.x^k.z^-1 (direct), unrelated words (random), and powers of
    commutators, whose exponent sums are 0, conjugated by z or not
    (commutator)."""
    def nontrivial_commutator():
        while True:
            a = random_nontrivial(ctx, 4, rng)
            b = random_nontrivial(ctx, 4, rng)
            c = a + b + invert_word(a) + invert_word(b)
            if nf(ctx, c):
                return c

    for _ in range(per_family):
        x = random_nontrivial(ctx, 12, rng)
        z = random_nontrivial(ctx, 8, rng)
        k = rng.randrange(1, 4)
        yield "inverse", x, z + invert_word(x) * k + invert_word(z)
        yield "direct", x, z + x * k + invert_word(z)
        yield "random", x, random_nontrivial(ctx, 12, rng)
        c = nontrivial_commutator()
        other = rng.choice([c, invert_word(c), nontrivial_commutator()])
        yield ("commutator", c * rng.randrange(1, 3),
               z + other * rng.randrange(1, 3) + invert_word(z))


@pytest.mark.parametrize("genus", [2, 3, 5, 8, 16, 64])
def test_conj_power_matches_the_reference(genus):
    """conj_power, which builds each class at most once, gives the
    (found, m, n, conjugator) of conj_power_reference, which builds
    y's root class once per orientation, in every family."""
    ctx = GroupContext(genus)
    rng = random.Random(139 + genus)
    found = Counter()
    for family, x, y in _conj_power_corpus(ctx, rng, 30):
        res = conj_power(ctx, x, y)
        assert res == conj_power_reference(ctx, x, y), (family, x, y)
        found[family, res.found, res.n > 0] += 1
    assert found["inverse", True, False] == found["direct", True, True] == 30
    assert found["random", False, False] >= 25
    assert found["commutator", True, True] and found["commutator", True, False]
    assert found["commutator", False, False]


@pytest.mark.parametrize("genus", [2, 3, 5])
def test_conj_power_builds_no_power(genus, monkeypatch):
    """With PowerDecomposition.assemble made to raise, conj_power still
    gives the answer of conj_power_reference on every pair of the corpus."""
    ctx = GroupContext(genus)
    corpus = list(_conj_power_corpus(ctx, random.Random(139 + genus), 30))
    expected = [conj_power_reference(ctx, x, y) for _, x, y in corpus]

    def refuse(self, k):
        raise AssertionError(f"assemble({k}) called")

    monkeypatch.setattr(powers.PowerDecomposition, "assemble", refuse)
    for (family, x, y), want in zip(corpus, expected):
        assert conj_power(ctx, x, y) == want, (family, x, y)


def test_conj_power_builds_each_class_at_most_once(ctx2, ctx3, monkeypatch):
    """Counted by wrapping _class: at most 3 builds a call; 0 when the
    roots' exponent sums differ up to sign; 2 a call when the roots are
    conjugate only through x^-1, where the reference builds 4."""
    built = []
    real = conjugacy._class

    def counting(ctx, pd):
        built.append(pd)
        return real(ctx, pd)

    monkeypatch.setattr(conjugacy, "_class", counting)
    rng = random.Random(149)
    builds = {}
    for ctx in (ctx2, ctx3):
        for family, x, y in _conj_power_corpus(ctx, rng, 30):
            built.clear()
            conj_power(ctx, x, y)
            assert len(built) <= 3, (family, x, y)
            builds.setdefault(family, []).append(len(built))
            if abelianize(ctx, root(ctx, y).root) not in (
                    ab := abelianize(ctx, root(ctx, x).root), tuple(-e for e in ab)):
                assert not built
    assert set(builds["direct"]) == {2}
    assert 0 in builds["random"]
    assert 3 in builds["commutator"]
    counts = [[], []]
    for _ in range(50):
        x = random_freely_reduced(ctx2, 40, rng)
        z = random_freely_reduced(ctx2, 20, rng)
        y = z + invert_word(x) * 2 + invert_word(z)
        for i, fn in enumerate((conj_power, conj_power_reference)):
            built.clear()
            assert fn(ctx2, x, y).n < 0
            counts[i].append(len(built))
    assert sum(counts[0]) / 50 == 2.0
    assert sum(counts[1]) / 50 == 4.0


def test_reducing_pair_normalizes_each_factor_once(ctx2, ctx3, monkeypatch):
    """The product is w1 extended by w2, so the normalizer is handed
    w1 and w2, by the irreducibility checks, and nothing else."""
    seen = []
    real = rewrite.normalize

    def counting(ctx, w, **kw):
        seen.append(w)
        return real(ctx, w, **kw)

    monkeypatch.setattr(rewrite, "normalize", counting)
    rng = random.Random(151)
    tried = 0
    for ctx in (ctx2, ctx3):
        for _ in range(40):
            w1, w2 = (real(ctx, random_relator_heavy(ctx, rng.randrange(1, 30), rng),
                           trace=False)[0] for _ in range(2))
            if w1 and w2 and w1[-1] == -w2[0]:
                continue
            seen.clear()
            reducing_pair(ctx, w1, w2)
            assert len(seen) == 2 and seen[0] is w1 and seen[1] is w2
            tried += 1
    assert tried >= 60


def test_reducing_pair_examples(ctx2):
    assert reducing_pair(ctx2, (1,), (2,)) == ((), ())
    assert reducing_pair(ctx2, (1, 2, 3), (4,)) == ((1, 2, 3), (4,))
    assert reducing_pair(ctx2, (4, 3), (2, 1)) == ((), ())


def test_reducing_pair_domain(ctx2):
    with pytest.raises(DomainError):
        reducing_pair(ctx2, (1, -1), (2,))  # left factor reducible
    with pytest.raises(DomainError):
        reducing_pair(ctx2, (1,), (-1,))  # junction cancels


@pytest.mark.parametrize("genus", [2, 3, 8])
def test_lists_and_tuples_get_the_same_verdicts(genus):
    """is_irreducible, is_cyclically_irreducible and reducing_pair read a
    list word as the tuple of its letters: irreducible words, reducible
    ones and the empty word, and pairs that reducing_pair accepts and
    refuses."""
    ctx = GroupContext(genus)
    rng = random.Random(genus)
    words = [(), (1, 2), (1, -1), (ctx.n_gens,) * 3]
    for _ in range(60):
        w = random_relator_heavy(ctx, rng.randrange(1, 20), rng)
        words += [w, nf(ctx, w)]
    assert is_irreducible(ctx, [1, 2]) and rewrite.is_cyclically_irreducible(ctx, [1, 2])
    for w in words:
        assert is_irreducible(ctx, list(w)) == is_irreducible(ctx, w)
        assert (rewrite.is_cyclically_irreducible(ctx, list(w))
                == rewrite.is_cyclically_irreducible(ctx, w))

    def outcome(w1, w2):
        try:
            return reducing_pair(ctx, w1, w2)
        except DomainError as exc:
            return str(exc)

    accepted = 0
    for _ in range(150):
        w1, w2 = rng.choice(words), rng.choice(words)
        expected = outcome(w1, w2)
        accepted += not isinstance(expected, str)
        assert outcome(list(w1), list(w2)) == outcome(list(w1), w2) == expected
    assert reducing_pair(ctx, [1, 2], [3]) == reducing_pair(ctx, (1, 2), (3,))
    assert accepted >= 30


def test_reducing_pair_frames_the_product(ctx2):
    """nf(w1 w2) keeps w1's prefix before C1 and w2's suffix after C2."""
    rng = random.Random(131)
    for _ in range(60):
        w1 = nf(ctx2, random_nontrivial(ctx2, 8, rng))
        w2 = nf(ctx2, random_nontrivial(ctx2, 8, rng))
        if not w1 or not w2 or w1[-1] == -w2[0]:
            continue
        c1, c2 = reducing_pair(ctx2, w1, w2)
        f = nf(ctx2, w1 + w2)
        a = len(w1) - len(c1)
        b = len(w2) - len(c2)
        assert w1[:a] == f[:a]
        assert b == 0 or w2[-b:] == f[len(f) - b:]
        assert len(f) >= a + b
