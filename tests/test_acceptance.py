"""Release gate: ten end-to-end criteria, one test per criterion.

Each test exercises a whole slice of the package against an independent
route (the Dehn-style oracle, the d-basis engine, or a hand-verifiable
construction) rather than against the implementation under test.  Wall
clock bounds are asserted where a criterion carries one; seeds are fixed
so failures replay.
"""

import math
import random
import time

from surfgroup.conjugacy import (
    ConjPowerResult,
    are_conjugate,
    class_nf,
    conj_power,
    reducing_pair,
    root,
)
from surfgroup.group_core import (
    GroupContext,
    abelianize,
    cyclic_rotations,
    invert_word,
)
from surfgroup.oracle import dehn_conjugate, dehn_equal, dehn_reduce
from surfgroup.powers import ci, nf_power, power_decompose
from surfgroup.presentations import (
    canonical_descriptor,
    check_coarse_formulae,
    symmetric_descriptor,
    t_parameter,
    translate,
)
from surfgroup.powers import translation_number
from surfgroup.rewrite import d_basis_normalize, enumerate_ball, is_irreducible, nf

from helpers import (
    all_words,
    canonical_relator,
    check_length_formula,
    expected_core_of_fragment,
    length_in,
    random_freely_reduced,
    random_nontrivial,
    word_sort_key,
)


def _sort_key(ctx, w):
    return word_sort_key(ctx, w)


def test_criterion_01(ctx2):
    """At genus 2, over every word of length <= 4 (4680 nonempty words):
    normalize agrees with the Dehn oracle on equality, is idempotent, and
    returns the order-minimal member of each equality class.  Under 60s."""
    start = time.monotonic()
    corpus = list(all_words(ctx2, 4))
    assert len(corpus) == 4681
    assert sum(1 for w in corpus if w) == 4680

    nfs = {w: nf(ctx2, w) for w in corpus}
    buckets = {}
    for w, r in nfs.items():
        buckets.setdefault(r, []).append(w)

    # Idempotence, and order-minimality of the normal form inside its class.
    for r, members in buckets.items():
        assert nf(ctx2, r) == r
        assert min(members, key=lambda w: _sort_key(ctx2, w)) == r

    # Class count cross-check: the classes of the corpus are exactly the
    # normal forms of length <= 4, which the oracle enumerates on its own.
    assert len(buckets) == len(enumerate_ball(ctx2, 4)) == 3193

    # Oracle agreement, equal side: every word is Dehn-equal to its normal
    # form and to its bucket neighbours.  Dehn reduction is also checked to
    # preserve the abelianization, which is what separates words whose
    # images in Z^4 differ (a nonzero image cannot reduce to the empty word).
    for w, r in nfs.items():
        assert dehn_equal(ctx2, w, r)
        assert abelianize(ctx2, dehn_reduce(ctx2, w).word) == abelianize(ctx2, w)
    for members in buckets.values():
        for u, v in zip(members, members[1:]):
            assert dehn_equal(ctx2, u, v)

    # The replacement move behind that invariance, at the generator level:
    # both arcs of a split relator cycle have the same image, inverted.
    for entry in ctx2.relator_table:
        for k in range(ctx2.n_gens + 1, len(entry) + 1):
            assert abelianize(ctx2, entry[:k]) == abelianize(
                ctx2, invert_word(entry[k:])
            )

    # Oracle agreement, unequal side: distinct normal forms that the
    # abelianization cannot separate must still come out unequal.
    by_ab = {}
    for r in buckets:
        by_ab.setdefault(abelianize(ctx2, r), []).append(r)
    for group in by_ab.values():
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                assert not dehn_equal(ctx2, u, v)

    # And the literal biconditional on a large random sample of pairs.
    rng = random.Random(1101)
    for _ in range(20000):
        u = corpus[rng.randrange(len(corpus))]
        v = corpus[rng.randrange(len(corpus))]
        assert (nfs[u] == nfs[v]) == dehn_equal(ctx2, u, v)

    assert time.monotonic() - start < 60.0


def test_criterion_02(ctx2):
    """The incremental engine and the d-basis engine compute the same
    normal form: on the full genus-2 corpus of length <= 4, and on 10^4
    random words of length <= 40 at each genus in {2, 3, 4}."""
    for w in all_words(ctx2, 4):
        assert nf(ctx2, w) == d_basis_normalize(ctx2, w)

    rng = random.Random(1102)
    for g in (2, 3, 4):
        ctx = GroupContext(g)
        for _ in range(10000):
            w = random_freely_reduced(ctx, rng.randrange(0, 41), rng)
            assert nf(ctx, w) == d_basis_normalize(ctx, w)


def test_criterion_03():
    """Power growth on 10^3 random nontrivial elements per genus in
    {2, 3, 4}: |x^2| > |x|; |x^k| for k <= 6 agrees between the plain
    concatenation route and the splice route, and follows the linear
    formula; tau(x) = |x^2| - |x| equals the core length.  Under 2 min."""
    start = time.monotonic()
    rng = random.Random(1103)
    for g in (2, 3, 4):
        ctx = GroupContext(g)
        for _ in range(1000):
            x = random_nontrivial(ctx, 12, rng)
            n1 = nf(ctx, x)
            n2 = nf(ctx, x * 2)
            assert len(n2) > len(n1)
            tau = len(n2) - len(n1)

            pd = power_decompose(ctx, x)
            assert len(pd.core) == tau >= 1
            assert check_length_formula(ctx, x, 6)
            for k in range(2, 7):
                direct = nf(ctx, x * k)
                assert nf_power(ctx, x, k) == direct
                assert pd.assemble(k) == direct
    assert time.monotonic() - start < 120.0


def test_criterion_04():
    """The core of every relator-entry prefix matches the closed table
    (all four rows), for every entry and every length, at genus 2 and 3."""
    for g in (2, 3):
        ctx = GroupContext(g)
        g2 = ctx.n_gens
        rows = {"short": 0, "half-stay": 0, "half-flip": 0, "long": 0}
        for entry in range(len(ctx.relator_table)):
            E = ctx.relator_table[entry]
            for k in range(1, len(E)):
                assert ci(ctx, E[:k]) == expected_core_of_fragment(ctx, entry, k)
                if k < g2:
                    rows["short"] += 1
                elif k > g2:
                    rows["long"] += 1
                elif ctx.greater(E[0], E[g2 - 1]):
                    rows["half-flip"] += 1
                else:
                    rows["half-stay"] += 1
        assert all(rows.values()), rows


def _class_key(ctx, w):
    if nf(ctx, w) == ():
        return ()
    return class_nf(ctx, w).class_nf


def _verify_certificate(ctx, base, cert):
    z = cert.conjugator
    assert nf(ctx, z + nf(ctx, base) + invert_word(z)) == cert.class_nf


def test_criterion_05(ctx2):
    """Conjugacy, four parts.  (a) class_nf is conjugation-invariant on
    10^3 random elements; (b) every certificate verifies by direct
    conjugation; (c) the full block family at genus 2 and 3, all rotation
    pairs and both orientations, is conjugate with verified certificates
    and the oracle agrees; (d) the conjugacy partition of all genus-2
    words of length <= 3 matches the oracle's exactly.  Under 5 min."""
    start = time.monotonic()

    # (a) + (b)
    rng = random.Random(1105)
    for g in (2, 3):
        ctx = GroupContext(g)
        for _ in range(500):
            x = random_nontrivial(ctx, 10, rng)
            w = random_freely_reduced(ctx, rng.randrange(0, 7), rng)
            y = w + x + invert_word(w)
            cx = class_nf(ctx, x)
            cy = class_nf(ctx, y)
            assert cx.class_nf == cy.class_nf
            _verify_certificate(ctx, x, cx)
            _verify_certificate(ctx, y, cy)

    # (c) the block family: rotations of a half-relator block, against the
    # reversed rotations, at every entry, t in {1, 2}.
    for g in (2, 3):
        ctx = GroupContext(g)
        blk = ctx.n_gens - 1
        for entry in ctx.relator_table:
            for t in (1, 2):
                family = [(entry[i:blk] + entry[:i]) * t for i in range(1, blk + 1)]
                reversed_family = [tuple(reversed(u)) for u in family]
                for u in family:
                    assert class_nf(ctx, u).exceptional
                    for v in reversed_family:
                        assert class_nf(ctx, v).exceptional
                        z = are_conjugate(ctx, u, v)
                        assert z is not None
                        assert nf(ctx, z + nf(ctx, v) + invert_word(z)) == nf(ctx, u)
                        assert dehn_conjugate(ctx, u, v)

    # (d) partition comparison over every word of length <= 3 at genus 2.
    corpus = list(all_words(ctx2, 3))
    keys = {w: _class_key(ctx2, w) for w in corpus}
    classes = {}
    for w, key in keys.items():
        classes.setdefault(key, []).append(w)
    for members in classes.values():
        base = members[0]
        for other in members[1:]:
            assert dehn_conjugate(ctx2, base, other)
    reps = [members[0] for members in classes.values()]
    for i, u in enumerate(reps):
        for v in reps[i + 1 :]:
            assert not dehn_conjugate(ctx2, u, v)
    for _ in range(20000):
        u = corpus[rng.randrange(len(corpus))]
        v = corpus[rng.randrange(len(corpus))]
        assert (keys[u] == keys[v]) == dehn_conjugate(ctx2, u, v)

    assert time.monotonic() - start < 300.0


def test_criterion_06(ctx2):
    """c3 c4 c1^-1 and c4 c3 c1^-1 are conjugate with a verified
    conjugator, although neither is a cyclic permutation of the other."""
    x = (3, 4, -1)
    y = (4, 3, -1)
    assert y not in cyclic_rotations(x)
    assert nf(ctx2, y) not in {nf(ctx2, r) for r in cyclic_rotations(x)}

    z = are_conjugate(ctx2, x, y)
    assert z is not None and z != ()
    assert nf(ctx2, z + nf(ctx2, y) + invert_word(z)) == nf(ctx2, x)
    assert dehn_conjugate(ctx2, x, y)


def test_criterion_07():
    """root(x^r) for cyclically irreducible x and r <= 4 returns a
    primitive root whose reassembled power normalizes back to x^r, with
    the exponent agreeing with a brute-force period scan of the core."""
    rng = random.Random(1107)
    for g in (2, 3):
        ctx = GroupContext(g)
        for _ in range(60):
            x = ci(ctx, random_nontrivial(ctx, 8, rng))
            r0 = root(ctx, x).exponent
            for r in range(1, 5):
                xr = x * r
                res = root(ctx, xr)
                assert nf_power(ctx, res.root, res.exponent) == nf(ctx, xr)
                assert root(ctx, res.root).exponent == 1
                assert res.exponent == r * r0

                core = ci(ctx, xr)
                n = len(core)
                d = next(
                    d for d in range(1, n + 1)
                    if n % d == 0 and core == core[:d] * (n // d)
                )
                assert res.exponent == n // d


def test_criterion_08(ctx2):
    """conj_power: 200 constructed positive instances (y = w x^a w^-1)
    are found and verified independently; 200 pairs whose abelianized
    images are non-parallel (a nonzero 2x2 minor) come back negative."""
    rng = random.Random(1108)

    found = 0
    while found < 200:
        x = random_nontrivial(ctx2, 8, rng)
        a = rng.randrange(1, 4)
        w = random_freely_reduced(ctx2, rng.randrange(0, 6), rng)
        y = w + x * a + invert_word(w)
        res = conj_power(ctx2, x, y)
        assert res.found and res.m >= 1 and res.n != 0
        lhs = nf(ctx2, x * res.m)
        y_pow = y * res.n if res.n > 0 else invert_word(y) * (-res.n)
        z = res.conjugator
        assert lhs == nf(ctx2, z + y_pow + invert_word(z))
        if root(ctx2, x).exponent == 1:
            assert (res.m, res.n) == (a, 1)
        found += 1

    checked = 0
    while checked < 200:
        x = random_nontrivial(ctx2, 8, rng)
        y = random_nontrivial(ctx2, 8, rng)
        ax = abelianize(ctx2, x)
        ay = abelianize(ctx2, y)
        if all(
            ax[i] * ay[j] == ax[j] * ay[i]
            for i in range(len(ax))
            for j in range(i + 1, len(ax))
        ):
            continue
        assert conj_power(ctx2, x, y) == ConjPowerResult(False, 0, 0, ())
        checked += 1


def test_criterion_09():
    """Presentation transfer.  The three short canonical images hold; the
    canonical relator dies in the symmetric group for g in {2, 3, 4}; the
    canonical stable exponent is 2g (symmetric is 2); and on 100 random
    elements per genus the three coarse power-length statements hold for
    k <= 3.  Under 2 min."""
    start = time.monotonic()

    can2 = canonical_descriptor(2)
    assert translate(can2, (1,)) == (1,)
    assert translate(can2, (1, 1)) == (1, 3)
    assert translate(can2, (1, -1)) == (1, -1)

    rng = random.Random(1109)
    for g in (2, 3, 4):
        ctx = GroupContext(g)
        can = canonical_descriptor(g)
        assert nf(ctx, translate(can, canonical_relator(g))) == ()
        assert length_in(ctx, can, canonical_relator(g)) == 0
        assert t_parameter(can) == 2 * g
        assert t_parameter(symmetric_descriptor(g)) == 2

        t = t_parameter(can)
        done = 0
        while done < 100:
            x = random_freely_reduced(ctx, rng.randrange(1, 9), rng)
            if not nf(ctx, translate(can, x)):
                continue
            lengths = [len(nf(ctx, translate(can, x * (t * m)))) for m in (1, 2, 3)]
            slope = lengths[1] - lengths[0]
            assert slope > 0 and slope % t == 0
            assert lengths[2] == 2 * slope + lengths[0]
            assert translation_number(ctx, translate(can, x * t)) == slope
            assert check_coarse_formulae(ctx, can, x, 3)
            done += 1

    assert time.monotonic() - start < 120.0


def test_criterion_10():
    """Self-reduction pairs.  On 10^3 random cyclically reduced inputs,
    reducing_pair(X, X) never emits a doubled letter; and on constructed
    long instances (at least 20) the pair comes back exactly as built,
    with a repeated half-relator block present."""
    rng = random.Random(1110)
    for g in (2, 3):
        ctx = GroupContext(g)
        done = 0
        while done < 500:
            x = nf(ctx, random_nontrivial(ctx, 14, rng))
            if not x or x[0] == -x[-1]:
                continue
            c1, c2 = reducing_pair(ctx, x, x)
            joined = c1 + c2
            assert all(a != b for a, b in zip(joined, joined[1:]))
            done += 1

    built = 0
    for g in (2, 3):
        ctx = GroupContext(g)
        g2 = ctx.n_gens
        t_min = math.ceil((4 * g + 8 * (2 * g - 1) - 1) / (2 * (2 * g - 1)))
        for E in ctx.relator_table:
            if ctx.greater(E[0], E[g2 - 1]):
                continue
            for t in (t_min, t_min + 1, t_min + 2):
                c1 = E[g2 + 1 :] * t
                c2 = (E[0],) + E[1:g2] * t
                assert len(c1 + c2) >= 4 * g + 8 * (2 * g - 1)
                x1, ym = c1[0], c2[-1]
                b = next(
                    a for a in ctx.letters if a not in (x1, ym, -x1, -ym)
                )
                X = c2 + (ym, ym) + (b, b) + (x1, x1) + c1
                assert is_irreducible(ctx, X) and X[0] != -X[-1]
                assert reducing_pair(ctx, X, X) == (c1, c2)

                block = E[1:g2] * 2
                joined = c1 + c2
                assert any(
                    joined[i : i + len(block)] == block
                    for i in range(len(joined) - len(block) + 1)
                )
                built += 1
    assert built >= 20
