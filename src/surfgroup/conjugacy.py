"""Conjugacy decisions with conjugator certificates.

The class normal form of x is the least word among all words conjugate
to x.  It is computed from the cyclically irreducible core W of x: it is
the least rotation of W or, when W has the exceptional shape
(b_{i+1}..b_{2g-1}b_1..b_i)^t for a relator-table entry
(_exceptional_match), the least rotation of W or of W reversed, found
in O(|x|) by _least_rotations.  The conjugator is given by a formula,
one per family.  Every conjugator returned from this module has been
checked by _verify_conjugation, and a failed check raises
VerificationError, so an index or orientation slip cannot escape.

x = S^-1.W.S for the splice suffix S, the short end of the splice.
The root of x is the block of W's least period, which _least_rotations
also measures, conjugated back through S, and _root checks it without
building any power of it.  The conjugate-power decision reduces to
conjugacy of primitive roots, and its answer is checked on them alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import neg
from typing import NamedTuple

from .group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    Word,
    abelianize,
    common_prefix_len,
    common_suffix_len,
    compare_words,
    invert_word,
)
from .powers import PowerDecomposition, power_decompose
from .rewrite import _nf_join, is_irreducible, nf


# a dataclass: bench/test_bench.py builds a wrong one with dataclasses.replace
@dataclass(frozen=True)
class ConjugacyCertificate:
    """class_nf = normalize(conjugator . x . conjugator^-1).

    exceptional records that the core matched the reversed-family shape,
    so the minimum was also taken over the reversed rotations.
    """

    class_nf: Word
    conjugator: Word
    exceptional: bool


class RootResult(NamedTuple):
    root: Word
    exponent: int


class ConjPowerResult(NamedTuple):
    found: bool
    m: int
    n: int
    conjugator: Word


def _verify_conjugation(ctx, z: Word, x: Word, target: Word) -> bool:
    """Whether z.x.z^-1 = target, checked as z.x = target.z: x is joined
    to z, z is joined to target, and the two words must be equal.

    Sound for every z, x and target: a join returns a word equal to the
    product of its inputs (rewrite._nf_join), so equal outputs prove the
    equation, and with any words the check can only fail, never accept
    a wrong certificate.  When all three are irreducible, as every
    caller passes, the joins are nf(z.x) and nf(target.z), which are
    equal exactly when the equation holds.  The inverse of an
    irreducible word, which _conjugator and _root join, is irreducible
    too: inversion maps each left side of S1, S2(2g+1), S3(t) and S4(1)
    to a left side of the same rule, read along the inverse row, and it
    reverses the generator order, so S4(1)'s condition b_1 > b_2g
    carries over.
    """
    return _nf_join(ctx, z, x) == _nf_join(ctx, target, z)


def _least_rotations(s) -> range:
    """Every k with s[k:] + s[:k] least among the rotations of s, ascending.

    Duval's Lyndon factorisation of s.s finds one least rotation k0, the
    start of its last round, and the least period p of s, the gap j - k
    that round ends with: s.s is p-periodic and ss[k0:k0+p] is the
    Lyndon conjugate v of the primitive root of s, so the round scans
    ss[k0:2n] = v^m v' with v' a proper prefix of v, and the inner loop
    runs to the end with j - k = |v| = p.  The rotations equal to the
    least one lie exactly p apart.  Linear in n = len(s), for n >= 1.
    """
    n = len(s)
    ss = s + s
    n2 = 2 * n
    i = k0 = 0
    while i < n:
        k0 = i
        j, k = i + 1, i
        while j < n2:
            a = ss[k]
            b = ss[j]
            if a < b:
                k = i
            elif a == b:
                k += 1
            else:
                break
            j += 1
        while i <= k:
            i += j - k
    p = j - k
    return range(k0 % p, n, p)


def _exceptional_match(ctx: GroupContext, w: Word):
    """(entry, i) with w = (b_{i+1}..b_{2g-1}b_1..b_i)^t for the relator-table
    entry b and some t, 1 <= i <= 2g-1, or None.

    Every cyclic pair of the block b_1..b_{2g-1} has a row in ctx.follow
    but the seam b_{2g-1}b_1 (b_1 lies 2g+2 places after b_{2g-1} on b,
    2g-2 places after it on b^-1), so the first 2g-1 letters of w have
    exactly one pair without a row, and the letter after it is b_1.  The
    row E after the seam, from b_2 round to b_1, must spell b_2..b_{2g-1};
    b is the row that ends at E[-2] and starts at E[-1] = b_1.
    """
    blk = ctx.n_gens - 1
    head = w[:blk]
    if len(w) % blk or w != head * (len(w) // blk):
        return None
    follow = ctx.follow
    seams = [k for k in range(blk) if follow[head[k - 1]].get(head[k]) is None]
    if len(seams) != 1:
        return None
    s = seams[0]
    block = head[s:] + head[:s]
    E = follow[block[0]][block[1]]
    return (follow[E[-2]][E[-1]], blk - s) if block[1:] == E[:blk - 1] else None


def class_nf(ctx: GroupContext, x: Word) -> ConjugacyCertificate:
    """Least conjugate word of x with a verified conjugator.

    Uses the splice decomposition: with core W and nf(x^2) tail S, every
    rotation W[k:]+W[:k] equals (W[k:] S) x (W[k:] S)^-1.  When W has
    the exceptional shape the reversed rotations are conjugate as well,
    via the relator identity b_2g^-1 (b_1..b_{2g-1})^t b_2g =
    (b_{2g-1}..b_1)^t, and the minimum is taken over both families.

    Both minima come from _least_rotations on the negated letters of W
    and of W reversed, so the cost is O(|x|) and no rotation but the
    winner is built.  A reversed minimum takes the table formula's
    conjugator rev(W[:j]) rev(b_1..b_i) rev(b_{2g+i+1}..b_4g) S, for the
    one match (b, i) and the first rotation j whose reversal is the
    minimum.
    """
    pd = power_decompose(ctx, x)
    if not pd.word:
        raise DomainError("class normal form of the trivial element")
    return _class(ctx, pd)


def _class(ctx: GroupContext, pd: PowerDecomposition) -> ConjugacyCertificate:
    """class_nf of the nontrivial element that pd decomposes."""
    w = pd.core
    suffix = pd.suffix
    # the generator order reverses the integers, so the least rotation
    # of w is the ascending least rotation of its negated letters
    keys = list(map(neg, w))
    k0 = _least_rotations(keys)[0]
    best = w[k0:] + w[:k0]
    conj = None
    match = _exceptional_match(ctx, w)
    if match is not None:
        rw = w[::-1]
        rev_rotations = _least_rotations(keys[::-1])
        kr = rev_rotations[0]
        alt = rw[kr:] + rw[:kr]
        if compare_words(ctx, alt, best) < 0:
            # reversing rotation j of w gives rotation (n - j) mod n of w
            # reversed, so j is the first rotation whose reversal is alt
            entry, i = match
            j = -kr % rev_rotations.step
            best = alt
            conj = nf(ctx, w[:j][::-1] + entry[:i][::-1]
                      + entry[ctx.n_gens + i:][::-1] + suffix)
    if conj is None:
        # w is cyclically irreducible, so its suffix w[k0:] is irreducible
        conj = _nf_join(ctx, w[k0:], suffix)
    if not _verify_conjugation(ctx, conj, pd.word, best):
        raise VerificationError("class certificate failed verification")
    return ConjugacyCertificate(best, conj, match is not None)


def are_conjugate(ctx: GroupContext, x: Word, y: Word):
    """A verified z with x = z.y.z^-1, or None.

    Both trivial gives the empty conjugator; exactly one trivial gives
    None.  Conjugates have equal exponent sums (the relator's is 0), so a
    pair whose raw words differ there is refused before either is
    normalized.
    """
    if abelianize(ctx, x) != abelianize(ctx, y):
        return None
    px = power_decompose(ctx, x)
    py = power_decompose(ctx, y)
    if not px.word or not py.word:
        return () if px.word == py.word else None
    return _conjugator(ctx, _class(ctx, px), px.word, _class(ctx, py), py.word)


def _conjugator(ctx: GroupContext, cx: ConjugacyCertificate, x: Word,
                cy: ConjugacyCertificate, y: Word):
    """are_conjugate of the normal forms x and y, from their class certificates."""
    if cx.class_nf != cy.class_nf:
        return None
    # the inverse of the irreducible cx.conjugator is irreducible (see
    # _verify_conjugation), so the join is nf(cx.conjugator^-1 . cy.conjugator)
    z = _nf_join(ctx, invert_word(cx.conjugator), cy.conjugator)
    if not _verify_conjugation(ctx, z, y, x):
        raise VerificationError("conjugator failed verification")
    return z


def root(ctx: GroupContext, x: Word) -> RootResult:
    """Primitive root Y and exponent r with Y^r = x.

    nf(x^2) = P.S and nf(x^3) = P.W.S for the splice prefix P, core W
    and suffix S, so x = S^-1.W.S.  With d the least period of W that
    divides |W|, which the Duval scan of _least_rotations measures (it
    does not depend on the letter order), W = B^r for the block
    B = W[:d], and the root is Y = nf(S^-1.B.S), the block conjugated
    back through the suffix, the short end of the splice.
    """
    pd = power_decompose(ctx, x)
    if not pd.word:
        raise DomainError("root of the trivial element")
    return _root(ctx, pd)


def _root(ctx: GroupContext, pd: PowerDecomposition) -> RootResult:
    """root of the nontrivial element that pd decomposes.

    S^-1, B and S are irreducible (S ends nf(x^2), B lies in the core,
    and see _verify_conjugation for the inverse), so two joins give
    Y = nf(S^-1.B.S).  Y^r = x is checked as three facts: W == B * r,
    literally; S^-1.B = Y.S^-1, by _verify_conjugation, which joins S^-1
    to B anew, so a slip in building Y cannot pass; and the joins of
    S^-1, W and S give nf(x).  A join returns a word equal to the
    product of its inputs (rewrite._nf_join), so then
    Y^r = S^-1.B^r.S = S^-1.W.S = x, and the check can fail but can
    never accept a wrong root.  No power of Y is built.
    """
    w = pd.core
    s = pd.suffix
    s_inv = invert_word(s)
    d = _least_rotations(w).step
    r = len(w) // d
    block = w[:d]
    y = _nf_join(ctx, _nf_join(ctx, s_inv, block), s)
    if (block * r != w or not _verify_conjugation(ctx, s_inv, block, y)
            or _nf_join(ctx, _nf_join(ctx, s_inv, w), s) != pd.word):
        raise VerificationError("root reassembly failed verification")
    return RootResult(y, r)


def conj_power(ctx: GroupContext, x: Word, y: Word) -> ConjPowerResult:
    """Least (m, n) and verified z with x^m = z.y^n.z^-1, if any exist.

    x = x1^r1 and y = y1^r2 with primitive roots; a relation between
    powers forces y1 conjugate to x1 or to x1^-1, and then m = r2/d,
    n = +-r1/d with d = gcd(r1, r2).  Each input is decomposed once; a
    root of exponent 1 is nf of its input and reuses that decomposition.
    Roots whose exponent sums differ up to sign answer "no" before any
    class is built, and y1's class is built at most once.

    z is verified on the roots, so no power is built: _root checks
    x1^r1 = x and y1^r2 = y, _conjugator z.y1.z^-1 = x1^+-1, and then
    z.y^n.z^-1 = x1^(|n|.r2) is x^m once m.r1 = |n|.r2 is checked.
    """
    px = power_decompose(ctx, x)
    py = power_decompose(ctx, y)
    if not px.word or not py.word:
        raise DomainError("conjugate-power decision needs nontrivial elements")
    rx = _root(ctx, px)
    ry = _root(ctx, py)
    d = math.gcd(rx.exponent, ry.exponent)
    m = ry.exponent // d
    n = rx.exponent // d
    ab_y = abelianize(ctx, ry.root)
    cy = None
    for sign, x1 in ((1, rx.root), (-1, invert_word(rx.root))):
        if abelianize(ctx, x1) != ab_y:
            continue
        if cy is None:
            qy = py if ry.exponent == 1 else power_decompose(ctx, ry.root)
            cy = _class(ctx, qy)
        qx = px if sign == 1 and rx.exponent == 1 else power_decompose(ctx, x1)
        conj = _conjugator(ctx, _class(ctx, qx), qx.word, cy, qy.word)
        if conj is not None:
            if m * rx.exponent != n * ry.exponent:
                raise VerificationError("conjugate-power exponents failed verification")
            return ConjPowerResult(True, m, sign * n, conj)
    return ConjPowerResult(False, 0, 0, ())


def reducing_pair(ctx: GroupContext, w1: Word, w2: Word):
    """The excised pair (C1, C2): w1 = A.C1, w2 = C2.B, nf(w1 w2) = A.C'.B.

    A is the longest prefix of w1 surviving in nf(w1 w2), then B the
    longest surviving suffix of w2.  Lists give the tuples tuples give.
    """
    ctx.check_word(w1)
    ctx.check_word(w2)
    w1, w2 = tuple(w1), tuple(w2)
    if not is_irreducible(ctx, w1) or not is_irreducible(ctx, w2):
        raise DomainError("reducing_pair requires irreducible words")
    if w1 and w2 and w1[-1] == -w2[0]:
        raise DomainError("product must be freely reduced at the junction")
    product_nf = _nf_join(ctx, w1, w2)
    a = common_prefix_len(w1, product_nf)
    b = min(common_suffix_len(w2, product_nf), len(product_nf) - a)
    return w1[a:], w2[:len(w2) - b]
