"""Length-lexicographic rewriting to normal form.

Two independent complete rewriting systems are implemented.

The S system works with four rule families attached to every entry
b_1...b_4g of the relator table:

  S1        b_1 b_1^-1                      ->  (empty)
  S2(k)     b_1...b_k                       ->  b_4g^-1...b_k+1^-1     2g+1 <= k <= 4g
  S3(t)     b_1 (b_2...b_2g)^t b_2g+1       ->  (b_2g...b_2)^t         t >= 2
  S4(t)     b_1 (b_2...b_2g)^t              ->  (b_2g...b_2)^t b_1     b_1 > b_2g, t >= 1
            (b_1...b_2g-1)^t b_2g           ->  b_2g (b_2g-1...b_1)^t  b_1 > b_2g, t >= 1

A word is irreducible iff it contains no subword of type S1, S2(2g+1),
S3(t) or S4(1); matches are always taken maximal (largest k, largest t).
The system is complete, so a word is irreducible exactly when it is its
own normal form, and that is how `is_irreducible` decides it.

The D system is the explicit basis of eight rule families D1..D8 over
the generators; it is a proper subset of the S system and is kept as a
deliberately separate code path so the two engines can cross-check each
other.  It uses none of the S engine's functions or trace types: a D
match is a plain (end, replacement), spliced in place.

`normalize` reduces incrementally: it appends one letter at a time to an
irreducible accumulator, and at most one rule fires per appended letter.
Words only ever grow on the right; no left-extension matcher is kept
beside _append_step.
A rule can fire only when the letter is the inverse of the last one or
one of its two successors in a relator; one dict lookup per letter rules
that out, and such a letter is appended inline.  The inverse pops the
last letter (S1).  Every other rule needs a chain of at least 2g >= 4
letters, so a successor is appended inline too unless the letters 2
and 2g-1 places back both lie on its chain: two probes, without a
call, and the chain is never walked back.  Only when both match is the
slice between them compared with the relator table, so only a
successor on a chain of 2g or more letters goes through _append_step,
which reads the one rule it fires, if any, off the table and returns
it as plain values.  Every caller takes these same decisions; a trace,
built only on request, records them as genuine S-rule applications
(RuleId, ReductionStep) on the evolving word, so replaying them by
splicing reproduces the normal form.  Without a trace no rule record
is built.
Because an irreducible word passes through unchanged, nf(u v) for an
irreducible u starts from u and costs only the letters of v.  When v is
irreducible too, _nf_join reads only the letters of v near the
junction.  From a v longer than one piece it first drops the a.a^-1
pairs that meet there, if any, found by slice comparison: appending
them one at a time would only pop them (S1), and the words left are a
prefix of u and a suffix of v, so they are irreducible too.  Then v
contains no left side, so a rule fired past the junction has a left
side that starts in u's part of acc and covers every letter of v read
since.  The left sides of S1, S2(2g+1) and S4(1) have at most 2g+1
letters, and every longer one that can fire runs along a
(2g-1)-periodic block, so once acc ends with 4g letters of v that are
not (2g-1)-periodic, no later letter of v fires a rule and the rest is
appended unread.
enumerate_ball lists the normal forms up to a radius by the same
one-letter extension, after the growth series has shown that they fit
under its cap, and checks each sphere against that series.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    Word,
    common_prefix_len,
    invert_word,
)


class RuleId(NamedTuple):
    """Identifies one rewriting rule instance.

    family: S1, S2, S3, S4a or S4b.  param is k for S2, t for S3/S4
    and 0 for S1.  Only a trace builds one.
    """

    family: str
    param: int = 0

    def __str__(self):
        if self.family == "S2":
            return f"S2(k={self.param})"
        if self.family in ("S3", "S4a", "S4b"):
            return f"{self.family}(t={self.param})"
        return self.family


class ReductionStep(NamedTuple):
    rule: RuleId
    start: int  # 0-based offset of the matched subword
    matched: Word
    replacement: Word


def _rev(block: Word) -> Word:
    return tuple(reversed(block))


def is_irreducible(ctx: GroupContext, w: Word) -> bool:
    """True when no S rule applies anywhere in w.

    The S system is complete: each element has exactly one irreducible
    word, its normal form, so w is irreducible exactly when nf(w) == w.
    The tests hold this against a leftmost scan that matches every rule
    family at every position.  nf returns a tuple, so w is compared as
    one: a list reads as a tuple does.
    """
    return nf(ctx, w) == tuple(w)


def is_cyclically_irreducible(ctx: GroupContext, w: Word) -> bool:
    """True when the square of w is irreducible (every rotation is then too).

    Decided by appending one copy of w to w: w + w is irreducible
    exactly when _nf_concat(w, w) returns it unchanged, for every word w,
    irreducible or not.  Each rule replaces a subword by a shortlex-smaller
    word, so once one fires the result is smaller than w + w and cannot
    equal it.  Conversely, a left side occurring in w + w either ends in
    the second copy or lies in the first, and then recurs at the same
    offset in the second; so if any occurs, one ends in the second copy.
    Until the first rule fires acc holds the letters of w + w as given,
    and _extend fires on the last letter of the first such left side,
    since its probes and _append_step read only the letters that end acc.
    w is taken as a tuple, so a list reads as a tuple does.
    """
    ctx.check_word(w)
    w = tuple(w)
    return _nf_concat(ctx, w, w) == w + w


def _append_step(ctx: GroupContext, acc: list, E: Word):
    """The rule that appending the letter E[0] to the irreducible word
    `acc` fires, where E is the row ctx.follow[acc[-1]][E[0]].

    Called by _extend only when acc ends with E[2g+1:], so that the
    chain of the letter has at least 2g letters.  Returns (family,
    param, n_pop, tail): pop n_pop letters off acc, then extend it with
    tail; family is None, and tail the plain letter, when no rule fires.

    Only chains of 2g and 2g+1 letters fire a rule; acc is irreducible,
    so none is longer.  The chain reaches 2g+1 letters when the letter
    before E[2g+1:] is E[2g].
    """
    g2 = ctx.n_gens
    letter = E[0]
    k = len(acc) - g2 + 1
    if k and acc[k - 1] == E[g2]:
        return "S2", g2 + 1, g2, invert_word(E[1:g2])
    # the chain E[2g+1:] + (letter,) has exactly 2g letters; count the
    # run of t whole blocks E[2g+1:] that ends acc
    blk = acc[k:]
    L = g2 - 1
    t = 0
    end = len(acc)
    while end >= L and acc[end - L:end] == blk:
        t += 1
        end -= L
    m = t * L
    prev = acc[-m - 1] if len(acc) > m else None
    if prev == E[g2]:
        # t == 1 here would have been the 2g+1 chain above
        return "S3", t, m + 1, _rev(blk) * t
    if ctx.greater(E[g2 + 1], letter):
        return "S4b", t, m, (letter,) + _rev(blk) * t
    return None, 0, 0, (letter,)


def _extend(ctx: GroupContext, acc: list, letters, steps) -> None:
    """Append letters one at a time to the irreducible list acc, in place.

    A letter that is not a key of ctx.follow[acc[-1]], neither the
    inverse of acc[-1] nor one of its two successors, cannot fire a rule
    and is appended inline.  The inverse (mapped to None) is popped
    inline (S1).  A successor maps to its row E, which ends at acc[-1].
    No rule but S1 fires on a chain shorter than 2g, and a chain of 2g
    ends acc with E[2g+1:].  Unless acc[-2] is E[-2] and the far letter
    acc[-(2g-1)] is E[2g+1], the successor is appended inline after
    these two probes; only when both match is the whole slice compared.
    So only a successor on a chain of 2g or more letters goes through
    _append_step, with E.  Each rule that fires is recorded in steps as
    a ReductionStep, unless steps is None; no record is built then.
    """
    follow = ctx.follow
    g2 = ctx.n_gens
    last = acc[-1] if acc else 0
    for letter in letters:
        nxt = follow[last]
        if letter not in nxt:
            acc.append(letter)
            last = letter
            continue
        E = nxt[letter]
        if E is None:
            if steps is not None:
                steps.append(ReductionStep(RuleId("S1"), len(acc) - 1, (last, letter), ()))
            acc.pop()
            last = acc[-1] if acc else 0
            continue
        k = len(acc) - g2 + 1
        if k < 0 or acc[-2] != E[-2] or acc[k] != E[g2 + 1] or acc[k:] != list(E[g2 + 1:]):
            acc.append(letter)
            last = letter
            continue
        family, param, n_pop, tail = _append_step(ctx, acc, E)
        if family is not None and steps is not None:
            start = len(acc) - n_pop
            steps.append(ReductionStep(RuleId(family, param), start,
                                       tuple(acc[start:]) + (letter,), tail))
        del acc[len(acc) - n_pop:]
        acc.extend(tail)
        last = acc[-1]


def normalize(ctx: GroupContext, w: Word, *, trace: bool = True):
    """(nf(w), steps): the normal form and the rule applications that led there.

    The word is consumed left to right; by the one-letter extension
    property each appended letter triggers at most one S rule, recorded
    as a ReductionStep against its position in the evolving word, so
    splicing the steps into w in order gives nf(w).  steps is a tuple,
    or None with trace=False, when no record is built.
    """
    ctx.check_word(w)
    acc: list = []
    steps = [] if trace else None
    _extend(ctx, acc, w, steps)
    return tuple(acc), None if steps is None else tuple(steps)


def nf(ctx: GroupContext, w: Word) -> Word:
    """Normal form of w, without a trace."""
    return normalize(ctx, w, trace=False)[0]


def _nf_concat(ctx: GroupContext, u: Word, v: Word) -> Word:
    """nf(u + v) for u already irreducible.

    No rule fires while normalize consumes an irreducible word, so its
    state after u is list(u); only the letters of v are appended.
    """
    acc = list(u)
    _extend(ctx, acc, v, None)
    return tuple(acc)


def _nf_join(ctx: GroupContext, u: Word, v: Word) -> Word:
    """nf(u + v) for u and v both irreducible, rewriting only near the junction.

    An empty u or v returns the other word as it is, unread.  A v no
    longer than C = max(4g, 32) letters goes to _extend whole, as
    _nf_concat takes it.  When a longer v starts with the inverse of the
    last letter of u, the free cancellation at the junction is dropped
    first: the largest k with v[:k] the inverse of u[-k:], found by
    common_prefix_len at C speed, and the join goes on with u[:len(u)-k]
    and v[k:]; without that first pair no letter of u is inverted.  That
    is exact: while the appended letter is the inverse of acc[-1],
    _extend only pops it (S1), and no other rule can fire in between;
    and a prefix or a suffix of an irreducible word is irreducible, so
    the argument below holds for the shortened pair.  It is sound for
    any u and v, as it removes only a.a^-1 pairs.  Those k pops are S1
    steps that _extend never sees: a count of the rules fired must add
    k to them.

    v goes to _extend in pieces of C letters, so the number m of its
    letters read runs through C, 2C, 3C, ...  After each piece the rest
    of v goes in unread once acc ends with the window W = v[m-4g:m] and
    W is not (2g-1)-periodic.  So the test is tried at most C letters
    after the first window that would pass it.

    Why no later letter can fire a rule then: write acc = Q.W.  Until a
    rule fires, acc is Q.v[m-4g:m'] when v[m'] is appended, and v has no
    left side, so the left side that v[m'] would complete starts in Q
    and contains W.v[m'].  That rules out the left sides of at most
    2g+1 letters (S1, S2(2g+1), S4(1)), and no longer S2 fires on an
    irreducible acc.  Each other left side, S3(t) and S4(t) for t >= 2,
    is a run of one (2g-1)-letter block, (b_2...b_2g)^t or
    (b_1...b_2g-1)^t, with one letter before it, after it or both.  W
    follows the first letter of the left side and precedes v[m'], its
    last, so W would lie in the run and be (2g-1)-periodic.  A window
    of 2g letters would do; 4g keeps a margin.  A fully periodic v,
    such as a power of an exceptional core, is read to the end.
    """
    if not u or not v:
        return tuple(u or v)
    K = 2 * ctx.n_gens
    L = ctx.n_gens - 1
    C = K if K > 32 else 32
    if len(v) > C and u[-1] == -v[0]:
        k = common_prefix_len(invert_word(u[-len(v):]), v)
        u, v = u[:len(u) - k], v[k:]
    acc = list(u)
    _extend(ctx, acc, v[:C], None)
    m = C
    while m < len(v):
        # the periodicity test first: on a periodic v it fails on two
        # tuple slices, without building a list
        if v[m - K:m - L] != v[m - K + L:m] and acc[-K:] == list(v[m - K:m]):
            acc += v[m:]
            break
        _extend(ctx, acc, v[m:m + C], None)
        m += C
    return tuple(acc)


def sphere_sizes(ctx: GroupContext, radius: int, cap: int) -> list:
    """The number of elements of length r, for r = 0, 1, ... up to radius.

    Cannon's growth series of the {4g,4g} tiling, whose 1-skeleton is
    the Cayley graph here (Cannon 1984; Floyd-Plotnick 1987): the sizes
    are the coefficients of N(z)/D(z), N = 1 + 2z + ... + 2z^(2g-1) +
    z^2g, D = 1 - (4g-2)(z + ... + z^(2g-1)) + z^2g.  The list stops once
    its sum exceeds cap, so a huge radius costs nothing.
    """
    g2 = ctx.n_gens
    sizes = []
    total = 0
    for r in range(radius + 1):
        if total > cap:
            break
        s = 1 if r in (0, g2) else 2 if r < g2 else 0
        s += (2 * g2 - 2) * sum(sizes[max(0, r - g2 + 1):])
        if r >= g2:
            s -= sizes[r - g2]
        sizes.append(s)
        total += s
    return sizes


def enumerate_ball(ctx: GroupContext, radius: int, cap: int = 10**6) -> list:
    """All normal forms of length <= radius, breadth-first.

    Each normal form of length L+1 extends exactly one of length L by
    one letter (the plain-push case of the append operation, where
    appending the letter leaves it in place: no rule rewrites a word to
    itself), so the frontier extension is duplicate-free.  Raises
    DomainError before it builds any word when sphere_sizes puts more
    than cap elements in the ball, and VerificationError when a sphere
    it built has another size.
    """
    if radius < 0:
        raise DomainError("ball radius must be nonnegative")
    sizes = sphere_sizes(ctx, radius, cap)
    if sum(sizes) > cap:
        raise DomainError(
            f"a ball of radius {radius} has at least {sum(sizes)} elements, "
            f"more than the cap of {cap}")
    out = [()]
    frontier = [()]
    for r in range(1, radius + 1):
        frontier = [wa for w in frontier for a in ctx.letters
                    if _nf_concat(ctx, w, (a,)) == (wa := w + (a,))]
        if len(frontier) != sizes[r]:
            raise VerificationError(
                f"sphere {r} has {len(frontier)} normal forms, the growth series {sizes[r]}")
        out.extend(frontier)
    return out


# --- the explicit D basis -------------------------------------------------

@functools.cache
def _d_rules(g2: int):
    """Rule tables for the D engine over 2g = g2 generators.

    D7 and D8, the inverse pairs, need no table.
    """
    fixed = []  # (lead, replacement)
    fixed.append((tuple(-i for i in range(g2, 0, -1)),  # D3
                  tuple(-i for i in range(1, g2 + 1))))
    fixed.append((tuple(range(1, g2 + 1)),  # D4
                  tuple(range(g2, 0, -1))))
    for i in range(2, g2 + 1):  # D5
        lead = tuple(-j for j in range(i, g2 + 1)) + tuple(range(1, i))
        rep = tuple(range(i - 1, 0, -1)) + tuple(-j for j in range(g2, i - 1, -1))
        fixed.append((lead, rep))
    for i in range(2, g2 + 1):  # D6
        lead = tuple(-j for j in range(i - 1, 0, -1)) + tuple(range(g2, i - 1, -1))
        rep = tuple(range(i, g2 + 1)) + tuple(-j for j in range(1, i))
        fixed.append((lead, rep))
    by_first = {}
    for lead, rep in fixed:
        by_first.setdefault(lead[0], []).append((lead, rep))
    conj = {}  # j -> [(block, rep_block) of D1, of D2]
    for j in range(2, g2 + 1):
        bl1 = tuple(range(j - 1, 0, -1)) + tuple(-i for i in range(g2, j, -1))
        rb1 = tuple(-i for i in range(j + 1, g2 + 1)) + tuple(range(1, j))
        bl2 = tuple(range(j + 1, g2 + 1)) + tuple(-i for i in range(1, j))
        rb2 = tuple(-i for i in range(j - 1, 0, -1)) + tuple(range(g2, j, -1))
        conj[j] = [(bl1, rb1), (bl2, rb2)]
    return by_first, conj


def _d_match(ctx: GroupContext, w: Word, p: int):
    """(end, replacement) for the first D rule matching w[p:end], or None."""
    by_first, conj = _d_rules(ctx.n_gens)
    n = len(w)
    a = w[p]
    if p + 1 < n and w[p + 1] == -a:  # an inverse pair
        return p + 2, ()
    for lead, rep in by_first.get(a, ()):
        if w[p:p + len(lead)] == lead:
            return p + len(lead), rep
    if a >= 2:  # a conjugation rule starts with a positive letter c_j, j >= 2
        for block, rep_block in conj[a]:
            L = len(block)
            t = 0
            q = p + 1
            while w[q:q + L] == block:
                t += 1
                q += L
            if t >= 1 and q < n and w[q] == -a:
                return q + 1, rep_block * t
    return None


def d_basis_normalize(ctx: GroupContext, w: Word) -> Word:
    """Normal form computed with the explicit D basis only.

    Kept independent of the S engine on purpose; used as a cross-check.
    """
    ctx.check_word(w)
    cur = w
    while True:
        for p in range(len(cur)):
            match = _d_match(ctx, cur, p)
            if match is not None:
                end, rep = match
                cur = cur[:p] + rep + cur[end:]
                break
        else:
            return cur
