"""Independent correctness oracles.

Dehn's algorithm solves the word and conjugacy problems by replacing
any relator fragment longer than half a relator (length 2g+1 out of
4g) with the inverse of the complementary fragment, shortening the
word.  The classical theorems are stated for the canonical
presentation; the same replacement rule is valid for the symmetric
presentation because its pieces (common fragments of two distinct
relator rotations) all have length 1, a small-cancellation condition
far stronger than the C'(1/6) needed for Greendlinger's lemma.  The
oracle shares only the relator table with the rewriting engine: both
read its rows, and nothing else, through GroupContext.follow.  It
imports nothing from the rewriting, power or conjugacy modules (a test
checks this), so agreement between them is meaningful evidence.

dehn_reduce applies one rule, leftmost-maximal: at the leftmost
position where a successor chain of 2g+1 or more letters starts, take
that chain up to a whole relator (4g letters), replace it by the
inverse of the rest of its relator, and cancel freely where the new
letters meet the old ones.  Letters left of the leftmost changed index
s are as before, and the previous scan found no such chain starting
among them.  A chain starting before s - 2g decides its first 2g+1
letters inside that unchanged prefix, so it still falls short, and
the scan resumes at s - 2g instead of 0 with the same result as a
rescan.  Each replacement removes at least 2 letters and moves the
scan back at most 2g positions beyond the letters it cancels, so at
most O(g|w|) positions are scanned.  A scan reads each of its
positions O(1) times, because it carries the chain from letter to
letter instead of walking it again from every start: linear in |w| at
a fixed genus (Lyndon-Schupp, ch. V; Domanski-Anshel 1985).  The word
is held as the scanned list and the unread rest reversed, so a
replacement changes only their two ends and moves a bounded number of
letters between them.  Whether every rotation of the result is reduced
as well is decided by the chains that start in its last 2g letters and
run across its end; no other chain of a rotation can be long.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .group_core import (
    GroupContext,
    Word,
    abelianize,
    cyclic_rotations,
    free_reduce,
    invert_word,
)

# letters moved at a time from the unread rest into the scanned list; a
# replacement moves back at most this many plus 4g
_WINDOW = 256


@dataclass(frozen=True)
class DehnForm:
    """A freely reduced word with no fragment longer than half a relator.

    cyclically_reduced additionally asserts the property for every
    rotation of the word.
    """

    word: Word
    cyclically_reduced: bool


def _find_long_run(ctx: GroupContext, w: Word, start: int, stop: int, cap: int):
    """(p, length, E) for the leftmost p in [start, stop) where a chain
    of more than 2g letters begins: w[p]·E[:length-1], length capped at
    cap (2g < cap <= 4g), E the row follow[w[p]][w[p+1]].

    The scan carries the chain that ends at the current letter, as its
    row E and its length run.  Pieces have length 1, so the chains that
    start later on it lie on the same cyclic relator and end where it
    ends; the first chain to reach 2g+1 letters starts leftmost.  A
    letter is compared with E unless the chain breaks there, and only
    then is the row of the new chain looked up.
    """
    g2 = ctx.n_gens
    follow = ctx.follow
    n = len(w)
    E, run = None, 1
    for i in range(start + 1, min(stop + g2, n)):
        if E is not None and w[i] == E[run - 1]:
            run += 1
            if run > g2:
                p = i - g2
                while run < cap and p + run < n and w[p + run] == E[run - 1]:
                    run += 1
                return p, run, E
        else:
            E = follow[w[i - 1]].get(w[i])
            run = 1 if E is None else 2
    return None


def dehn_reduce(ctx: GroupContext, w: Word) -> DehnForm:
    """Shorten w by Dehn replacements until none applies.

    The result is empty exactly when w represents the identity.
    """
    ctx.check_word(w)
    cap, back = ctx.alphabet_size, ctx.n_gens
    # the word is head + reversed(tail); chains are sought in head, which
    # starts as the whole word, so a word with no long chain is scanned once
    head, tail = list(free_reduce(w)), []
    start = 0
    while True:
        # a chain reads at most cap letters, so one starting before stop lies in head
        stop = len(head) - cap + 1 if tail else len(head)
        hit = _find_long_run(ctx, head, start, stop, cap)
        if hit is not None:
            p, length, E = hit
            tail += reversed(head[p + length:])
            # the chain is maximal, so its replacement cannot cancel against
            # the suffix; only the prefix can cancel against what follows it
            tail += map(neg, E[length - 1:-1])
            del head[p:]
            while head and tail and head[-1] == -tail[-1]:
                head.pop()
                tail.pop()
            # head is now exactly the unchanged prefix
            start = max(0, len(head) - back)
        elif tail:
            start = stop
        else:
            break
        m = min(start + cap + _WINDOW - len(head), len(tail))
        if m > 0:
            head += reversed(tail[-m:])
            del tail[-m:]
    word = tuple(head)
    return DehnForm(word, _cyclically_dehn_reduced(ctx, word))


def _wrapped_long_run(ctx: GroupContext, w: Word):
    """_find_long_run over the rotations of a Dehn-reduced w of more than
    2g letters: the first long chain of w.w starting inside w.

    A chain starting before n - 2g would have its first 2g+1 letters
    inside w, which has no long chain, so the scan starts there.
    """
    n = len(w)
    return _find_long_run(ctx, w + w, n - ctx.n_gens, n, min(ctx.alphabet_size, n))


def _cyclically_dehn_reduced(ctx: GroupContext, w: Word) -> bool:
    """w is assumed Dehn-reduced; check every rotation is as well."""
    n = len(w)
    if n == 0:
        return True
    if w[0] == -w[-1]:
        return False
    if n <= ctx.n_gens:
        return True
    return _wrapped_long_run(ctx, w) is None


def dehn_reduce_cyclic(ctx: GroupContext, w: Word) -> Word:
    """Some cyclically Dehn-reduced word conjugate to w.

    Alternates linear reduction, stripping inverse end pairs, and
    rotating a wrap-around relator run to the front where the linear
    pass can see it.  Every round shortens the word, so this stops.
    """
    cur = dehn_reduce(ctx, w).word
    while True:
        if len(cur) >= 2 and cur[0] == -cur[-1]:
            k = 1
            while 2 * k + 2 <= len(cur) and cur[k] == -cur[-1 - k]:
                k += 1
            cur = dehn_reduce(ctx, cur[k:len(cur) - k]).word
            continue
        n = len(cur)
        if n > ctx.n_gens:
            hit = _wrapped_long_run(ctx, cur)
            if hit is not None:
                cur = dehn_reduce(ctx, cur[hit[0]:] + cur[:hit[0]]).word
                continue
        return cur


def dehn_equal(ctx: GroupContext, u: Word, v: Word) -> bool:
    return dehn_reduce(ctx, u + invert_word(v)).word == ()


def dehn_conjugate(ctx: GroupContext, u: Word, v: Word) -> bool:
    """Conjugacy test on cyclically Dehn-reduced forms.

    Two such forms are conjugate exactly when some rotation U_i equals
    some rotation V_j, or does so after conjugation by one letter.
    An abelianization mismatch short-circuits to False.
    """
    cu = dehn_reduce_cyclic(ctx, u)
    cv = dehn_reduce_cyclic(ctx, v)
    if not cu or not cv:
        return not cu and not cv
    if abelianize(ctx, cu) != abelianize(ctx, cv):
        return False
    rots_u = list(dict.fromkeys(cyclic_rotations(cu)))
    rots_v = list(dict.fromkeys(cyclic_rotations(cv)))
    for ui in rots_u:
        for vj in rots_v:
            if dehn_equal(ctx, ui, vj):
                return True
            for a in ctx.letters:
                if dehn_equal(ctx, (a,) + ui + (-a,), vj):
                    return True
    return False
