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
most O(g|w|) positions are scanned.  A scan looks up only every 2g-th
successor pair.  A long chain has 2g pairs in a row, so it holds one
of them; pieces have length 1, so each pair lies on one chain, and the
first sampled pair on a long chain lies on the leftmost.  A long chain
through a sampled pair reaches g letters past it on one side, so the
chain is walked only when the letter g places after or before the
pair continues its row: linear in |w| at a fixed genus (Lyndon-Schupp,
ch. V; Domanski-Anshel 1985).  The word is held as the scanned list
and the unread rest reversed, so a replacement changes only their two
ends and moves a bounded number of letters between them.  dehn_reduce
returns the reduced word; only dehn_reduce_cyclic decides whether
every rotation of a word is reduced as well, from its end letters and
the chains that start in its last 2g letters and run across its end.

dehn_equal(u, v) drops the common prefix p and suffix s of u and v
before it reduces: with u = p.u'.s and v = p.v'.s, u.v^-1 is the
conjugate p.u'.v'^-1.p^-1, trivial exactly when u'.v'^-1 is.  The
letters of u' and v' meet only at a pair that differs, so two freely
reduced inputs give a freely reduced u'.v'^-1, which free_reduce passes
in one C pass, and the scan is the first pass over it in Python.
"""

from __future__ import annotations

from operator import neg

from .group_core import (
    GroupContext,
    Word,
    abelianize,
    common_prefix_len,
    common_suffix_len,
    cyclic_rotations,
    free_reduce,
    invert_word,
)

# letters moved at a time from the unread rest into the scanned list; a
# replacement moves back at most this many plus 4g
_WINDOW = 256


class _Reduced(tuple):
    """The word dehn_reduce returns.  .word is the word again, as a
    plain tuple, for bench/test_bench.py, which still reads it."""

    __slots__ = ()

    @property
    def word(self) -> Word:
        return tuple(self)


def _find_long_run(ctx: GroupContext, w: Word, start: int, stop: int, cap: int):
    """(p, length, E) for the leftmost p in [start, stop) where a chain
    of more than 2g letters begins: w[p]·E[:length-1], length capped at
    cap (2g < cap <= 4g), E the row follow[w[p]][w[p+1]].

    Only the successor pairs (w[j], w[j+1]) at j = start, start+2g, ...
    are looked up (the module docstring says why that suffices).  A
    pair on a row E is walked only when w[j+1+g] or w[j-g] continues E,
    back to where its chain starts and then forward from there.
    """
    g, g2 = ctx.genus, ctx.n_gens
    follow = ctx.follow
    n = len(w)
    for j in range(start, min(stop + g2 - 1, n - 1), g2):
        E = follow[w[j]].get(w[j + 1])
        if E is None or not (j + g < n - 1 and w[j + g + 1] == E[g]
                             or j - g >= start and w[j - g] == E[-1 - g]):
            continue
        # the last sampled pair was not on this chain, so it starts
        # less than 2g pairs back and E[p - j - 2] stays inside E
        p = j
        while p > start and w[p - 1] == E[p - j - 2]:
            p -= 1
        if p >= stop:
            return None
        if p < j:
            E = follow[w[p]][w[p + 1]]
        run = 2
        while run < cap and p + run < n and w[p + run] == E[run - 1]:
            run += 1
        if run > g2:
            return p, run, E
    return None


def dehn_reduce(ctx: GroupContext, w: Word) -> Word:
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
    return _Reduced(head)


def _wrapped_long_run(ctx: GroupContext, w: Word):
    """_find_long_run over the rotations of a Dehn-reduced w of more than
    2g letters: the first long chain of w.w starting inside w.

    A chain starting before n - 2g would have its first 2g+1 letters
    inside w, which has no long chain, so the scan starts there.
    """
    n = len(w)
    return _find_long_run(ctx, w + w, n - ctx.n_gens, n, min(ctx.alphabet_size, n))


def dehn_reduce_cyclic(ctx: GroupContext, w: Word) -> Word:
    """Some cyclically Dehn-reduced word conjugate to w: w itself
    exactly when every rotation of w is Dehn-reduced.

    After one linear reduction, alternates stripping inverse end pairs
    and rotating a wrap-around relator run to the front where the linear
    pass can see it.  Every strip or rotation shortens the word, so this
    stops.
    """
    cur = dehn_reduce(ctx, w)
    while True:
        n = len(cur)
        if n >= 2 and cur[0] == -cur[-1]:
            k = 1
            while 2 * k + 2 <= n and cur[k] == -cur[-1 - k]:
                k += 1
            # a subword of a Dehn-reduced word is Dehn-reduced
            cur = cur[k:n - k]
            continue
        if n > ctx.n_gens:
            hit = _wrapped_long_run(ctx, cur)
            if hit is not None:
                cur = dehn_reduce(ctx, cur[hit[0]:] + cur[:hit[0]])
                continue
        return cur


def dehn_equal(ctx: GroupContext, u: Word, v: Word) -> bool:
    """True when u and v represent the same element.

    With u = p.u'.s and v = p.v'.s, u.v^-1 = p.u'.v'^-1.p^-1 is trivial
    exactly when u'.v'^-1 is, so the common prefix p and suffix s are
    dropped before the reduction.  dehn_reduce checks the letters of u'
    and v', and the ends of both words are checked here, so every letter
    is checked once.  A bad letter is named at its position in u or v.
    """
    p = common_prefix_len(u, v)
    s = min(common_suffix_len(u, v), min(len(u), len(v)) - p)
    try:
        ctx.check_word(u[:p] + u[len(u) - s:])
        ctx.check_word(v[:p] + v[len(v) - s:])
        return dehn_reduce(ctx, u[p:len(u) - s] + invert_word(v[p:len(v) - s])) == ()
    except (TypeError, ValueError):
        ctx.check_word(u)
        ctx.check_word(v)
        raise


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
