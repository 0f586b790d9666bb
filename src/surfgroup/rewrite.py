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

The S entry points, each argued at its own function:
  normalize, nf     nf(w), with or without a trace of the rules fired
  _nf_concat        nf(u.v) for an irreducible u, reading only v
  _power_lengths    |nf(T^m)| for m = 1, 2, .., from one accumulator
  _nf_join          a word equal to u.v for any u and v, and nf(u.v)
                    when both are irreducible, rewritten near the junction
  is_irreducible    whether w is a normal form
  is_cyclically_irreducible   whether w.w is one
  enumerate_ball    the normal forms up to a radius, sphere by sphere
Every one of them appends letters through _extend, one at a time, or
through _join_pieces, which copies the letters it can prove unchanged.
No other module calls these two or their helpers.
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
    word, its normal form, so w is irreducible exactly when nf(w) == w,
    a list read as the tuple it spells.  The tests hold this against a
    leftmost scan that matches every rule family at every position.
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

    A w longer than 4C (C as in _nf_join) goes through _join_pieces in
    pieces of 4C letters, without its settle test, since w need not be
    irreducible; that leaves acc as _extend leaves it, for every w.
    """
    ctx.check_word(w)
    w = tuple(w)
    K = 2 * ctx.n_gens
    C = 4 * (K if K > 32 else 32)
    acc = list(w)
    if len(w) > C:
        _join_pieces(ctx, acc, w, C, False)
    else:
        _extend(ctx, acc, w, None)
    return tuple(acc) == w + w


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


def _power_lengths(ctx: GroupContext, T: Word, K: int):
    """Yield len(nf(T^m)) for m = 1 .. K: T is appended to one list K
    times, as _nf_concat would append it, and no power is copied."""
    acc: list = []
    for _ in range(K):
        _extend(ctx, acc, T, None)
        yield len(acc)


def _nf_join(ctx: GroupContext, u: Word, v: Word) -> Word:
    """A word equal to u.v for any u and v, and nf(u.v) when u and v are
    both irreducible.  Other modules rely on this contract alone.

    For any inputs the output equals u.v in the group: each rule that
    _extend fires replaces a relator fragment it has read by an equal
    word, the junction cancellation below drops only a.a^-1 pairs, and
    _join_pieces leaves acc as _extend leaves it.  The settle test is
    the one step that needs irreducible inputs; it only appends the
    letters it does not read, as they are, so it keeps the equality.

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
    the argument below holds for the shortened pair.  Those k pops are
    S1 steps that _extend never sees: a count of the rules fired must
    add k to them.

    v goes in through _join_pieces in pieces of C letters, with its
    settle test: after a piece, once m letters of v have been read, the
    rest of v goes in unread when acc ends with the window
    W = v[m-4g:m] and W is not (2g-1)-periodic.  So the test is tried at
    most C letters after the first window that would pass it.  Why no
    later letter can fire a rule once W has settled: write acc = Q.W.
    Until a rule fires, acc is Q.v[m-4g:m'] when v[m'] is appended, and
    v has no left side, so the left side that v[m'] would complete
    starts in Q and contains W.v[m'].  That rules out the left sides of
    at most 2g+1 letters (S1, S2(2g+1), S4(1)), and no longer S2 fires
    on an irreducible acc.  Each other left side, S3(t) and S4(t) for
    t >= 2, is a run of one (2g-1)-letter block, (b_2...b_2g)^t or
    (b_1...b_2g-1)^t, with one letter before it, after it or both.  W
    follows the first letter of the left side and precedes v[m'], its
    last, so W would lie in the run and be (2g-1)-periodic.  A window of
    2g letters would do; 4g keeps a margin.
    """
    if not u or not v:
        return tuple(u or v)
    K = 2 * ctx.n_gens
    C = K if K > 32 else 32
    if len(v) > C and u[-1] == -v[0]:
        k = common_prefix_len(invert_word(u[-len(v):]), v)
        u, v = u[:len(u) - k], v[k:]
    acc = list(u)
    if len(v) > C:
        _join_pieces(ctx, acc, v, C, True)
    else:
        _extend(ctx, acc, v, None)
    return tuple(acc)


def _join_pieces(ctx: GroupContext, acc: list, v: Word, C: int, settle: bool) -> None:
    """Append v to acc as _extend does, for any acc and v, in pieces of
    C >= 4g letters, copying the (2g-1)-periodic runs of v that acc is
    in step with unread, and applying the S4(T) cascades along them in
    one step (_cascade).  With settle it also stops reading once acc has
    settled, which is exact only for irreducible acc and v (_nf_join).

    After a piece, with m letters of v read, the window W = v[m-4g:m] is
    tested.  If W is (2g-1)-periodic, holds no inverse pair and acc ends
    with it (acc is in step), v[m:e] is appended unread, where
    e = _run_end(v, m, 2g-1) ends the run, and the next piece starts at
    e.  The letter loop would push every letter of the run: while acc
    ends with such 2g letters of v and v goes on with their period, the
    letter appended is the one 2g-1 places back, so the last 2g letters
    begin and end with one letter.  A chain of 2g letters along a
    relator row has 2g distinct letters, so the successor probes of
    _extend fail, and the pair the letter closes repeats one in W, so it
    is no inverse pair.  Copying the run leaves acc as the letter loop
    leaves it, so a rule that fires where the run ends, S3(t) or S4b(t)
    over all of it, counts the same t.

    A periodic W that acc is not in step with goes to _cascade.  With
    settle, a W that is not periodic and that acc is in step with lets
    the rest of v go in unread.  Without it, a window that is not
    periodic ends no piece: the pieces up to the next periodic window go
    to _extend as one, so a v with no run is read in one call, as
    _nf_concat reads it.
    """
    K = 2 * ctx.n_gens
    L = ctx.n_gens - 1
    n = len(v)
    m, b = 0, C
    while True:
        if not settle:
            while b < n and v[b - K:b - L] != v[b - K + L:b]:
                b += C
        _extend(ctx, acc, v[m:b], None)
        if b >= n:
            return
        m = b
        # the periodicity test first: it needs no list, and on a window
        # that is not periodic only the settle test reads acc
        if v[m - K:m - L] == v[m - K + L:m]:
            # the window's adjacent pairs are those of its last 2g letters
            if (acc[-K:] == list(v[m - K:m])
                    and all(x != -y for x, y in zip(v[m - L - 1:m - 1], v[m - L:m]))):
                m = _run_end(v, b, L)
                acc += v[b:m]
            else:
                m = _cascade(ctx, acc, v, m)
        elif settle and acc[-K:] == list(v[m - K:m]):
            acc += v[m:]
            return
        b = m + C


def _cascade(ctx: GroupContext, acc: list, v: Word, m: int) -> int:
    """The S4(T) step of _join_pieces at the piece boundary m, where
    v[m-4g:m] is (2g-1)-periodic: applies it to acc and returns the
    number of letters of v read then, or returns m, with acc as it was,
    when acc is not in a cascade.  Each test reads at most 4g letters.

    With L = 2g-1, let p < L be the number of letters acc ends with that
    v[:m] ends with, j = m + L - p the end of the block that v[m] lies
    in, B = v[j-L:j] = b_2...b_2g, and a = b_1 the letter before B on
    the row of its last two letters.  If a is above b_2g and acc ends
    with rev(B).a.B[:p], the trailing a.B[:p] becomes rev(B)^(1+T).a,
    where T is the number of whole blocks B after j, and j + T*L is
    returned.  The letter loop ends acc the same way, one S4b(1) per
    block, for any acc:
      - Within a block, b_2...b_2g-1 are pushed: the letter before a
        is b_2, not b_4g, so their chain a.B[:i] starts at a and is
        shorter than 2g letters.
      - b_2g closes the chain a.B of 2g letters.  The letter before a
        is b_2, not b_4g, so neither S2(2g+1) nor S3 fires.  t = 1,
        because the L letters before a are rev(B), not a.B[:-1].  a
        lies above b_2g, so the rule is S4b(1).  It rewrites a.B to
        rev(B).a, which leaves the same tail.
    So the 1+T blocks apply S4(1+T) at once, and a rule that fires
    where the run ends sees acc as the letter loop leaves it.  Like the
    pairs that _nf_join cancels, these S4b(1) steps never reach
    _extend.
    """
    g2 = ctx.n_gens
    L = g2 - 1
    p = common_prefix_len(acc[:-L - 1:-1], v[m - 1:m - L - 1:-1])
    j = m + L - p
    if p == L or j > len(v):
        return m
    B = v[j - L:j]
    E = ctx.follow[B[-2]].get(B[-1])
    if E is None or E[g2 + 2:] != B[:-1] or not ctx.greater(E[g2 + 1], B[-1]):
        return m
    a = E[g2 + 1]
    rev = _rev(B)
    if acc[-L - 1 - p:] != list(rev + (a,) + B[:p]):
        return m
    T = (_run_end(v, j, L) - j) // L
    del acc[len(acc) - p - 1:]
    acc += rev * (1 + T)
    acc.append(a)
    return j + T * L


def _run_end(v: Word, m: int, L: int) -> int:
    """The least e >= m with v[e] != v[e-L], or len(v): where the
    L-periodic run through v[m-L:m] ends.

    Galloping on bounded slices: each round compares the next `step`
    letters with those L places back by common_prefix_len and doubles
    step, so the cost is O(e - m) and the rest of v is never copied.
    """
    n = len(v)
    step = 32
    while m < n:
        k = common_prefix_len(v[m:m + step], v[m - L:m - L + step])
        m += k
        if k < step:
            break
        step += step
    return m


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
    A list is read as the tuple it spells.
    """
    ctx.check_word(w)
    cur = tuple(w)
    while True:
        for p in range(len(cur)):
            match = _d_match(ctx, cur, p)
            if match is not None:
                end, rep = match
                cur = cur[:p] + rep + cur[end:]
                break
        else:
            return cur
