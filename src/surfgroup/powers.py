"""Normal forms of powers, word-length formulae and translation numbers.

For a nontrivial element x the normal forms of x, x^2 and x^3 determine
a splice decomposition

    nf(x^k) = prefix . core^(k-2) . suffix        (k >= 2)

where the core is cyclically irreducible, conjugate to x, and has length
tau(x) = |x^2| - |x|.  The decomposition is found by scanning splice
points from the greedy longest-common-prefix positions downward, which
realises the maximal choice of splice pair and hence the canonical
cyclically irreducible core.

The three special shapes (types A, B, C) are the words whose square
reduces but which admit no two-piece splice; they are the reason the
decomposition needs nf(x^3) and not just nf(x^2).

nf(x^2) and nf(x^3) are not normalized from scratch: nf(x) is
irreducible, so nf(x^2) is nf(x) extended by the letters of nf(x), and
nf(x^3) is nf(x^2) extended by them once more, |nf(x)| appends each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_core import (
    DomainError,
    GroupContext,
    Word,
    common_prefix_len,
)
from .rewrite import _nf_concat, is_cyclically_irreducible, is_irreducible, nf


@dataclass(frozen=True)
class PowerDecomposition:
    """Splice decomposition of the powers of one element.

    prefix . core^(k - base_exponent_offset) . suffix is irreducible and
    equals nf(x^k) for every k >= 2; prefix.suffix = nf(x^2) and
    prefix.core.suffix = nf(x^3).
    """

    prefix: Word
    core: Word
    suffix: Word
    base_exponent_offset: int = 2

    def assemble(self, k: int) -> Word:
        if k < self.base_exponent_offset:
            raise DomainError(f"assemble requires k >= {self.base_exponent_offset}")
        return self.prefix + self.core * (k - self.base_exponent_offset) + self.suffix


@dataclass(frozen=True)
class SpecialTypeTag:
    """Match result of the three special shapes.

    tag is None, "TypeA", "TypeB" or "TypeC".  entry indexes the relator
    table; r, t1, t2 are the type-A parameters, t the repeat count of
    types B and C, and inner holds the type-A witness of the middle part
    for types B and C.  build_special reproduces the word exactly.
    """

    tag: str | None
    entry: int | None = None
    r: int | None = None
    t: int | None = None
    t1: int | None = None
    t2: int | None = None
    inner: "SpecialTypeTag | None" = None


def translation_number(ctx: GroupContext, x: Word) -> int:
    """tau(x) = |x^2| - |x|; zero for the trivial element."""
    n1 = nf(ctx, x)
    if not n1:
        return 0
    return len(_nf_concat(ctx, n1, n1)) - len(n1)


def power_decompose(ctx: GroupContext, x: Word, *, normal: bool = False) -> PowerDecomposition:
    """Splice decomposition of x from nf(x), nf(x^2), nf(x^3).

    Scans the outer splice point p downward from the longest common
    prefix of nf(x) and nf(x^2), and the inner point q downward from the
    longest common prefix of the two middles; the first (p, q) whose
    inserted block is cyclically irreducible and splices consistently
    into nf(x^3) wins.  This is the maximal splice pair, so the core is
    the canonical cyclically irreducible word conjugate to x.

    normal=True states that x is already nf(x), as it is for the callers
    in this package that have just normalized it, and skips that pass.
    """
    n1 = x if normal else nf(ctx, x)
    if not n1:
        raise DomainError("power decomposition of the trivial element")
    n2 = _nf_concat(ctx, n1, n1)
    n3 = _nf_concat(ctx, n2, n1)
    tau = len(n2) - len(n1)
    if tau <= 0 or len(n3) != len(n1) + 2 * tau:
        raise AssertionError("power lengths violate the growth formula")
    for p in range(common_prefix_len(n1, n2), -1, -1):
        right = n1[p:]
        if right and n2[len(n2) - len(right):] != right:
            continue
        if n3[:p] != n1[:p] or (right and n3[len(n3) - len(right):] != right):
            continue
        mid2 = n2[p:len(n2) - len(right)]
        mid3 = n3[p:len(n3) - len(right)]
        for q in range(common_prefix_len(mid2, mid3), -1, -1):
            core = mid3[q:q + tau]
            if mid3[q + tau:] != mid2[q:]:
                continue
            if not is_cyclically_irreducible(ctx, core):
                continue
            return PowerDecomposition(
                prefix=n1[:p] + mid2[:q],
                core=core,
                suffix=mid2[q:] + right,
            )
    raise AssertionError("no splice decomposition found")


def nf_power(ctx: GroupContext, x: Word, k: int) -> Word:
    """Normal form of x^k without normalizing the k-fold concatenation."""
    if k < 1:
        raise DomainError(f"exponent must be >= 1, got {k}")
    n1 = nf(ctx, x)
    if not n1:
        return ()
    if k == 1:
        return n1
    return power_decompose(ctx, n1, normal=True).assemble(k)


def ci(ctx: GroupContext, x: Word) -> Word:
    """The cyclically irreducible core of x (conjugate to x, length tau(x))."""
    return power_decompose(ctx, x).core


def check_length_formula(ctx: GroupContext, x: Word, k_max: int) -> bool:
    """Check |x^k| = (k-1)(|x^2| - |x|) + |x| for 1 <= k <= k_max.

    Every power is normalized from the plain concatenation, independent
    of the splice decomposition.
    """
    if k_max < 1:
        return True
    lengths = [len(nf(ctx, x * k)) for k in range(1, k_max + 1)]
    l1 = lengths[0]
    step = (lengths[1] - l1) if k_max >= 2 else 0
    return all(
        lengths[k - 1] == (k - 1) * step + l1 for k in range(1, k_max + 1)
    )


# --- the three special shapes ----------------------------------------------

def build_type_a(ctx: GroupContext, entry: int, r: int, t1: int, t2: int) -> Word:
    """b_{r+1}..b_2g (b_2..b_2g)^t1 b_2..b_{2g-1} (b_1..b_{2g-1})^t2 b_1..b_r."""
    g2 = ctx.n_gens
    if not 1 <= r <= g2 - 1 or t1 < 0 or t2 < 0:
        raise ValueError("type A parameters out of range")
    E = ctx.relator_table[entry]
    if not ctx.greater(E[0], E[g2 - 1]):
        raise ValueError("type A requires b_1 above b_2g in this entry")
    return E[r:g2] + E[1:g2] * t1 + E[1:g2 - 1] + E[:g2 - 1] * t2 + E[:r]


def build_special(ctx: GroupContext, tag: SpecialTypeTag) -> Word:
    """Reconstruct the word a SpecialTypeTag describes."""
    g2 = ctx.n_gens
    n4 = ctx.alphabet_size
    if tag.tag == "TypeA":
        return build_type_a(ctx, tag.entry, tag.r, tag.t1, tag.t2)
    if tag.tag == "TypeB":
        E = ctx.relator_table[tag.entry]
        mid = build_special(ctx, tag.inner)[1:]
        return (E[0],) + E[1:g2] * tag.t + mid + E[g2 + 1:n4] * tag.t
    if tag.tag == "TypeC":
        E = ctx.relator_table[tag.entry]
        mid = build_special(ctx, tag.inner)[:-1]
        return E[1:g2] * tag.t + mid + E[g2 + 1:n4] * tag.t + (E[0],)
    raise ValueError("tag does not describe a special word")


def _match_type_a(ctx: GroupContext, x: Word):
    g2 = ctx.n_gens
    blk = g2 - 1
    base = 2 * g2 - 2
    n = len(x)
    if n < base or (n - base) % blk:
        return None
    tsum = (n - base) // blk
    for eidx, E in enumerate(ctx.relator_table):
        if not ctx.greater(E[0], E[g2 - 1]):
            continue
        for r in range(1, g2):
            if x[0] != E[r]:
                continue
            for t1 in range(tsum + 1):
                t2 = tsum - t1
                if x == E[r:g2] + E[1:g2] * t1 + E[1:g2 - 1] + E[:g2 - 1] * t2 + E[:r]:
                    return SpecialTypeTag("TypeA", entry=eidx, r=r, t1=t1, t2=t2)
    return None


def _match_type_b(ctx: GroupContext, x: Word):
    g2 = ctx.n_gens
    n4 = ctx.alphabet_size
    blk = g2 - 1
    n = len(x)
    for eidx, E in enumerate(ctx.relator_table):
        if ctx.greater(E[0], E[g2 - 1]) or not x or x[0] != E[0]:
            continue
        t = 1
        while 1 + 2 * t * blk < n:
            head = 1 + t * blk
            if x[:head] != (E[0],) + E[1:g2] * t:
                break
            if x[n - t * blk:] == E[g2 + 1:n4] * t:
                mid = x[head:n - t * blk]
                if mid and mid[0] != E[n4 - 1] and mid[-1] != E[1]:
                    inner = _match_type_a(ctx, (E[0],) + mid)
                    if inner is not None:
                        return SpecialTypeTag("TypeB", entry=eidx, t=t, inner=inner)
            t += 1
    return None


def _match_type_c(ctx: GroupContext, x: Word):
    g2 = ctx.n_gens
    n4 = ctx.alphabet_size
    blk = g2 - 1
    n = len(x)
    for eidx, E in enumerate(ctx.relator_table):
        # b_{2g+1} below b_1
        if not ctx.greater(E[0], E[g2]) or not x or x[-1] != E[0]:
            continue
        t = 1
        while 1 + 2 * t * blk < n:
            if x[:t * blk] != E[1:g2] * t:
                break
            if x[n - t * blk - 1:] == E[g2 + 1:n4] * t + (E[0],):
                mid = x[t * blk:n - t * blk - 1]
                if mid and mid[0] != E[n4 - 1] and mid[-1] != E[1]:
                    inner = _match_type_a(ctx, mid + (E[0],))
                    if inner is not None:
                        return SpecialTypeTag("TypeC", entry=eidx, t=t, inner=inner)
            t += 1
    return None


def classify_special(ctx: GroupContext, x: Word) -> SpecialTypeTag:
    """Match x against the three special shapes.

    Requires x irreducible and cyclically freely reduced; returns the
    tag with witness parameters, or a tag of None when x has none of the
    shapes (and then some rotation of x normalizes to a cyclically
    irreducible word).
    """
    ctx.check_word(x)
    if x and x[0] == -x[-1]:
        raise DomainError("classify_special requires a cyclically freely reduced word")
    if not is_irreducible(ctx, x):
        raise DomainError("classify_special requires an irreducible word")
    for matcher in (_match_type_a, _match_type_b, _match_type_c):
        tag = matcher(ctx, x)
        if tag is not None:
            return tag
    return SpecialTypeTag(None)
