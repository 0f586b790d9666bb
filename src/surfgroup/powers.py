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
from .rewrite import _nf_concat, is_cyclically_irreducible, nf


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
