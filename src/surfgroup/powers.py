"""Normal forms of powers, word-length formulae and translation numbers.

For an element x the normal forms of x, x^2 and x^3 determine a splice
decomposition

    nf(x^k) = prefix . core^(k-2) . suffix        (k >= 2)

where the core is cyclically irreducible, conjugate to x, and has length
tau(x) = |x^2| - |x|: the paper's uniform representation of nf(x^k).
For the trivial element every part is empty.  The splice points are the
greedy longest-common-prefix positions; why that pair is the splice,
and how each decomposition is checked, is in power_decompose.  It
normalizes its input itself and returns nf(x) with the parts, so its
callers normalize x only there.

The three special shapes (types A, B, C) are the words whose square
reduces but which admit no two-piece splice; they are the reason the
decomposition needs nf(x^3) and not just nf(x^2).

nf(x^2) and nf(x^3) are not normalized from scratch: nf(x) is
irreducible, so nf(x^2) is nf(x) joined to nf(x), and nf(x^3) is
nf(x^2) joined to nf(x) once more.  A join (rewrite._nf_join) rewrites
only near its junction: once the letters there have settled it copies
the rest of nf(x) unread.  A run of one (2g-1)-letter relator block,
of which exceptional cores and the type A, B and C words are made, is
copied unread too wherever the join is in step with it, and so is one
in the core check (is_cyclically_irreducible), which takes no other
shortcut.
"""

from __future__ import annotations

from typing import NamedTuple

from .group_core import (
    DomainError,
    GroupContext,
    VerificationError,
    Word,
    common_prefix_len,
)
from .rewrite import _nf_join, is_cyclically_irreducible, nf

#: longest nf(x^k) that nf_power builds; longer ones are refused unbuilt
MAX_POWER_LETTERS = 10_000_000


class PowerDecomposition(NamedTuple):
    """Splice decomposition of the powers of one element x.

    prefix . core^(k - 2) . suffix is irreducible and equals nf(x^k) for
    every k >= 2; prefix.suffix = nf(x^2) and prefix.core.suffix = nf(x^3).
    word is nf(x).  For the trivial element all four are empty.
    """

    prefix: Word
    core: Word
    suffix: Word
    word: Word

    def assemble(self, k: int) -> Word:
        """nf(x^k) for k >= 1; refused unbuilt past MAX_POWER_LETTERS.

        With no suffix, prefix + core * (k - 2) builds one temporary of
        about the full length; a tuple + () is the tuple itself.  With one,
        adding it would build a second, so the letters are copied once into
        one list, which grows in place, and then once into the tuple
        returned.  The cores go into the list as blocks of whole cores of
        about 512 letters, so a short core takes few interpreter steps and
        a long one no copy.
        """
        if k < 1:
            raise DomainError(f"exponent must be >= 1, got {k}")
        if k == 1:
            return self.word
        length = len(self.prefix) + len(self.suffix) + (k - 2) * len(self.core)
        if length > MAX_POWER_LETTERS:
            raise DomainError(
                f"x^{k} has {length} letters, more than the limit of {MAX_POWER_LETTERS}")
        if not self.suffix:
            return self.prefix + self.core * (k - 2)
        acc = list(self.prefix)
        core = self.core
        m = 1 + 512 // len(core)
        q, rem = divmod(k - 2, m)
        block = core * m
        for _ in range(q):
            acc += block
        acc += core * rem
        acc += self.suffix
        return tuple(acc)


def translation_number(ctx: GroupContext, x: Word) -> int:
    """tau(x) = |x^2| - |x|; zero for the trivial element."""
    n1 = nf(ctx, x)
    if not n1:
        return 0
    return len(_nf_join(ctx, n1, n1)) - len(n1)


def power_decompose(ctx: GroupContext, x: Word) -> PowerDecomposition:
    """Splice decomposition of x from nf(x), nf(x^2), nf(x^3).

    x is normalized here, once, and nf(x) is returned as the word field.
    The trivial element has the empty decomposition ((), (), (), ()):
    it assembles nf(e^k) = e, and its core has length tau(e) = 0.

    The outer splice point p is the longest common prefix of nf(x) and
    nf(x^2), the inner point q that of the two middles, and no smaller
    pair is tried.  That this greedy pair is the splice of the paper's
    uniform representation is observed, not proved here: it held on
    every freely reduced word of length <= 8 at g = 2 and <= 5 at g = 3,
    and on 77,234 random, relator-heavy, exceptional and special-shape
    words at g <= 16; scripts/splice_census.py repeats the census over
    every short word.  The growth formula, both seams and the core are
    checked on every call; a failed check raises VerificationError.
    """
    n1 = nf(ctx, x)
    if not n1:
        return PowerDecomposition((), (), (), ())
    n2 = _nf_join(ctx, n1, n1)
    n3 = _nf_join(ctx, n2, n1)
    tau = len(n2) - len(n1)
    if tau <= 0 or len(n3) != len(n1) + 2 * tau:
        raise VerificationError("power lengths violate the growth formula")
    p = common_prefix_len(n1, n2)
    right = n1[p:]
    # by the growth formula the middles have lengths tau and 2 tau
    if n2[p + tau:] != right or n3[p + 2 * tau:] != right or n3[:p] != n1[:p]:
        raise VerificationError("nf(x^2) and nf(x^3) do not share the splice ends")
    mid2 = n2[p:p + tau]
    mid3 = n3[p:p + 2 * tau]
    q = common_prefix_len(mid2, mid3)
    core = mid3[q:q + tau]
    if mid3[q + tau:] != mid2[q:]:
        raise VerificationError("the core does not splice nf(x^2) into nf(x^3)")
    if not is_cyclically_irreducible(ctx, core):
        raise VerificationError("the spliced core is not cyclically irreducible")
    return PowerDecomposition(n1[:p] + mid2[:q], core, mid2[q:] + right, n1)


def nf_power(ctx: GroupContext, x: Word, k: int) -> Word:
    """Normal form of x^k without normalizing the k-fold concatenation."""
    return nf(ctx, x) if k == 1 else power_decompose(ctx, x).assemble(k)


def ci(ctx: GroupContext, x: Word) -> Word:
    """The cyclically irreducible core of x (conjugate to x, length tau(x))."""
    pd = power_decompose(ctx, x)
    if not pd.word:
        raise DomainError("power decomposition of the trivial element")
    return pd.core
