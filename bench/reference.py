"""Answer checks that do not trust the engine under test.

Normal forms are compared with the D-basis engine (d_basis_normalize),
which shares only the relator table with the S engine.  Group equalities
that certify a conjugator, a class form, a root or a power are returned
as pairs for the Dehn oracle (dehn_equal), which the benchmark decides in
its own timed phase.  Least-rotation claims are checked with Booth's
algorithm on this file's own encoding of the word order.
"""

from __future__ import annotations

import bisect
import re

_LETTER = re.compile(r"^c(\d+)(\^-1)?$")


def parse_output_word(text: str) -> tuple:
    """Read a word the CLI printed ('c3 c1^-1', or 'e' for the empty word)."""
    text = text.strip()
    if text == "e":
        return ()
    out = []
    for tok in text.split():
        m = _LETTER.match(tok)
        if m is None:
            raise ValueError(f"unexpected token {tok!r} in CLI output")
        out.append(-int(m.group(1)) if m.group(2) else int(m.group(1)))
    return tuple(out)


def inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


def rank(g2: int, x: int) -> int:
    """Position of a letter in c_2g < ... < c_1 < c_1^-1 < ... < c_2g^-1."""
    return g2 - x if x > 0 else g2 - 1 - x


def least_rotation(seq) -> int:
    """Start of the lexicographically least rotation (Booth 1980)."""
    s = list(seq) * 2
    n = len(seq)
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % n if n else 0


def is_least_rotation(g2: int, c, with_reversal: bool) -> bool:
    """c is no larger than any rotation of c (and of c reversed, when asked)."""
    ranks = [rank(g2, x) for x in c]
    k = least_rotation(ranks)
    if ranks[k:] + ranks[:k] != ranks:
        return False
    if with_reversal:
        rev = ranks[::-1]
        k = least_rotation(rev)
        if rev[k:] + rev[:k] < ranks:
            return False
    return True


def power_certificate(r, x, k: int):
    """Pairs that certify r = x^k in the group, or None if r has the wrong shape.

    x must be irreducible and k >= 3.  With tau = (|r| - |x|) / (k - 1),
    r is split as P C^(k-2) S with |C| = tau.  If P S = x^2 and
    P C S = x^3 hold in the group then x = P C P^-1 and S = C^2 P^-1, so
    P C^(k-2) S = P C^k P^-1 = x^k.
    """
    n1 = len(x)
    extra = len(r) - n1
    if k < 3 or extra <= 0 or extra % (k - 1):
        return None
    tau = extra // (k - 1)
    middle = (k - 2) * tau
    window = middle - tau  # positions that must repeat with period tau
    bad = [i for i in range(len(r) - tau) if r[i] != r[i + tau]]
    p = 0
    while window:
        j = bisect.bisect_left(bad, p)
        if j == len(bad) or bad[j] >= p + window:
            break
        p = bad[j] + 1
        if p > n1 + tau:
            return None
    head, core, tail = r[:p], r[p:p + tau], r[p + middle:]
    return [(head + tail, x * 2), (head + core + tail, x * 3)]
