"""Alphabet, words, ordering and relator bookkeeping for surface groups.

The group of interest is the fundamental group of a closed orientable
surface of genus g >= 2, presented symmetrically as

    < c_1, ..., c_2g | c_1 c_2 ... c_2g c_1^-1 c_2^-1 ... c_2g^-1 >.

Letters are encoded as signed integers: +i stands for c_i and -i for
c_i^-1, with 1 <= i <= 2g.  A word is a tuple of letters.  Words are
compared length first, then letter by letter in the generator order

    c_2g < c_2g-1 < ... < c_1 < c_1^-1 < c_2^-1 < ... < c_2g^-1,

so the inverse letters sit above all positive ones and c_2g is the
least letter overall.  In the encoding this order is the integer order
reversed: letter a is below letter b exactly when a > b as integers.

The single defining relator d = c_1...c_2g c_1^-1...c_2g^-1 gives rise
to two cyclic words, d and d^-1, and the closure of {d} under cyclic
rotation and inversion is exactly the set of 8g rotations of those two.
Every letter occurs exactly once in each cyclic word and its two
successors differ, so a successor pair (a, b) lies on exactly one
rotation, the row of relator_table that starts at b and ends at a.
GroupContext precomputes that row map, follow[a][b], which places any
fractional relator (a subword of length >= 2 of a rotation) by one
lookup.
"""

from __future__ import annotations

import functools
import re
from itertools import islice
from operator import add, neg

Word = tuple  # tuple of signed ints

#: hard ceiling on the genus accepted by GroupContext; the tables are
#: O(g^2) so this is a safety valve, not a tight bound
MAX_GENUS = 64


class WordParseError(ValueError):
    """Raised when word text does not match the grammar."""

    def __init__(self, message, token=None, position=None):
        super().__init__(message)
        self.token = token
        self.position = position


class DomainError(ValueError):
    """Raised when an operation is asked about an element outside its domain,
    e.g. the conjugacy class of the trivial element."""


class VerificationError(AssertionError):
    """Raised when a result fails the check it is re-verified by before it
    is returned: a fault in the engine, never in the input."""


def invert_word(w: Word) -> Word:
    """Group inverse of a word: reverse it and invert every letter."""
    return tuple(map(neg, reversed(w)))


def free_reduce(w: Word) -> Word:
    """Delete inverse pairs x x^-1 until none remain.

    A word has an inverse pair exactly when two neighbouring letters sum
    to 0, so one C pass over the pair sums returns a word with none as it
    is, as a tuple; only a word with a pair takes the loop.
    """
    if 0 not in map(add, w, islice(w, 1, None)):
        return tuple(w)
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_rotations(w: Word) -> tuple:
    """All rotations of w; the empty word has the single rotation ()."""
    if not w:
        return (w,)
    return tuple(w[i:] + w[:i] for i in range(len(w)))


def common_prefix_len(u: Word, v: Word) -> int:
    """The length of the longest common prefix of u and v.

    Letters are compared one by one up to the 24th, so short words and
    words that differ early cost what a letter loop costs.  Past them a
    galloping search doubles a slice while u and v agree on it, then
    bisection halves the slice that disagrees down to 24 letters, which
    are compared one by one: O(log n) slice comparisons at C speed.  A
    list slice never equals a tuple slice, so words of two sequence
    types are compared as tuples.
    """
    n = min(len(u), len(v))
    m = n if n < 24 else 24
    i = 0
    while i < m and u[i] == v[i]:
        i += 1
    if i < 24 or i == n:
        return i
    if type(u) is not type(v):
        u, v = tuple(u), tuple(v)
    step = 24
    while i + step < n and u[i:i + step] == v[i:i + step]:
        i += step
        step += step
    j = min(i + step, n)
    while j - i > 24:
        mid = (i + j) // 2
        if u[i:mid] == v[i:mid]:
            i = mid
        else:
            j = mid
    while i < j and u[i] == v[i]:
        i += 1
    return i


def common_suffix_len(u: Word, v: Word) -> int:
    """The length of the longest common suffix of u and v, found as
    common_prefix_len finds a prefix.  Slices are taken by index from the
    ends, so neither word is reversed, and letters are read at
    nonnegative indices, which a tuple reads faster than negative ones."""
    nu, nv = len(u), len(v)
    n = min(nu, nv)
    d = nv - nu
    a = nu - 1
    stop = a - (n if n < 24 else 24)
    while a > stop and u[a] == v[a + d]:
        a -= 1
    i = nu - 1 - a
    if i < 24 or i == n:
        return i
    if type(u) is not type(v):
        u, v = tuple(u), tuple(v)
    step = 24
    while i + step < n and u[nu - i - step:nu - i] == v[nv - i - step:nv - i]:
        i += step
        step += step
    j = min(i + step, n)
    while j - i > 24:
        mid = (i + j) // 2
        if u[nu - mid:nu - i] == v[nv - mid:nv - i]:
            i = mid
        else:
            j = mid
    a = nu - 1 - i
    stop = nu - 1 - j
    while a > stop and u[a] == v[a + d]:
        a -= 1
    return nu - 1 - a


class GroupContext:
    """Precomputed tables for one genus.

    Instances are immutable by convention; all functions in this package
    treat them as read-only, so a context can be shared freely across
    threads.  A context holds its tables and no cache: every memo in the
    package is a functools.cache keyed on plain values, never on a context.
    """

    def __init__(self, genus: int):
        if not isinstance(genus, int) or not 2 <= genus <= MAX_GENUS:
            raise DomainError(f"genus must be between 2 and {MAX_GENUS}, got {genus!r}")
        self.genus = genus
        g2 = 2 * genus
        self.n_gens = g2
        self.alphabet_size = 4 * genus
        # fixed iteration order for deterministic enumeration
        self.letters = tuple(range(1, g2 + 1)) + tuple(-i for i in range(1, g2 + 1))
        self.relator = tuple(range(1, g2 + 1)) + tuple(-i for i in range(1, g2 + 1))
        # rows 0..4g-1 rotate the relator, rows 4g..8g-1 its inverse; the
        # rotation by i is one slice of the doubled cyclic word
        n4 = self.alphabet_size
        self.relator_table = tuple(cc[i:i + n4] for cc in (self.relator * 2,
                                                          invert_word(self.relator) * 2)
                                   for i in range(n4))
        # follow[a] holds the three letters that can fire a rule when
        # appended after a: each of its two successors b maps to the row
        # that starts at b and ends at a, and its inverse maps to None.
        # Key 0 stands for the empty word
        follow = {x: {-x: None} for x in self.letters}
        for E in self.relator_table:
            follow[E[-1]][E[0]] = E
        follow[0] = {}
        self.follow = follow
        self._letter_set = frozenset(self.letters)

    def __repr__(self):
        return f"GroupContext(genus={self.genus})"

    def check_word(self, w) -> None:
        """Raise ValueError unless every letter lies in the alphabet."""
        # accept in one hash pass and one sum at C speed; anything else
        # takes the loop, which names the first bad letter.  Only values
        # that hash and compare equal to a letter pass the set test: ints,
        # bools and int subclasses, which the loop accepts too, but also
        # 1.0, Decimal(1), Fraction(1) or 1+0j.  One of those makes the sum
        # a float, Decimal, Fraction or complex, or raises TypeError, while
        # ints, bools and int subclasses that keep int's addition sum to
        # an int.  An unhashable letter raises TypeError in the set test.
        # So the fast test accepts only words the loop accepts, and the
        # loop decides every word it does not accept.
        try:
            if self._letter_set.issuperset(w) and type(sum(w)) is int:
                return
        except TypeError:
            pass
        self._check_letters(w)

    def _check_letters(self, w) -> None:
        """check_word letter by letter: ValueError naming the first bad one."""
        g2 = self.n_gens
        for i, x in enumerate(w):
            if not isinstance(x, int) or x == 0 or abs(x) > g2:
                raise ValueError(
                    f"letter {x!r} at position {i + 1} is outside the alphabet for genus {self.genus}"
                )

    def greater(self, a: int, b: int) -> bool:
        """True when letter a is above letter b in the generator order."""
        return a < b


def compare_words(ctx: GroupContext, u: Word, v: Word) -> int:
    """-1, 0 or 1 as u is below, equal to, or above v (length, then letters)."""
    ctx.check_word(u)
    ctx.check_word(v)
    if len(u) != len(v):
        return -1 if len(u) < len(v) else 1
    # the order reverses the integers, so u is below v when u > v as tuples
    return (u < v) - (u > v)


def abelianize(ctx: GroupContext, w: Word) -> tuple:
    """Exponent-sum vector of w, one entry per generator."""
    ctx.check_word(w)
    v = [0] * ctx.n_gens
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


_TOKEN_RE = re.compile(r"^([a-zA-Z])(\d+)(\^-1)?$")


def _parse_token(tok: str, i: int, genus: int, lo: str, hi: str) -> int:
    """The letter that token number i (from 0) spells, else WordParseError.

    This regex path alone decides which tokens are letters and what every
    parse error says; the tables of parse_word are built through it.
    """
    m = _TOKEN_RE.match(tok)
    if m is None:
        raise WordParseError(f"bad token {tok!r} at position {i + 1}", token=tok, position=i + 1)
    name, idx_s, caret = m.groups()
    if name not in (lo, hi):
        raise WordParseError(
            f"bad token {tok!r} at position {i + 1}: expected letter {lo!r}",
            token=tok, position=i + 1,
        )
    if name == hi and caret:
        raise WordParseError(
            f"bad token {tok!r} at position {i + 1}: uppercase already means inverse",
            token=tok, position=i + 1,
        )
    try:
        idx = int(idx_s)
    except ValueError:  # more digits than int converts
        idx = 0
    if not 1 <= idx <= 2 * genus:
        raise WordParseError(
            f"bad token {tok!r} at position {i + 1}: index out of range for genus {genus}",
            token=tok, position=i + 1,
        )
    return -idx if (name == hi or caret) else idx


@functools.cache
def _token_letters(genus: int, base: str) -> dict:
    """Token -> letter for the spellings b<i>, b<i>^-1 and B<i>, 1 <= i <= 2g.

    Each spelling goes through _parse_token and is dropped if it raises,
    so the table accepts no token the regex path refuses (for a base such
    as 'é', it is empty).
    """
    lo, hi = base.lower(), base.upper()
    table = {}
    for i in range(1, 2 * genus + 1):
        for tok in (f"{lo}{i}", f"{lo}{i}^-1", f"{hi}{i}"):
            try:
                table[tok] = _parse_token(tok, 0, genus, lo, hi)
            except WordParseError:
                pass
    return table


def parse_word(text: str, genus: int, base: str = "c") -> Word:
    """Parse word text into a Word.

    Tokens are separated by whitespace or '*'.  A token is `c<i>` for a
    generator, `c<i>^-1` or `C<i>` for its inverse, and the single token
    `e` denotes the empty word.  `base` selects the expected letter name
    ('c' for the symmetric presentation, 'a' for words handed to a
    presentation translator).

    The tokens are looked up in the cached table _token_letters(genus,
    base) of the canonical spellings, all at once in one list
    comprehension.  Only a word with a miss takes the per-token loop:
    there a miss is skipped if it is `e` and otherwise goes through
    _parse_token, the regex path the table was built from, so other
    spellings such as `c01` still parse and every error keeps its text,
    token and position.  A table is built only for 2 <= genus <=
    MAX_GENUS: a descriptor file is parsed with its genus before that
    genus is checked, and a huge one must not build a huge table.
    """
    table = _token_letters(genus, base) if 2 <= genus <= MAX_GENUS else {}
    tokens = text.replace("*", " ").split()
    try:
        # a list first: tuple(map(...)) has no length to size the tuple
        # by, grows it by resizing, and raised cli-batch's peak memory
        return tuple([table[tok] for tok in tokens])
    except KeyError:
        pass
    out = []
    for i, tok in enumerate(tokens):
        x = table.get(tok)
        if x is None:
            if tok == "e":
                continue
            x = _parse_token(tok, i, genus, base.lower(), base.upper())
        out.append(x)
    return tuple(out)


@functools.cache
def _letter_names(base: str) -> dict:
    """Letter -> text for every letter at genus MAX_GENUS."""
    names = {}
    for i in range(1, 2 * MAX_GENUS + 1):
        names[i] = f"{base}{i}"
        names[-i] = f"{base}{i}^-1"
    return names


def format_word(w: Word, base: str = "c") -> str:
    """Inverse of parse_word; the empty word prints as 'e'.

    The names of a word whose letters all lie in the table
    _letter_names(base) are joined at C speed; a letter past it, beyond
    genus MAX_GENUS, sends the word to the f-string per letter.
    """
    if not w:
        return "e"
    names = _letter_names(base)
    try:
        return " ".join(map(names.__getitem__, w))
    except KeyError:
        return " ".join([names[x] if x in names
                         else f"{base}{x}" if x > 0 else f"{base}{-x}^-1" for x in w])
