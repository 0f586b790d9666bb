"""Shared word generators for the test suite, the quadratic references
the linear library code is held against, the free-reduction loop the
one-pass test is held against, the candidate searches the
direct splice and conjugator constructions are held against, the
certificate check by normalizing all of z.x.z^-1 the appended one is
held against, the cyclic check that appends w to itself letter by
letter, which the one that copies periodic runs is held against, the
conjugate-power decision that tried both orientations of x's root with
no exponent-sum test, the regex
word parser the token table is held against, the per-token parse loop
and the per-letter format the one-pass parse and format are held
against, the letter-by-letter
presentation translation and the chain-walking append step the table
and probe versions are held against, the per-power coarse-formula check
the linear one is held against, and the
tools that only the tests use: word and chain utilities, the generator
order spelled out and the word sort key over it, the one-letter
extension tables on both sides with their case tags, the position gaps
O(x), the canonical relator, lengths and face
relators over other presentations, cyclic orders that no
PresentationDescriptor admits, the two ambient cyclic words (the
relator and its inverse) with their successor maps, which the
references walk instead of the library's row map, splicing a rule
application and replaying a trace, other reduction
orders, the power length formula by plain concatenation, and the three
special shapes."""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from surfgroup.group_core import (
    _TOKEN_RE,
    MAX_GENUS,
    DomainError,
    GroupContext,
    VerificationError,
    Word,
    WordParseError,
    _letter_names,
    _parse_token,
    _token_letters,
    common_prefix_len,
    cyclic_rotations,
    free_reduce,
    invert_word,
)
from surfgroup import conjugacy
from surfgroup.conjugacy import _least_rotations
from surfgroup.powers import (
    MAX_POWER_LETTERS,
    PowerDecomposition,
    power_decompose,
    translation_number,
)
from surfgroup.presentations import (
    PresentationDescriptor,
    _check_genus,
    _foreign_letter,
    symmetric_descriptor,
    t_parameter,
    translate,
)
from surfgroup.rewrite import (
    ReductionStep,
    RuleId,
    _extend,
    _nf_concat,
    _rev,
    is_irreducible,
    nf,
)


def parse_word_reference(text: str, genus: int, base: str = "c") -> Word:
    """The regex parser parse_word's token table replaced, one match per
    token.  An index of more than 4300 digits makes int raise ValueError
    here, where parse_word raises WordParseError."""
    tokens = [t for t in re.split(r"[\s*]+", text.strip()) if t]
    out = []
    lo, hi = base.lower(), base.upper()
    for i, tok in enumerate(tokens):
        if tok == "e":
            continue
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
        idx = int(idx_s)
        if not 1 <= idx <= 2 * genus:
            raise WordParseError(
                f"bad token {tok!r} at position {i + 1}: index out of range for genus {genus}",
                token=tok, position=i + 1,
            )
        out.append(-idx if (name == hi or caret) else idx)
    return tuple(out)


def parse_word_loop_reference(text: str, genus: int, base: str = "c") -> Word:
    """parse_word's per-token loop, run on every word: each token is
    looked up in the table, and a miss is skipped if it is `e`, else
    parsed by _parse_token."""
    table = _token_letters(genus, base) if 2 <= genus <= MAX_GENUS else {}
    out = []
    for i, tok in enumerate(text.replace("*", " ").split()):
        x = table.get(tok)
        if x is None:
            if tok == "e":
                continue
            x = _parse_token(tok, i, genus, base.lower(), base.upper())
        out.append(x)
    return tuple(out)


def format_word_loop_reference(w: Word, base: str = "c") -> str:
    """format_word's per-letter form, run on every word: a table name
    where there is one, else the f-string."""
    if not w:
        return "e"
    names = _letter_names(base)
    return " ".join([names[x] if x in names
                     else f"{base}{x}" if x > 0 else f"{base}{-x}^-1" for x in w])


def free_reduce_reference(w: Word) -> Word:
    """The stack loop free_reduce runs only on a word with an inverse
    pair, here run on every word."""
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def random_freely_reduced(ctx, length, rng):
    """A freely reduced word of exactly `length` letters."""
    w = []
    for _ in range(length):
        x = rng.choice(ctx.letters)
        while w and x == -w[-1]:
            x = rng.choice(ctx.letters)
        w.append(x)
    return tuple(w)


def random_cyclic_core(ctx, length, rng):
    """A cyclically irreducible word of exactly `length` letters.

    No two cyclically adjacent letters cancel or lie next to each other
    in a relator, so no rule can match in any power of the word.
    """
    def fits(a, b):
        return a != -b and pair_ambient(ctx, a, b) is None

    while True:
        w = [rng.choice(ctx.letters)]
        while len(w) < length:
            x = rng.choice(ctx.letters)
            if fits(w[-1], x):
                w.append(x)
        if fits(w[-1], w[0]):
            return tuple(w)


def random_nontrivial(ctx, max_length, rng):
    """A random freely reduced word with nonempty normal form."""
    while True:
        w = random_freely_reduced(ctx, rng.randrange(1, max_length + 1), rng)
        if nf(ctx, w):
            return w


def all_words(ctx, max_len):
    """Every word over the alphabet with length <= max_len, empty included."""
    for n in range(max_len + 1):
        yield from itertools.product(ctx.letters, repeat=n)


def all_freely_reduced(ctx, max_len):
    for w in all_words(ctx, max_len):
        if free_reduce(w) == w:
            yield w


def expected_core_of_fragment(ctx, entry, k):
    """Core of the length-k prefix of a relator-table entry, per the table.

    Below half a relator the prefix is its own core; at exactly half it
    either stays or reverses depending on the order of b_1 and b_2g; above
    half the core is a reversed inner fragment.
    """
    E = ctx.relator_table[entry]
    g2 = ctx.n_gens
    if k < g2:
        return E[:k]
    if k == g2:
        if ctx.greater(E[0], E[g2 - 1]):
            return tuple(reversed(E[:g2]))
        return E[:g2]
    return tuple(reversed(E[k - g2:g2]))


def special_instances(ctx, t_values=(1, 2), t_sums=(0, 1), entries=None):
    """All valid special words as (tag, word) pairs.

    Enumerates every type A instance with t1, t2 drawn from t_sums, then
    wraps each as the middle of type B and C instances for every outer
    entry and t in t_values.  Combinations whose built word fails the
    standing premises (irreducible, cyclically freely reduced) never occur
    as cores and are dropped.  entries, when given, limits the type A
    entry, which is the middle's entry in types B and C, to those table
    rows: at high genus there are too many instances to build them all.
    """
    g2, n4 = ctx.n_gens, ctx.alphabet_size
    out = []
    inners = []
    for eidx, E in enumerate(ctx.relator_table):
        if not ctx.greater(E[0], E[g2 - 1]) or entries is not None and eidx not in entries:
            continue
        for r in range(1, g2):
            for t1 in t_sums:
                for t2 in t_sums:
                    tag = SpecialTypeTag("TypeA", entry=eidx, r=r, t1=t1, t2=t2)
                    word = build_type_a(ctx, eidx, r, t1, t2)
                    inners.append((tag, word))
                    out.append((tag, word))
    for eidx, E in enumerate(ctx.relator_table):
        for inner_tag, inner_word in inners:
            for t in t_values:
                if not ctx.greater(E[0], E[g2 - 1]) and inner_word[0] == E[0]:
                    mid = inner_word[1:]
                    if mid and mid[0] != E[n4 - 1] and mid[-1] != E[1]:
                        tag = SpecialTypeTag("TypeB", entry=eidx, t=t, inner=inner_tag)
                        out.append((tag, build_special(ctx, tag)))
                if ctx.greater(E[0], E[g2]) and inner_word[-1] == E[0]:
                    mid = inner_word[:-1]
                    if mid and mid[0] != E[n4 - 1] and mid[-1] != E[1]:
                        tag = SpecialTypeTag("TypeC", entry=eidx, t=t, inner=inner_tag)
                        out.append((tag, build_special(ctx, tag)))
    return [
        (tag, w) for tag, w in out
        if w[0] != -w[-1] and is_irreducible(ctx, w)
    ]


def least_rotation_reference(ctx, w, reversed_family):
    """(indices, word) by materialising every candidate rotation.

    indices lists every k, ascending, with w[k:] + w[:k] least among the
    rotations of w; word is the least candidate overall, the reversed
    rotations included when reversed_family is set.  Quadratic; the
    reference that class_nf's linear scan is held against.
    """
    rotations = cyclic_rotations(w)
    keys = [word_sort_key(ctx, r) for r in rotations]
    least = min(keys)
    indices = [k for k, key in enumerate(keys) if key == least]
    candidates = list(rotations)
    if reversed_family:
        candidates += [tuple(reversed(r)) for r in rotations]
    return indices, min(candidates, key=lambda v: word_sort_key(ctx, v))


def is_exceptional_reference(ctx, w):
    """True when w is a power of a rotation of b_1..b_{2g-1} for some entry."""
    blk = ctx.n_gens - 1
    if not w or len(w) % blk:
        return False
    t = len(w) // blk
    return any(
        w == head * t
        for E in ctx.relator_table
        for head in cyclic_rotations(E[:blk])
    )


def find_reducible_reference(ctx, w):
    """Leftmost maximal reducing operation, rescanning every block run.

    Quadratic on periodic words.  The one leftmost scanner: it drives the
    leftmost and random reduction orders, and rewrite.is_irreducible is
    held against it.
    """
    ctx.check_word(w)
    n = len(w)
    g2 = ctx.n_gens
    n4 = ctx.alphabet_size
    for p in range(n - 1):
        a, b = w[p], w[p + 1]
        if a == -b:
            return ReductionStep(RuleId("S1"), p, (a, b), ())
        amb = pair_ambient(ctx, a, b)
        if amb is None:
            continue
        cl, _ = chain_forward_reference(ctx, w, p, n4)
        E = entry_at(ctx, a, amb)
        if cl >= g2 + 1:
            return ReductionStep(
                RuleId("S2", cl), p, w[p:p + cl], invert_word(E[cl:])
            )
        blk = E[1:g2]
        t1 = 0
        q = p + 1
        while w[q:q + g2 - 1] == blk:
            t1 += 1
            q += g2 - 1
        if t1 >= 2 and q < n and w[q] == E[g2]:
            return ReductionStep(
                RuleId("S3", t1), p, w[p:q + 1], tuple(reversed(blk)) * t1
            )
        s4 = None
        if t1 >= 1 and ctx.greater(E[0], E[g2 - 1]):
            s4 = ReductionStep(
                RuleId("S4a", t1), p, w[p:q], tuple(reversed(blk)) * t1 + (E[0],)
            )
        blk2 = E[:g2 - 1]
        t2 = 0
        q2 = p
        while w[q2:q2 + g2 - 1] == blk2:
            t2 += 1
            q2 += g2 - 1
        if t2 >= 1 and q2 < n and w[q2] == E[g2 - 1] and ctx.greater(E[0], E[g2 - 1]):
            cand = ReductionStep(
                RuleId("S4b", t2), p, w[p:q2 + 1],
                (E[g2 - 1],) + tuple(reversed(blk2)) * t2,
            )
            if s4 is None or len(cand.matched) > len(s4.matched):
                s4 = cand
        if s4 is not None:
            return s4
    return None


def exceptional_matches_reference(ctx, w):
    """All (entry, i, t) with w = (b_{i+1}..b_{2g-1}b_1..b_i)^t, by building
    the block rotation of every entry at every i.

    O(g^3) per periodic word; the reference that conjugacy's seam count
    _exceptional_match is held against.
    """
    blk = ctx.n_gens - 1
    n = len(w)
    if n == 0 or n % blk:
        return []
    t = n // blk
    head = w[:blk]
    if w != head * t:
        return []
    out = []
    for eidx, entry in enumerate(ctx.relator_table):
        for i in range(1, blk + 1):
            if head == entry[i:blk] + entry[:i]:
                out.append((eidx, i, t))
    return out


def random_relator_heavy(ctx, length, rng):
    """A random word of about `length` letters, built mostly from pieces
    of relator-table entries and their inverses.

    At high genus a uniformly random word almost never contains a
    successor chain long enough for S2, S3 or S4 to fire; these pieces
    make every rule family appear at every genus.
    """
    n4 = ctx.alphabet_size
    w = []
    while len(w) < length:
        if rng.random() < 0.3:
            w.append(rng.choice(ctx.letters))
            continue
        E = rng.choice(ctx.relator_table)
        k = rng.randrange(2, n4 + 1)
        piece = E[:k]
        if rng.random() < 0.2:
            # a repeated block, with or without the closing letter: the
            # shapes S3 and S4 match
            g2 = ctx.n_gens
            piece = E[:1] + E[1:g2] * rng.randrange(1, 4) + E[g2:g2 + rng.randrange(2)]
        w.extend(invert_word(piece) if rng.random() < 0.3 else piece)
    return tuple(w)


@dataclass(frozen=True)
class DehnReference:
    """What dehn_reduce_reference finds: the Dehn-reduced word, and
    whether every rotation of it is Dehn-reduced as well."""

    word: Word
    cyclically_reduced: bool


def dehn_reduce_reference(ctx, w):
    """Dehn reduction that rescans from position 0 after every
    replacement, freely reduces the whole word each time, and tests
    every rotation of the result in full: quadratic, with the same
    leftmost-maximal rule as oracle.dehn_reduce."""
    ctx.check_word(w)
    cur = free_reduce(w)
    cap = ctx.alphabet_size
    while True:
        hit = _long_run_reference(ctx, cur, 0, len(cur), cap)
        if hit is None:
            break
        p, length, amb = hit
        entry = entry_at(ctx, cur[p], amb)
        cur = free_reduce(cur[:p] + invert_word(entry[length:]) + cur[p + length:])
    n = len(cur)
    if n == 0:
        cyclic = True
    elif cur[0] == -cur[-1]:
        cyclic = False
    elif n <= ctx.n_gens:
        cyclic = True
    else:
        cyclic = _long_run_reference(ctx, cur + cur, 0, n, min(cap, n)) is None
    return DehnReference(cur, cyclic)


def dehn_reduce_cyclic_reference(ctx, w):
    """oracle.dehn_reduce_cyclic on top of dehn_reduce_reference, with
    the wrap-around run sought from position 0."""
    cur = dehn_reduce_reference(ctx, w).word
    while True:
        if len(cur) >= 2 and cur[0] == -cur[-1]:
            while len(cur) >= 2 and cur[0] == -cur[-1]:
                cur = cur[1:-1]
            cur = dehn_reduce_reference(ctx, cur).word
            continue
        n = len(cur)
        if n > ctx.n_gens:
            hit = _long_run_reference(ctx, cur + cur, 0, n, min(ctx.alphabet_size, n))
            if hit is not None:
                cur = dehn_reduce_reference(ctx, cur[hit[0]:] + cur[:hit[0]]).word
                continue
        return cur


# --- the candidate searches the direct splice and conjugator replaced

def is_cyclically_irreducible_reference(ctx: GroupContext, w: Word) -> bool:
    """True when w + w is irreducible, decided by appending the second
    copy of w to the first one letter at a time, with no run copied."""
    w = tuple(w)
    return _nf_concat(ctx, w, w) == w + w


def power_decompose_reference(ctx: GroupContext, x: Word) -> PowerDecomposition:
    """Splice decomposition of x from nf(x), nf(x^2), nf(x^3).

    Scans the outer splice point p downward from the longest common
    prefix of nf(x) and nf(x^2), and the inner point q downward from the
    longest common prefix of the two middles; the first (p, q) whose
    inserted block is cyclically irreducible and splices consistently
    into nf(x^3) wins.  This is the maximal splice pair, so the core is
    the canonical cyclically irreducible word conjugate to x.  The
    trivial element has the empty decomposition.
    """
    n1 = nf(ctx, x)
    if not n1:
        return PowerDecomposition((), (), (), ())
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
            if not is_cyclically_irreducible_reference(ctx, core):
                continue
            return PowerDecomposition(
                prefix=n1[:p] + mid2[:q],
                core=core,
                suffix=mid2[q:] + right,
                word=n1,
            )
    raise AssertionError("no splice decomposition found")


def reversed_conjugators_reference(ctx: GroupContext, w, rev_rotations, suffix, matches):
    """Candidate conjugators carrying x onto the reversed-family minimum.

    rev_rotations holds the k with rotation k of w reversed least, the
    target alt.  Tries the direct table formula first, then a chained
    construction rotation to block form, relator identity, rotation to
    the target; class_nf keeps whichever verifies.
    """
    g2 = ctx.n_gens
    n4 = ctx.alphabet_size
    n = len(w)
    # reversing rotation j of w gives rotation (n - j) mod n of w reversed
    p = rev_rotations.step
    positions = range(-rev_rotations[0] % p, n, p)
    for eidx, i, t in matches:
        entry = ctx.relator_table[eidx]
        for j in positions:
            yield (tuple(reversed(w[:j]))
                   + tuple(reversed(entry[:i]))
                   + tuple(reversed(entry[g2 + i:n4]))
                   + suffix)
    for eidx, i, t in matches:
        entry = ctx.relator_table[eidx]
        base = entry[:g2 - 1] * t
        u1 = w[(n - i) % n:]
        rev_base = tuple(reversed(base))
        starts = _least_rotations(rank_list(ctx, rev_base))
        # rev_base is a rotation of the core reversed, so its least rotation is alt
        for a in starts:
            yield rev_base[a:] + (-entry[g2 - 1],) + u1 + suffix


# --- the certificate check the appended one replaced

def verify_conjugation_reference(ctx: GroupContext, z: Word, x: Word, target: Word) -> bool:
    """Whether z.x.z^-1 = target, by normalizing all of z.x.z^-1."""
    return nf(ctx, z + x + invert_word(z)) == target


# --- the conjugate-power decision that built y's root class per orientation

def _conjugator_reference(ctx: GroupContext, px: PowerDecomposition, py: PowerDecomposition):
    """A verified z with x = z.y.z^-1 for the nontrivial elements px and
    py decompose, or None; builds both classes."""
    cx = conjugacy._class(ctx, px)
    cy = conjugacy._class(ctx, py)
    if cx.class_nf != cy.class_nf:
        return None
    z = nf(ctx, invert_word(cx.conjugator) + cy.conjugator)
    if not conjugacy._verify_conjugation(ctx, z, py.word, px.word):
        raise VerificationError("conjugator failed verification")
    return z


def conj_power_reference(ctx: GroupContext, x: Word, y: Word) -> conjugacy.ConjPowerResult:
    """conj_power by trying x's root, then its inverse, with no exponent-sum
    test: y's root class is built once per orientation tried, up to 4
    _class calls in all."""
    px = power_decompose(ctx, x)
    py = power_decompose(ctx, y)
    if not px.word or not py.word:
        raise DomainError("conjugate-power decision needs nontrivial elements")
    rx = conjugacy._root(ctx, px)
    ry = conjugacy._root(ctx, py)
    d = math.gcd(rx.exponent, ry.exponent)
    m = ry.exponent // d
    n = rx.exponent // d
    qy = py if ry.exponent == 1 else power_decompose(ctx, ry.root)
    qx = px if rx.exponent == 1 else power_decompose(ctx, rx.root)
    z = _conjugator_reference(ctx, qy, qx)
    if z is None:
        z = _conjugator_reference(ctx, qy, power_decompose(ctx, invert_word(rx.root)))
        if z is None:
            return conjugacy.ConjPowerResult(False, 0, 0, ())
        n = -n
    conj = nf(ctx, invert_word(z))
    y_n = py.assemble(abs(n))
    if not conjugacy._verify_conjugation(ctx, conj, y_n if n > 0 else invert_word(y_n),
                                         px.assemble(m)):
        raise VerificationError("conjugate-power certificate failed verification")
    return conjugacy.ConjPowerResult(True, m, n, conj)


# --- presentation translation

def canonical_relator(genus: int) -> Word:
    """Product of commutators [a_1,a_2]...[a_{2g-1},a_{2g}]."""
    word = []
    for i in range(1, genus + 1):
        word += [2 * i - 1, 2 * i, -(2 * i - 1), -2 * i]
    return tuple(word)


class Order(NamedTuple):
    """Any cyclic order of the 4g signed letters, for the references
    below.  PresentationDescriptor admits only the one-face ones."""

    genus: int
    cyclic_order: tuple
    label: str


def _mod1(v: int, n: int) -> int:
    return (v - 1) % n + 1


def _position(p: PresentationDescriptor, x: int) -> int:
    """The 1-based position theta(x) of x in p's cyclic order."""
    try:
        return p.cyclic_order.index(x) + 1
    except ValueError:
        raise _foreign_letter(p, x) from None


def o_value(p: PresentationDescriptor, x: int) -> int:
    """Position gap theta(x) - theta(x^-1), as a representative in 1..4g."""
    return _mod1(_position(p, x) - _position(p, -x), 4 * p.genus)


def o_sequence(p: PresentationDescriptor, w: Word) -> tuple:
    return tuple(o_value(p, x) for x in w)


def face_relators(p: PresentationDescriptor) -> list:
    """The cycles x, f(x), f(f(x)), .. of the face permutation
    f(x) = the letter after x^-1 in p's cyclic order, as words.  A
    geometric order has one, the boundary word of its 4g-gon."""
    order = p.cyclic_order
    pos = {x: i for i, x in enumerate(order)}
    seen = set()
    faces = []
    for x in order:
        face = []
        while x not in seen:
            seen.add(x)
            face.append(x)
            x = order[(pos[-x] + 1) % len(order)]
        if face:
            faces.append(tuple(face))
    return faces


def length_in(ctx: GroupContext, p: PresentationDescriptor, w: Word) -> int:
    """Word length of the element of w over p's generating set."""
    _check_genus(ctx, p)
    return len(nf(ctx, translate(p, w)))


def check_coarse_formulae_reference(
    ctx: GroupContext, p: PresentationDescriptor, x: Word, k_max: int
) -> bool:
    """check_coarse_formulae as it was before it appended translate(p,
    x^t) once per power: every x^{tm} is translated and normalized from
    scratch."""
    _check_genus(ctx, p)
    t = t_parameter(p)
    top = max(k_max, 2)
    letters = t * len(x) * top * (top + 1) // 2
    if letters > MAX_POWER_LETTERS:
        raise DomainError(
            f"checking up to k = {top} normalizes {letters} letters, "
            f"more than the limit of {MAX_POWER_LETTERS}")
    if not nf(ctx, translate(p, x)):
        raise DomainError("coarse formulae need a nontrivial element")
    cache: dict = {}

    def power_len(m: int) -> int:
        if m not in cache:
            cache[m] = len(nf(ctx, translate(p, x * (t * m))))
        return cache[m]

    lt = power_len(1)
    l2t = power_len(2)
    slope = l2t - lt
    if slope <= 0 or slope % t:
        return False
    for m in range(1, top + 1):
        if power_len(m) != (m - 1) * slope + lt:
            return False
    return translation_number(ctx, translate(p, x * t)) == slope


def translate_reference(p: PresentationDescriptor, w: Word) -> Word:
    """translate as it was before its two tables: _position and o_value
    per letter."""
    sym = symmetric_descriptor(p.genus)
    n4 = 4 * p.genus
    g2 = 2 * p.genus
    rotation = 0
    out = []
    for x in w:
        idx = _mod1(_position(p, x) + rotation, n4)
        out.append(sym.cyclic_order[idx - 1])
        rotation = (rotation + o_value(p, x) + g2) % n4
    return tuple(out)


def untranslate_reference(p: PresentationDescriptor, w: Word) -> Word:
    """untranslate as it was before its two tables."""
    sym = symmetric_descriptor(p.genus)
    n4 = 4 * p.genus
    g2 = 2 * p.genus
    rotation = 0
    out = []
    for s in w:
        idx = _mod1(_position(sym, s) - rotation, n4)
        x = p.cyclic_order[idx - 1]
        out.append(x)
        rotation = (rotation + o_value(p, x) + g2) % n4
    return tuple(out)


# --- the append step

def append_step_reference(ctx: GroupContext, acc: list, letter: int):
    """rewrite._append_step as it was before the far-letter probe: it
    walks the successor chain back one letter at a time."""
    g2 = ctx.n_gens
    amb = pair_ambient(ctx, acc[-1], letter)
    pred = pred_map(ctx, amb)
    cl = 3
    i = len(acc) - 2
    while cl <= g2 and i >= 1 and pred[acc[i]] == acc[i - 1]:
        i -= 1
        cl += 1
    if cl == g2 + 1:
        F = entry_at(ctx, acc[i], amb)
        return RuleId("S2", g2 + 1), g2, invert_word(F[g2 + 1:])
    if cl == g2:
        E = entry_at(ctx, acc[i], amb)
        blk = list(E[:g2 - 1])
        L = g2 - 1
        t = 0
        end = len(acc)
        while end >= L and acc[end - L:end] == blk:
            t += 1
            end -= L
        m = t * L
        prev = acc[-m - 1] if len(acc) > m else None
        if prev == E[-1]:
            # t == 1 here would have been the 2g+1 chain above
            return RuleId("S3", t), m + 1, _rev(E[:g2 - 1]) * t
        if ctx.greater(E[0], E[g2 - 1]):
            return RuleId("S4b", t), m, (letter,) + _rev(E[:g2 - 1]) * t
    return None, 0, (letter,)


# --- the one-letter extension tables

#: the case of the one-letter extension table each rule family is: 1 free
#: cancellation, 2 fractional-relator overflow, 3 repeated-block overflow,
#: 4 block transport (S4a on the left, S4b on the right); case 5, where no
#: rule fires, is the plain push
CASE_OF_FAMILY = {"S1": 1, "S2": 2, "S3": 3, "S4a": 4, "S4b": 4, None: 5}


def append_letter_nf(ctx: GroupContext, x: Word, letter: int):
    """Normal form of x*letter for irreducible x, with the case tag 1..5."""
    ctx.check_word(x)
    ctx.check_word((letter,))
    if not is_irreducible(ctx, x):
        raise ValueError("append_letter_nf requires an irreducible word")
    acc = list(x)
    steps = []
    _extend(ctx, acc, (letter,), steps)
    return tuple(acc), CASE_OF_FAMILY[steps[0].rule.family if steps else None]


def prepend_letter_nf(ctx: GroupContext, letter: int, x: Word):
    """Normal form of letter*x for irreducible x, with the case tag 1..5."""
    ctx.check_word(x)
    ctx.check_word((letter,))
    if not is_irreducible(ctx, x):
        raise ValueError("prepend_letter_nf requires an irreducible word")
    g2 = ctx.n_gens
    if x and x[0] == -letter:
        return x[1:], 1
    if not x:
        return (letter,), 5
    amb = pair_ambient(ctx, letter, x[0])
    if amb is None:
        return (letter,) + x, 5
    # the chain through letter continues into x only in its own ambient
    run, a = chain_forward_reference(ctx, x, 0, g2)
    cl = 1 + (run if a == amb else 1)
    E = entry_at(ctx, letter, amb)
    if cl == g2 + 1:
        return invert_word(E[g2 + 1:]) + x[g2:], 2
    if cl == g2:
        blk = E[1:g2]
        L = g2 - 1
        t = 0
        pos = 0
        while x[pos:pos + L] == blk:
            t += 1
            pos += L
        nxt = x[pos] if pos < len(x) else None
        if nxt == E[g2]:
            # t == 1 here would have been the 2g+1 chain above
            return _rev(blk) * t + x[pos + 1:], 3
        if ctx.greater(E[0], E[g2 - 1]):
            return _rev(blk) * t + (letter,) + x[pos:], 4
    return (letter,) + x, 5


# --- words and successor chains

@functools.cache
def letter_ranks(genus: int) -> dict:
    """Letter -> place in the generator order c_2g < ... < c_1 < c_1^-1
    < ... < c_2g^-1, from 0, spelled out from that list rather than
    read from the library."""
    g2 = 2 * genus
    order = [*range(g2, 0, -1), *range(-1, -g2 - 1, -1)]
    return {a: r for r, a in enumerate(order)}


def rank_list(ctx: GroupContext, w: Word) -> list:
    """The places of w's letters in the generator order."""
    rank = letter_ranks(ctx.genus)
    return [rank[a] for a in w]


def word_sort_key(ctx: GroupContext, w: Word) -> tuple:
    """Sort key realising the word order: min() of keys is the least word."""
    return (len(w), tuple(rank_list(ctx, w)))


def reverse_word(w: Word) -> Word:
    """The word read backwards (no letter inversion)."""
    return tuple(reversed(w))


# --- the two ambient cyclic words, 0 = the relator and 1 = its inverse,
# built from ctx.relator alone, so that the references stay independent
# of the row map GroupContext.follow that the library reads

@functools.cache
def _ambients(relator: Word) -> tuple:
    """(cycles, succ, pred): the two cyclic words and their successor and
    predecessor maps."""
    n4 = len(relator)
    cycles = (relator, invert_word(relator))
    succ = tuple({x: c[(i + 1) % n4] for i, x in enumerate(c)} for c in cycles)
    pred = tuple({x: c[(i - 1) % n4] for i, x in enumerate(c)} for c in cycles)
    return cycles, succ, pred


def succ_map(ctx: GroupContext, amb: int) -> dict:
    return _ambients(ctx.relator)[1][amb]


def pred_map(ctx: GroupContext, amb: int) -> dict:
    return _ambients(ctx.relator)[2][amb]


def pair_ambient(ctx: GroupContext, a: int, b: int):
    """0 or 1 when b follows a in that cyclic word, else None.

    At most one ambient matches: each letter occurs once per cyclic word
    and the two successors of a letter always differ.
    """
    for amb in (0, 1):
        if succ_map(ctx, amb)[a] == b:
            return amb
    return None


def entry_at(ctx: GroupContext, letter: int, amb: int) -> Word:
    """The rotation of cyclic word amb that starts at `letter`."""
    c = _ambients(ctx.relator)[0][amb]
    i = c.index(letter)
    return c[i:] + c[:i]


def chain_forward_reference(ctx, w, p: int, cap: int) -> tuple:
    """(length, ambient) of the longest successor chain in w starting at p,
    walked along the successor map; ambient None for length 1."""
    if p + 1 >= len(w):
        return 1, None
    amb = pair_ambient(ctx, w[p], w[p + 1])
    if amb is None:
        return 1, None
    succ = succ_map(ctx, amb)
    length = 2
    q = p + 1
    while length < cap and q + 1 < len(w) and succ[w[q]] == w[q + 1]:
        q += 1
        length += 1
    return length, amb


def _long_run_reference(ctx, w, start: int, stop: int, cap: int):
    """oracle._find_long_run with the chain walked along the successor map:
    (p, length, ambient) of the leftmost chain of more than 2g letters."""
    for p in range(start, stop):
        length, amb = chain_forward_reference(ctx, w, p, cap)
        if length > ctx.n_gens:
            return p, length, amb
    return None


def chain_backward(ctx, w, p: int, cap: int) -> tuple:
    """(length, ambient) of the longest successor chain in w ending at p."""
    if p <= 0:
        return 1, None
    amb = pair_ambient(ctx, w[p - 1], w[p])
    if amb is None:
        return 1, None
    pred = pred_map(ctx, amb)
    length = 2
    q = p - 1
    while length < cap and q - 1 >= 0 and pred[w[q]] == w[q - 1]:
        q -= 1
        length += 1
    return length, amb


def is_fractional_relator(ctx: GroupContext, w: Word) -> bool:
    """True when w is a subword of a relator-table entry (length 2..4g)."""
    ctx.check_word(w)
    if not 2 <= len(w) <= ctx.alphabet_size:
        raise ValueError(f"fractional relators have length 2..{ctx.alphabet_size}, got {len(w)}")
    amb = pair_ambient(ctx, w[0], w[1])
    if amb is None:
        return False
    succ = succ_map(ctx, amb)
    return all(succ[w[i]] == w[i + 1] for i in range(1, len(w) - 1))


def llfr_at(ctx: GroupContext, w: Word, j: int):
    """Locally longest fractional relator through the junction (w[j], w[j+1]).

    Returns (start, length) with 0-based start, or None when the pair at
    the junction is not fractional.  The window is capped at 4g letters;
    when the successor chain through j is longer than 4g the window is
    pushed as far left as possible first.
    """
    ctx.check_word(w)
    if not 0 <= j < len(w) - 1:
        raise ValueError(f"junction {j} out of range for a word of length {len(w)}")
    amb = pair_ambient(ctx, w[j], w[j + 1])
    if amb is None:
        return None
    succ = succ_map(ctx, amb)
    cap = ctx.alphabet_size
    left = j
    size = 2
    while left > 0 and size < cap and succ[w[left - 1]] == w[left]:
        left -= 1
        size += 1
    right = j + 1
    while right + 1 < len(w) and size < cap and succ[w[right]] == w[right + 1]:
        right += 1
        size += 1
    return (left, right - left + 1)


# --- splicing rule applications, and reduction orders other than normalize's

def apply_step(w: Word, step: ReductionStep) -> Word:
    """w with step's matched subword replaced; ValueError if it is not there."""
    a, b = step.start, step.start + len(step.matched)
    if w[a:b] != step.matched:
        raise ValueError(f"step does not match word at {step.start}")
    return w[:a] + step.replacement + w[b:]


def replay(w: Word, steps) -> Word:
    """Apply the steps of a trace of w in order; gives the traced normal form."""
    for s in steps:
        w = apply_step(w, s)
    return w


def find_all_steps(ctx: GroupContext, w: Word) -> list:
    """Maximal reducing operation at every position where one fires.

    Used by the confluence tests to drive randomized reduction orders.
    """
    steps = []
    pos = 0
    rest = w
    # reuse the leftmost scan on suffixes; positions shift accordingly
    while True:
        s = find_reducible_reference(ctx, rest)
        if s is None:
            return steps
        steps.append(
            ReductionStep(s.rule, s.start + pos, s.matched, s.replacement)
        )
        pos += s.start + 1
        rest = rest[s.start + 1:]


def normalize_leftmost(ctx: GroupContext, w: Word):
    """Reduce by repeatedly applying the leftmost maximal operation.

    Slower than `normalize` but follows the scan-and-replace strategy
    directly; the two must agree on every input.
    """
    steps = []
    cur = w
    while True:
        s = find_reducible_reference(ctx, cur)
        if s is None:
            return cur, tuple(steps)
        steps.append(s)
        cur = apply_step(cur, s)


def normalize_random(ctx: GroupContext, w: Word, rng) -> Word:
    """Reduce by applying admissible operations in a random order."""
    cur = w
    while True:
        steps = find_all_steps(ctx, cur)
        if not steps:
            return cur
        cur = apply_step(cur, rng.choice(steps))


# --- the power length formula, by plain concatenation

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


# --- the three special shapes

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
