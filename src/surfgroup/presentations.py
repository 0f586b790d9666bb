"""Word translation between minimal geometric presentations.

A minimal geometric presentation of the genus-g surface group carries
a cyclic order on its 4g signed generators that the group action on
the Cayley graph preserves.  Aligning position i of that order with
position i of the symmetric presentation's order extends to a graph
isomorphism, and reading the isomorphism along edge paths gives a
letter-length-preserving bijection h onto words in the symmetric
alphabet.  The rotation offset advances by O(x) + 2g at each step,
where O(x) is the position gap between x and its inverse.  Positions
and rotation steps come from _rotation_tables alone, one cached pair of
dicts per cyclic order; translation, its inverse and t_parameter all
read them.  PresentationDescriptor admits only these orders, the
one-face ones, whether it is built in code or read by load_descriptor.

Everything here reduces questions about an arbitrary such presentation
(lengths, translation numbers, coarse power-length formulae) to the
symmetric engine applied to translated words.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .group_core import (
    MAX_GENUS,
    DomainError,
    GroupContext,
    Word,
    parse_word,
)
from .powers import MAX_POWER_LETTERS
from .rewrite import _extend


# a dataclass: __post_init__ validates, and a NamedTuple cannot override __new__
@dataclass(frozen=True)
class PresentationDescriptor:
    """A minimal geometric presentation, named by its cyclic order of
    signed generators.

    cyclic_order lists all 4g signed letters once, and its face
    permutation x -> order[pos(x^-1) + 1] must have one cycle: by Euler's
    formula 1 - 2g + F = 2 - 2g, the one-face orders are the one-vertex
    gluings of the 4g-gon, where translate respects the group.  Any other
    order is refused with DomainError.
    """

    genus: int
    cyclic_order: tuple
    label: str

    def __post_init__(self):
        order = self.cyclic_order
        if not 2 <= self.genus <= MAX_GENUS:
            raise DomainError(f"genus {self.genus} out of range")
        full = set(range(1, 2 * self.genus + 1))
        full |= {-i for i in full}
        if len(order) != 4 * self.genus or set(order) != full:
            raise DomainError("cyclic order must list each signed generator once")
        pos = {x: i for i, x in enumerate(order)}
        face = {x: order[(pos[-x] + 1) % len(order)] for x in order}
        faces = 0
        while face:
            x = next(iter(face))
            while x in face:
                x = face.pop(x)
            faces += 1
        if faces != 1:
            raise DomainError(f"the cyclic order has {faces} faces, not 1, so it is not "
                              f"a one-vertex gluing of the {len(order)}-gon")


@functools.cache
def symmetric_descriptor(genus: int) -> PresentationDescriptor:
    half = [i if i % 2 else -i for i in range(1, 2 * genus + 1)]
    return PresentationDescriptor(
        genus, tuple(half) + tuple(-x for x in half), "symmetric"
    )


@functools.cache
def canonical_descriptor(genus: int) -> PresentationDescriptor:
    order = []
    for i in range(1, genus + 1):
        order += [2 * i - 1, -2 * i, -(2 * i - 1), 2 * i]
    return PresentationDescriptor(genus, tuple(order), "canonical")


def _foreign_letter(p: PresentationDescriptor, x) -> DomainError:
    return DomainError(
        f"letter {x} is outside the alphabet of presentation {p.label!r}")


@functools.cache
def _rotation_tables(order: tuple) -> tuple:
    """(pos, step) for the cyclic order `order` of 4g signed letters.

    pos[x] is the 0-based position of x in order, and step[x] =
    (O(x) + 2g) mod 4g is the rotation x adds once it is read.
    """
    n4 = len(order)
    pos = {x: i for i, x in enumerate(order)}
    step = {x: (pos[x] - pos[-x] + n4 // 2) % n4 for x in order}
    return pos, step


def translate(p: PresentationDescriptor, w: Word) -> Word:
    """The word bijection h into the symmetric alphabet, letter by letter.

    Letter k of w is sent through the rotation accumulated over letters
    1..k-1; words equal in p's group are mapped to words equal in the
    symmetric group, with length preserved letterwise.  Each letter costs
    one lookup in each of the two tables _rotation_tables keeps per cyclic
    order: its position and the rotation step it adds.
    """
    pos, step = _rotation_tables(p.cyclic_order)
    sym = symmetric_descriptor(p.genus).cyclic_order
    n4 = len(sym)
    rot = 0
    out = []
    try:
        for x in w:
            out.append(sym[(pos[x] + rot) % n4])
            rot = (rot + step[x]) % n4
    except KeyError:
        raise _foreign_letter(p, x) from None
    return tuple(out)


def untranslate(p: PresentationDescriptor, w: Word) -> Word:
    """Inverse of translate on words of the same length."""
    sym = symmetric_descriptor(p.genus)
    sym_at = _rotation_tables(sym.cyclic_order)[0]
    step = _rotation_tables(p.cyclic_order)[1]
    order = p.cyclic_order
    n4 = len(order)
    rot = 0
    out = []
    try:
        for s in w:
            x = order[(sym_at[s] - rot) % n4]
            out.append(x)
            rot = (rot + step[x]) % n4
    except KeyError:
        raise _foreign_letter(sym, s) from None
    return tuple(out)


def _check_genus(ctx: GroupContext, p: PresentationDescriptor) -> None:
    if ctx.genus != p.genus:
        raise DomainError(
            f"presentation {p.label!r} has genus {p.genus}, not {ctx.genus}")


def t_parameter(p: PresentationDescriptor) -> int:
    """The exponent step t = 4g / gcd(2g, gcd of all position gaps O(x)).

    step[x] = O(x) + 2g mod 4g is O(x) mod 2g, and gcd(2g, a) depends
    only on a mod 2g, so the gcd is taken over the step table.
    """
    step = _rotation_tables(p.cyclic_order)[1]
    return 4 * p.genus // math.gcd(2 * p.genus, *step.values())


def check_coarse_formulae(
    ctx: GroupContext, p: PresentationDescriptor, x: Word, k_max: int
) -> bool:
    """Verify the power-length formulae over p for exponents t, 2t, .., t*k_max.

    With t = t_parameter(p) and lengths measured over p's generators:
    |x^{2t}| must exceed |x^t|, the lengths |x^{tm}| must grow linearly
    with slope |x^{2t}| - |x^t|, and that slope, the translation number
    of x^t, must be t times an integer, the translation number of x.
    k_max below 1 is refused with DomainError, as nf_power refuses an
    exponent below 1.

    The rotation x^t accumulates is 0 mod 4g by the choice of t, so
    translate(p, x^{tm}) is T^m with T = translate(p, x^t): each next
    normal form is the last one with T appended, and K = max(k_max, 2)
    powers cost t*|x|*K letters of normalization.  The power words
    x^t, .., x^{tK} add up to t*|x|*K(K+1)/2 letters; past
    powers.MAX_POWER_LETTERS that is refused with DomainError before
    anything is built.  The formulae are about geometric presentations,
    and p is one: PresentationDescriptor refuses an order with more than
    one face.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    _check_genus(ctx, p)
    t = t_parameter(p)
    top = max(k_max, 2)
    letters = t * len(x) * top * (top + 1) // 2
    if letters > MAX_POWER_LETTERS:
        raise DomainError(
            f"checking up to k = {top}: the power words x^{t} .. x^{t * top} add up "
            f"to {letters} letters, more than the limit of {MAX_POWER_LETTERS}")
    T = translate(p, x * t)
    acc: list = []
    _extend(ctx, acc, T, None)
    lt = len(acc)
    # surface groups are torsion-free: x^t = e only for x = e
    if not lt:
        raise DomainError("coarse formulae need a nontrivial element")
    _extend(ctx, acc, T, None)
    slope = len(acc) - lt
    if slope <= 0 or slope % t:
        return False
    for m in range(3, top + 1):
        _extend(ctx, acc, T, None)
        if len(acc) != (m - 1) * slope + lt:
            return False
    return True


def _parse_named(text: str, genus: int) -> Word:
    """parse_word in the generator letter that text uses: the first
    letter of its first token other than 'e', else 'c'."""
    tok = next((t for t in text.replace("*", " ").split() if t != "e"), "c")
    return parse_word(text, genus, base=tok[0].lower() if tok[0].isalpha() else "c")


def load_descriptor(path) -> PresentationDescriptor:
    """Read a descriptor file: a genus line, then the cyclic order.

    Blank lines and '#' comments are skipped.  The order line uses the
    usual word grammar; any single-letter generator name is accepted
    (a1 A2 .., or c1 C2 ..).  Every refusal is a DomainError that names
    the file: an unreadable file, a bad genus line, an order line that
    does not parse, and an order PresentationDescriptor refuses, such as
    one with more than one face.  An empty name is refused before any
    open, since no file has it.
    """
    path = os.fspath(path)
    if not path:
        raise DomainError("descriptor file name is empty")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DomainError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not valid UTF-8") from None
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if len(lines) < 2:
        raise DomainError(f"{path}: descriptor needs a genus line and an order line")
    head = lines[0].split()
    try:
        # isdecimal, not isdigit: int refuses digits such as '²'.  It
        # also refuses a string of more than 4300 digits
        if len(head) != 2 or head[0].lower() != "genus" or not head[1].isdecimal():
            raise ValueError
        genus = int(head[1])
    except ValueError:
        raise DomainError(f"{path}: first line must be 'genus <g>'") from None
    try:
        return PresentationDescriptor(genus, _parse_named(lines[1], genus),
                                      os.path.splitext(os.path.basename(path))[0])
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None
