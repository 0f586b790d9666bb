"""Word translation between minimal geometric presentations.

A minimal geometric presentation of the genus-g surface group carries
a cyclic order on its 4g signed generators that the group action on
the Cayley graph preserves.  Aligning position i of that order with
position i of the symmetric presentation's order extends to a graph
isomorphism, and reading the isomorphism along edge paths gives a
letter-length-preserving bijection h onto words in the symmetric
alphabet.  The rotation offset advances by O(x) + 2g at each step,
where O(x) is the position gap between x and its inverse.

Everything here reduces questions about an arbitrary such presentation
(lengths, translation numbers, coarse power-length formulae) to the
symmetric engine applied to translated words.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

from .group_core import (
    MAX_GENUS,
    DomainError,
    GroupContext,
    Word,
    parse_word,
)
from .powers import MAX_POWER_LETTERS, translation_number
from .rewrite import nf


@dataclass(frozen=True)
class PresentationDescriptor:
    """A presentation named by its cyclic order of signed generators.

    cyclic_order lists all 4g signed letters; theta maps each letter to
    its 1-based position.
    """

    genus: int
    cyclic_order: tuple
    label: str
    theta: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 2 <= self.genus <= MAX_GENUS:
            raise DomainError(f"genus {self.genus} out of range")
        full = set(range(1, 2 * self.genus + 1))
        full |= {-i for i in full}
        if len(self.cyclic_order) != 4 * self.genus or set(self.cyclic_order) != full:
            raise DomainError("cyclic order must list each signed generator once")
        object.__setattr__(
            self, "theta", {x: i for i, x in enumerate(self.cyclic_order, start=1)}
        )


@functools.cache
def symmetric_descriptor(genus: int) -> PresentationDescriptor:
    half = [i if i % 2 else -i for i in range(1, 2 * genus + 1)]
    return PresentationDescriptor(
        genus, tuple(half) + tuple(-x for x in half), "symmetric"
    )


def canonical_descriptor(genus: int) -> PresentationDescriptor:
    order = []
    for i in range(1, genus + 1):
        order += [2 * i - 1, -2 * i, -(2 * i - 1), 2 * i]
    return PresentationDescriptor(genus, tuple(order), "canonical")


def canonical_relator(genus: int) -> Word:
    """Product of commutators [a_1,a_2]...[a_{2g-1},a_{2g}]."""
    word = []
    for i in range(1, genus + 1):
        word += [2 * i - 1, 2 * i, -(2 * i - 1), -2 * i]
    return tuple(word)


def _mod1(v: int, n: int) -> int:
    return (v - 1) % n + 1


def _position(p: PresentationDescriptor, x: int) -> int:
    try:
        return p.theta[x]
    except KeyError:
        raise DomainError(
            f"letter {x} is outside the alphabet of presentation {p.label!r}"
        ) from None


def o_value(p: PresentationDescriptor, x: int) -> int:
    """Position gap theta(x) - theta(x^-1), as a representative in 1..4g."""
    return _mod1(_position(p, x) - _position(p, -x), 4 * p.genus)


def o_sequence(p: PresentationDescriptor, w: Word) -> tuple:
    return tuple(o_value(p, x) for x in w)


def translate(p: PresentationDescriptor, w: Word) -> Word:
    """The word bijection h into the symmetric alphabet, letter by letter.

    Letter k of w is sent through the rotation accumulated over letters
    1..k-1; words equal in p's group are mapped to words equal in the
    symmetric group, with length preserved letterwise.
    """
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


def untranslate(p: PresentationDescriptor, w: Word) -> Word:
    """Inverse of translate on words of the same length."""
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


def _check_genus(ctx: GroupContext, p: PresentationDescriptor) -> None:
    if ctx.genus != p.genus:
        raise DomainError(
            f"presentation {p.label!r} has genus {p.genus}, not {ctx.genus}")


def length_in(ctx: GroupContext, p: PresentationDescriptor, w: Word) -> int:
    """Word length of the element of w over p's generating set."""
    _check_genus(ctx, p)
    return len(nf(ctx, translate(p, w)))


def t_parameter(p: PresentationDescriptor) -> int:
    """The exponent step t = 4g / gcd(2g, gcd of all position gaps)."""
    gaps = math.gcd(*(o_value(p, d) for d in p.cyclic_order))
    return 4 * p.genus // math.gcd(2 * p.genus, gaps)


def check_coarse_formulae(
    ctx: GroupContext, p: PresentationDescriptor, x: Word, k_max: int
) -> bool:
    """Verify the power-length formulae over p for exponents t, 2t, .., t*k_max.

    With t = t_parameter(p) and lengths measured over p's generators:
    |x^{2t}| must exceed |x^t|, the lengths |x^{tm}| must grow linearly
    with slope |x^{2t}| - |x^t|, and that slope must equal t times the
    translation number (checked in the symmetric engine as well).
    The powers normalized add up to t*|x|*K(K+1)/2 letters, K =
    max(k_max, 2); past powers.MAX_POWER_LETTERS that is refused with
    DomainError before any of them is built.
    """
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


def load_descriptor(path) -> PresentationDescriptor:
    """Read a descriptor file: a genus line, then the cyclic order.

    Blank lines and '#' comments are skipped.  The order line uses the
    usual word grammar; any single-letter generator name is accepted
    (a1 A2 .., or c1 C2 ..).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
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
    base = next((ch for ch in lines[1] if ch.isalpha()), "c").lower()
    order = parse_word(lines[1], genus, base=base)
    return PresentationDescriptor(genus, order, path.stem)
