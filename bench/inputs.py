"""Seeded input builders shared by the workloads and the size sweep.

Everything here is built from the relator table of a GroupContext and
plain tuple arithmetic; nf is used only to confirm that a built word is
already irreducible.  Letters are signed ints (+i for c_i, -i for its
inverse), as in the package.
"""

from __future__ import annotations

from reference import inverse, rank


def alphabet(g2: int) -> tuple:
    return tuple(range(1, g2 + 1)) + tuple(-i for i in range(1, g2 + 1))


def free_reduce(w) -> tuple:
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def random_word(rng, g2: int, n: int, cyclic: bool = False) -> tuple:
    """A freely reduced word of exactly n letters (also cyclically, if asked)."""
    letters = alphabet(g2)
    w = []
    while len(w) < n:
        x = rng.choice(letters)
        if w and x == -w[-1]:
            continue
        if cyclic and len(w) == n - 1 and n > 1 and x == -w[0]:
            continue
        w.append(x)
    return tuple(w)


def dehn_reduced_word(rng, table, n: int, cyclic: bool = False) -> tuple:
    """A random word of n letters with no free cancellation and no run of
    more than half a relator, so that the Dehn oracle has nothing to
    shorten in it and its work on a pair is set by what was inserted."""
    half = len(table[0]) // 2
    rel, inv = table[0], table[len(table) // 2]
    ambient = {}
    for amb, r in enumerate((rel, inv)):
        for i, a in enumerate(r):
            ambient[(a, r[(i + 1) % len(r)])] = amb
    letters = alphabet(half)
    w, run, amb = [], 1, None
    while len(w) < n:
        x = rng.choice(letters)
        if w and x == -w[-1]:
            continue
        if cyclic and len(w) == n - 1 and n > 1 and x == -w[0]:
            continue
        a = ambient.get((w[-1], x)) if w else None
        length = run + 1 if a is not None and a == amb else (2 if a is not None else 1)
        if length > half:
            continue
        w.append(x)
        run, amb = length, a
    return tuple(w)


def commutator(rng, table, n: int) -> tuple:
    """[u, v] = u v u^-1 v^-1 for random u, v of n // 4 letters each."""
    u = dehn_reduced_word(rng, table, max(1, n // 4))
    v = dehn_reduced_word(rng, table, max(1, n // 4))
    return free_reduce(u + v + inverse(u) + inverse(v))


def abelian(w, g2: int) -> tuple:
    v = [0] * g2
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def canonical_relators(genus: int) -> list:
    """Rotations of [a_1,a_2]...[a_{2g-1},a_{2g}] and of its inverse."""
    rel = []
    for i in range(1, genus + 1):
        rel += [2 * i - 1, 2 * i, -(2 * i - 1), -2 * i]
    rel = tuple(rel)
    out = []
    for r in (rel, inverse(rel)):
        out += [r[i:] + r[:i] for i in range(len(r))]
    return out


def insert_relators(rng, w, relators) -> tuple:
    """w with relator rotations inserted, adding about a tenth to its length;
    the result equals w in the group.

    One insertion falls at a random place in each of `count` equal stretches
    of w, so that the part w and the result share at either end stays short
    and the oracle's work on the pair does not swing with the draw.
    """
    n = len(w)
    count = max(1, round(n / (10 * len(relators[0]))))
    cuts = [rng.randrange(i * n // count, (i + 1) * n // count + 1) for i in range(count)]
    out, prev = [], 0
    for c in cuts:
        out += w[prev:c]
        # a rotation that cancels with neither neighbour stays whole
        fits = [r for r in relators
                if (c == 0 or r[0] != -w[c - 1]) and (c == n or r[-1] != -w[c])]
        out += rng.choice(fits)
        prev = c
    out += w[prev:]
    return tuple(out)


def change_one_letter(rng, w, g2: int) -> tuple:
    """w with its middle letter replaced; the exponent sums, hence the element,
    change.  The place is fixed because the work needed to tell the pair
    apart depends on it."""
    i = len(w) // 2
    x = rng.choice([a for a in alphabet(g2) if a != w[i]])
    return w[:i] + (x,) + w[i + 1:]


# --- the special shapes ------------------------------------------------------
#
# E = b_1 ... b_4g is an entry of the relator table.  Type A is
#   b_{r+1}..b_2g (b_2..b_2g)^t1 b_2..b_{2g-1} (b_1..b_{2g-1})^t2 b_1..b_r
# for an entry with b_1 above b_2g; types B and C wrap a type-A word
# between t copies of b_2..b_2g and b_{2g+2}..b_4g; the exceptional cores
# are (b_{i+1}..b_{2g-1} b_1..b_i)^t.  The seed picks the entries and the
# rotation; the repeat counts follow from the length, so that the cost of
# an input depends on its size and shape, not on the draw.  Each builder
# returns None when the draw does not give an irreducible, cyclically
# freely reduced word, and the caller draws again.


def _above(g2, a, b):
    return rank(g2, a) > rank(g2, b)


def type_a(rng, table, g2: int, repeats: int):
    entries = [e for e in table if _above(g2, e[0], e[g2 - 1])]
    e = rng.choice(entries)
    r = rng.randrange(1, g2)
    t1 = repeats // 2
    t2 = repeats - t1
    return e[r:g2] + e[1:g2] * t1 + e[1:g2 - 1] + e[:g2 - 1] * t2 + e[:r]


def type_b(rng, table, g2: int, repeats: int):
    n4 = 2 * g2
    f = rng.choice([e for e in table if not _above(g2, e[0], e[g2 - 1])])
    t = max(1, repeats // 8)
    inner = type_a(rng, table, g2, repeats - 2 * t)
    mid = inner[1:]
    if inner[0] != f[0] or not mid or mid[0] == f[n4 - 1] or mid[-1] == f[1]:
        return None
    return (f[0],) + f[1:g2] * t + mid + f[g2 + 1:n4] * t


def type_c(rng, table, g2: int, repeats: int):
    n4 = 2 * g2
    f = rng.choice([e for e in table if _above(g2, e[0], e[g2])])
    t = max(1, repeats // 8)
    inner = type_a(rng, table, g2, repeats - 2 * t)
    mid = inner[:-1]
    if inner[-1] != f[0] or not mid or mid[0] == f[n4 - 1] or mid[-1] == f[1]:
        return None
    return f[1:g2] * t + mid + f[g2 + 1:n4] * t + (f[0],)


def exceptional(rng, table, g2: int, repeats: int):
    e = rng.choice(table)
    i = rng.randrange(1, g2)
    return (e[i:g2 - 1] + e[:i]) * repeats


SHAPES = {"A": type_a, "B": type_b, "C": type_c, "exceptional": exceptional}


def special(rng, ctx, nf, shape: str, length: int) -> tuple:
    """An irreducible word of the given shape with about `length` letters."""
    g2 = len(ctx.relator_table[0]) // 2
    repeats = max(4, round(length / (g2 - 1)))
    build = SHAPES[shape]
    for _ in range(10000):
        x = build(rng, ctx.relator_table, g2, repeats)
        if x and x[0] != -x[-1] and nf(ctx, x) == x:
            return x
    raise RuntimeError(f"no irreducible {shape} word of length {length} found")
