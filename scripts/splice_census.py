"""Census of the greedy splice over every short freely reduced word.

power_decompose takes the longest-common-prefix pair of splice points
without trying any other, and checks its result on every call: the
growth formula, both seams and the core.  Why the greedy pair is the
splice is observed, not proved (see its docstring).  This script is
that observation: it decomposes every freely reduced word of length up
to --max-length and prints how many nontrivial ones it decomposed per
length.
A word whose decomposition fails the check ends the run with exit code
1 and is named, and a genus out of range ends it with exit code 1 and
the refusal on stderr.  A --max-length below 1, which would check no
word, is refused with exit code 2.
"""

import argparse
import sys

from surfgroup import (
    DomainError, GroupContext, VerificationError, format_word, power_decompose,
)


def freely_reduced(letters, length, w=()):
    """Every freely reduced word of the given length that extends w."""
    if len(w) == length:
        yield w
        return
    for x in letters:
        if not w or x != -w[-1]:
            yield from freely_reduced(letters, length, w + (x,))


def report(args) -> None:
    """Decompose every short word and print the count per length."""
    ctx = GroupContext(args.genus)
    print(f"genus {args.genus}, nontrivial freely reduced words of length <= {args.max_length}")
    print(f"{'length':>6} {'words':>9}")
    total = 0
    for length in range(1, args.max_length + 1):
        count = 0
        for w in freely_reduced(ctx.letters, length):
            try:
                pd = power_decompose(ctx, w)
            except VerificationError as exc:
                sys.exit(f"the greedy splice failed on {format_word(w)}: {exc}")
            count += bool(pd.word)
        print(f"{length:>6} {count:>9}")
        total += count
    print(f"total {total}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--max-length", type=int, default=5)
    args = parser.parse_args()
    if args.max_length < 1:
        parser.error("--max-length must be at least 1")
    try:
        report(args)
    except DomainError as exc:
        sys.exit(str(exc))


if __name__ == "__main__":
    main()
