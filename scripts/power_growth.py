"""Sample the stable growth rate tau over random elements.

For each sample x the script records tau(x) = |x^2| - |x|, checks the
paper's length formula |x^k| = |x| + (k-1) tau(x) against a full
normalization of the k-fold word for every k up to a chosen exponent,
and prints how tau distributes against the input length.  A sample that
breaks the formula ends the run with exit code 1 and is named.  A final
line reports how many samples were already cyclically irreducible
(tau = |x|).  A genus out of range ends the run with exit code 1 and
the refusal on stderr; --samples, --max-length or --k-max below 1 is
refused with exit code 2 before any sample is drawn.
"""

import argparse
import random
import sys
from collections import Counter

from surfgroup import DomainError, GroupContext, format_word, nf, power_decompose


def sample(ctx, max_length, rng):
    """A random freely reduced word that is not trivial, and its
    decomposition."""
    while True:
        w = []
        for _ in range(rng.randrange(1, max_length + 1)):
            x = rng.choice(ctx.letters)
            while w and x == -w[-1]:
                x = rng.choice(ctx.letters)
            w.append(x)
        pd = power_decompose(ctx, tuple(w))
        if pd.word:
            return tuple(w), pd


def report(args) -> None:
    """Sample, check the length formula and print the tau table."""
    ctx = GroupContext(args.genus)
    rng = random.Random(args.seed)
    taus = Counter()
    already_core = 0
    for _ in range(args.samples):
        x, pd = sample(ctx, args.max_length, rng)
        tau = len(pd.core)
        taus[tau] += 1
        if pd.core == pd.word:
            already_core += 1
        for k in range(2, args.k_max + 1):
            if len(nf(ctx, x * k)) != len(pd.word) + (k - 1) * tau:
                sys.exit(f"length formula broke at x = {format_word(x)}, k = {k}")

    print(f"genus {args.genus}, {args.samples} samples, length <= {args.max_length}")
    print(f"{'tau':>5} {'count':>8}")
    for tau in sorted(taus):
        print(f"{tau:>5} {taus[tau]:>8}")
    mean = sum(t * c for t, c in taus.items()) / args.samples
    print(f"mean tau {mean:.2f}")
    print(f"cyclically irreducible inputs {already_core}/{args.samples}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--max-length", type=int, default=20)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.max_length < 1:
        parser.error("--max-length must be at least 1")
    if args.k_max < 1:
        parser.error("--k-max must be at least 1")
    try:
        report(args)
    except DomainError as exc:
        sys.exit(str(exc))


if __name__ == "__main__":
    main()
