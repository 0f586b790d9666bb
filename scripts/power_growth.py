"""Sample the stable growth rate tau over random elements.

For each sample x the script records tau(x) = |x^2| - |x|, confirms the
linear length formula up to a chosen exponent, and prints how tau
distributes against the input length.  A final line reports how many
samples were already cyclically irreducible (tau = |x|).
"""

import argparse
import random
from collections import Counter

from surfgroup import GroupContext, nf, power_decompose


def sample_word(ctx, max_length, rng):
    while True:
        w = []
        for _ in range(rng.randrange(1, max_length + 1)):
            x = rng.choice(ctx.letters)
            while w and x == -w[-1]:
                x = rng.choice(ctx.letters)
            w.append(x)
        if nf(ctx, tuple(w)):
            return tuple(w)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--max-length", type=int, default=20)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ctx = GroupContext(args.genus)
    rng = random.Random(args.seed)
    taus = Counter()
    already_core = 0
    for _ in range(args.samples):
        x = sample_word(ctx, args.max_length, rng)
        n1 = nf(ctx, x)
        pd = power_decompose(ctx, n1)
        tau = len(pd.core)
        taus[tau] += 1
        if pd.core == n1:
            already_core += 1
        for k in range(2, args.k_max + 1):
            expected = len(nf(ctx, x * 2)) + (k - 2) * tau
            actual = len(pd.assemble(k))
            if actual != expected:
                raise SystemExit(f"length formula broke at x={x}, k={k}")

    print(f"genus {args.genus}, {args.samples} samples, length <= {args.max_length}")
    print(f"{'tau':>5} {'count':>8}")
    for tau in sorted(taus):
        print(f"{tau:>5} {taus[tau]:>8}")
    mean = sum(t * c for t, c in taus.items()) / args.samples
    print(f"mean tau {mean:.2f}")
    print(f"cyclically irreducible inputs {already_core}/{args.samples}")


if __name__ == "__main__":
    main()
