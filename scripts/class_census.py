"""Census of conjugacy classes among short elements.

Partitions every normal form of length up to the chosen radius into
conjugacy classes, then prints the class count per length of the class
representative, the largest classes, and how many classes carry the
exceptional (reversal) marker.  A genus or radius out of range, or a
ball over the cap of enumerate_ball, ends the run with exit code 1 and
the refusal on stderr; a negative --top is a usage error (exit 2).
"""

import argparse
import sys
from collections import Counter

from surfgroup import DomainError, GroupContext, class_nf, enumerate_ball, format_word


def report(args) -> None:
    """Partition the ball into classes and print the census."""
    ctx = GroupContext(args.genus)
    classes = {}
    exceptional = set()
    for w in enumerate_ball(ctx, args.radius):
        if not w:
            classes.setdefault((), []).append(w)
            continue
        cert = class_nf(ctx, w)
        classes.setdefault(cert.class_nf, []).append(w)
        if cert.exceptional:
            exceptional.add(cert.class_nf)

    by_length = Counter(len(rep) for rep in classes)
    print(f"genus {args.genus}, radius {args.radius}")
    print(f"{len(classes)} classes over {sum(map(len, classes.values()))} normal forms")
    print(f"{'|rep|':>6} {'classes':>8}")
    for length in sorted(by_length):
        print(f"{length:>6} {by_length[length]:>8}")
    print(f"exceptional classes {len(exceptional)}")

    print(f"largest {args.top}:")
    ranked = sorted(classes.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for rep, members in ranked[: args.top]:
        print(f"  {format_word(rep):<24} {len(members)} members")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--radius", type=int, default=4)
    parser.add_argument("--top", type=int, default=5, help="largest classes to show")
    args = parser.parse_args()
    if args.top < 0:
        parser.error("--top must be at least 0")
    try:
        report(args)
    except DomainError as exc:
        sys.exit(str(exc))


if __name__ == "__main__":
    main()
