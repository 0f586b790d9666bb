"""Count normal forms by radius and report the growth of the ball.

Enumerates the ball once, at the largest radius, and prints one row per
radius with the ball size, the sphere (new words at that radius), the
sphere size that Cannon's growth series predicts, and the ratio of
consecutive sphere sizes, which settles quickly toward the growth rate
of the group.  A ball over the cap, or a genus or radius out of range,
is refused before anything is enumerated, with exit code 1 and the
refusal on stderr.  A --cap below 1 is refused with exit code 2.
"""

import argparse
import sys
from collections import Counter

from surfgroup import DomainError, GroupContext, enumerate_ball
from surfgroup.rewrite import sphere_sizes


def report(args) -> None:
    """Enumerate the ball and print one row per radius."""
    ctx = GroupContext(args.genus)
    spheres = Counter(map(len, enumerate_ball(ctx, args.radius, cap=args.cap)))
    series = sphere_sizes(ctx, args.radius, args.cap)
    print(f"genus {args.genus}, radius up to {args.radius}")
    print(f"{'r':>3} {'ball':>10} {'sphere':>10} {'series':>10} {'ratio':>8}")
    ball = 0
    for r in range(args.radius + 1):
        sphere = spheres[r]
        ball += sphere
        ratio = f"{sphere / spheres[r - 1]:8.3f}" if r else f"{'-':>8}"
        print(f"{r:>3} {ball:>10} {sphere:>10} {series[r]:>10} {ratio}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--radius", type=int, default=5)
    parser.add_argument(
        "--cap",
        type=int,
        default=2_000_000,
        help="abort if the ball exceeds this many elements",
    )
    args = parser.parse_args()
    if args.cap < 1:
        parser.error("--cap must be at least 1")
    try:
        report(args)
    except DomainError as exc:
        sys.exit(str(exc))


if __name__ == "__main__":
    main()
