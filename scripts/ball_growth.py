"""Count normal forms by radius and report the growth of the ball.

Prints one row per radius with the ball size, the sphere (new words at
that radius), and the ratio of consecutive sphere sizes, which settles
quickly toward the growth rate of the group.
"""

import argparse

from surfgroup import GroupContext, enumerate_ball


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

    ctx = GroupContext(args.genus)
    print(f"genus {args.genus}, radius up to {args.radius}")
    print(f"{'r':>3} {'ball':>10} {'sphere':>10} {'ratio':>8}")
    previous_ball = 0
    previous_sphere = None
    for r in range(args.radius + 1):
        ball = len(enumerate_ball(ctx, r, cap=args.cap))
        sphere = ball - previous_ball
        if previous_sphere:
            ratio = f"{sphere / previous_sphere:8.3f}"
        else:
            ratio = f"{'-':>8}"
        print(f"{r:>3} {ball:>10} {sphere:>10} {ratio}")
        previous_ball, previous_sphere = ball, sphere


if __name__ == "__main__":
    main()
