"""Result hashes of one cycle of each benchmark workload.

    python3 scripts/result_hashes.py --seed 27001 [--workload W ...] [--tree DIR]

For each workload of bench/workloads.py (all of them by default), builds
the workload at the seed, runs each of its operations once, in order,
and prints the workload's name and the first 16 hex digits of the
sha256 of the repr of the list of results.  Two trees that print the
same hash for a workload at a seed gave the same answers on its cycle,
so a change that should leave every answer alone can be checked against
its parent by running this once on each tree.

The workloads and the package come from --tree, the checkout this script
sits in by default: its bench/ for the workloads and the inputs, its
src/ for surfgroup, imported as the benchmark imports it.  Nothing is
written there; the batch files of cli-batch go to a temporary directory.
An operation that raises is hashed as its exception's type and message,
named on stderr, and the run ends with exit code 1 after every hash is
printed.  A --tree with no bench/ or src/ is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def cycle_hash(workloads, import_surfgroup, name: str, seed: int) -> tuple:
    """(hash, failures) of one cycle of the named workload at the seed."""
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        sg = import_surfgroup()
        wl = workloads[name](sg, seed, workdir)
        wl.setup(sg)
        results = []
        for i, op in enumerate(wl.ops):
            try:
                results.append(wl.run(op))
            except Exception as exc:  # hashed and reported, and the cycle goes on
                results.append(("error", type(exc).__name__, str(exc)))
                failures.append(f"{name} operation {i} ({op.kind}): {type(exc).__name__}: {exc}")
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16], failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", default=[],
                        help="a workload to hash (repeatable; default: all)")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the checkout whose bench/ and src/ are run")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "bench" / "workloads.py").is_file() or not (tree / "src" / "surfgroup").is_dir():
        parser.error(f"--tree: no bench/workloads.py and src/surfgroup under {tree}")
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    from run import import_surfgroup
    from workloads import WORKLOADS

    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        parser.error(f"--workload {unknown[0]} is not one of {', '.join(sorted(WORKLOADS))}")
    failures = []
    for name in args.workload or sorted(WORKLOADS):
        digest, failed = cycle_hash(WORKLOADS, import_surfgroup, name, args.seed)
        print(f"{name} {digest}")
        failures += failed
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
