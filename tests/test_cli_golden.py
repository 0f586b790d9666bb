"""Golden CLI transcript: the output of a fixed set of invocations.

Each case runs cli.main and records its argv, stdout, stderr and exit
code.  The committed transcript in data/cli_golden.txt must be
reproduced byte for byte, so any change to a normal form, a trace step,
a class representative, a conjugator or the output layout shows up
here.  Argparse usage and help texts are left out: their layout differs
between Python versions.  Regenerate the transcript (only when an output
change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

from surfgroup.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.txt"

# in argv, @name stands for the file data/name (also after file:)
CASES = [
    ["nf", "-g", "2", "--trace", "c1 c2 c3 c4 c4^-1 c1 c2 c3 c4"],
    ["nf", "-g", "2", "--trace", "--format", "json",
     "c4 c1^-1 c2^-1 c3^-1 c1^-1 c2^-1 c3^-1 c4^-1 c1 c2"],
    ["nf", "-g", "2", "--trace", "--file", "@golden_words_g2.txt"],
    ["nf", "-g", "2", "--trace", "--format", "json", "--file", "@golden_words_g2.txt"],
    ["nf", "-g", "3", "--trace", "--file", "@golden_words_g3.txt"],
    ["nf", "-g", "3", "--trace", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["class-nf", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["class-nf", "-g", "2", "--format", "json", "--file", "@golden_words_g2.txt"],
    ["class-nf", "-g", "3", "--file", "@golden_words_g3.txt"],
    ["class-nf", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["class-nf", "-g", "2", "c3 c4 c1^-1"],
    ["conj", "-g", "2", "--file", "@golden_pairs_g2.txt"],
    ["conj", "-g", "2", "--format", "json", "--file", "@golden_pairs_g2.txt"],
    ["conj", "-g", "3", "--file", "@golden_pairs_g3.txt"],
    ["conj", "-g", "3", "--format", "json", "--file", "@golden_pairs_g3.txt"],
    ["power", "-g", "2", "-k", "3", "--file", "@golden_words_g2.txt"],
    ["power", "-g", "2", "-k", "7", "--format", "json", "--file", "@golden_words_g2.txt"],
    ["power", "-g", "3", "-k", "5", "--file", "@golden_words_g3.txt"],
    ["power", "-g", "3", "-k", "2", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["root", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["root", "-g", "2", "--format", "json", "c1 c2 c1 c2 c1 c2"],
    ["root", "-g", "3", "--file", "@golden_words_g3.txt"],
    ["root", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
    # every other command, single and batch, text and JSON
    ["len", "-g", "2", "c1 c2 c3 c4 c1^-1"],
    ["len", "-g", "2", "--format", "json", "c1 c2 c3 c4 c1^-1"],
    ["len", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["len", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["tau", "-g", "2", "c3 c4 c1^-1"],
    ["tau", "-g", "2", "--format", "json", "c1 c2 c3 c4 c1^-1"],
    ["tau", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["tau", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["ci", "-g", "2", "c2 c1 c2 c3 c2^-1"],
    ["ci", "-g", "2", "--format", "json", "c2 c1 c2 c3 c2^-1"],
    ["ci", "-g", "2", "--file", "@golden_words_g2.txt"],
    ["ci", "-g", "3", "--format", "json", "--file", "@golden_words_g3.txt"],
    ["conj-power", "-g", "2", "c1 c2 c1 c2", "c3 c1 c2 c1 c2 c1 c2 c3^-1"],
    ["conj-power", "-g", "2", "--format", "json", "c1", "c2"],
    ["conj-power", "-g", "2", "--file", "@golden_pairs_g2.txt"],
    ["conj-power", "-g", "3", "--format", "json", "--file", "@golden_pairs_g3.txt"],
    ["rp", "-g", "2", "c1 c2 c3", "c4 c1"],
    ["rp", "-g", "2", "--format", "json", "c4 c3", "c2 c1"],
    ["rp", "-g", "2", "--file", "@golden_pairs_g2.txt"],
    ["rp", "-g", "3", "--format", "json", "--file", "@golden_pairs_g3.txt"],
    ["translate", "-g", "2", "a1 a2 A1 A2 a1"],
    ["translate", "-g", "2", "--format", "json", "--presentation", "symmetric", "c1 c2 c3"],
    ["translate", "-g", "2", "--presentation", "file:@golden_pres_g2.txt", "a1 a3 a3"],
    ["translate", "-g", "2", "--presentation", "canonical", "--file", "@golden_words_a2.txt"],
    ["translate", "-g", "2", "--presentation", "symmetric", "--format", "json",
     "--file", "@golden_words_g2.txt"],
    ["translate", "--presentation", "file:@golden_pres_g2.txt", "--file", "@golden_words_a2.txt"],
    ["translate", "--presentation", "file:@golden_pres_g2.txt", "--format", "json",
     "--file", "@golden_words_a2.txt"],
    ["check", "-g", "2", "a1 a2"],
    ["check", "-g", "2", "--format", "json", "--kmax", "5", "a1 a2 A1 a3"],
    ["check", "-g", "2", "--presentation", "symmetric", "--kmax", "2", "c1 c2 c3"],
    ["check", "--presentation", "file:@golden_pres_g2.txt", "--kmax", "4", "a2 a3 a4"],
    ["check", "-g", "2", "--presentation", "canonical", "--file", "@golden_words_a2.txt"],
    ["check", "-g", "2", "--presentation", "symmetric", "--format", "json",
     "--file", "@golden_words_g2.txt"],
    ["check", "--presentation", "file:@golden_pres_g2.txt", "--kmax", "4",
     "--file", "@golden_words_a2.txt"],
    ["oracle", "equal", "-g", "2", "c1 c2 c3 c4 c1^-1 c2^-1 c3^-1 c4^-1", "e"],
    ["oracle", "equal", "-g", "2", "--format", "json", "c1 c2", "c2 c1"],
    ["oracle", "equal", "-g", "2", "--file", "@golden_pairs_g2.txt"],
    ["oracle", "equal", "-g", "3", "--format", "json", "--file", "@golden_pairs_g3.txt"],
    ["oracle", "conj", "-g", "2", "c1 c2", "c2 c1"],
    ["oracle", "conj", "-g", "2", "--format", "json", "c1", "c2"],
    ["oracle", "conj", "-g", "2", "--file", "@golden_pairs_g2.txt"],
    ["oracle", "conj", "-g", "3", "--format", "json", "--file", "@golden_pairs_g3.txt"],
    ["oracle", "ball", "-g", "2", "--radius", "2"],
    ["oracle", "ball", "-g", "2", "--radius", "1", "--format", "json"],
    ["oracle", "ball", "-g", "3", "--radius", "3", "--count-only"],
    ["oracle", "ball", "-g", "2", "--radius", "2", "--count-only", "--format", "json"],
    # error paths
    ["nf", "-g", "2", "c1 c9"],
    ["nf", "-g", "2", "--format", "json", "c1 b2"],
    ["class-nf", "-g", "2", "e"],
    ["power", "-g", "2", "-k", "0", "c1"],
    ["rp", "-g", "2", "c1 c2 c3", "c3^-1 c2 c1"],
    ["oracle", "ball", "-g", "2", "--radius", "-1"],
    ["nf", "-g", "65", "c1"],
    ["oracle", "ball", "-g", "65", "--radius", "1"],
    ["nf", "-g", "65", "--file", "@golden_mixed_g2.txt"],
    ["conj", "-g", "65", "--format", "json", "--file", "@golden_mixed_g2.txt"],
    ["nf", "-g", "2", "--file", "@golden_mixed_g2.txt"],
    ["class-nf", "-g", "2", "--format", "json", "--file", "@golden_mixed_g2.txt"],
    ["conj", "-g", "2", "--file", "@golden_mixed_g2.txt"],
    ["nf", "--file", "missing/batch.txt"],
]


def _run(argv):
    resolved = []
    for a in argv:
        head, at, name = a.partition("@")
        resolved.append(head + str(DATA / name) if at else a)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def transcript() -> str:
    parts = []
    for argv in CASES:
        code, out, err = _run(argv)
        parts.append(f"$ surfgroup {shlex.join(argv)}\n{out}")
        if err:
            parts.append(f"[stderr]\n{err}")
        parts.append(f"[exit {code}]\n")
    return "".join(parts)


def test_cli_output_matches_the_golden_transcript():
    assert transcript().encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    GOLDEN.write_bytes(transcript().encode("utf-8"))
